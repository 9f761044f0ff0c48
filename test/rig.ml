(* Test rig: thin wrapper over the harness's scripted runner plus alcotest
   testables shared by the suites. *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_harness

type outcome = Experiment.scripted_outcome = {
  node : Node.t;
  view : View_def.t;
  initial_sources : Relation.t array;
  trace : Repro_sim.Trace.t;
  engine : Repro_sim.Engine.t;
}

let scripted ?latency ?(algorithm = (module Sweep : Algorithm.S)) ?seed ~view
    ~initial ~updates () =
  Experiment.run_scripted ?latency ?seed ~algorithm ~view ~initial ~updates ()

let check = Experiment.check_scripted

(* Alcotest testables. *)
let bag = Alcotest.testable Bag.pp Bag.equal
let delta = Alcotest.testable Delta.pp Delta.equal
let relation = Alcotest.testable Relation.pp Relation.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal
let value = Alcotest.testable Value.pp Value.equal

(* The matches a streaming probe calls back with, as a list. *)
let matches probe =
  let acc = ref [] in
  probe (fun tup c -> acc := (tup, c) :: !acc);
  !acc

(* Junction by junction, the same indexes: the same entries under the
   same key columns, and one index serving both junctions exactly when
   [b]'s does. *)
let indexes_equal (a : Algebra.indexes) (b : Algebra.indexes) =
  let same x y =
    match (x, y) with
    | None, None -> true
    | Some x, Some y -> Algebra.equal_index x y
    | Some _, None | None, Some _ -> false
  in
  let shared (ix : Algebra.indexes) =
    match (ix.lower, ix.upper) with Some l, Some u -> l == u | _ -> false
  in
  same a.lower b.lower && same a.upper b.upper && shared a = shared b

let verdict =
  Alcotest.testable Checker.pp_verdict (fun a b ->
      Checker.compare_verdict a b = 0)

let final_view outcome = Node.view_contents outcome.node

(* A hand-built history of view snapshots as a checker observation: each
   install's delta is its snapshot minus the one before, starting from
   the initial view [v0]. *)
let history ~initial ~v0 ~deliveries snapshots final_view =
  let prev = ref v0 in
  let installs =
    List.map
      (fun (txns, snap) ->
        let delta = Bag.copy snap in
        Bag.diff_into ~into:delta !prev;
        prev := snap;
        (txns, delta))
      snapshots
  in
  { Checker.initial_sources = initial; deliveries; initial_view = v0;
    installs; final_view }

(* ————— seeded storm scaffolding ————— *)

(* The seeded property suites (chaos, serving, aux) share one shape: an
   env-scaled seed count, a loop over seeds, and a deterministic-replay
   core. Factored here so a new suite is the invariants, not the rig. *)

(* Seed count for an env-scaled suite: $VAR if set and parseable
   (clamped to >= 1), else [default] — `dune runtest` stays fast while
   `make chaos` / `make serve` / `make aux` raise the count. *)
let seeds_env ~var ~default =
  match Sys.getenv_opt var with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> max 1 n
      | None -> default)
  | None -> default

(* Run [f seed] for [n] seeds starting at [from] (default 1, the storm
   suites' convention; the recovery fuzzers start at 0). *)
let for_seeds ?(from = 1) n f =
  for seed = from to from + n - 1 do
    f seed
  done

(* Deterministic-replay core: two runs of the same seeded scenario must
   agree bit-for-bit on the final view and tick-for-tick on the
   simulation. Suites layer their own equalities on top (breaker trips,
   read logs, WAL counters, aux snapshots). [ctx] prefixes the check
   names, e.g. "sweep seed 3". *)
let check_replay ~ctx (a : Experiment.result) (b : Experiment.result) =
  Alcotest.check bag (ctx ^ ": replay is bit-identical")
    a.Experiment.final_view b.Experiment.final_view;
  Alcotest.(check int) (ctx ^ ": replay: same events") a.Experiment.events
    b.Experiment.events;
  Alcotest.(check (float 0.)) (ctx ^ ": replay: same sim time")
    a.Experiment.sim_time b.Experiment.sim_time
