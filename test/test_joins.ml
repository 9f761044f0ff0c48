(* Indexed-leg suite (DESIGN.md §15).

   A delta join leg runs one way: [Base_table.extend] probes the
   persistent per-column indexes and falls back to the generic hash
   join only on a cross-product junction. The suite proves the leg
   bag-identical to the [Algebra.extend] reference over the edge cases
   (empty deltas, Null join columns, self-join-shaped specs, residuals)
   and randomized frontiers, then runs seeded storms over the
   sweep-family algorithms, including crash and outage schedules: each
   run must drain and meet its algorithm's Table 1 floor, which the
   checker decides by replaying every install against the same
   reference.

   It also pins the indexed-by-default contract: every run ends with
   [unindexed_scans = 0] — a probe that silently degraded to an O(n)
   scan fails the suite instead of costing 27×.

   Seed count comes from JOIN_SEEDS (default 5 so `dune runtest` stays
   fast; `make joins` raises it to 100). *)

open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
module Base_table = Repro_source.Base_table

let join_seeds = Rig.seeds_env ~var:"JOIN_SEEDS" ~default:5

(* ————— leg equivalence: Base_table.extend ≡ Algebra.extend ————— *)

let view3 = Chain.view ~n:3 ()

(* Execute one leg through the base table and demand the reference
   partial; every junction here has an equality, so no probe may scan. *)
let check_leg_equivalence ~ctx view partial ~source r_src =
  let tbl = Base_table.create ~source ~view r_src in
  Alcotest.(check bool) (ctx ^ ": probe ≡ reference") true
    (Partial.equal
       (Base_table.extend tbl view partial)
       (Algebra.extend view partial ~with_relation:(source, r_src)));
  Alcotest.(check int) (ctx ^ ": equality junction never scans") 0
    (Base_table.scan_count tbl)

let test_leg_edge_cases () =
  let r_src =
    Relation.of_list
      [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1); (Chain.tuple ~key:1 ~a:2 ~b:2, 2);
        (Chain.tuple ~key:2 ~a:3 ~b:1, 1) ]
  in
  (* empty delta frontier *)
  let empty = { Partial.lo = 1; hi = 1; data = Delta.empty () } in
  check_leg_equivalence ~ctx:"empty delta" view3 empty ~source:0 r_src;
  check_leg_equivalence ~ctx:"empty delta right" view3 empty ~source:2 r_src;
  (* Null join columns on both sides: Null keys group and match like any
     other value, in the index as in the reference *)
  let null_tuple k = [| Value.int k; Value.Null; Value.Null |] in
  let r_null =
    Relation.of_list [ (null_tuple 0, 1); (Chain.tuple ~key:1 ~a:1 ~b:1, 1) ]
  in
  let p_null =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (null_tuple 7, 1); (Chain.tuple ~key:8 ~a:1 ~b:1, 2) ] }
  in
  check_leg_equivalence ~ctx:"Null join columns" view3 p_null ~source:0 r_null;
  check_leg_equivalence ~ctx:"Null join columns right" view3 p_null ~source:2
    r_null;
  (* self-join-shaped spec: identical schemas joined on the same local
     column, plus a second equality and a residual on the junction *)
  let self =
    View_def.make ~name:"self" ~schemas:(Chain.schemas ~n:2)
      ~joins:
        [| Join_spec.make
             ~residual:(Predicate.cmp_const Predicate.Ge 0 (Value.int 0))
             [ (1, 4); (2, 5) ] |]
      ~projection:[| 0; 3 |] ()
  in
  let p_self =
    { Partial.lo = 1; hi = 1;
      data =
        Delta.of_list
          [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1);
            (Chain.tuple ~key:1 ~a:2 ~b:2, 1) ] }
  in
  let r_self =
    Relation.of_list
      [ (Chain.tuple ~key:5 ~a:1 ~b:2, 1); (Chain.tuple ~key:6 ~a:1 ~b:3, 1);
        (Chain.tuple ~key:7 ~a:2 ~b:2, 2) ]
  in
  check_leg_equivalence ~ctx:"self-join shape" self p_self ~source:0 r_self

(* Randomized leg equivalence: dense and sparse key overlap, deletions
   in the frontier (negative counts), multiplicities. *)
let check_leg_random seed =
  let rng = Repro_sim.Rng.create (Int64.of_int (7000 + seed)) in
  let rand_rel n domain =
    Relation.of_list
      (List.init n (fun k ->
           ( Chain.tuple ~key:k
               ~a:(Repro_sim.Rng.int rng domain)
               ~b:(Repro_sim.Rng.int rng domain),
             1 + Repro_sim.Rng.int rng 2 )))
  in
  let r_src = rand_rel (8 + Repro_sim.Rng.int rng 20) 5 in
  let frontier =
    Delta.of_list
      (List.init
         (1 + Repro_sim.Rng.int rng 4)
         (fun k ->
           ( Chain.tuple ~key:(100 + k)
               ~a:(Repro_sim.Rng.int rng 5)
               ~b:(Repro_sim.Rng.int rng 5),
             if Repro_sim.Rng.bool rng 0.3 then -1 else 1 )))
  in
  let partial = { Partial.lo = 1; hi = 1; data = frontier } in
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d left leg" seed)
    view3 partial ~source:0 r_src;
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d right leg" seed)
    view3 partial ~source:2 r_src

let leg_random_case () = Rig.for_seeds join_seeds check_leg_random

(* ————— end-to-end: seeded storms over the indexed legs ————— *)

let base_scenario seed =
  { Scenario.default with
    Scenario.name = "join-diff";
    n_sources = 4;
    init_size = 12;
    domain = 6;
    stream =
      { Update_gen.default with Update_gen.n_updates = 40; mean_gap = 0.7 };
    seed = Int64.of_int seed }

let crashy sc =
  { sc with
    Scenario.name = "join-crash";
    faults =
      { Fault.link = Fault.lossy ~drop:0.05 ~duplicate:0.05 ();
        crashes = [];
        wh_crashes =
          [ { Fault.wh_down_at = 6.; wh_up_at = 14. };
            { Fault.wh_down_at = 22.; wh_up_at = 30. } ] } }

let outage sc =
  { sc with
    Scenario.name = "join-outage";
    deadline = Some 8.;
    breaker_k = 3;
    probe_limit = 0;
    stall_cap = 64;
    faults =
      { Fault.link = Fault.lossy ~drop:0.1 ~duplicate:0.05 ();
        crashes = [ { Fault.source = 1; down_at = 8.; up_at = 20. } ];
        wh_crashes = [] } }

(* Run [sc] once: it must drain, meet [floor] (the algorithm's Table 1
   level) and never degrade a probe to an unindexed scan. *)
let check_storm ~tag ~floor algo sc =
  let r = Experiment.run sc algo in
  Alcotest.(check bool) (tag ^ ": drains") true r.Experiment.completed;
  let v = r.Experiment.verdict in
  if Checker.compare_verdict v.Checker.verdict floor > 0 then
    Alcotest.failf "%s: wanted ≥%s, got %s (%s)" tag
      (Checker.verdict_to_string floor)
      (Checker.verdict_to_string v.Checker.verdict)
      v.Checker.detail;
  Alcotest.(check int) (tag ^ ": no probe degraded to a scan") 0
    r.Experiment.metrics.Metrics.unindexed_scans

let check_storms ~tag ~floor algo seed =
  let sc = base_scenario seed in
  let storm sub ~floor sc =
    check_storm ~tag:(Printf.sprintf "%s seed %d%s" tag seed sub) ~floor algo
      sc
  in
  storm "" ~floor sc;
  storm " crash" ~floor (crashy sc);
  (* §12 degraded mode replays parked updates out of delivery order, so
     under a source outage the SWEEP family's floor is Strong *)
  storm " outage"
    ~floor:(if floor = Checker.Complete then Checker.Strong else floor)
    (outage sc)

let storm_case ~tag ~floor algo () =
  Rig.for_seeds join_seeds (check_storms ~tag ~floor algo)

(* ————— indexed-by-default: presets never scan ————— *)

let test_presets_never_scan () =
  List.iter
    (fun preset ->
      let sc = Option.get (Scenario.find_preset preset) in
      let algo = Option.get (Experiment.algorithm_by_name "sweep") in
      let r = Experiment.run sc algo in
      Alcotest.(check int)
        (Printf.sprintf "%s: indexed legs never scan" preset)
        0 r.Experiment.metrics.Metrics.unindexed_scans;
      (* ECA's centralized site runs its legs through the same
         Base_table.extend *)
      if preset = "centralized" then begin
        let eca = Option.get (Experiment.algorithm_by_name "eca") in
        let r = Experiment.run sc eca in
        Alcotest.(check int) "centralized eca: never scans" 0
          r.Experiment.metrics.Metrics.unindexed_scans
      end)
    [ "sequential"; "concurrent"; "centralized"; "self-maint" ]

let suite =
  [ Alcotest.test_case "leg equivalence: edge cases" `Quick
      test_leg_edge_cases;
    Alcotest.test_case "leg equivalence: randomized" `Slow leg_random_case;
    Alcotest.test_case "presets: probes never scan" `Slow
      test_presets_never_scan;
    (* "differential": the checker replays every install of a storm
       against the Algebra reference *)
    Alcotest.test_case "differential: sweep" `Slow
      (storm_case ~tag:"sweep" ~floor:Checker.Complete
         (module Sweep : Algorithm.S));
    Alcotest.test_case "differential: sweep-batched" `Slow
      (storm_case ~tag:"sweep-batched" ~floor:Checker.Complete
         (module Sweep_batched : Algorithm.S));
    Alcotest.test_case "differential: nested-sweep" `Slow
      (storm_case ~tag:"nested-sweep" ~floor:Checker.Strong
         (module Nested_sweep : Algorithm.S));
    Alcotest.test_case "differential: strobe" `Slow
      (storm_case ~tag:"strobe" ~floor:Checker.Strong
         (module Strobe : Algorithm.S)) ]
