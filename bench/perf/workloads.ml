(* The four benchmark workloads. Each is a finite seeded update stream:
   arrivals follow a Poisson process in virtual time, while the wall
   clock runs the whole stream as one batch. Every workload stresses a
   different layer and bypasses at least one other, so an optimisation
   of one layer has a workload that should move and one that should
   not. Why each was chosen is in README.md. *)

open Repro_sim
open Repro_workload
open Repro_harness

type t = {
  name : string;
  algorithm : string;
  scenario : Scenario.t;  (** at scale 1, seed unset *)
  floor : Repro_consistency.Checker.verdict;
      (** Table 1 floor the algorithm must meet on a checked prefix *)
}

(* [domain] feeds both the initial data and the update stream, so the
   join fan-out (init_size / domain) holds for the whole run. *)
let scenario ~name ~n ~init ~domain ~updates ~gap =
  { Scenario.default with
    name; n_sources = n; init_size = init; domain;
    stream =
      { Update_gen.default with n_updates = updates; mean_gap = gap; domain } }

let horizon (s : Scenario.t) =
  float_of_int s.stream.Update_gen.n_updates *. s.stream.Update_gen.mean_gap

(* Two 40-unit warehouse outages at 1/3 and 2/3 of the horizon, over
   links that drop and duplicate 1% of frames. *)
let crash_faults (s : Scenario.t) =
  let h = horizon s in
  let outage at = { Fault.wh_down_at = at; wh_up_at = at +. 40. } in
  { Fault.link = Fault.lossy ~drop:0.01 ~duplicate:0.01 ();
    crashes = []; wh_crashes = [ outage (h /. 3.); outage (2. *. h /. 3.) ] }

let all =
  let open Repro_consistency.Checker in
  [ { name = "recompute-full"; algorithm = "recompute"; floor = Convergent;
      scenario =
        scenario ~name:"recompute-full" ~n:4 ~init:500 ~domain:500
          ~updates:1100 ~gap:8. };
    { name = "sweep-fanout"; algorithm = "sweep"; floor = Complete;
      scenario =
        scenario ~name:"sweep-fanout" ~n:3 ~init:2000 ~domain:250
          ~updates:6000 ~gap:8. };
    { name = "batched-backlog"; algorithm = "sweep-batched"; floor = Complete;
      scenario =
        { (scenario ~name:"batched-backlog" ~n:4 ~init:2000 ~domain:2000
             ~updates:20000 ~gap:0.2)
          with queue_capacity = Some 256 } };
    { name = "nested-crash-reads"; algorithm = "nested-sweep"; floor = Strong;
      scenario =
        (let s =
           scenario ~name:"nested-crash-reads" ~n:4 ~init:2000 ~domain:2000
             ~updates:8000 ~gap:8.
         in
         { s with
           faults = crash_faults s; checkpoint_every = 32; read_rate = 0.25;
           staleness_slo = 32. }) } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [s] with [n_updates] updates, fault windows re-placed on the new
   horizon. *)
let resize (s : Scenario.t) ~n_updates =
  let s = { s with stream = { s.stream with n_updates } } in
  if s.faults.Fault.wh_crashes = [] then s else { s with faults = crash_faults s }

(* The workload at [seed], its update count scaled by [scale] (at least
   one update). Scaling keeps the data shape and so the per-update
   cost. *)
let instance w ~seed ~scale =
  let s = w.scenario in
  let n_updates =
    max 1 (int_of_float (Float.round (float_of_int s.stream.n_updates *. scale)))
  in
  resize { s with seed } ~n_updates

(* The (at most) 300-update prefix the consistency checker grades. The
   checker keeps one view snapshot per install, so data whose initial
   view would exceed 10k tuples is shrunk by a power of two, keeping
   the join fan-out. *)
let check_instance w ~seed ~scale =
  let s = instance w ~seed ~scale in
  let fanout = float_of_int s.init_size /. float_of_int s.domain in
  let view_size k =
    float_of_int (s.init_size / k) *. (fanout ** float_of_int (s.n_sources - 1))
  in
  let rec shrink k = if view_size k > 10_000. then shrink (2 * k) else k in
  let k = shrink 1 in
  let domain = max 1 (s.domain / k) in
  resize
    { s with
      init_size = s.init_size / k; domain;
      stream = { s.stream with domain } }
    ~n_updates:(min 300 s.stream.n_updates)

let algorithm w =
  match Experiment.algorithm_by_name w.algorithm with
  | Some a -> a
  | None -> invalid_arg ("Workloads.algorithm: unknown " ^ w.algorithm)
