(* The anomaly that motivates the paper (§3): without compensation, a
   concurrent update corrupts the incremental answer. This example runs the
   *same* race twice — once under the naive no-compensation strategy, once
   under SWEEP — and prints the wrong and right views side by side.

   Run with: dune exec examples/concurrent_anomaly.exe *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_workload
open Repro_harness

let view = Chain.view ~n:3 ()

let initial () =
  [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]

(* The race: an insert at R3 starts a sweep; while its query to R1 is in
   flight, R1 loses its only tuple. The sweep's answer was evaluated on the
   *new* R1, but the warehouse will later process the delete too — without
   compensation the delete's effect is applied twice. *)
let updates =
  [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
    (3.5, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1)) ]

let run algorithm =
  Experiment.run_scripted ~algorithm ~view ~initial:(initial ()) ~updates ()

let () =
  let naive = run (module Naive : Algorithm.S) in
  let sweep = run (module Sweep : Algorithm.S) in
  (* ground truth: the view recomputed over the sources once every
     update has applied *)
  let truth =
    let rels = initial () in
    List.iter
      (fun (_, j, d) -> Result.get_ok (Relation.apply rels.(j) d))
      updates;
    Relation.as_bag (Algebra.eval view (Array.get rels))
  in
  Format.printf "the race (paper §3): ΔR3 sweep overlaps a delete at R1@.@.";
  Format.printf "ground truth final view:  %a@." Bag.pp truth;
  Format.printf "naive (no compensation):  %a@." Bag.pp
    (Node.view_contents naive.Experiment.node);
  Format.printf "sweep (local correction): %a@.@." Bag.pp
    (Node.view_contents sweep.Experiment.node);
  let vn = Experiment.check_scripted naive in
  let vs = Experiment.check_scripted sweep in
  Format.printf "checker: naive = %a, sweep = %a@." Checker.pp_verdict
    vn.Checker.verdict Checker.pp_verdict vs.Checker.verdict;
  Format.printf
    "@.Note the negative count in the naive view: the update's effect was \
     subtracted@.once by the interfered answer and again when the delete \
     itself was processed.@.SWEEP removed the error term locally (%d \
     compensation) and stayed exact.@."
    (Node.metrics sweep.Experiment.node).Metrics.compensations
