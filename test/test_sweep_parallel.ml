(* The §5.3 parallel-sweep optimization: same messages, same complete
   consistency, shorter critical path; plus unit tests of the overlap
   merge it relies on. *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_workload
open Repro_harness

let view = Chain.view ~n:5 ()

let test_merge_overlap_basic () =
  let left =
    { Partial.lo = 0; hi = 1;
      data =
        Delta.of_list
          [ (Tuple.ints [ 1; 1; 2; 10; 2; 3 ], 2);
            (Tuple.ints [ 1; 1; 2; 11; 2; 4 ], 1) ] }
  in
  let right =
    { Partial.lo = 1; hi = 2;
      data =
        Delta.of_list
          [ (Tuple.ints [ 10; 2; 3; 5; 3; 9 ], 3);
            (Tuple.ints [ 12; 9; 9; 6; 9; 9 ], 1) ] }
  in
  let merged = Algebra.merge_overlap view ~at:1 ~left ~right in
  Alcotest.(check int) "range" 0 merged.Partial.lo;
  Alcotest.(check int) "range hi" 2 merged.Partial.hi;
  (* only the (10,2,3) slice matches; counts multiply 2·3 *)
  Alcotest.check Rig.delta "glued tuple"
    (Delta.of_list [ (Tuple.ints [ 1; 1; 2; 10; 2; 3; 5; 3; 9 ], 6) ])
    merged.Partial.data

let test_merge_overlap_requires_overlap () =
  let p1 = { Partial.lo = 0; hi = 1; data = Delta.empty () } in
  let p2 = { Partial.lo = 2; hi = 3; data = Delta.empty () } in
  Alcotest.(check bool) "disjoint rejected" true
    (match Algebra.merge_overlap view ~at:1 ~left:p1 ~right:p2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_merge_overlap_signs () =
  (* left carries the real count (−2); right the unit copy *)
  let left =
    { Partial.lo = 0; hi = 0; data = Delta.of_list [ (Tuple.ints [ 1; 2; 3 ], -2) ] }
  in
  let right =
    { Partial.lo = 0; hi = 1;
      data = Delta.of_list [ (Tuple.ints [ 1; 2; 3; 4; 3; 5 ], 1) ] }
  in
  let merged = Algebra.merge_overlap view ~at:0 ~left ~right in
  Alcotest.(check int) "sign preserved" (-2)
    (Delta.count merged.Partial.data (Tuple.ints [ 1; 2; 3; 4; 3; 5 ]))

let test_distinct () =
  let d = Delta.of_list [ (Tuple.ints [ 1 ], -3); (Tuple.ints [ 2 ], 2) ] in
  Alcotest.check Rig.delta "unit counts"
    (Delta.of_list [ (Tuple.ints [ 1 ], 1); (Tuple.ints [ 2 ], 1) ])
    (Delta.distinct d)

(* Parallel sweep must agree with sequential SWEEP on every install (equal
   deltas from the same initial view), and finish each ViewChange no
   later. *)
let agree_with_sweep ~updates ~initial =
  let run algorithm =
    Experiment.run_scripted ~algorithm ~view:(Chain.view ~n:3 ())
      ~initial:(initial ()) ~updates ()
  in
  let seq = run (module Sweep : Algorithm.S) in
  let par = run (module Sweep_parallel : Algorithm.S) in
  let deltas o =
    List.map
      (fun (r : Node.install_record) -> r.Node.delta)
      (Node.installs o.Experiment.node)
  in
  List.iter2
    (fun a b -> Alcotest.check Rig.delta "same install sequence" a b)
    (deltas seq) (deltas par);
  (seq, par)

let initial3 () =
  [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]

let test_agrees_sequential () =
  ignore
    (agree_with_sweep ~initial:initial3
       ~updates:
         [ (0.0, 1, Delta.insertion (Chain.tuple ~key:1 ~a:1 ~b:2));
           (50.0, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1));
           (100.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:7)) ]
       )

let test_agrees_under_interference () =
  let seq, par =
    agree_with_sweep ~initial:initial3
      ~updates:
        [ (0.0, 1, Delta.insertion (Chain.tuple ~key:1 ~a:1 ~b:2));
          (1.2, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1));
          (1.3, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:8)) ]
  in
  Alcotest.check Rig.verdict "parallel stays complete" Checker.Complete
    (Experiment.check_scripted par).Checker.verdict;
  Alcotest.(check int) "same message count"
    (Node.metrics seq.Experiment.node).Metrics.queries_sent
    (Node.metrics par.Experiment.node).Metrics.queries_sent

let test_shorter_critical_path () =
  (* an update in the middle of a 5-chain: sequential sweep = 4 round
     trips in series; parallel = 2 in each direction concurrently *)
  let view5 = Chain.view ~n:5 () in
  let initial () =
    Array.init 5 (fun i -> Relation.of_tuples [ Chain.tuple ~key:0 ~a:i ~b:(i + 1) ])
  in
  let updates = [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:3)) ] in
  let run algorithm =
    Experiment.run_scripted ~algorithm ~view:view5 ~initial:(initial ())
      ~updates ()
  in
  let seq = run (module Sweep : Algorithm.S) in
  let par = run (module Sweep_parallel : Algorithm.S) in
  let finish o = (Node.metrics o.Experiment.node).Metrics.staleness_max in
  Alcotest.(check bool)
    (Printf.sprintf "parallel finishes sooner (%.1f < %.1f)" (finish par)
       (finish seq))
    true
    (finish par < finish seq)

let qcheck_parallel_complete =
  QCheck.Test.make ~name:"parallel sweep: complete on random runs" ~count:12
    (QCheck.pair (QCheck.int_range 2 5) (QCheck.int_range 1 10_000))
    (fun (n, seed) ->
      let sc =
        { Scenario.default with
          n_sources = n;
          init_size = 15;
          domain = 6;
          stream =
            { Update_gen.default with
              n_updates = 25; mean_gap = 0.4; p_insert = 0.55 };
          seed = Int64.of_int seed }
      in
      let r = Experiment.run sc (module Sweep_parallel : Algorithm.S) in
      r.Experiment.verdict.Checker.verdict = Checker.Complete)

let suite =
  [ Alcotest.test_case "merge_overlap glues on the shared slice" `Quick
      test_merge_overlap_basic;
    Alcotest.test_case "merge_overlap rejects disjoint ranges" `Quick
      test_merge_overlap_requires_overlap;
    Alcotest.test_case "merge_overlap preserves signs" `Quick
      test_merge_overlap_signs;
    Alcotest.test_case "delta distinct" `Quick test_distinct;
    Alcotest.test_case "agrees with sweep (sequential)" `Quick
      test_agrees_sequential;
    Alcotest.test_case "agrees with sweep (interfering)" `Quick
      test_agrees_under_interference;
    Alcotest.test_case "shorter critical path" `Quick
      test_shorter_critical_path;
    QCheck_alcotest.to_alcotest qcheck_parallel_complete ]
