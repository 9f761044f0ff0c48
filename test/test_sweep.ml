(* SWEEP-specific behaviour: sweep order, exact message counts, and the
   FIFO-based interference test of §4 — compensation fires exactly when an
   update really was applied before the query was evaluated. *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_workload

let test_sweep_order () =
  Alcotest.(check (list int)) "middle" [ 1; 0; 3; 4 ]
    (Sweep_order.order ~n:5 ~i:2);
  Alcotest.(check (list int)) "left end" [ 1; 2 ] (Sweep_order.order ~n:3 ~i:0);
  Alcotest.(check (list int)) "right end" [ 1; 0 ]
    (Sweep_order.order ~n:3 ~i:2);
  Alcotest.(check (list int)) "single source" [] (Sweep_order.order ~n:1 ~i:0)

(* A 3-source chain with hand-picked contents so every join matches. *)
let view = Chain.view ~n:3 ()

let initial () =
  [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]

(* With latency 1.0, an update at source 2 delivered at t=1 sweeps:
   query(1) 1→2 answered 2→3, query(0) 3→4 answered 4→5. *)
let interfering_update_time = 3.5 (* applied before eval at t=4 *)
let non_interfering_update_time = 4.5 (* applied after eval at t=4 *)

let scripted ~t0_update =
  Rig.scripted ~view ~initial:(initial ())
    ~updates:
      [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
        (t0_update, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1)) ]
    ()

let test_interference_detected () =
  let outcome = scripted ~t0_update:interfering_update_time in
  let m = Node.metrics outcome.node in
  Alcotest.(check int) "exactly one compensation" 1 m.Metrics.compensations;
  Alcotest.check Rig.verdict "still complete" Checker.Complete
    (Rig.check outcome).Checker.verdict

let test_non_interference_ignored () =
  let outcome = scripted ~t0_update:non_interfering_update_time in
  let m = Node.metrics outcome.node in
  (* §4: an update applied after the query was evaluated must NOT be
     compensated — doing so would corrupt a keyless view. *)
  Alcotest.(check int) "no compensation" 0 m.Metrics.compensations;
  Alcotest.check Rig.verdict "complete" Checker.Complete
    (Rig.check outcome).Checker.verdict

let test_exact_message_count () =
  (* (n−1) queries and (n−1) answers per update, regardless of
     concurrency. *)
  List.iter
    (fun n ->
      let sc =
        { Repro_harness.Scenario.default with
          n_sources = n;
          init_size = 10;
          stream =
            { Update_gen.default with n_updates = 20; mean_gap = 0.5 };
          seed = 17L }
      in
      let r = Repro_harness.Experiment.run sc (module Sweep : Algorithm.S) in
      Alcotest.(check int)
        (Printf.sprintf "queries for n=%d" n)
        (20 * (n - 1))
        r.Repro_harness.Experiment.metrics.Metrics.queries_sent;
      Alcotest.(check int)
        (Printf.sprintf "answers for n=%d" n)
        (20 * (n - 1))
        r.Repro_harness.Experiment.metrics.Metrics.answers_received;
      Alcotest.(check int)
        (Printf.sprintf "installs for n=%d" n)
        20 r.Repro_harness.Experiment.metrics.Metrics.installs)
    [ 2; 3; 5 ]

let test_single_source_no_messages () =
  (* n=1: the view is a projection of one relation; no queries needed. *)
  let v1 = Chain.view ~n:1 () in
  let outcome =
    Rig.scripted ~view:v1
      ~initial:[| Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ] |]
      ~updates:[ (0.0, 0, Delta.insertion (Chain.tuple ~key:1 ~a:3 ~b:4)) ]
      ()
  in
  let m = Node.metrics outcome.node in
  Alcotest.(check int) "no queries" 0 m.Metrics.queries_sent;
  Alcotest.(check int) "installed" 1 m.Metrics.installs;
  Alcotest.check Rig.verdict "complete" Checker.Complete
    (Rig.check outcome).Checker.verdict

let test_multiple_interfering_from_same_source_merged () =
  (* two updates from source 0 both interfere with one sweep: a single
     compensation must account for their sum *)
  let outcome =
    Rig.scripted ~view ~initial:(initial ())
      ~updates:
        [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
          (3.2, 0, Delta.insertion (Chain.tuple ~key:1 ~a:0 ~b:1));
          (3.4, 0, Delta.insertion (Chain.tuple ~key:2 ~a:9 ~b:1)) ]
      ()
  in
  let m = Node.metrics outcome.node in
  Alcotest.(check int) "one merged compensation" 1 m.Metrics.compensations;
  Alcotest.check Rig.verdict "complete" Checker.Complete
    (Rig.check outcome).Checker.verdict

let test_processing_order_is_delivery_order () =
  let outcome =
    Rig.scripted ~view ~initial:(initial ())
      ~updates:
        [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
          (0.1, 0, Delta.insertion (Chain.tuple ~key:1 ~a:5 ~b:1));
          (0.2, 1, Delta.insertion (Chain.tuple ~key:1 ~a:1 ~b:2)) ]
      ()
  in
  let installs = Node.installs outcome.node in
  let sources =
    List.concat_map
      (fun (r : Node.install_record) ->
        List.map (fun (t : Repro_protocol.Message.txn_id) -> t.source) r.txns)
      installs
  in
  Alcotest.(check (list int)) "installed in delivery order" [ 2; 0; 1 ]
    sources

(* Property: on random concurrent workloads SWEEP is always complete and
   always uses exactly (n-1) queries per update. *)
let qcheck_sweep_complete =
  QCheck.Test.make ~name:"sweep: complete + linear messages on random runs"
    ~count:12
    (QCheck.pair (QCheck.int_range 2 5) (QCheck.int_range 1 10_000))
    (fun (n, seed) ->
      let sc =
        { Repro_harness.Scenario.default with
          n_sources = n;
          init_size = 15;
          domain = 6;
          stream =
            { Update_gen.default with
              n_updates = 25; mean_gap = 0.4; p_insert = 0.55 };
          seed = Int64.of_int seed }
      in
      let r = Repro_harness.Experiment.run sc (module Sweep : Algorithm.S) in
      r.Repro_harness.Experiment.verdict.Checker.verdict = Checker.Complete
      && r.Repro_harness.Experiment.metrics.Metrics.queries_sent
         = 25 * (n - 1))

let suite =
  [ Alcotest.test_case "sweep order" `Quick test_sweep_order;
    Alcotest.test_case "interference detected (FIFO argument)" `Quick
      test_interference_detected;
    Alcotest.test_case "non-interference not compensated" `Quick
      test_non_interference_ignored;
    Alcotest.test_case "exact message counts" `Slow test_exact_message_count;
    Alcotest.test_case "single source: no messages" `Quick
      test_single_source_no_messages;
    Alcotest.test_case "same-source interferers merged" `Quick
      test_multiple_interfering_from_same_source_merged;
    Alcotest.test_case "delivery-order processing" `Quick
      test_processing_order_is_delivery_order;
    QCheck_alcotest.to_alcotest qcheck_sweep_complete ]
