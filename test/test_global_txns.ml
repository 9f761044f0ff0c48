(* Type-3 (multi-source) transactions and the Global SWEEP variant:
   installs must never expose part of a global transaction without the
   rest, while plain streams keep SWEEP's complete consistency. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_warehouse
open Repro_consistency
open Repro_workload
open Repro_harness

let view = Chain.view ~n:3 ()

let initial () =
  [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]

(* A scripted run where two sources receive parts of one global txn. We
   wire manually to pass the global tag through local_update. *)
let run_with_global ~algorithm =
  let engine = Engine.create ~seed:5L () in
  let rng = Engine.rng engine in
  let inits = initial () in
  let initial_copy = Array.map Relation.copy inits in
  let node = ref None in
  let deliver msg = Node.deliver (Option.get !node) msg in
  let up =
    Array.init 3 (fun _ ->
        Channel.create engine ~latency:(Latency.Fixed 1.0)
          ~rng:(Rng.split rng) ~deliver)
  in
  let sources =
    Array.init 3 (fun i ->
        Repro_source.Source_node.create engine ~view ~id:i ~init:inits.(i)
          ~send:(fun m -> Channel.send up.(i) m)
          ~trace:(Trace.create ()))
  in
  let down =
    Array.init 3 (fun i ->
        Channel.create engine ~latency:(Latency.Fixed 1.0)
          ~rng:(Rng.split rng)
          ~deliver:(fun m -> Repro_source.Source_node.handle sources.(i) m))
  in
  let warehouse =
    Node.create engine ~view ~algorithm
      ~send:(fun i msg -> Channel.send down.(i) msg)
      ~init:(Algebra.eval view (fun i -> inits.(i)))
      ()
  in
  node := Some warehouse;
  let tag = { Message.gid = 0; parts = 2 } in
  (* an unrelated update first, then the two parts of the global txn with
     an interleaved unrelated update *)
  Engine.at engine ~time:0.0 (fun () ->
      ignore
        (Repro_source.Source_node.local_update sources.(1)
           (Delta.insertion (Chain.tuple ~key:1 ~a:1 ~b:2))));
  Engine.at engine ~time:0.3 (fun () ->
      ignore
        (Repro_source.Source_node.local_update ~global:tag sources.(0)
           (Delta.insertion (Chain.tuple ~key:1 ~a:9 ~b:1))));
  Engine.at engine ~time:0.4 (fun () ->
      ignore
        (Repro_source.Source_node.local_update sources.(2)
           (Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:8))));
  Engine.at engine ~time:0.5 (fun () ->
      ignore
        (Repro_source.Source_node.local_update ~global:tag sources.(2)
           (Delta.deletion (Chain.tuple ~key:0 ~a:2 ~b:3))));
  (match Engine.run engine with `Drained -> () | _ -> assert false);
  (warehouse, initial_copy)

let txn_set_of_installs warehouse =
  List.map (fun (r : Node.install_record) -> r.Node.txns)
    (Node.installs warehouse)

let test_atomic_installs () =
  let warehouse, initial_copy = run_with_global ~algorithm:(module Sweep_global : Algorithm.S) in
  (* gid 0's parts are u0.0 and u2.1: they must land in the same install *)
  let batches = txn_set_of_installs warehouse in
  let holds_part (batch : Message.txn_id list) (txn : Message.txn_id) =
    List.exists (fun t -> Message.compare_txn_id t txn = 0) batch
  in
  let p1 = { Message.source = 0; seq = 0 } in
  let p2 = { Message.source = 2; seq = 1 } in
  List.iter
    (fun batch ->
      if holds_part batch p1 <> holds_part batch p2 then
        Alcotest.fail "an install split the global transaction")
    batches;
  (* and the run is at least strong *)
  let verdict =
    Checker.check view
      (Experiment.observation ~initial_sources:initial_copy warehouse)
  in
  Alcotest.(check bool) "at least strong" true
    (Checker.compare_verdict verdict.Checker.verdict Checker.Strong <= 0)

let test_plain_sweep_splits () =
  (* ordinary SWEEP on the same schedule installs the parts separately —
     the view transiently exposes half the transaction *)
  let warehouse, _ = run_with_global ~algorithm:(module Sweep : Algorithm.S) in
  let batches = txn_set_of_installs warehouse in
  Alcotest.(check int) "one install per update" 4 (List.length batches);
  List.iter
    (fun batch -> Alcotest.(check int) "singleton installs" 1 (List.length batch))
    batches

let test_no_globals_is_sweep () =
  let sc =
    { Scenario.default with
      n_sources = 3;
      init_size = 15;
      domain = 15;
      stream = { Update_gen.default with n_updates = 40; mean_gap = 0.5 };
      seed = 3L }
  in
  let g = Experiment.run sc (module Sweep_global : Algorithm.S) in
  let s = Experiment.run sc (module Sweep : Algorithm.S) in
  Alcotest.check Rig.verdict "complete without globals" Checker.Complete
    g.Experiment.verdict.Checker.verdict;
  Alcotest.(check int) "same messages"
    s.Experiment.metrics.Metrics.queries_sent
    g.Experiment.metrics.Metrics.queries_sent;
  Alcotest.(check int) "same installs"
    s.Experiment.metrics.Metrics.installs g.Experiment.metrics.Metrics.installs

let qcheck_global_streams_strong_and_atomic =
  QCheck.Test.make ~name:"global sweep: strong + atomic on random streams"
    ~count:10
    (QCheck.pair (QCheck.int_range 2 4) (QCheck.int_range 1 10_000))
    (fun (n, seed) ->
      let sc =
        { Scenario.default with
          n_sources = n;
          init_size = 15;
          domain = 15;
          stream =
            { Update_gen.default with
              n_updates = 30; mean_gap = 0.5; p_global = 0.3 };
          seed = Int64.of_int seed }
      in
      let r = Experiment.run sc (module Sweep_global : Algorithm.S) in
      Checker.compare_verdict r.Experiment.verdict.Checker.verdict
        Checker.Strong
      <= 0)

let suite =
  [ Alcotest.test_case "global txn installed atomically" `Quick
      test_atomic_installs;
    Alcotest.test_case "plain sweep splits the txn" `Quick
      test_plain_sweep_splits;
    Alcotest.test_case "without globals = sweep" `Quick test_no_globals_is_sweep;
    QCheck_alcotest.to_alcotest qcheck_global_streams_strong_and_atomic ]
