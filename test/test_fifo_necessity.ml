(* The paper's §2 assumes channels are reliable and FIFO, and §4's exact
   interference detection depends on it. This suite *breaks* the
   assumption on purpose — routing a source's update notices over a
   different (slower) channel than its query answers — and shows SWEEP
   then mis-detects interference and corrupts the view. A positive control
   with a single FIFO channel on the identical race stays exact. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_source
open Repro_warehouse
open Repro_consistency
open Repro_workload

let view = Chain.view ~n:3 ()

let initial () =
  [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]

(* Wire a 3-source warehouse where [split_notices] controls whether source
   0's notices share the FIFO channel with its answers (the paper's model)
   or travel on their own slow channel (broken model). *)
let run ~split_notices =
  let engine = Engine.create ~seed:3L () in
  let rng = Engine.rng engine in
  let trace = Trace.create () in
  let inits = initial () in
  let initial_copy = Array.map Relation.copy inits in
  let initial_view = Algebra.eval view (fun i -> inits.(i)) in
  let node = ref None in
  let deliver msg = Node.deliver (Option.get !node) msg in
  let fast = Latency.Fixed 1.0 in
  let slow = Latency.Fixed 3.0 in
  let up =
    Array.init 3 (fun _ ->
        Channel.create engine ~latency:fast ~rng:(Rng.split rng) ~deliver)
  in
  (* the rogue channel: source 0's notices, delivered with extra delay *)
  let rogue =
    Channel.create engine ~latency:slow ~rng:(Rng.split rng) ~deliver
  in
  let send_for i msg =
    match msg with
    | Message.Update_notice _ when split_notices && i = 0 ->
        Channel.send rogue msg
    | _ -> Channel.send up.(i) msg
  in
  let sources =
    Array.init 3 (fun i ->
        Source_node.create engine ~view ~id:i ~init:inits.(i)
          ~send:(send_for i) ~trace)
  in
  let down =
    Array.init 3 (fun i ->
        Channel.create engine ~latency:fast ~rng:(Rng.split rng)
          ~deliver:(fun m -> Source_node.handle sources.(i) m))
  in
  let warehouse =
    Node.create engine ~view ~algorithm:(module Sweep : Algorithm.S)
      ~send:(fun i msg -> Channel.send down.(i) msg)
      ~init:initial_view ~trace ()
  in
  node := Some warehouse;
  (* The race: an insert at source 2 sweeps left; source 0 deletes its
     tuple just before the sweep's query is evaluated there. With FIFO the
     notice must beat the answer; on the slow rogue channel it arrives
     *after*, so the warehouse believes the update did not interfere. *)
  Engine.at engine ~time:0.0 (fun () ->
      ignore
        (Source_node.local_update sources.(2)
           (Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9))));
  Engine.at engine ~time:3.5 (fun () ->
      ignore
        (Source_node.local_update sources.(0)
           (Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1))));
  (match Engine.run engine with `Drained -> () | _ -> assert false);
  let verdict =
    Checker.check view
      (Repro_harness.Experiment.observation ~initial_sources:initial_copy
         warehouse)
  in
  verdict.Checker.verdict

let test_fifo_upholds_sweep () =
  Alcotest.check Rig.verdict "with FIFO: complete" Checker.Complete
    (run ~split_notices:false)

let test_broken_fifo_breaks_sweep () =
  let v = run ~split_notices:true in
  Alcotest.(check bool)
    (Printf.sprintf "without FIFO sweep degrades (got %s)"
       (Checker.verdict_to_string v))
    true
    (Checker.compare_verdict v Checker.Complete > 0)

let suite =
  [ Alcotest.test_case "FIFO channels: sweep exact" `Quick
      test_fifo_upholds_sweep;
    Alcotest.test_case "broken FIFO: sweep mis-detects interference" `Quick
      test_broken_fifo_breaks_sweep ]

(* The other half of §2's channel assumption: *reliability*. With lossy
   channels SWEEP wedges — a lost answer leaves the ViewChange waiting
   forever, and the warehouse never quiesces. *)
let test_lossy_channel_wedges_sweep () =
  let engine = Engine.create ~seed:11L () in
  let rng = Engine.rng engine in
  let inits = initial () in
  let node = ref None in
  let deliver msg = Node.deliver (Option.get !node) msg in
  let up =
    Array.init 3 (fun _ ->
        Channel.create engine ~latency:(Latency.Fixed 1.0)
          ~rng:(Rng.split rng) ~deliver)
  in
  let sources =
    Array.init 3 (fun i ->
        Source_node.create engine ~view ~id:i ~init:inits.(i)
          ~send:(fun m -> Channel.send up.(i) m)
          ~trace:(Trace.create ()))
  in
  (* every second query/answer hop loses messages *)
  let down =
    Array.init 3 (fun i ->
        Channel.create ~lossy:true ~drop:0.5 engine
          ~latency:(Latency.Fixed 1.0) ~rng:(Rng.split rng)
          ~deliver:(fun m -> Source_node.handle sources.(i) m))
  in
  let warehouse =
    Node.create engine ~view ~algorithm:(module Sweep : Algorithm.S)
      ~send:(fun i msg -> Channel.send down.(i) msg)
      ~init:(Algebra.eval view (fun i -> inits.(i)))
      ()
  in
  node := Some warehouse;
  for k = 0 to 9 do
    Engine.at engine
      ~time:(float_of_int k)
      (fun () ->
        ignore
          (Source_node.local_update sources.(1)
             (Delta.insertion (Chain.tuple ~key:(k + 1) ~a:1 ~b:2))))
  done;
  (match Engine.run engine with `Drained -> () | _ -> assert false);
  let lost = Array.fold_left (fun acc ch -> acc + Channel.dropped ch) 0 down in
  Alcotest.(check bool) "messages were lost" true (lost > 0);
  Alcotest.(check bool) "warehouse wedged (never quiesces)" false
    (Node.idle warehouse);
  Alcotest.(check bool) "updates stranded" true
    ((Node.metrics warehouse).Metrics.updates_incorporated < 10)

(* Positive control for the wedge: the identical lossy query path, but
   routed over the reliable transport — retransmission restores the
   exactly-once FIFO contract and SWEEP completes untouched. *)
let test_transport_unwedges_sweep () =
  let engine = Engine.create ~seed:11L () in
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
        Source_node.create engine ~view ~id:i ~init:inits.(i)
          ~send:(fun m -> Channel.send up.(i) m)
          ~trace:(Trace.create ()))
  in
  let down =
    Array.init 3 (fun i ->
        Transport.connect ~faults:(Fault.lossy ~drop:0.5 ()) engine
          ~latency:(Latency.Fixed 1.0) ~rng:(Rng.split rng)
          ~deliver:(fun m -> Source_node.handle sources.(i) m)
          ())
  in
  let warehouse =
    Node.create engine ~view ~algorithm:(module Sweep : Algorithm.S)
      ~send:(fun i msg -> Transport.link_send down.(i) msg)
      ~init:(Algebra.eval view (fun i -> inits.(i)))
      ()
  in
  node := Some warehouse;
  for k = 0 to 9 do
    Engine.at engine
      ~time:(float_of_int k)
      (fun () ->
        ignore
          (Source_node.local_update sources.(1)
             (Delta.insertion (Chain.tuple ~key:(k + 1) ~a:1 ~b:2))))
  done;
  (match Engine.run engine with `Drained -> () | _ -> assert false);
  let lost =
    Array.fold_left (fun acc l -> acc + Transport.link_frames_lost l) 0 down
  in
  Alcotest.(check bool) "frames were lost" true (lost > 0);
  Alcotest.(check bool) "warehouse quiesces" true (Node.idle warehouse);
  Alcotest.(check int) "all updates incorporated" 10
    (Node.metrics warehouse).Metrics.updates_incorporated;
  let verdict =
    Checker.check view
      (Repro_harness.Experiment.observation ~initial_sources:initial_copy
         warehouse)
  in
  Alcotest.check Rig.verdict "still complete" Checker.Complete
    verdict.Checker.verdict

let suite =
  suite
  @ [ Alcotest.test_case "lossy channels wedge the protocol" `Quick
        test_lossy_channel_wedges_sweep;
      Alcotest.test_case "transport un-wedges the same lossy run" `Quick
        test_transport_unwedges_sweep ]
