(* Batched SWEEP: amortized sweeps over coalesced batches of queued
   updates. The batch install must be *completely* consistent (it covers
   exactly the next deliveries, in delivery order), degenerate to plain
   SWEEP at batch_max = 1, survive faults and warehouse crashes, and
   actually amortize messages under bursty load. *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
open Repro_sim

let view = Chain.view ~n:3 ()

let initial () =
  [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]

(* A burst: while the first update's sweep is in flight, three more queue
   up; the head-of-queue drain must coalesce them into one batched sweep
   and install once, and the checker must grade the history complete. *)
let test_scripted_burst_batches () =
  let outcome =
    Rig.scripted ~algorithm:(module Sweep_batched : Algorithm.S) ~view
      ~initial:(initial ())
      ~updates:
        [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
          (0.4, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1));
          (0.6, 1, Delta.insertion (Chain.tuple ~key:1 ~a:9 ~b:2));
          (0.8, 0, Delta.insertion (Chain.tuple ~key:1 ~a:0 ~b:1)) ]
      ()
  in
  let m = Node.metrics outcome.node in
  Alcotest.(check int) "all updates incorporated" 4
    m.Metrics.updates_incorporated;
  Alcotest.(check bool) "fewer installs than updates" true
    (m.Metrics.installs < 4);
  Alcotest.(check bool) "a real batch formed" true (m.Metrics.max_batch >= 2);
  Alcotest.(check int) "one batch per install" m.Metrics.installs
    m.Metrics.batches;
  Alcotest.check Rig.verdict "complete" Checker.Complete
    (Rig.check outcome).Checker.verdict

(* SWEEP is the engine at batch_max = 1. These are plain SWEEP's counts
   on the concurrent scenario, recorded from the one-update-at-a-time
   engine that preceded the batched one: sweep and sweep-batched(k=1)
   must both reproduce them exactly. The digest is MD5 over the sorted
   final view as Bag.pp prints it. *)
let concurrent_scenario seed =
  { Scenario.default with
    Scenario.name = "batched-concurrent";
    n_sources = 4;
    init_size = 20;
    domain = 6;
    stream = { Update_gen.default with n_updates = 60; mean_gap = 0.3 };
    seed }

type pin = {
  compensations : int;
  sim_time : float;
  digest : string;
}

let sweep_pins =
  [ (3L, { compensations = 171; sim_time = 364.79905943493043;
           digest = "1ffc0106920402e5aaca54f880ece29f" });
    (4L, { compensations = 171; sim_time = 359.76106574905106;
           digest = "14ae7607e7ad321be8dabb155efc6fea" });
    (5L, { compensations = 158; sim_time = 354.78469925870036;
           digest = "010b6b4f8f3d6c7f535a169c85d50b7a" }) ]

let test_batch_max_one_is_sweep () =
  List.iter
    (fun (seed, pin) ->
      List.iter
        (fun algorithm ->
          let r = Experiment.run (concurrent_scenario seed) algorithm in
          let m = r.Experiment.metrics in
          let what = Printf.sprintf "%s seed %Ld" r.Experiment.algorithm seed in
          Alcotest.(check (list int)) (what ^ " queries, answers, installs, events")
            [ 180; 180; 60; 481 ]
            [ m.Metrics.queries_sent; m.Metrics.answers_received;
              m.Metrics.installs; r.Experiment.events ];
          Alcotest.(check int) (what ^ " compensations") pin.compensations
            m.Metrics.compensations;
          Alcotest.(check (float 0.)) (what ^ " sim time") pin.sim_time
            r.Experiment.sim_time;
          Alcotest.(check string) (what ^ " final view") pin.digest
            (Digest.to_hex
               (Digest.string
                  (Format.asprintf "%a" Bag.pp r.Experiment.final_view)));
          Alcotest.check Rig.verdict (what ^ " complete") Checker.Complete
            r.Experiment.verdict.Checker.verdict)
        [ (module Sweep : Algorithm.S); Sweep_batched.with_batch_max 1 ])
    sweep_pins

(* Batching changes the install granularity but never the data: the final
   view must be bit-identical to one-at-a-time SWEEP on the same seed. *)
let qcheck_batched_equals_sweep_final =
  QCheck.Test.make ~name:"batched ≡ sweep final views" ~count:15
    (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 1 10_000))
    (fun (batch_max, seed) ->
      let sc = concurrent_scenario (Int64.of_int seed) in
      let batched =
        Experiment.run sc (Sweep_batched.with_batch_max batch_max)
      in
      let sweep = Experiment.run sc (module Sweep : Algorithm.S) in
      batched.Experiment.completed
      && Bag.equal batched.Experiment.final_view sweep.Experiment.final_view
      && Checker.compare_verdict batched.Experiment.verdict.Checker.verdict
           Checker.Complete
         = 0)

(* The headline property (issue acceptance): on 100 seeded degraded
   networks — loss, duplication, one source outage — every run quiesces,
   incorporates every update, and still grades complete. *)
let n_updates = 20

let degraded_scenario seed =
  { Scenario.default with
    Scenario.name = "batched-degraded";
    init_size = 12;
    domain = 8;
    stream = { Update_gen.default with Update_gen.n_updates; mean_gap = 1.5 };
    faults =
      { Fault.link = Fault.lossy ~drop:0.2 ~duplicate:0.1 ();
        crashes = [ { Fault.source = 1; down_at = 8.; up_at = 25. } ];
        wh_crashes = [] };
    seed }

let test_complete_under_faults () =
  for seed = 0 to 99 do
    let sc = degraded_scenario (Int64.of_int seed) in
    let r = Experiment.run sc (module Sweep_batched : Algorithm.S) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d quiesces" seed)
      true r.Experiment.completed;
    Alcotest.(check int)
      (Printf.sprintf "seed %d all updates in" seed)
      n_updates r.Experiment.metrics.Metrics.updates_incorporated;
    Alcotest.check Rig.verdict
      (Printf.sprintf "seed %d complete" seed)
      Checker.Complete r.Experiment.verdict.Checker.verdict
  done

(* Crash recovery: mid-run warehouse outages (WAL + checkpoint restart,
   including a checkpointed in-flight batch) must not lose or double-count
   anything — final view bit-identical to the crash-free twin. *)
let crashy_scenario ?(wh_crashes = []) seed =
  { Scenario.default with
    Scenario.name = "batched-crashy";
    init_size = 12;
    domain = 8;
    stream = { Update_gen.default with Update_gen.n_updates; mean_gap = 1.5 };
    faults =
      { Fault.link = Fault.lossy ~drop:0.1 ~duplicate:0.05 (); crashes = [];
        wh_crashes };
    checkpoint_every = 4;
    seed }

let test_crash_recovery_round_trip () =
  for seed = 0 to 11 do
    let seed = Int64.of_int seed in
    let crashed =
      Experiment.run
        (crashy_scenario
           ~wh_crashes:
             [ { Fault.wh_down_at = 6.; wh_up_at = 14. };
               { Fault.wh_down_at = 22.; wh_up_at = 30. } ]
           seed)
        (module Sweep_batched : Algorithm.S)
    in
    let clean =
      Experiment.run (crashy_scenario seed)
        (module Sweep_batched : Algorithm.S)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld crashed run quiesces" seed)
      true crashed.Experiment.completed;
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld crash path exercised" seed)
      true
      (crashed.Experiment.metrics.Metrics.wh_crashes = 2);
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld final views bit-identical" seed)
      true
      (Bag.equal crashed.Experiment.final_view clean.Experiment.final_view);
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld at least strong" seed)
      true
      (Checker.compare_verdict crashed.Experiment.verdict.Checker.verdict
         Checker.Strong
      <= 0)
  done

(* Amortization: under bursty load the batched sweep must spend strictly
   fewer messages per update than plain SWEEP, with real batches (≥ 4)
   doing the amortizing. *)
let bursty_scenario seed =
  { Scenario.default with
    Scenario.name = "batched-bursty";
    n_sources = 4;
    init_size = 20;
    domain = 6;
    stream = { Update_gen.default with n_updates = 80; mean_gap = 0.1 };
    seed }

let test_messages_amortized () =
  let batched =
    Experiment.run (bursty_scenario 21L) (module Sweep_batched : Algorithm.S)
  in
  let sweep =
    Experiment.run (bursty_scenario 21L) (module Sweep : Algorithm.S)
  in
  let bm = batched.Experiment.metrics and sm = sweep.Experiment.metrics in
  Alcotest.(check bool) "batches of at least 4 formed" true
    (bm.Metrics.max_batch >= 4);
  Alcotest.(check bool)
    (Printf.sprintf "messages per update amortized (%.2f < %.2f)"
       (Metrics.messages_per_update bm)
       (Metrics.messages_per_update sm))
    true
    (Metrics.messages_per_update bm < Metrics.messages_per_update sm);
  Alcotest.check Rig.verdict "still complete" Checker.Complete
    batched.Experiment.verdict.Checker.verdict

let test_bad_batch_max_rejected () =
  Alcotest.(check bool) "batch_max = 0 rejected at create" true
    (match
       Rig.scripted ~algorithm:(Sweep_batched.with_batch_max 0) ~view
         ~initial:(initial ()) ~updates:[] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [ Alcotest.test_case "burst coalesces into a complete batch install"
      `Quick test_scripted_burst_batches;
    Alcotest.test_case "batch_max = 1 is plain SWEEP" `Slow
      test_batch_max_one_is_sweep;
    QCheck_alcotest.to_alcotest qcheck_batched_equals_sweep_final;
    Alcotest.test_case "complete on 100 degraded seeds" `Slow
      test_complete_under_faults;
    Alcotest.test_case "crash recovery round trip" `Slow
      test_crash_recovery_round_trip;
    Alcotest.test_case "amortizes messages under bursts" `Slow
      test_messages_amortized;
    Alcotest.test_case "rejects batch_max < 1" `Quick
      test_bad_batch_max_rejected ]
