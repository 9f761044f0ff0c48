(* Serving-tier suite: the read path under load.

   Unit layers first (session-guarantee checker, read generator, the
   server's staleness accounting and admission control on a bare
   engine), then seeded read storms over five maintenance algorithms
   with four invariants per run:

     1. no blocked reads — every issued read ends Fresh, Stale or Shed;
     2. SLO honored — Fresh stamps are within the SLO, Stale stamps sit
        strictly between the SLO and the hard ceiling (8× SLO);
     3. determinism — the same seed replays a bit-identical read log;
     4. monotonic reads — no session ever observes the view regress.

   Also here: the flash-crowd × source-outage acceptance run, the
   degraded (open-breaker) run that must keep answering stale-but-
   stamped, and the zero-update read-only run (per-update ratios must
   emit 0, the checker must still grade).

   Seed count comes from SERVE_SEEDS (default 5; `make serve` raises
   it). *)

open Repro_sim
open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
open Repro_serving

let serve_seeds = Rig.seeds_env ~var:"SERVE_SEEDS" ~default:5

(* ————— session-guarantee checker ————— *)

let rv ?(session = 0) ?(issued_at = 0.) ~version ~incorporated ~acked () =
  { Checker.session; issued_at; version;
    incorporated = Array.of_list incorporated; acked = Array.of_list acked }

let test_sessions_empty () =
  let r = Checker.check_sessions ~n_sources:2 [] in
  Alcotest.(check int) "nothing graded" 0 r.Checker.reads_graded;
  Alcotest.(check bool) "MR holds vacuously" true r.Checker.monotonic_reads;
  Alcotest.(check bool) "RYW holds vacuously" true r.Checker.read_your_writes

let test_sessions_clean () =
  let reads =
    [ rv ~session:0 ~version:1 ~incorporated:[ 1; 0 ] ~acked:[ 1; 0 ] ();
      rv ~session:1 ~version:1 ~incorporated:[ 1; 0 ] ~acked:[ 0; 0 ] ();
      rv ~session:0 ~version:2 ~incorporated:[ 1; 1 ] ~acked:[ 1; 1 ] () ]
  in
  let r = Checker.check_sessions ~n_sources:2 reads in
  Alcotest.(check int) "three graded" 3 r.Checker.reads_graded;
  Alcotest.(check bool) "MR OK" true r.Checker.monotonic_reads;
  Alcotest.(check int) "no MR violations" 0 r.Checker.mr_violations;
  Alcotest.(check bool) "RYW OK" true r.Checker.read_your_writes;
  Alcotest.(check int) "no RYW violations" 0 r.Checker.ryw_violations

let test_sessions_mr_violation () =
  (* same session, version regresses between its two reads *)
  let reads =
    [ rv ~session:0 ~version:3 ~incorporated:[ 2; 1 ] ~acked:[ 2; 1 ] ();
      rv ~session:1 ~version:3 ~incorporated:[ 2; 1 ] ~acked:[ 2; 1 ] ();
      rv ~session:0 ~version:2 ~incorporated:[ 2; 1 ] ~acked:[ 2; 1 ] () ]
  in
  let r = Checker.check_sessions ~n_sources:2 reads in
  Alcotest.(check bool) "MR violated" false r.Checker.monotonic_reads;
  Alcotest.(check int) "one MR violation" 1 r.Checker.mr_violations;
  (* a per-source incorporated count regressing is also a regression,
     even at an equal version *)
  let reads =
    [ rv ~session:0 ~version:2 ~incorporated:[ 2; 1 ] ~acked:[ 2; 1 ] ();
      rv ~session:0 ~version:2 ~incorporated:[ 1; 2 ] ~acked:[ 2; 2 ] () ]
  in
  let r = Checker.check_sessions ~n_sources:2 reads in
  Alcotest.(check bool) "component regress violates MR" false
    r.Checker.monotonic_reads

let test_sessions_ryw_violation () =
  (* session 1 is pinned to source 1: its read must reflect source 1's
     acked writes — here 2 acked but only 1 incorporated *)
  let reads =
    [ rv ~session:1 ~version:1 ~incorporated:[ 0; 1 ] ~acked:[ 0; 2 ] () ]
  in
  let r = Checker.check_sessions ~n_sources:2 reads in
  Alcotest.(check bool) "RYW violated" false r.Checker.read_your_writes;
  Alcotest.(check int) "one RYW violation" 1 r.Checker.ryw_violations;
  (* another source lagging does NOT violate session 1's RYW *)
  let reads =
    [ rv ~session:1 ~version:1 ~incorporated:[ 0; 2 ] ~acked:[ 9; 2 ] () ]
  in
  let r = Checker.check_sessions ~n_sources:2 reads in
  Alcotest.(check bool) "other sources may lag" true r.Checker.read_your_writes

let test_sessions_invalid () =
  Alcotest.check_raises "bad n_sources"
    (Invalid_argument "Checker.check_sessions: n_sources < 1") (fun () ->
      ignore (Checker.check_sessions ~n_sources:0 []));
  let bad =
    [ rv ~session:5 ~version:0 ~incorporated:[ 0; 0 ] ~acked:[ 0; 0 ] () ]
  in
  Alcotest.(check bool) "session out of range raises" true
    (try
       ignore (Checker.check_sessions ~n_sources:2 bad);
       false
     with Invalid_argument _ -> true)

(* ————— read generator ————— *)

let test_reads_over () =
  Alcotest.(check int) "rate 2 over 10" 20
    (Read_gen.reads_over ~rate:2. ~burst:None ~horizon:10.);
  Alcotest.(check int) "burst excess included" 36
    (Read_gen.reads_over ~rate:2.
       ~burst:(Some { Read_gen.at = 3.; duration = 2.; multiplier = 5. })
       ~horizon:10.);
  Alcotest.(check int) "zero rate" 0
    (Read_gen.reads_over ~rate:0. ~burst:None ~horizon:10.)

let collect_arrivals ~seed cfg =
  let engine = Engine.create ~seed () in
  let rng = Rng.split (Engine.rng engine) in
  let log = ref [] in
  Read_gen.drive engine rng cfg ~n_sessions:3
    ~read:(fun ~session ~kind ->
      log := (Engine.now engine, session, kind) :: !log)
    ();
  (match Engine.run engine with `Drained -> () | _ -> assert false);
  List.rev !log

let test_read_gen_deterministic () =
  let cfg = { Read_gen.default with Read_gen.n_reads = 60 } in
  let a = collect_arrivals ~seed:3L cfg in
  let b = collect_arrivals ~seed:3L cfg in
  Alcotest.(check int) "exactly n_reads issued" 60 (List.length a);
  Alcotest.(check bool) "same seed, same arrivals" true (a = b);
  let c = collect_arrivals ~seed:4L cfg in
  Alcotest.(check bool) "different seed, different arrivals" true (a <> c)

let test_read_gen_burst_compresses () =
  let burst = { Read_gen.at = 10.; duration = 10.; multiplier = 8. } in
  let base = { Read_gen.default with Read_gen.rate = 1.0; n_reads = 80 } in
  let inside log =
    List.length
      (List.filter (fun (t, _, _) -> t >= 10. && t < 20.) log)
  in
  let flat = inside (collect_arrivals ~seed:9L base) in
  let crowd =
    inside (collect_arrivals ~seed:9L { base with Read_gen.burst = Some burst })
  in
  Alcotest.(check bool)
    (Printf.sprintf "burst window densifies (%d -> %d)" flat crowd)
    true
    (crowd > 2 * max 1 flat)

(* ————— server on a bare engine ————— *)

let obs = Repro_observability.Obs.disabled ()

let mk_server ?config engine ~view =
  Server.create ?config ~engine ~rng:(Rng.split (Engine.rng engine)) ~obs
    ~n_sources:2 ~view ()

let run_engine engine =
  match Engine.run engine with `Drained -> () | _ -> assert false

let test_staleness_monotone_across_heal () =
  let engine = Engine.create ~seed:1L () in
  let srv = mk_server engine ~view:(fun () -> Bag.create ()) in
  let samples = ref [] in
  let sample () = samples := Server.staleness srv :: !samples in
  Engine.at engine ~time:0. (fun () ->
      Server.note_delivery srv ~source:0 ~txn:0);
  List.iter (fun t -> Engine.at engine ~time:t sample) [ 1.; 4.; 9. ];
  (* the heal: maintenance catches up at t=12 *)
  Engine.at engine ~time:12. (fun () -> Server.note_install srv [ (0, 0) ]);
  Engine.at engine ~time:13. sample;
  run_engine engine;
  match List.rev !samples with
  | [ s1; s2; s3; s4 ] ->
      Alcotest.(check (float 1e-9)) "staleness = age of oldest pending" 1. s1;
      Alcotest.(check bool) "monotone while lagging" true (s1 < s2 && s2 < s3);
      Alcotest.(check (float 1e-9)) "zero after the heal" 0. s4
  | _ -> Alcotest.fail "expected four samples"

let test_duplicate_delivery_deduped () =
  let engine = Engine.create ~seed:1L () in
  let srv = mk_server engine ~view:(fun () -> Bag.create ()) in
  Engine.at engine ~time:0. (fun () ->
      (* a crash window re-acknowledges the same txn *)
      Server.note_delivery srv ~source:0 ~txn:7;
      Server.note_delivery srv ~source:0 ~txn:7);
  Engine.at engine ~time:5. (fun () -> Server.note_install srv [ (0, 7) ]);
  Engine.at engine ~time:6. (fun () ->
      Alcotest.(check (float 1e-9)) "single install clears the duplicate" 0.
        (Server.staleness srv));
  run_engine engine

(* The high-water mark takes a re-acknowledged txn for what it is when
   each source's txns arrive in seq order, as over the FIFO links: a
   seeded stream over two sources, where a crash window re-acknowledges
   a suffix of what a source already sent, counts each txn once (the
   [acked] a served read reports) and a single install of each clears
   staleness. *)
let test_high_water_dedups_fifo_reacks seed =
  let engine = Engine.create ~seed:1L () in
  let config = { Server.default_config with Server.read_cap = 1_000_000 } in
  let srv = mk_server ~config engine ~view:(fun () -> Bag.create ()) in
  let rng = Rng.create (Int64.of_int seed) in
  let next = [| 0; 0 |] in
  let distinct = ref [] in
  Engine.at engine ~time:0. (fun () ->
      for _ = 1 to 60 do
        let source = Rng.int rng 2 in
        if next.(source) > 0 && Rng.bool rng 0.2 then
          (* a crash window: the suffix from [from] is acknowledged again *)
          for txn = Rng.int rng next.(source) to next.(source) - 1 do
            Server.note_delivery srv ~source ~txn
          done
        else begin
          Server.note_delivery srv ~source ~txn:next.(source);
          distinct := (source, next.(source)) :: !distinct;
          next.(source) <- next.(source) + 1
        end;
        ignore (Server.read srv ~session:0 ~kind:Read_gen.Aggregate)
      done);
  Engine.at engine ~time:5. (fun () -> Server.note_install srv !distinct);
  Engine.at engine ~time:6. (fun () ->
      Alcotest.(check (float 0.)) "one install per txn clears staleness" 0.
        (Server.staleness srv));
  run_engine engine;
  List.iter
    (fun (r : Checker.read_view) ->
      let counted = Array.fold_left ( + ) 0 r.Checker.acked in
      Alcotest.(check bool) "acked counts distinct txns only" true
        (counted <= List.length !distinct))
    (Server.read_log srv);
  match List.rev (Server.read_log srv) with
  | last :: _ ->
      Alcotest.(check (array int)) "each txn acknowledged once" next
        last.Checker.acked
  | [] -> Alcotest.fail "expected served reads"

let classification_config =
  { Server.staleness_slo = 2.0; staleness_ceiling = 16.0; read_cap = 4;
    service_mean = 0.01 }

let test_outcome_classification () =
  let engine = Engine.create ~seed:1L () in
  let bag = Bag.create () in
  Bag.add bag (Tuple.ints [ 1; 2 ]) 3;
  let srv = mk_server ~config:classification_config engine ~view:(fun () -> bag) in
  let outcomes = ref [] in
  let read_at t =
    Engine.at engine ~time:t (fun () ->
        outcomes := Server.read srv ~session:0 ~kind:Read_gen.Aggregate :: !outcomes)
  in
  Engine.at engine ~time:0. (fun () ->
      Server.note_delivery srv ~source:0 ~txn:0);
  read_at 1.;  (* staleness 1 <= slo: fresh *)
  read_at 7.;  (* slo < 7 <= ceiling: stale, stamped *)
  read_at 20.;  (* past the ceiling: shed *)
  run_engine engine;
  (match List.rev !outcomes with
  | [ Server.Fresh; Server.Stale s; Server.Shed ] ->
      Alcotest.(check (float 1e-9)) "stale read carries its stamp" 7. s
  | _ -> Alcotest.fail "expected fresh, stale, shed");
  Alcotest.(check int) "fresh counted" 1 (Server.fresh srv);
  Alcotest.(check int) "stale counted" 1 (Server.stale srv);
  Alcotest.(check int) "ceiling shed counted" 1 (Server.shed_ceiling srv);
  Alcotest.(check int) "no cap shed" 0 (Server.shed_cap srv);
  (* served reads answered from the live view *)
  List.iter
    (fun (r : Server.record) ->
      if r.Server.outcome <> Server.Shed then
        Alcotest.(check int) "aggregate answer is the view total" 3
          r.Server.answer)
    (Server.log srv)

(* The aggregate total belongs to the view bag, which keeps it in step
   with every add: an install must move it, and a recovered node's fresh
   bag, which arrives without an install, must answer with its own. *)
let test_aggregate_cache_invalidation () =
  let engine = Engine.create ~seed:1L () in
  let view = ref (Bag.of_list [ (Tuple.ints [ 1 ], 3) ]) in
  let srv =
    mk_server ~config:classification_config engine ~view:(fun () -> !view)
  in
  let read_at t =
    Engine.at engine ~time:t (fun () ->
        ignore (Server.read srv ~session:0 ~kind:Read_gen.Aggregate))
  in
  read_at 1.;
  read_at 2.;
  Engine.at engine ~time:3. (fun () ->
      Bag.add !view (Tuple.ints [ 2 ]) 4;
      Server.note_install srv []);
  read_at 4.;
  Engine.at engine ~time:5. (fun () ->
      view := Bag.of_list [ (Tuple.ints [ 1 ], 3); (Tuple.ints [ 3 ], 1) ]);
  read_at 6.;
  run_engine engine;
  Alcotest.(check (list int)) "aggregate answers track the live view"
    [ 3; 3; 7; 4 ]
    (List.map (fun (r : Server.record) -> r.Server.answer) (Server.log srv))

let test_cap_sheds_not_queues () =
  let engine = Engine.create ~seed:1L () in
  let config =
    { Server.default_config with Server.read_cap = 2; service_mean = 10. }
  in
  let srv = mk_server ~config engine ~view:(fun () -> Bag.create ()) in
  let shed_now = ref 0 in
  Engine.at engine ~time:0. (fun () ->
      for _ = 1 to 5 do
        match Server.read srv ~session:0 ~kind:Read_gen.Aggregate with
        | Server.Shed -> incr shed_now
        | _ -> ()
      done);
  (* service times are exponential with mean 10: by t=200 both tokens
     are long since back, so a later read is admitted again *)
  Engine.at engine ~time:200. (fun () ->
      Alcotest.(check bool) "token returns after service" true
        (Server.read srv ~session:0 ~kind:Read_gen.Aggregate <> Server.Shed));
  run_engine engine;
  Alcotest.(check int) "cap admits exactly read_cap reads" 3 !shed_now;
  Alcotest.(check int) "shed reads attributed to the cap" 3
    (Server.shed_cap srv);
  Alcotest.(check int) "no read ever waits: served + shed = issued" 6
    (Server.served srv + Server.shed srv)

(* ————— seeded read storms × algorithms ————— *)

let storm_scenario seed =
  { Scenario.default with
    Scenario.name = "read-storm";
    n_sources = 4;
    init_size = 12;
    domain = 8;
    stream = { Update_gen.default with Update_gen.n_updates = 40; mean_gap = 1.0 };
    read_rate = 6.0;
    staleness_slo = 2.0;
    read_cap = 8;
    read_burst = Some { Read_gen.at = 10.; duration = 8.; multiplier = 6. };
    seed = Int64.of_int seed }

let check_storm ~tag algo seed =
  let scenario = storm_scenario seed in
  let r = Experiment.run ~max_events:500_000 scenario algo in
  let ctx fmt = Printf.sprintf ("%s seed %d: " ^^ fmt) tag seed in
  let m = r.Experiment.metrics in
  Alcotest.(check bool) (ctx "run drains") true r.Experiment.completed;
  (* 1. every read classified, none blocked *)
  let issued =
    Read_gen.reads_over ~rate:scenario.Scenario.read_rate
      ~burst:scenario.Scenario.read_burst
      ~horizon:
        (float_of_int scenario.Scenario.stream.Update_gen.n_updates
        *. scenario.Scenario.stream.Update_gen.mean_gap)
  in
  Alcotest.(check int) (ctx "every issued read is logged") issued
    (List.length r.Experiment.reads);
  Alcotest.(check int)
    (ctx "served + shed covers the log")
    (List.length r.Experiment.reads)
    (m.Metrics.reads_served + m.Metrics.reads_shed);
  (* 2. SLO honored on every stamp *)
  let slo = scenario.Scenario.staleness_slo in
  let ceiling = slo *. 8. in
  List.iter
    (fun (rec_ : Server.record) ->
      match rec_.Server.outcome with
      | Server.Fresh ->
          Alcotest.(check bool) (ctx "fresh within SLO") true
            (rec_.Server.staleness <= slo)
      | Server.Stale s ->
          Alcotest.(check bool) (ctx "stale stamp matches the record") true
            (s = rec_.Server.staleness);
          Alcotest.(check bool) (ctx "stale within (slo, ceiling]") true
            (s > slo && s <= ceiling)
      | Server.Shed -> ())
    r.Experiment.reads;
  Alcotest.(check bool) (ctx "p99 >= p50 >= 0") true
    (m.Metrics.read_staleness_p99 >= m.Metrics.read_staleness_p50
    && m.Metrics.read_staleness_p50 >= 0.);
  (* 3. deterministic replay, bit-identical *)
  let r2 = Experiment.run ~max_events:500_000 scenario algo in
  Alcotest.(check bool) (ctx "replay: identical read log") true
    (r.Experiment.reads = r2.Experiment.reads);
  Rig.check_replay ~ctx:(Printf.sprintf "%s seed %d" tag seed) r r2;
  (* 4. session guarantees: MR must hold (the view version the server
     exposes never regresses); RYW is measured, not required *)
  match r.Experiment.sessions with
  | None -> Alcotest.fail (ctx "expected a session report")
  | Some s ->
      Alcotest.(check bool) (ctx "monotonic reads hold") true
        s.Checker.monotonic_reads;
      Alcotest.(check int) (ctx "every served read graded")
        m.Metrics.reads_served s.Checker.reads_graded

let storm_case ~tag algo () = Rig.for_seeds serve_seeds (check_storm ~tag algo)

(* ————— shed only above cap ————— *)

let test_no_shed_below_cap () =
  (* an SLO (and so a ceiling) the run can never exceed, and more tokens
     than reads: nothing may be shed and everything is fresh *)
  let scenario =
    { (storm_scenario 3) with
      Scenario.name = "uncapped";
      staleness_slo = 1e6;
      read_cap = 4096;
      read_burst = None }
  in
  let r = Experiment.run scenario (module Sweep : Algorithm.S) in
  let m = r.Experiment.metrics in
  Alcotest.(check int) "nothing shed" 0 m.Metrics.reads_shed;
  Alcotest.(check int) "nothing stale" 0 m.Metrics.reads_stale;
  Alcotest.(check bool) "reads actually ran" true (m.Metrics.reads_served > 0)

(* ————— flash crowd × source outage (acceptance) ————— *)

let test_flash_crowd_with_outage algo_name algo () =
  let scenario =
    match Scenario.find_preset "flash-crowd" with
    | Some s -> s
    | None -> Alcotest.fail "flash-crowd preset missing"
  in
  let r = Experiment.run ~max_events:2_000_000 scenario algo in
  let m = r.Experiment.metrics in
  let ctx s = algo_name ^ ": " ^ s in
  Alcotest.(check bool) (ctx "run drains") true r.Experiment.completed;
  Alcotest.(check int)
    (ctx "zero unboundedly-blocked reads: all classified")
    (List.length r.Experiment.reads)
    (m.Metrics.reads_served + m.Metrics.reads_shed);
  Alcotest.(check bool) (ctx "the crowd was served") true
    (m.Metrics.reads_served > 0);
  Alcotest.(check bool) (ctx "the outage shows up as stale stamps") true
    (m.Metrics.reads_stale > 0);
  Alcotest.(check bool) (ctx "admission control engaged") true
    (m.Metrics.reads_shed > 0);
  Alcotest.(check bool) (ctx "staleness p99 emitted") true
    (m.Metrics.read_staleness_p99 > 0.);
  let r2 = Experiment.run ~max_events:2_000_000 scenario algo in
  Alcotest.(check bool) (ctx "deterministic per seed") true
    (r.Experiment.reads = r2.Experiment.reads
    && m.Metrics.reads_shed = r2.Experiment.metrics.Metrics.reads_shed)

(* ————— degraded mode keeps serving ————— *)

let test_degraded_run_keeps_serving () =
  (* Source 1 dies at t=10 for far longer than the probe budget
     tolerates: the breaker trips, exhausts its probes and is
     abandoned, so the run ends degraded with updates parked — but the
     server must keep answering throughout, stamping reads stale. (The
     link itself heals at t=400, long after the last read, so the
     transport's update notices eventually drain instead of
     retransmitting forever.) *)
  let scenario =
    { Scenario.default with
      Scenario.name = "degraded-serving";
      n_sources = 4;
      init_size = 12;
      domain = 8;
      stream =
        { Update_gen.default with Update_gen.n_updates = 20; mean_gap = 1.5 };
      deadline = Some 8.;
      breaker_k = 2;
      probe_limit = 2;
      stall_cap = 64;
      read_rate = 3.0;
      staleness_slo = 0.5;
      read_cap = 16;
      faults =
        { Fault.link = Fault.reliable;
          crashes = [ { Fault.source = 1; down_at = 10.; up_at = 400. } ];
          wh_crashes = [] };
      seed = 7L }
  in
  let r =
    Experiment.run ~max_events:500_000 scenario (module Sweep : Algorithm.S)
  in
  let m = r.Experiment.metrics in
  Alcotest.(check bool) "run drains degraded" true
    (r.Experiment.completed && r.Experiment.degraded);
  Alcotest.(check bool) "reads answered during the outage" true
    (m.Metrics.reads_served > 0);
  Alcotest.(check bool) "stale-but-stamped answers" true
    (m.Metrics.reads_stale > 0);
  List.iter
    (fun (rec_ : Server.record) ->
      match rec_.Server.outcome with
      | Server.Stale s ->
          Alcotest.(check bool) "every stale answer is stamped" true (s > 0.)
      | _ -> ())
    r.Experiment.reads;
  Alcotest.(check int) "no read blocked" (List.length r.Experiment.reads)
    (m.Metrics.reads_served + m.Metrics.reads_shed)

(* ————— what a run keeps ————— *)

(* flash-crowd with a warehouse outage added: reads, a source outage and
   a crash with recovery in one run *)
let crash_reads_scenario () =
  let s = Option.get (Scenario.find_preset "flash-crowd") in
  { s with
    Scenario.faults =
      { s.Scenario.faults with
        Fault.wh_crashes = [ { Fault.wh_down_at = 40.; wh_up_at = 52. } ] } }

let test_unchecked_run_keeps_no_logs () =
  let sc = crash_reads_scenario () in
  let algo = (module Sweep : Algorithm.S) in
  let checked = Experiment.run sc algo in
  let unchecked = Experiment.run ~check:false sc algo in
  let m = checked.Experiment.metrics in
  Alcotest.(check bool) "the run crashed and served reads" true
    (m.Metrics.wh_crashes = 1 && m.Metrics.reads_served > 0);
  Alcotest.check Rig.verdict "checked run still graded" Checker.Complete
    checked.Experiment.verdict.Checker.verdict;
  Alcotest.(check int) "checked run keeps every read"
    (m.Metrics.reads_served + m.Metrics.reads_shed)
    (List.length checked.Experiment.reads);
  (match checked.Experiment.sessions with
  | Some s ->
      Alcotest.(check int) "checked run grades every served read"
        m.Metrics.reads_served s.Checker.reads_graded
  | None -> Alcotest.fail "expected a session report");
  Alcotest.(check int) "unchecked run keeps no read log" 0
    (List.length unchecked.Experiment.reads);
  Alcotest.(check bool) "unchecked run grades no sessions" true
    (unchecked.Experiment.sessions = None);
  (* the histories are kept beside the simulation, never in it *)
  Rig.check_replay ~ctx:"checked vs unchecked" checked unchecked;
  let counters r =
    List.filter
      (fun (k, _) -> k <> "recovery_seconds")  (* wall clock *)
      (Metrics.fields r.Experiment.metrics)
  in
  Alcotest.(check bool) "same counters" true
    (counters checked = counters unchecked)

(* ————— zero-update read-only run ————— *)

let test_read_only_run () =
  let scenario =
    { Scenario.default with
      Scenario.name = "read-only";
      init_size = 12;
      domain = 8;
      stream = { Update_gen.default with Update_gen.n_updates = 0 };
      read_rate = 2.0;
      seed = 5L }
  in
  let r = Experiment.run scenario (module Sweep : Algorithm.S) in
  let m = r.Experiment.metrics in
  Alcotest.(check bool) "run drains" true r.Experiment.completed;
  Alcotest.(check bool) "reads ran against the static view" true
    (m.Metrics.reads_served > 0);
  Alcotest.(check int) "all fresh" 0 (m.Metrics.reads_stale + m.Metrics.reads_shed);
  Alcotest.(check (float 0.)) "per-update ratio is 0, not a division" 0.
    (Metrics.messages_per_update m);
  Alcotest.(check (float 0.)) "mean staleness is 0 on zero updates" 0.
    (Metrics.mean_staleness m);
  Alcotest.check Rig.verdict "checker still grades" Checker.Complete
    r.Experiment.verdict.Checker.verdict;
  match r.Experiment.sessions with
  | Some s ->
      Alcotest.(check bool) "RYW trivially holds" true
        s.Checker.read_your_writes
  | None -> Alcotest.fail "expected a session report"

let suite =
  [ Alcotest.test_case "sessions: empty log" `Quick test_sessions_empty;
    Alcotest.test_case "sessions: clean log" `Quick test_sessions_clean;
    Alcotest.test_case "sessions: monotonic-reads violation" `Quick
      test_sessions_mr_violation;
    Alcotest.test_case "sessions: read-your-writes violation" `Quick
      test_sessions_ryw_violation;
    Alcotest.test_case "sessions: invalid inputs" `Quick test_sessions_invalid;
    Alcotest.test_case "read-gen: reads_over sizing" `Quick test_reads_over;
    Alcotest.test_case "read-gen: deterministic per seed" `Quick
      test_read_gen_deterministic;
    Alcotest.test_case "read-gen: flash-crowd burst densifies" `Quick
      test_read_gen_burst_compresses;
    Alcotest.test_case "server: staleness monotone across heal" `Quick
      test_staleness_monotone_across_heal;
    Alcotest.test_case "server: duplicate delivery deduped" `Quick
      test_duplicate_delivery_deduped;
    Alcotest.test_case "server: high-water mark dedups FIFO re-acks" `Quick
      (fun () -> Rig.for_seeds serve_seeds test_high_water_dedups_fifo_reacks);
    Alcotest.test_case "storm: unchecked run keeps no read or session log"
      `Quick test_unchecked_run_keeps_no_logs;
    Alcotest.test_case "server: fresh / stale / shed classification" `Quick
      test_outcome_classification;
    Alcotest.test_case "server: aggregate cache follows installs and recovery"
      `Quick test_aggregate_cache_invalidation;
    Alcotest.test_case "server: cap sheds, never queues" `Quick
      test_cap_sheds_not_queues;
    Alcotest.test_case "storm: no shed below cap" `Quick test_no_shed_below_cap;
    Alcotest.test_case "storm: degraded run keeps serving" `Quick
      test_degraded_run_keeps_serving;
    Alcotest.test_case "storm: zero-update read-only run" `Quick
      test_read_only_run;
    Alcotest.test_case "flash-crowd acceptance: sweep" `Quick
      (test_flash_crowd_with_outage "sweep" (module Sweep : Algorithm.S));
    Alcotest.test_case "flash-crowd acceptance: sweep-batched" `Quick
      (test_flash_crowd_with_outage "sweep-batched"
         (module Sweep_batched : Algorithm.S));
    Alcotest.test_case "storm invariants: sweep" `Slow
      (storm_case ~tag:"sweep" (module Sweep : Algorithm.S));
    Alcotest.test_case "storm invariants: sweep-batched" `Slow
      (storm_case ~tag:"sweep-batched" (module Sweep_batched : Algorithm.S));
    Alcotest.test_case "storm invariants: nested-sweep" `Slow
      (storm_case ~tag:"nested-sweep" (module Nested_sweep : Algorithm.S));
    Alcotest.test_case "storm invariants: strobe" `Slow
      (storm_case ~tag:"strobe" (module Strobe : Algorithm.S));
    Alcotest.test_case "storm invariants: c-strobe" `Slow
      (storm_case ~tag:"c-strobe" (module C_strobe : Algorithm.S)) ]
