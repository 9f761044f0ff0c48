open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_workload

let buf_report f =
  let buf = Buffer.create 4096 in
  f buf;
  Buffer.contents buf

let line buf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt

let stream ~updates ~gap =
  { Update_gen.default with n_updates = updates; mean_gap = gap;
    p_insert = 0.55 }

(* Unless an experiment overrides it, the join-attribute domain matches the
   relation size, so each join hop has an expansion factor of ~1 and view
   size stays flat as n grows (the paper's complexity axis is messages, not
   join blow-up). *)
let scenario ?(name = "exp") ?(n = 4) ?(init = 30) ?domain
    ?(topology = Scenario.Distributed) ?(seed = 1997L) ~updates ~gap () =
  let domain = Option.value domain ~default:init in
  { Scenario.default with
    name; n_sources = n; init_size = init; domain;
    stream = stream ~updates ~gap; topology; seed }

let mpu (r : Experiment.result) =
  (* round trips (query + answer) per incorporated update *)
  let m = r.Experiment.metrics in
  if m.Metrics.updates_incorporated = 0 then 0.
  else
    float_of_int (m.Metrics.queries_sent + m.Metrics.answers_received)
    /. float_of_int m.Metrics.updates_incorporated

let verdict_str (r : Experiment.result) =
  if r.Experiment.completed then
    Checker.verdict_to_string r.Experiment.verdict.Checker.verdict
  else "diverges"

(* Message cost cell: flagged when the run had to be cut off (C-strobe's
   combinatorial compensation keeps the queue growing faster than it
   drains). *)
let mpu_cell (r : Experiment.result) =
  if r.Experiment.completed then Report.f1 (mpu r)
  else Printf.sprintf ">%s*" (Report.f1 (mpu r))

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

let t1 () =
  buf_report @@ fun buf ->
  line buf
    "T1. Paper Table 1, measured. Concurrent workload (mean gap 1.2, latency \
     U(0.5,1.5),";
  line buf
    "    100 updates, 55%% inserts); consistency verified by the checker; \
     message cost is";
  line buf "    (queries+answers)/update, measured at n = 2, 4, 6, 8 sources.";
  let ns = [ 2; 4; 6; 8 ] in
  let algorithms =
    [ ("eca", "centralized", "remote compensation; quadratic query size");
      ("strobe", "distributed", "unique keys; waits for quiescence");
      ("c-strobe", "distributed", "unique keys; remote compensation blow-up");
      ("sweep", "distributed", "local compensation");
      ("nested-sweep", "distributed", "local compensation; batches concurrent \
                                       updates");
      ("naive", "distributed", "no compensation (anomaly baseline)");
      ("recompute", "distributed", "ships whole database per update") ]
  in
  let rows =
    List.map
      (fun (name, arch, comment) ->
        let alg = Option.get (Experiment.algorithm_by_name name) in
        let topology =
          if name = "eca" then Scenario.Centralized else Scenario.Distributed
        in
        let results =
          List.map
            (fun n ->
              Experiment.run ~max_events:30_000
                (scenario ~name:("t1-" ^ name) ~n ~topology ~updates:100
                   ~gap:1.2 ())
                alg)
            ns
        in
        let verdicts =
          List.sort_uniq compare (List.map verdict_str results)
        in
        name :: arch
        :: String.concat "/" verdicts
        :: List.map mpu_cell results
        @ [ comment ])
      algorithms
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         ([ "algorithm"; "architecture"; "consistency (measured)" ]
         @ List.map (fun n -> Printf.sprintf "msgs/upd n=%d" n) ns
         @ [ "comments" ])
       ~rows ());
  line buf
    "Paper's claims: ECA O(1), Strobe O(n), C-strobe O(n!) worst case, SWEEP \
     O(n),";
  line buf
    "Nested SWEEP O(n) amortized. SWEEP rows must read 'complete'; Nested \
     SWEEP and";
  line buf "Strobe 'strong'; ECA/recompute degrade to 'convergent' under \
            concurrency.";
  line buf
    "Cells marked >x* were cut off at 30k simulator events with the update \
     queue still";
  line buf
    "growing — C-strobe's compensation explosion in practice (its Table 1 \
     row says";
  line buf "'not scalable')."

(* ------------------------------------------------------------------ *)
(* Figure 5 / §5.2                                                      *)
(* ------------------------------------------------------------------ *)

let f5 () =
  buf_report @@ fun buf ->
  line buf
    "F5. Paper Figure 5 and the §5.2 walkthrough, replayed through the full \
     simulator";
  line buf "    (SWEEP, three concurrent updates, no keys in the view).";
  line buf "";
  let s2, d2 = (Paper_example.d_r2 ()) in
  let s3, d3 = (Paper_example.d_r3 ()) in
  let s1, d1 = (Paper_example.d_r1 ()) in
  let outcome =
    Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S)
      ~view:(Paper_example.view ())
      ~initial:(Paper_example.initial ())
      ~updates:[ (0.0, s2, d2); (1.4, s3, d3); (1.5, s1, d1) ]
      ()
  in
  let installs = Node.installs outcome.Experiment.node in
  let expected = [ (Paper_example.v1 ()); (Paper_example.v2 ()); (Paper_example.v3 ()) ] in
  let labels = [ "ΔR2 = +(3,5)"; "ΔR3 = −(7,8)"; "ΔR1 = −(2,3)" ] in
  let show_bag b = Format.asprintf "%a" Bag.pp b in
  let measured = Bag.copy (Node.initial_view outcome.Experiment.node) in
  let rows =
    ("initial state", show_bag (Paper_example.v0 ()), show_bag (Paper_example.v0 ()),
     "")
    :: List.map2
         (fun (label, want) (inst : Node.install_record) ->
           Bag.merge_into ~into:measured inst.Node.delta;
           ( label, show_bag want, show_bag measured,
             if Bag.equal want measured then "ok" else "MISMATCH" ))
         (List.combine labels expected)
         installs
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~aligns:[ Report.L; Report.L; Report.L; Report.L ]
       ~headers:[ "event"; "paper's V"; "measured V"; "" ]
       ~rows:(List.map (fun (a, b, c, d) -> [ a; b; c; d ]) rows)
       ());
  let verdict = Experiment.check_scripted outcome in
  line buf "checker verdict: %s (%s)"
    (Checker.verdict_to_string verdict.Checker.verdict)
    verdict.Checker.detail;
  line buf "";
  line buf "warehouse narration (from the simulation trace):";
  List.iter
    (fun l ->
      if l.Trace.who = "warehouse" then
        line buf "  [%6.2f] %s" l.Trace.time l.Trace.text)
    (Trace.lines outcome.Experiment.trace)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                             *)
(* ------------------------------------------------------------------ *)

let f2 () =
  buf_report @@ fun buf ->
  line buf
    "F2. Paper Figure 2 — on-line incremental view computation: the \
     warehouse extends";
  line buf
    "    ΔV hop by hop, left of the updated source first, then right \
     (n = 5, ΔR3).";
  line buf "";
  let view = Chain.view ~n:5 () in
  let rels =
    Array.init 5 (fun i ->
        Relation.of_tuples
          [ Chain.tuple ~key:0 ~a:i ~b:(i + 1);
            Chain.tuple ~key:1 ~a:i ~b:(i + 1) ])
  in
  let outcome =
    Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S) ~view
      ~initial:rels
      ~updates:[ (0.0, 2, Delta.insertion (Chain.tuple ~key:2 ~a:2 ~b:3)) ]
      ()
  in
  List.iter
    (fun l -> line buf "  [%6.2f] %-8s %s" l.Trace.time l.Trace.who l.Trace.text)
    (Trace.lines outcome.Experiment.trace);
  let m = Node.metrics outcome.Experiment.node in
  line buf "";
  line buf
    "queries %d, answers %d — one round trip per remote source, as in the \
     figure."
    m.Metrics.queries_sent m.Metrics.answers_received

(* ------------------------------------------------------------------ *)
(* E1 — message complexity                                              *)
(* ------------------------------------------------------------------ *)

let e1_scaling buf =
  line buf
    "E1a. Messages per update vs number of sources (random workload, mean \
     gap 1.5).";
  let ns = [ 2; 3; 4; 6; 8; 10 ] in
  let algos = [ "sweep"; "nested-sweep"; "strobe"; "c-strobe"; "recompute" ] in
  let rows =
    List.map
      (fun name ->
        let alg = Option.get (Experiment.algorithm_by_name name) in
        name
        :: List.map
             (fun n ->
               let r =
                 Experiment.run ~check:false ~max_events:30_000
                   (scenario ~name:("e1-" ^ name) ~n ~updates:80 ~gap:1.5 ())
                   alg
               in
               mpu_cell r)
             ns)
      algos
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:("algorithm" :: List.map (fun n -> Printf.sprintf "n=%d" n) ns)
       ~rows ());
  line buf
    "SWEEP stays at exactly 2(n−1); C-strobe exceeds it as concurrent deletes \
     force";
  line buf "remote compensation; recompute matches 2n in count but ships \
            snapshots (see E2/weights)."

(* Scripted blow-up: one insert at source 0, K concurrent deletes at
   distinct other sources while the insert's query is in flight. *)
let e1_blowup buf =
  line buf "";
  line buf
    "E1b. C-strobe's compensation blow-up vs SWEEP, scripted: one insert at \
     R0 with K";
  line buf
    "     concurrent deletes at K distinct sources during its evaluation \
     (n = 8).";
  let n = 8 in
  let view = Chain.view ~n () in
  let mk_initial () =
    Array.init n (fun _ ->
        (* a = b = 0 everywhere: everything joins everything *)
        Relation.of_tuples
          [ Chain.tuple ~key:0 ~a:0 ~b:0; Chain.tuple ~key:1 ~a:0 ~b:0 ])
  in
  ignore view;
  let run algorithm k =
    let updates =
      (0.0, 0, Delta.insertion (Chain.tuple ~key:2 ~a:0 ~b:0))
      :: List.init k (fun j ->
             ( 1.2 +. (0.01 *. float_of_int j), j + 1,
               Delta.deletion (Chain.tuple ~key:1 ~a:0 ~b:0) ))
    in
    let outcome =
      Experiment.run_scripted ~trace_enabled:false ~algorithm ~view
        ~initial:(mk_initial ()) ~updates ()
    in
    let m = Node.metrics outcome.Experiment.node in
    (m.Metrics.queries_sent, Experiment.check_scripted outcome)
  in
  let ks = [ 0; 1; 2; 3; 4; 5 ] in
  let row name algorithm =
    name
    :: List.map
         (fun k ->
           let q, v = run algorithm k in
           Printf.sprintf "%d (%s)" q
             (Checker.verdict_to_string v.Checker.verdict))
         ks
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         ("algorithm (queries, verdict)"
         :: List.map (fun k -> Printf.sprintf "K=%d" k) ks)
       ~rows:
         [ row "sweep" (module Sweep : Algorithm.S);
           row "c-strobe" (module C_strobe : Algorithm.S) ]
       ());
  line buf
    "SWEEP spends exactly 7 queries per update — 7(K+1) in total, linear, \
     all";
  line buf
    "compensation local. C-strobe's compensating queries multiply with K \
     (the paper";
  line buf "cites K^(n−2), optimized (n−1)!)."

let e1 () =
  buf_report @@ fun buf ->
  e1_scaling buf;
  e1_blowup buf

(* ------------------------------------------------------------------ *)
(* E2 — ECA query size growth                                           *)
(* ------------------------------------------------------------------ *)

let e2 () =
  buf_report @@ fun buf ->
  line buf
    "E2. ECA: compensating-query size vs update overlap (centralized, n = 3, \
     80 updates).";
  line buf
    "    'query tuples/update' is the shipped query payload; it grows as \
     updates overlap";
  line buf "    (quadratic in the number of interfering updates, §3).";
  let gaps = [ 10.0; 3.0; 1.0; 0.5; 0.25; 0.1 ] in
  let rows =
    List.map
      (fun gap ->
        let r =
          Experiment.run
            (scenario ~name:"e2" ~topology:Scenario.Centralized ~n:3
               ~updates:80 ~gap ())
            (module Eca : Algorithm.S)
        in
        let m = r.Experiment.metrics in
        [ Report.f2 gap;
          Report.f2
            (float_of_int m.Metrics.query_weight
            /. float_of_int (max 1 m.Metrics.updates_incorporated));
          string_of_int m.Metrics.queries_sent;
          verdict_str r ])
      gaps
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "mean gap"; "query tuples/update"; "queries"; "verdict" ]
       ~rows ());
  line buf
    "Round trips stay at one per update (the O(1) column of Table 1) while \
     the payload";
  line buf "inflates; intermediate states are only convergent under overlap."

(* ------------------------------------------------------------------ *)
(* E3 — staleness / quiescence                                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  buf_report @@ fun buf ->
  line buf
    "E3. Staleness and the quiescence requirement (n = 4, 120 updates, \
     inserts only so";
  line buf
    "    Strobe's action list can only be applied when its query set \
     drains). Staleness";
  line buf "    = sim-time from delivery to installation.";
  let algos = [ "sweep"; "nested-sweep"; "strobe" ] in
  let gaps = [ 5.0; 2.0; 1.0; 0.5; 0.25 ] in
  let rows =
    List.map
      (fun gap ->
        Report.f2 gap
        :: List.concat_map
             (fun name ->
               let alg = Option.get (Experiment.algorithm_by_name name) in
               let sc = scenario ~name:("e3-" ^ name) ~updates:120 ~gap () in
               let sc =
                 { sc with
                   Scenario.stream =
                     { sc.Scenario.stream with Update_gen.p_insert = 1.0 } }
               in
               let r = Experiment.run ~check:false sc alg in
               let m = r.Experiment.metrics in
               [ Report.f1 (Metrics.mean_staleness m);
                 string_of_int m.Metrics.installs ])
             algos)
      gaps
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         ("mean gap"
         :: List.concat_map (fun a -> [ a ^ " stale"; a ^ " installs" ]) algos)
       ~rows ());
  line buf
    "Three regimes, all predicted by the paper: SWEEP serializes updates \
     (complete";
  line buf
    "consistency), so past its service rate the queue and staleness grow \
     without bound —";
  line buf
    "the pipelining optimization §5.3 sketches exists precisely for this. \
     Nested SWEEP";
  line buf
    "batches interfering updates and stays current. Strobe evaluates \
     queries in parallel";
  line buf
    "but may install only at quiescence: as the gap shrinks its installs \
     collapse toward";
  line buf
    "one giant deferred batch (the unbounded-trailing behaviour §5.3 \
     criticizes)."

(* ------------------------------------------------------------------ *)
(* E4 — Nested SWEEP amortization                                       *)
(* ------------------------------------------------------------------ *)

let e4 () =
  buf_report @@ fun buf ->
  line buf
    "E4. Nested SWEEP amortization vs concurrency (n = 4, 120 updates): \
     messages per";
  line buf "    update and installs (state transitions) per update.";
  let gaps = [ 5.0; 2.0; 1.0; 0.5; 0.25; 0.1 ] in
  let rows =
    List.map
      (fun gap ->
        let sweep =
          Experiment.run ~check:false
            (scenario ~name:"e4-sweep" ~updates:120 ~gap ())
            (module Sweep : Algorithm.S)
        in
        let nested =
          Experiment.run ~check:false
            (scenario ~name:"e4-nested" ~updates:120 ~gap ())
            (module Nested_sweep : Algorithm.S)
        in
        let nm = nested.Experiment.metrics in
        let batch =
          float_of_int nm.Metrics.updates_incorporated
          /. float_of_int (max 1 nm.Metrics.installs)
        in
        [ Report.f2 gap; Report.f1 (mpu sweep); Report.f1 (mpu nested);
          Report.f2 batch; string_of_int nm.Metrics.recursions;
          string_of_int nm.Metrics.max_depth ])
      gaps
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "mean gap"; "sweep msgs/upd"; "nested msgs/upd";
           "nested batch size"; "recursions"; "max depth" ]
       ~rows ());
  line buf
    "As concurrency rises Nested SWEEP folds more updates into each sweep: \
     messages";
  line buf
    "per update drop below SWEEP's 2(n−1) while SWEEP's stay constant — the \
     paper's";
  line buf "amortization claim (§6.2)."

(* ------------------------------------------------------------------ *)
(* E5 — adversarial alternation                                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  buf_report @@ fun buf ->
  line buf
    "E5. Adversarial alternating interference (updates alternate between \
     the chain's";
  line buf
    "    endpoints, n = 4): Nested SWEEP's recursion oscillates (§6.2); a \
     depth bound";
  line buf "    forces termination, falling back to SWEEP handling.";
  let adversarial gap =
    { (scenario ~name:"e5" ~updates:80 ~gap ()) with
      Scenario.stream =
        { (stream ~updates:80 ~gap) with
          Update_gen.placement = Update_gen.Alternating (0, 3) } }
  in
  let gaps = [ 1.0; 0.5; 0.25; 0.15 ] in
  let rows =
    List.concat_map
      (fun gap ->
        List.map
          (fun (label, alg) ->
            let r = Experiment.run (adversarial gap) alg in
            let m = r.Experiment.metrics in
            [ Report.f2 gap; label; Report.f1 (mpu r);
              string_of_int m.Metrics.recursions;
              string_of_int m.Metrics.max_depth;
              string_of_int m.Metrics.fallbacks; verdict_str r ])
          [ ("sweep", (module Sweep : Algorithm.S));
            ("nested (d=64)", (module Nested_sweep : Algorithm.S));
            ("nested (d=4)", Nested_sweep.with_max_depth 4) ])
      gaps
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "mean gap"; "algorithm"; "msgs/upd"; "recursions"; "max depth";
           "fallbacks"; "verdict" ]
       ~rows ());
  line buf
    "Tighter alternation drives the recursion deeper; the bounded variant \
     trades batch";
  line buf "size for guaranteed termination exactly as §6.2 suggests."

(* ------------------------------------------------------------------ *)
(* E6 — on-line error correction exactness                              *)
(* ------------------------------------------------------------------ *)

let e6 () =
  buf_report @@ fun buf ->
  line buf
    "E6. On-line error correction (§4): SWEEP's local compensations track \
     the actual";
  line buf
    "    interference rate, and correctness never degrades — while the \
     naive baseline";
  line buf "    corrupts the view as soon as interference appears (n = 4, \
            100 updates).";
  let gaps = [ 50.0; 3.0; 1.0; 0.5; 0.25 ] in
  let rows =
    List.map
      (fun gap ->
        (* the widest spacing is run with deterministic gaps so it is a
           true zero-interference control *)
        let sc name =
          let base = scenario ~name ~updates:100 ~gap () in
          { base with
            Scenario.stream =
              { base.Scenario.stream with
                Update_gen.fixed_gap = gap >= 10. } }
        in
        let sweep = Experiment.run (sc "e6-sweep") (module Sweep : Algorithm.S) in
        let naive = Experiment.run (sc "e6-naive") (module Naive : Algorithm.S) in
        let sm = sweep.Experiment.metrics in
        [ Report.f2 gap;
          Report.f2
            (float_of_int sm.Metrics.compensations
            /. float_of_int (max 1 sm.Metrics.updates_incorporated));
          verdict_str sweep; verdict_str naive;
          string_of_int naive.Experiment.metrics.Metrics.negative_installs ])
      gaps
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "mean gap"; "sweep compensations/upd"; "sweep verdict";
           "naive verdict"; "naive negative installs" ]
       ~rows ());
  line buf
    "No interference (large gaps): zero compensations and even naive is \
     complete.";
  line buf
    "Rising interference: compensations scale with it, SWEEP stays complete, \
     naive";
  line buf "goes inconsistent and can even drive view counts negative."

(* ------------------------------------------------------------------ *)
(* A1 — ablation: the §5.3 parallel-sweep optimization                  *)
(* ------------------------------------------------------------------ *)

let a1 () =
  buf_report @@ fun buf ->
  line buf
    "A1. Ablation of the §5.3 optimization: left and right sweeps executed \
     in parallel";
  line buf
    "    and merged as ΔV_left ⋈ ΔV_right. Same messages, same complete \
     consistency,";
  line buf
    "    shorter critical path — so lower staleness and higher sustainable \
     update rates.";
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, alg) ->
            let r =
              Experiment.run (scenario ~name:"a1" ~n ~updates:100 ~gap:1.0 ())
                alg
            in
            let m = r.Experiment.metrics in
            [ string_of_int n; label; Report.f1 (mpu r);
              Report.f1 (Metrics.mean_staleness m);
              Report.f1 m.Metrics.staleness_max; verdict_str r ])
          [ ("sweep", (module Sweep : Algorithm.S));
            ("sweep-parallel", (module Sweep_parallel : Algorithm.S)) ])
      [ 3; 5; 7; 9 ]
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "n"; "algorithm"; "msgs/upd"; "staleness mean"; "staleness max";
           "verdict" ]
       ~rows ());
  line buf
    "The parallel variant keeps SWEEP's exact 2(n−1) messages and complete \
     consistency";
  line buf
    "while cutting the per-update critical path from n−1 round trips to \
     max(i, n−1−i)."

(* ------------------------------------------------------------------ *)
(* A2 — ablation: the §5.3 pipelining optimization                      *)
(* ------------------------------------------------------------------ *)

let a2 () =
  buf_report @@ fun buf ->
  line buf
    "A2. Ablation of §5.3's pipelining: up to W ViewChange sweeps overlap, \
     installs stay";
  line buf
    "    in delivery order. Staleness vs pipeline width under a fast stream \
     (n = 4,";
  line buf "    150 updates, mean gap 0.5 ≪ sweep latency).";
  let run alg =
    Experiment.run (scenario ~name:"a2" ~n:4 ~updates:150 ~gap:0.5 ()) alg
  in
  let rows =
    List.map
      (fun (label, alg) ->
        let r = run alg in
        let m = r.Experiment.metrics in
        [ label; Report.f1 (mpu r); Report.f1 (Metrics.mean_staleness m);
          Report.f1 m.Metrics.staleness_max;
          string_of_int m.Metrics.max_queue; verdict_str r ])
      [ ("sweep", (module Sweep : Algorithm.S));
        ("pipelined W=2", Sweep_pipelined.with_window 2);
        ("pipelined W=4", Sweep_pipelined.with_window 4);
        ("pipelined W=8", (module Sweep_pipelined : Algorithm.S));
        ("pipelined W=16", Sweep_pipelined.with_window 16);
        ("nested-sweep", (module Nested_sweep : Algorithm.S)) ]
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "algorithm"; "msgs/upd"; "staleness mean"; "staleness max";
           "max queue"; "verdict" ]
       ~rows ());
  line buf
    "Widening the pipeline multiplies the warehouse's service rate at \
     unchanged message";
  line buf
    "cost and *unchanged complete consistency* — curing the serial \
     bottleneck E3 exposed";
  line buf
    "— while Nested SWEEP achieves currency differently, by weakening to \
     strong";
  line buf "consistency and batching."

(* ------------------------------------------------------------------ *)
(* A3 — extension: type-3 global transactions                           *)
(* ------------------------------------------------------------------ *)

let a3 () =
  buf_report @@ fun buf ->
  line buf
    "A3. Type-3 (multi-source) transactions — §2 defers them to the Strobe \
     paper's";
  line buf
    "    technique. Global SWEEP buffers installs while a transaction is \
     partially";
  line buf
    "    incorporated, so no view state exposes half a transaction; plain \
     SWEEP installs";
  line buf "    each part separately. (n = 4, 100 updates, 30%% global.)";
  let sc =
    let base = scenario ~name:"a3" ~n:4 ~updates:100 ~gap:1.0 () in
    { base with
      Scenario.stream =
        { base.Scenario.stream with Update_gen.p_global = 0.3 } }
  in
  let rows =
    List.map
      (fun (label, alg) ->
        let r = Experiment.run sc alg in
        let m = r.Experiment.metrics in
        [ label; verdict_str r; string_of_int m.Metrics.installs;
          Report.f2
            (float_of_int m.Metrics.updates_incorporated
            /. float_of_int (max 1 m.Metrics.installs));
          Report.f1 (mpu r) ])
      [ ("sweep (splits txns)", (module Sweep : Algorithm.S));
        ("sweep-global (atomic)", (module Sweep_global : Algorithm.S)) ]
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "algorithm"; "verdict"; "installs"; "updates/install"; "msgs/upd" ]
       ~rows ());
  line buf
    "Both remain exact; Global SWEEP trades complete for strong consistency \
     exactly";
  line buf
    "when transactions force batching, and the test suite asserts no \
     install ever";
  line buf "splits a transaction."

(* ------------------------------------------------------------------ *)
(* E7 — payload sizes vs join selectivity                               *)
(* ------------------------------------------------------------------ *)

let e7 () =
  buf_report @@ fun buf ->
  line buf
    "E7. The §1 trade-off, measured: incremental maintenance moves work \
     from shipping";
  line buf
    "    data to answering queries. Payload tuples per update vs join \
     expansion factor";
  line buf
    "    (|R| / domain; factor 1 keeps the view flat, larger factors blow \
     the join up).";
  line buf "    n = 3, |R| = 30, 60 updates, mean gap 2.";
  let rows =
    List.map
      (fun domain ->
        let factor = 30. /. float_of_int domain in
        let run alg =
          Experiment.run ~check:false
            (scenario ~name:"e7" ~n:3 ~init:30 ~domain ~updates:60 ~gap:2. ())
            alg
        in
        let sweep = run (module Sweep : Algorithm.S) in
        let recompute = run (module Recompute : Algorithm.S) in
        let payload (r : Experiment.result) =
          let m = r.Experiment.metrics in
          float_of_int (m.Metrics.query_weight + m.Metrics.answer_weight)
          /. float_of_int (max 1 m.Metrics.updates_incorporated)
        in
        [ Report.f2 factor;
          Report.f1 (payload sweep);
          Report.f1 (payload recompute);
          string_of_int sweep.Experiment.final_view_tuples ])
      [ 60; 30; 15; 10; 6 ]
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "expansion factor"; "sweep payload/upd"; "recompute payload/upd";
           "view tuples" ]
       ~rows ());
  line buf
    "SWEEP ships only the partial join of the changed tuple — tiny at \
     factor ≤ 1 and";
  line buf
    "growing with the join's fan-out — while recomputation always ships \
     every base";
  line buf
    "relation. The crossover the paper's introduction describes sits where \
     a delta's";
  line buf "join expansion approaches the database size itself."

(* ------------------------------------------------------------------ *)
(* E8 — the analytical model vs the simulator                           *)
(* ------------------------------------------------------------------ *)

let e8 () =
  buf_report @@ fun buf ->
  line buf
    "E8. The analytical model (cf. the [Yur97] model §6.2 cites) vs the \
     simulator:";
  line buf
    "    M/G/1 service 2(n−1)·E[lat] per sweep, P–K staleness below \
     saturation, a";
  line buf
    "    fluid model above it, and per-hop interference probabilities. \
     n = 4, 150";
  line buf "    updates, latency U(0.5,1.5).";
  let rows =
    List.map
      (fun gap ->
        let sc = scenario ~name:"e8" ~n:4 ~updates:150 ~gap () in
        let model = Analytic.sweep (Analytic.inputs_of_scenario sc) in
        let r = Experiment.run ~check:false sc (module Sweep : Algorithm.S) in
        let m = r.Experiment.metrics in
        [ Report.f2 gap;
          Report.f2 model.Analytic.utilization;
          Report.f1 model.Analytic.mean_staleness;
          Report.f1 (Metrics.mean_staleness m);
          Report.f2 model.Analytic.compensations_per_update;
          Report.f2
            (float_of_int m.Metrics.compensations
            /. float_of_int (max 1 m.Metrics.updates_incorporated)) ])
      [ 30.0; 12.0; 8.0; 6.5; 3.0; 1.0 ]
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "mean gap"; "ρ (model)"; "staleness model"; "staleness sim";
           "comps/upd model"; "comps/upd sim" ]
       ~rows ());
  line buf
    "The model tracks the simulator through both regimes: Pollaczek–\
     Khinchine below";
  line buf
    "saturation (ρ < 1), the fluid overload growth above it, and the \
     interference";
  line buf
    "probabilities that drive compensation counts. Deviations stay within \
     the model's";
  line buf "first-order assumptions (Poisson arrivals, independent hops)."

(* ------------------------------------------------------------------ *)
(* E9 — latency-distribution sensitivity                                *)
(* ------------------------------------------------------------------ *)

let e9 () =
  buf_report @@ fun buf ->
  line buf
    "E9. Latency-variance sensitivity: same mean per-hop latency (1.0), \
     different";
  line buf
    "    distributions. Message counts are distribution-independent; \
     staleness is not —";
  line buf
    "    the M/G/1 model's (1+cv²) factor predicts the spread. n = 4, 150 \
     updates,";
  line buf "    mean gap 8 (ρ = 0.75).";
  let rows =
    List.map
      (fun (label, latency) ->
        let sc =
          { (scenario ~name:"e9" ~n:4 ~updates:150 ~gap:8. ()) with
            Scenario.latency }
        in
        let model = Analytic.sweep (Analytic.inputs_of_scenario sc) in
        let r = Experiment.run ~check:false sc (module Sweep : Algorithm.S) in
        let m = r.Experiment.metrics in
        [ label;
          Report.f2
            (Analytic.inputs_of_scenario sc).Analytic.var_latency;
          Report.f1 model.Analytic.mean_staleness;
          Report.f1 (Metrics.mean_staleness m);
          Report.f2
            (float_of_int m.Metrics.compensations
            /. float_of_int (max 1 m.Metrics.updates_incorporated)) ])
      [ ("fixed(1.0)", Latency.Fixed 1.0);
        ("uniform(0.5,1.5)", Latency.Uniform (0.5, 1.5));
        ("uniform(0,2)", Latency.Uniform (0., 2.));
        ("exponential(1.0)", Latency.Exponential 1.0) ]
  in
  Buffer.add_string buf
    (Report.table ~title:""
       ~headers:
         [ "latency model"; "per-hop var"; "staleness model"; "staleness sim";
           "comps/upd sim" ]
       ~rows ());
  line buf
    "Higher per-hop variance nudges staleness up (the P–K (1+cv²) factor), \
     but only";
  line buf
    "mildly: a sweep sums 2(n−1) independent latency samples, so its \
     service-time cv²";
  line buf
    "shrinks with n — SWEEP is naturally robust to latency jitter, and \
     model and";
  line buf "simulator agree on that. Message counts are identical in all \
            four rows."

let all () =
  [ ("t1", t1 ()); ("f5", f5 ()); ("f2", f2 ()); ("e1", e1 ()); ("e2", e2 ());
    ("e3", e3 ()); ("e4", e4 ()); ("e5", e5 ()); ("e6", e6 ()); ("e7", e7 ()); ("e8", e8 ()); ("e9", e9 ()); ("a1", a1 ()); ("a2", a2 ()); ("a3", a3 ()) ]

let by_id = function
  | "t1" -> Some t1
  | "f2" -> Some f2
  | "f5" -> Some f5
  | "e1" -> Some e1
  | "e2" -> Some e2
  | "e3" -> Some e3
  | "e4" -> Some e4
  | "e5" -> Some e5
  | "e6" -> Some e6
  | "e7" -> Some e7
  | "e8" -> Some e8
  | "e9" -> Some e9
  | "a1" -> Some a1
  | "a2" -> Some a2
  | "a3" -> Some a3
  | _ -> None
