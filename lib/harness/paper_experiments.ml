open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_workload

type 'r experiment =
  { id : string; rows : unit -> 'r; page : 'r -> Report.block list }

type any = Any : 'r experiment -> any

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

let per_update count (r : Experiment.result) =
  float_of_int count
  /. float_of_int (max 1 r.Experiment.metrics.Metrics.updates_incorporated)

(* round trips (query + answer) per incorporated update *)
let mpu (r : Experiment.result) =
  let m = r.Experiment.metrics in
  per_update (m.Metrics.queries_sent + m.Metrics.answers_received) r

let verdict (r : Experiment.result) = r.Experiment.verdict.Checker.verdict

let verdict_cell ~completed v =
  if completed then Checker.verdict_to_string v else "diverges"

(* Message cost cell: flagged when the run had to be cut off (C-strobe's
   combinatorial compensation keeps the queue growing faster than it
   drains). *)
let mpu_cell ~completed x =
  if completed then Report.f1 x else Printf.sprintf ">%s*" (Report.f1 x)

(* Each string of a page's [Report.Text] blocks is one printed line, so
   the prose below reads as it prints. *)
let table headers rows = Report.Table { aligns = None; headers; rows }

module T1 = struct
  type cell = { n : int; msgs_per_update : float; verdict : Checker.verdict;
      completed : bool }

  type row = { algorithm : string; architecture : string; comment : string;
      cells : cell list }

  let ns = [ 2; 4; 6; 8 ]

  let rows () =
    List.map
      (fun (algorithm, architecture, comment) ->
        let alg = Option.get (Experiment.algorithm_by_name algorithm) in
        let topology =
          if algorithm = "eca" then Scenario.Centralized
          else Scenario.Distributed
        in
        let cell n =
          let r =
            Experiment.run ~max_events:30_000
              (scenario ~name:("t1-" ^ algorithm) ~n ~topology ~updates:100
                 ~gap:1.2 ())
              alg
          in
          { n; msgs_per_update = mpu r; verdict = verdict r;
            completed = r.Experiment.completed }
        in
        { algorithm; architecture; comment; cells = List.map cell ns })
      [ ("eca", "centralized", "remote compensation; quadratic query size");
        ("strobe", "distributed", "unique keys; waits for quiescence");
        ("c-strobe", "distributed", "unique keys; remote compensation blow-up");
        ("sweep", "distributed", "local compensation");
        ("nested-sweep", "distributed",
         "local compensation; batches concurrent updates");
        ("naive", "distributed", "no compensation (anomaly baseline)");
        ("recompute", "distributed", "ships whole database per update") ]

  let page rows =
    [ Report.Text
        [ "T1. Paper Table 1, measured. Concurrent workload (mean gap 1.2, latency U(0.5,1.5),";
          "    100 updates, 55% inserts); consistency verified by the checker; message cost is";
          "    (queries+answers)/update, measured at n = 2, 4, 6, 8 sources." ];
      table
        ([ "algorithm"; "architecture"; "consistency (measured)" ]
        @ List.map (Printf.sprintf "msgs/upd n=%d") ns
        @ [ "comments" ])
        (List.map
           (fun r ->
             let verdicts =
               List.map (fun c -> verdict_cell ~completed:c.completed c.verdict)
                 r.cells
             in
             r.algorithm :: r.architecture
             :: String.concat "/" (List.sort_uniq compare verdicts)
             :: List.map
                  (fun c -> mpu_cell ~completed:c.completed c.msgs_per_update)
                  r.cells
             @ [ r.comment ])
           rows);
      Report.Text
        [ "Paper's claims: ECA O(1), Strobe O(n), C-strobe O(n!) worst case, SWEEP O(n),";
          "Nested SWEEP O(n) amortized. SWEEP rows must read 'complete'; Nested SWEEP and";
          "Strobe at least 'strong'; ECA/recompute degrade to 'convergent' under concurrency.";
          "Cells marked >x* were cut off at 30k simulator events with the update queue still";
          "growing — C-strobe's compensation explosion in practice (its Table 1 row says";
          "'not scalable')." ] ]

  let experiment = { id = "t1"; rows; page }
end

module F5 = struct
  type step = { event : string; paper : Bag.t; measured : Bag.t }

  type t = { steps : step list; verdict : Checker.result;
      narration : Trace.line list }

  let rows () =
    let s2, d2 = Paper_example.d_r2 () in
    let s3, d3 = Paper_example.d_r3 () in
    let s1, d1 = Paper_example.d_r1 () in
    let outcome =
      Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S)
        ~view:(Paper_example.view ()) ~initial:(Paper_example.initial ())
        ~updates:[ (0.0, s2, d2); (1.4, s3, d3); (1.5, s1, d1) ]
        ()
    in
    let measured = Bag.copy (Node.initial_view outcome.Experiment.node) in
    let initial =
      { event = "initial state"; paper = Paper_example.v0 ();
        measured = Bag.copy measured }
    in
    let steps =
      List.map2
        (fun (event, paper) (inst : Node.install_record) ->
          Bag.merge_into ~into:measured inst.Node.delta;
          { event; paper; measured = Bag.copy measured })
        [ ("ΔR2 = +(3,5)", Paper_example.v1 ());
          ("ΔR3 = −(7,8)", Paper_example.v2 ());
          ("ΔR1 = −(2,3)", Paper_example.v3 ()) ]
        (Node.installs outcome.Experiment.node)
    in
    { steps = initial :: steps;
      verdict = Experiment.check_scripted outcome;
      narration =
        List.filter
          (fun l -> l.Trace.who = "warehouse")
          (Trace.lines outcome.Experiment.trace) }

  let page t =
    let show_bag b = Format.asprintf "%a" Bag.pp b in
    [ Report.Text
        [ "F5. Paper Figure 5 and the §5.2 walkthrough, replayed through the full simulator";
          "    (SWEEP, three concurrent updates, no keys in the view).";
          "" ];
      Report.Table
        { aligns = Some [ Report.L; Report.L; Report.L; Report.L ];
          headers = [ "event"; "paper's V"; "measured V"; "" ];
          rows =
            List.mapi
              (fun i s ->
                [ s.event; show_bag s.paper; show_bag s.measured;
                  (if i = 0 then ""
                   else if Bag.equal s.paper s.measured then "ok"
                   else "MISMATCH") ])
              t.steps };
      Report.Text
        ([ Printf.sprintf "checker verdict: %s (%s)"
             (Checker.verdict_to_string t.verdict.Checker.verdict)
             t.verdict.Checker.detail;
           "";
           "warehouse narration (from the simulation trace):" ]
        @ List.map
            (fun l -> Printf.sprintf "  [%6.2f] %s" l.Trace.time l.Trace.text)
            t.narration) ]

  let experiment = { id = "f5"; rows; page }
end

module F2 = struct
  type t = { trace : Trace.line list; queries : int; answers : int }

  let rows () =
    let rels =
      Array.init 5 (fun i ->
          Relation.of_tuples
            [ Chain.tuple ~key:0 ~a:i ~b:(i + 1);
              Chain.tuple ~key:1 ~a:i ~b:(i + 1) ])
    in
    let outcome =
      Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S)
        ~view:(Chain.view ~n:5 ()) ~initial:rels
        ~updates:[ (0.0, 2, Delta.insertion (Chain.tuple ~key:2 ~a:2 ~b:3)) ]
        ()
    in
    let m = Node.metrics outcome.Experiment.node in
    { trace = Trace.lines outcome.Experiment.trace;
      queries = m.Metrics.queries_sent; answers = m.Metrics.answers_received }

  let page t =
    [ Report.Text
        ([ "F2. Paper Figure 2 — on-line incremental view computation: the warehouse extends";
           "    ΔV hop by hop, left of the updated source first, then right (n = 5, ΔR3).";
           "" ]
        @ List.map
            (fun l ->
              Printf.sprintf "  [%6.2f] %-8s %s" l.Trace.time l.Trace.who
                l.Trace.text)
            t.trace
        @ [ "";
            Printf.sprintf
              "queries %d, answers %d — one round trip per remote source, as in the figure."
              t.queries t.answers ]) ]

  let experiment = { id = "f2"; rows; page }
end

module E1a = struct
  type cell = { n : int; msgs_per_update : float; completed : bool }
  type row = { algorithm : string; cells : cell list }

  let ns = [ 2; 3; 4; 6; 8; 10 ]

  let rows () =
    List.map
      (fun algorithm ->
        let alg = Option.get (Experiment.algorithm_by_name algorithm) in
        let cell n =
          let r =
            Experiment.run ~check:false ~max_events:30_000
              (scenario ~name:("e1-" ^ algorithm) ~n ~updates:80 ~gap:1.5 ())
              alg
          in
          { n; msgs_per_update = mpu r; completed = r.Experiment.completed }
        in
        { algorithm; cells = List.map cell ns })
      [ "sweep"; "nested-sweep"; "strobe"; "c-strobe"; "recompute" ]

  let page rows =
    [ Report.Text
        [ "E1a. Messages per update vs number of sources (random workload, mean gap 1.5)." ];
      table
        ("algorithm" :: List.map (Printf.sprintf "n=%d") ns)
        (List.map
           (fun r ->
             r.algorithm
             :: List.map
                  (fun c -> mpu_cell ~completed:c.completed c.msgs_per_update)
                  r.cells)
           rows);
      Report.Text
        [ "SWEEP stays at exactly 2(n−1); C-strobe exceeds it as concurrent deletes force";
          "remote compensation; recompute matches 2n in count but ships snapshots (see E2/weights)." ] ]
end

module E1b = struct
  type cell = { k : int; queries : int; verdict : Checker.verdict }
  type row = { algorithm : string; cells : cell list }

  (* One insert at R0, then K concurrent deletes at K distinct other
     sources while the insert's query is in flight; a = b = 0 everywhere,
     so everything joins everything. *)
  let run algorithm k =
    let n = 8 in
    let initial =
      Array.init n (fun _ ->
          Relation.of_tuples
            [ Chain.tuple ~key:0 ~a:0 ~b:0; Chain.tuple ~key:1 ~a:0 ~b:0 ])
    in
    let updates =
      (0.0, 0, Delta.insertion (Chain.tuple ~key:2 ~a:0 ~b:0))
      :: List.init k (fun j ->
             ( 1.2 +. (0.01 *. float_of_int j), j + 1,
               Delta.deletion (Chain.tuple ~key:1 ~a:0 ~b:0) ))
    in
    let outcome =
      Experiment.run_scripted ~trace_enabled:false ~algorithm
        ~view:(Chain.view ~n ()) ~initial ~updates ()
    in
    { k;
      queries = (Node.metrics outcome.Experiment.node).Metrics.queries_sent;
      verdict = (Experiment.check_scripted outcome).Checker.verdict }

  let ks = [ 0; 1; 2; 3; 4; 5 ]

  let rows () =
    List.map
      (fun (algorithm, alg) -> { algorithm; cells = List.map (run alg) ks })
      [ ("sweep", (module Sweep : Algorithm.S));
        ("c-strobe", (module C_strobe : Algorithm.S)) ]

  let page rows =
    [ Report.Text
        [ "";
          "E1b. C-strobe's compensation blow-up vs SWEEP, scripted: one insert at R0 with K";
          "     concurrent deletes at K distinct sources during its evaluation (n = 8)." ];
      table
        ("algorithm (queries, verdict)" :: List.map (Printf.sprintf "K=%d") ks)
        (List.map
           (fun r ->
             r.algorithm
             :: List.map
                  (fun c ->
                    Printf.sprintf "%d (%s)" c.queries
                      (Checker.verdict_to_string c.verdict))
                  r.cells)
           rows);
      Report.Text
        [ "SWEEP spends exactly 7 queries per update — 7(K+1) in total, linear, all";
          "compensation local. C-strobe's compensating queries multiply with K (the paper";
          "cites K^(n−2), optimized (n−1)!)." ] ]
end

module E1 = struct
  type t = { scaling : E1a.row list; blowup : E1b.row list }

  let experiment =
    { id = "e1";
      rows = (fun () -> { scaling = E1a.rows (); blowup = E1b.rows () });
      page = (fun t -> E1a.page t.scaling @ E1b.page t.blowup) }
end

module E2 = struct
  type row = { gap : float; query_tuples_per_update : float; queries : int;
      updates : int; verdict : Checker.verdict; completed : bool }

  let rows () =
    List.map
      (fun gap ->
        let r =
          Experiment.run
            (scenario ~name:"e2" ~topology:Scenario.Centralized ~n:3
               ~updates:80 ~gap ())
            (module Eca : Algorithm.S)
        in
        let m = r.Experiment.metrics in
        { gap; query_tuples_per_update = per_update m.Metrics.query_weight r;
          queries = m.Metrics.queries_sent;
          updates = m.Metrics.updates_incorporated; verdict = verdict r;
          completed = r.Experiment.completed })
      [ 10.0; 3.0; 1.0; 0.5; 0.25; 0.1 ]

  let page rows =
    [ Report.Text
        [ "E2. ECA: compensating-query size vs update overlap (centralized, n = 3, 80 updates).";
          "    'query tuples/update' is the shipped query payload; it grows as updates overlap";
          "    (quadratic in the number of interfering updates, §3)." ];
      table
        [ "mean gap"; "query tuples/update"; "queries"; "verdict" ]
        (List.map
           (fun r ->
             [ Report.f2 r.gap; Report.f2 r.query_tuples_per_update;
               string_of_int r.queries;
               verdict_cell ~completed:r.completed r.verdict ])
           rows);
      Report.Text
        [ "Round trips stay at one per update (the O(1) column of Table 1) while the payload";
          "inflates; intermediate states are only convergent under overlap." ]
    ]

  let experiment = { id = "e2"; rows; page }
end

module E3 = struct
  type cell = { algorithm : string; staleness : float; installs : int }
  type row = { gap : float; cells : cell list }

  let algorithms = [ "sweep"; "nested-sweep"; "strobe" ]

  let rows () =
    List.map
      (fun gap ->
        let cell algorithm =
          let sc = scenario ~name:("e3-" ^ algorithm) ~updates:120 ~gap () in
          let sc =
            { sc with
              Scenario.stream =
                { sc.Scenario.stream with Update_gen.p_insert = 1.0 } }
          in
          let r =
            Experiment.run ~check:false sc
              (Option.get (Experiment.algorithm_by_name algorithm))
          in
          let m = r.Experiment.metrics in
          { algorithm; staleness = Metrics.mean_staleness m;
            installs = m.Metrics.installs }
        in
        { gap; cells = List.map cell algorithms })
      [ 5.0; 2.0; 1.0; 0.5; 0.25 ]

  let page rows =
    [ Report.Text
        [ "E3. Staleness and the quiescence requirement (n = 4, 120 updates, inserts only so";
          "    Strobe's action list can only be applied when its query set drains). Staleness";
          "    = sim-time from delivery to installation." ];
      table
        ("mean gap"
        :: List.concat_map (fun a -> [ a ^ " stale"; a ^ " installs" ])
             algorithms)
        (List.map
           (fun r ->
             Report.f2 r.gap
             :: List.concat_map
                  (fun c -> [ Report.f1 c.staleness; string_of_int c.installs ])
                  r.cells)
           rows);
      Report.Text
        [ "Three regimes, all predicted by the paper: SWEEP serializes updates (complete";
          "consistency), so past its service rate the queue and staleness grow without bound —";
          "the pipelining optimization §5.3 sketches exists precisely for this. Nested SWEEP";
          "batches interfering updates and stays current. Strobe evaluates queries in parallel";
          "but may install only at quiescence: as the gap shrinks its installs collapse toward";
          "one giant deferred batch (the unbounded-trailing behaviour §5.3 criticizes)." ] ]

  let experiment = { id = "e3"; rows; page }
end

module E4 = struct
  type row = { gap : float; sweep_msgs_per_update : float;
      nested_msgs_per_update : float; nested_batch : float; recursions : int;
      max_depth : int }

  let rows () =
    List.map
      (fun gap ->
        let run name alg =
          Experiment.run ~check:false
            (scenario ~name ~updates:120 ~gap ())
            alg
        in
        let sweep = run "e4-sweep" (module Sweep : Algorithm.S) in
        let nested = run "e4-nested" (module Nested_sweep : Algorithm.S) in
        let nm = nested.Experiment.metrics in
        { gap; sweep_msgs_per_update = mpu sweep;
          nested_msgs_per_update = mpu nested;
          nested_batch =
            float_of_int nm.Metrics.updates_incorporated
            /. float_of_int (max 1 nm.Metrics.installs);
          recursions = nm.Metrics.recursions;
          max_depth = nm.Metrics.max_depth })
      [ 5.0; 2.0; 1.0; 0.5; 0.25; 0.1 ]

  let page rows =
    [ Report.Text
        [ "E4. Nested SWEEP amortization vs concurrency (n = 4, 120 updates): messages per";
          "    update and installs (state transitions) per update." ];
      table
        [ "mean gap"; "sweep msgs/upd"; "nested msgs/upd"; "nested batch size";
          "recursions"; "max depth" ]
        (List.map
           (fun r ->
             [ Report.f2 r.gap; Report.f1 r.sweep_msgs_per_update;
               Report.f1 r.nested_msgs_per_update; Report.f2 r.nested_batch;
               string_of_int r.recursions; string_of_int r.max_depth ])
           rows);
      Report.Text
        [ "As concurrency rises Nested SWEEP folds more updates into each sweep: messages";
          "per update drop below SWEEP's 2(n−1) while SWEEP's stay constant — the paper's";
          "amortization claim (§6.2)." ] ]

  let experiment = { id = "e4"; rows; page }
end

module E5 = struct
  type row = { gap : float; algorithm : string; msgs_per_update : float;
      recursions : int; max_depth : int; fallbacks : int;
      verdict : Checker.verdict; completed : bool }

  let rows () =
    List.concat_map
      (fun gap ->
        let sc =
          { (scenario ~name:"e5" ~updates:80 ~gap ()) with
            Scenario.stream =
              { (stream ~updates:80 ~gap) with
                Update_gen.placement = Update_gen.Alternating (0, 3) } }
        in
        List.map
          (fun (algorithm, alg) ->
            let r = Experiment.run sc alg in
            let m = r.Experiment.metrics in
            { gap; algorithm; msgs_per_update = mpu r;
              recursions = m.Metrics.recursions;
              max_depth = m.Metrics.max_depth; fallbacks = m.Metrics.fallbacks;
              verdict = verdict r; completed = r.Experiment.completed })
          [ ("sweep", (module Sweep : Algorithm.S));
            ("nested (d=64)", (module Nested_sweep : Algorithm.S));
            ("nested (d=4)", Nested_sweep.with_max_depth 4) ])
      [ 1.0; 0.5; 0.25; 0.15 ]

  let page rows =
    [ Report.Text
        [ "E5. Adversarial alternating interference (updates alternate between the chain's";
          "    endpoints, n = 4): Nested SWEEP's recursion oscillates (§6.2); a depth bound";
          "    forces termination, falling back to SWEEP handling." ];
      table
        [ "mean gap"; "algorithm"; "msgs/upd"; "recursions"; "max depth";
          "fallbacks"; "verdict" ]
        (List.map
           (fun r ->
             [ Report.f2 r.gap; r.algorithm; Report.f1 r.msgs_per_update;
               string_of_int r.recursions; string_of_int r.max_depth;
               string_of_int r.fallbacks;
               verdict_cell ~completed:r.completed r.verdict ])
           rows);
      Report.Text
        [ "Tighter alternation drives the recursion deeper; the bounded variant trades batch";
          "size for guaranteed termination exactly as §6.2 suggests." ] ]

  let experiment = { id = "e5"; rows; page }
end

module E6 = struct
  type row = { gap : float; compensations_per_update : float;
      sweep_verdict : Checker.verdict; sweep_completed : bool;
      naive_verdict : Checker.verdict; naive_completed : bool;
      naive_negative_installs : int }

  let rows () =
    List.map
      (fun gap ->
        (* the widest spacing is run with deterministic gaps so it is a
           true zero-interference control *)
        let run name alg =
          let base = scenario ~name ~updates:100 ~gap () in
          Experiment.run
            { base with
              Scenario.stream =
                { base.Scenario.stream with
                  Update_gen.fixed_gap = gap >= 10. } }
            alg
        in
        let sweep = run "e6-sweep" (module Sweep : Algorithm.S) in
        let naive = run "e6-naive" (module Naive : Algorithm.S) in
        { gap;
          compensations_per_update =
            per_update sweep.Experiment.metrics.Metrics.compensations sweep;
          sweep_verdict = verdict sweep;
          sweep_completed = sweep.Experiment.completed;
          naive_verdict = verdict naive;
          naive_completed = naive.Experiment.completed;
          naive_negative_installs =
            naive.Experiment.metrics.Metrics.negative_installs })
      [ 50.0; 3.0; 1.0; 0.5; 0.25 ]

  let page rows =
    [ Report.Text
        [ "E6. On-line error correction (§4): SWEEP's local compensations track the actual";
          "    interference rate, and correctness never degrades — while the naive baseline";
          "    corrupts the view as soon as interference appears (n = 4, 100 updates)." ];
      table
        [ "mean gap"; "sweep compensations/upd"; "sweep verdict";
          "naive verdict"; "naive negative installs" ]
        (List.map
           (fun r ->
             [ Report.f2 r.gap; Report.f2 r.compensations_per_update;
               verdict_cell ~completed:r.sweep_completed r.sweep_verdict;
               verdict_cell ~completed:r.naive_completed r.naive_verdict;
               string_of_int r.naive_negative_installs ])
           rows);
      Report.Text
        [ "No interference (large gaps): zero compensations and even naive is complete.";
          "Rising interference: compensations scale with it, SWEEP stays complete, naive";
          "goes inconsistent and can even drive view counts negative." ] ]

  let experiment = { id = "e6"; rows; page }
end

module E7 = struct
  type row = { factor : float; sweep_payload : float;
      recompute_payload : float; view_tuples : int }

  let rows () =
    List.map
      (fun domain ->
        let run alg =
          Experiment.run ~check:false
            (scenario ~name:"e7" ~n:3 ~init:30 ~domain ~updates:60 ~gap:2. ())
            alg
        in
        let payload (r : Experiment.result) =
          let m = r.Experiment.metrics in
          per_update (m.Metrics.query_weight + m.Metrics.answer_weight) r
        in
        let sweep = run (module Sweep : Algorithm.S) in
        let recompute = run (module Recompute : Algorithm.S) in
        { factor = 30. /. float_of_int domain; sweep_payload = payload sweep;
          recompute_payload = payload recompute;
          view_tuples = sweep.Experiment.final_view_tuples })
      [ 60; 30; 15; 10; 6 ]

  let page rows =
    [ Report.Text
        [ "E7. The §1 trade-off, measured: incremental maintenance moves work from shipping";
          "    data to answering queries. Payload tuples per update vs join expansion factor";
          "    (|R| / domain; factor 1 keeps the view flat, larger factors blow the join up).";
          "    n = 3, |R| = 30, 60 updates, mean gap 2." ];
      table
        [ "expansion factor"; "sweep payload/upd"; "recompute payload/upd";
          "view tuples" ]
        (List.map
           (fun r ->
             [ Report.f2 r.factor; Report.f1 r.sweep_payload;
               Report.f1 r.recompute_payload; string_of_int r.view_tuples ])
           rows);
      Report.Text
        [ "SWEEP ships only the partial join of the changed tuple — tiny at factor ≤ 1 and";
          "growing with the join's fan-out — while recomputation always ships every base";
          "relation. The crossover the paper's introduction describes sits where a delta's";
          "join expansion approaches the database size itself." ] ]

  let experiment = { id = "e7"; rows; page }
end

module E8 = struct
  type row = { gap : float; utilization : float; staleness_model : float;
      staleness_sim : float; compensations_model : float;
      compensations_sim : float }

  let rows () =
    List.map
      (fun gap ->
        let sc = scenario ~name:"e8" ~n:4 ~updates:150 ~gap () in
        let model = Analytic.sweep (Analytic.inputs_of_scenario sc) in
        let r = Experiment.run ~check:false sc (module Sweep : Algorithm.S) in
        { gap; utilization = model.Analytic.utilization;
          staleness_model = model.Analytic.mean_staleness;
          staleness_sim = Metrics.mean_staleness r.Experiment.metrics;
          compensations_model = model.Analytic.compensations_per_update;
          compensations_sim =
            per_update r.Experiment.metrics.Metrics.compensations r })
      [ 30.0; 12.0; 8.0; 6.5; 3.0; 1.0 ]

  let page rows =
    [ Report.Text
        [ "E8. The analytical model (cf. the [Yur97] model §6.2 cites) vs the simulator:";
          "    M/G/1 service 2(n−1)·E[lat] per sweep, P–K staleness below saturation, a";
          "    fluid model above it, and per-hop interference probabilities. n = 4, 150";
          "    updates, latency U(0.5,1.5)." ];
      table
        [ "mean gap"; "ρ (model)"; "staleness model"; "staleness sim";
          "comps/upd model"; "comps/upd sim" ]
        (List.map
           (fun r ->
             [ Report.f2 r.gap; Report.f2 r.utilization;
               Report.f1 r.staleness_model; Report.f1 r.staleness_sim;
               Report.f2 r.compensations_model;
               Report.f2 r.compensations_sim ])
           rows);
      Report.Text
        [ "The model tracks the simulator through both regimes: Pollaczek–Khinchine below";
          "saturation (ρ < 1), the fluid overload growth above it, and the interference";
          "probabilities that drive compensation counts. Deviations stay within the model's";
          "first-order assumptions (Poisson arrivals, independent hops)." ] ]

  let experiment = { id = "e8"; rows; page }
end

module E9 = struct
  type row = { latency : string; variance : float; staleness_model : float;
      staleness_sim : float; compensations_sim : float;
      msgs_per_update : float }

  let rows () =
    List.map
      (fun (label, latency) ->
        let sc =
          { (scenario ~name:"e9" ~n:4 ~updates:150 ~gap:8. ()) with
            Scenario.latency }
        in
        let inputs = Analytic.inputs_of_scenario sc in
        let r = Experiment.run ~check:false sc (module Sweep : Algorithm.S) in
        { latency = label; variance = inputs.Analytic.var_latency;
          staleness_model = (Analytic.sweep inputs).Analytic.mean_staleness;
          staleness_sim = Metrics.mean_staleness r.Experiment.metrics;
          compensations_sim =
            per_update r.Experiment.metrics.Metrics.compensations r;
          msgs_per_update = mpu r })
      [ ("fixed(1.0)", Latency.Fixed 1.0);
        ("uniform(0.5,1.5)", Latency.Uniform (0.5, 1.5));
        ("uniform(0,2)", Latency.Uniform (0., 2.));
        ("exponential(1.0)", Latency.Exponential 1.0) ]

  let page rows =
    [ Report.Text
        [ "E9. Latency-variance sensitivity: same mean per-hop latency (1.0), different";
          "    distributions. Message counts are distribution-independent; staleness is not —";
          "    the M/G/1 model's (1+cv²) factor predicts the spread. n = 4, 150 updates,";
          "    mean gap 8 (ρ = 0.75)." ];
      table
        [ "latency model"; "per-hop var"; "staleness model"; "staleness sim";
          "comps/upd sim" ]
        (List.map
           (fun r ->
             [ r.latency; Report.f2 r.variance; Report.f1 r.staleness_model;
               Report.f1 r.staleness_sim; Report.f2 r.compensations_sim ])
           rows);
      Report.Text
        [ "Higher per-hop variance nudges staleness up (the P–K (1+cv²) factor), but only";
          "mildly: a sweep sums 2(n−1) independent latency samples, so its service-time cv²";
          "shrinks with n — SWEEP is naturally robust to latency jitter, and model and";
          "simulator agree on that. Message counts are identical in all four rows." ] ]

  let experiment = { id = "e9"; rows; page }
end

(* A row of the A1/A2 ablation tables: one checked run. *)
type ablation = { algorithm : string; msgs_per_update : float;
    staleness_mean : float; staleness_max : float; max_queue : int;
    verdict : Checker.verdict; completed : bool }

let ablation sc (algorithm, alg) =
  let r = Experiment.run sc alg in
  let m = r.Experiment.metrics in
  { algorithm; msgs_per_update = mpu r;
    staleness_mean = Metrics.mean_staleness m;
    staleness_max = m.Metrics.staleness_max; max_queue = m.Metrics.max_queue;
    verdict = verdict r; completed = r.Experiment.completed }

module A1 = struct
  type row = { n : int; run : ablation }

  let rows () =
    List.concat_map
      (fun n ->
        List.map
          (fun alg ->
            let sc = scenario ~name:"a1" ~n ~updates:100 ~gap:1.0 () in
            { n; run = ablation sc alg })
          [ ("sweep", (module Sweep : Algorithm.S));
            ("sweep-parallel", (module Sweep_parallel : Algorithm.S)) ])
      [ 3; 5; 7; 9 ]

  let page rows =
    [ Report.Text
        [ "A1. Ablation of the §5.3 optimization: left and right sweeps executed in parallel";
          "    and merged as ΔV_left ⋈ ΔV_right. Same messages, same complete consistency,";
          "    shorter critical path — so lower staleness and higher sustainable update rates." ];
      table
        [ "n"; "algorithm"; "msgs/upd"; "staleness mean"; "staleness max";
          "verdict" ]
        (List.map
           (fun { n; run = r } ->
             [ string_of_int n; r.algorithm; Report.f1 r.msgs_per_update;
               Report.f1 r.staleness_mean; Report.f1 r.staleness_max;
               verdict_cell ~completed:r.completed r.verdict ])
           rows);
      Report.Text
        [ "The parallel variant keeps SWEEP's exact 2(n−1) messages and complete consistency";
          "while cutting the per-update critical path from n−1 round trips to max(i, n−1−i)." ] ]

  let experiment = { id = "a1"; rows; page }
end

module A2 = struct
  type row = ablation

  let rows () =
    List.map
      (ablation (scenario ~name:"a2" ~n:4 ~updates:150 ~gap:0.5 ()))
      [ ("sweep", (module Sweep : Algorithm.S));
        ("pipelined W=2", Sweep_pipelined.with_window 2);
        ("pipelined W=4", Sweep_pipelined.with_window 4);
        ("pipelined W=8", (module Sweep_pipelined : Algorithm.S));
        ("pipelined W=16", Sweep_pipelined.with_window 16);
        ("nested-sweep", (module Nested_sweep : Algorithm.S)) ]

  let page rows =
    [ Report.Text
        [ "A2. Ablation of §5.3's pipelining: up to W ViewChange sweeps overlap, installs stay";
          "    in delivery order. Staleness vs pipeline width under a fast stream (n = 4,";
          "    150 updates, mean gap 0.5 ≪ sweep latency)." ];
      table
        [ "algorithm"; "msgs/upd"; "staleness mean"; "staleness max";
          "max queue"; "verdict" ]
        (List.map
           (fun r ->
             [ r.algorithm; Report.f1 r.msgs_per_update;
               Report.f1 r.staleness_mean; Report.f1 r.staleness_max;
               string_of_int r.max_queue;
               verdict_cell ~completed:r.completed r.verdict ])
           rows);
      Report.Text
        [ "Widening the pipeline multiplies the warehouse's service rate at unchanged message";
          "cost and *unchanged complete consistency* — curing the serial bottleneck E3 exposed";
          "— while Nested SWEEP achieves currency differently, by batching concurrent updates";
          "into shared sweeps, still measured complete." ] ]

  let experiment = { id = "a2"; rows; page }
end

module A3 = struct
  type row = { algorithm : string; verdict : Checker.verdict;
      completed : bool; installs : int; updates_per_install : float;
      msgs_per_update : float }

  let rows () =
    let sc =
      let base = scenario ~name:"a3" ~n:4 ~updates:100 ~gap:1.0 () in
      { base with
        Scenario.stream =
          { base.Scenario.stream with Update_gen.p_global = 0.3 } }
    in
    List.map
      (fun (algorithm, alg) ->
        let r = Experiment.run sc alg in
        let m = r.Experiment.metrics in
        { algorithm; verdict = verdict r; completed = r.Experiment.completed;
          installs = m.Metrics.installs;
          updates_per_install =
            float_of_int m.Metrics.updates_incorporated
            /. float_of_int (max 1 m.Metrics.installs);
          msgs_per_update = mpu r })
      [ ("sweep (splits txns)", (module Sweep : Algorithm.S));
        ("sweep-global (atomic)", (module Sweep_global : Algorithm.S)) ]

  let page rows =
    [ Report.Text
        [ "A3. Type-3 (multi-source) transactions — §2 defers them to the Strobe paper's";
          "    technique. Global SWEEP buffers installs while a transaction is partially";
          "    incorporated, so no view state exposes half a transaction; plain SWEEP installs";
          "    each part separately. (n = 4, 100 updates, 30% global.)" ];
      table
        [ "algorithm"; "verdict"; "installs"; "updates/install"; "msgs/upd" ]
        (List.map
           (fun r ->
             [ r.algorithm; verdict_cell ~completed:r.completed r.verdict;
               string_of_int r.installs; Report.f2 r.updates_per_install;
               Report.f1 r.msgs_per_update ])
           rows);
      Report.Text
        [ "Both remain exact and complete; Global SWEEP batches the parts of a transaction";
          "into fewer installs, and the test suite asserts no install ever splits a";
          "transaction." ] ]

  let experiment = { id = "a3"; rows; page }
end

module P1 = struct
  type row = { scenario : string; algorithm : string;
      verdict : Checker.verdict; completed : bool; metrics : Metrics.t;
      sim_time : float; events : int; final_view_tuples : int;
      staleness_p50 : float; staleness_p99 : float }

  let presets =
    [ "concurrent"; "centralized"; "chaos"; "read-heavy"; "flash-crowd";
      "self-maint" ]

  let shrink (sc : Scenario.t) =
    let stream = sc.stream in
    { sc with
      stream =
        { stream with n_updates = max 5 (stream.Update_gen.n_updates / 5) } }

  let rows () =
    let module Obs = Repro_observability.Obs in
    List.concat_map
      (fun preset ->
        let sc = shrink (Option.get (Scenario.find_preset preset)) in
        List.map
          (fun (_, alg) ->
            let obs = Obs.create () in
            let r = Experiment.run ~obs sc alg in
            let staleness = Obs.histogram obs "staleness" in
            { scenario = preset; algorithm = r.Experiment.algorithm;
              verdict = verdict r; completed = r.Experiment.completed;
              metrics = r.Experiment.metrics; sim_time = r.Experiment.sim_time;
              events = r.Experiment.events;
              final_view_tuples = r.Experiment.final_view_tuples;
              staleness_p50 = Repro_observability.Histogram.p50 staleness;
              staleness_p99 = Repro_observability.Histogram.p99 staleness })
          (Experiment.algorithms_for sc))
      presets

  let number = function
    | `Int i -> string_of_int i
    | `Float f -> Printf.sprintf "%.6g" f

  let line r =
    String.concat " "
      (Printf.sprintf "%s/%s %s" r.scenario r.algorithm
         (verdict_cell ~completed:r.completed r.verdict)
      :: List.map
           (fun (k, v) -> k ^ "=" ^ number v)
           (List.filter
              (fun (k, _) -> k <> "recovery_seconds")
              (Metrics.fields r.metrics)
           @ [ ("sim_time", `Float r.sim_time); ("events", `Int r.events);
               ("final_view_tuples", `Int r.final_view_tuples);
               ("staleness.p50", `Float r.staleness_p50);
               ("staleness.p99", `Float r.staleness_p99) ]))

  let page rows =
    Report.Text
      [ "P1. Preset counters — a regression page, not a paper figure. Every algorithm on the";
        "    concurrent, centralized, chaos, read-heavy, flash-crowd and self-maint presets at";
        "    one fifth of their updates (at least 5), checker on. One line per run: verdict,";
        "    every Metrics counter except wall-clock recovery_seconds, sim time, events, final";
        "    view size and the staleness histogram's p50/p99 — all deterministic under virtual";
        "    time, so the golden page pins each exactly (floats to 6 significant digits)." ]
    :: List.map
         (fun preset ->
           Report.Text
             ("" :: List.map line (List.filter (fun r -> r.scenario = preset) rows)))
         presets

  let experiment = { id = "p1"; rows; page }
end

let registry =
  [ Any T1.experiment; Any F5.experiment; Any F2.experiment;
    Any E1.experiment; Any E2.experiment; Any E3.experiment;
    Any E4.experiment; Any E5.experiment; Any E6.experiment;
    Any E7.experiment; Any E8.experiment; Any E9.experiment;
    Any A1.experiment; Any A2.experiment; Any A3.experiment;
    Any P1.experiment ]
