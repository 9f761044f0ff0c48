(* Deterministic pins on baseline-specific mechanisms: ECA's query-term
   algebra, Strobe's mid-flight key-deletes, and C-strobe's pin-set
   growth. All scripted with fixed latencies so the message counts and
   payload weights are exact. *)

open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_workload
open Repro_harness

(* A manual centralized rig (the scripted harness runner only wires the
   distributed topology). *)
let run_centralized ~algorithm ~updates =
  let view = Chain.view ~n:3 () in
  let engine = Engine.create ~seed:2L () in
  let rng = Engine.rng engine in
  let inits =
    Array.init 3 (fun _ -> Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:0 ])
  in
  let initial_copy = Array.map Relation.copy inits in
  let node = ref None in
  let deliver msg = Node.deliver (Option.get !node) msg in
  let up =
    Channel.create engine ~latency:(Latency.Fixed 1.0) ~rng:(Rng.split rng)
      ~deliver
  in
  let site =
    Repro_source.Eca_site.create engine ~view ~inits
      ~send:(fun m -> Channel.send up m)
      ~trace:(Trace.create ())
  in
  let down =
    Channel.create engine ~latency:(Latency.Fixed 1.0) ~rng:(Rng.split rng)
      ~deliver:(fun m -> Repro_source.Eca_site.handle site m)
  in
  let warehouse =
    Node.create engine ~view ~algorithm
      ~send:(fun _ m -> Channel.send down m)
      ~init:(Algebra.eval view (fun i -> inits.(i)))
      ()
  in
  node := Some warehouse;
  List.iter
    (fun (time, source, delta) ->
      Engine.at engine ~time (fun () ->
          ignore (Repro_source.Eca_site.local_update site ~source delta)))
    updates;
  (match Engine.run engine with `Drained -> () | _ -> assert false);
  (warehouse, view, initial_copy)

let check_centralized (warehouse, view, initial_copy) =
  Checker.check view
    (Experiment.observation ~initial_sources:initial_copy warehouse)

let ins k = Delta.insertion (Chain.tuple ~key:k ~a:0 ~b:0)

(* Two overlapping updates at *different* relations: the second ECA query
   must carry a compensation term (payload strictly larger than the
   first); overlapping updates at the *same* relation annihilate the
   substitution, so the second query carries none. *)
let test_eca_term_algebra () =
  let weight_of_queries updates =
    let warehouse, _, _ =
      run_centralized ~algorithm:(module Eca : Algorithm.S) ~updates
    in
    let m = Node.metrics warehouse in
    (m.Metrics.queries_sent, m.Metrics.query_weight)
  in
  (* sequential control: two queries of one base term each. Each term
     weighs (1 tuple + 1 per-term overhead) = 2. *)
  let q_seq, w_seq = weight_of_queries [ (0.0, 1, ins 1); (50.0, 2, ins 1) ] in
  Alcotest.(check int) "two queries" 2 q_seq;
  (* overlapping at different relations: Q2 = base + compensation term *)
  let q_ovl, w_ovl = weight_of_queries [ (0.0, 1, ins 1); (0.5, 2, ins 1) ] in
  Alcotest.(check int) "still two queries" 2 q_ovl;
  Alcotest.(check bool)
    (Printf.sprintf "overlap inflates payload (%d > %d)" w_ovl w_seq)
    true (w_ovl > w_seq);
  (* overlapping at the same relation: substitution annihilates — same
     payload as the sequential control *)
  let q_same, w_same = weight_of_queries [ (0.0, 1, ins 1); (0.5, 1, ins 2) ] in
  Alcotest.(check int) "two queries again" 2 q_same;
  Alcotest.(check int) "no compensation term for the same relation" w_seq
    w_same

let test_eca_converges_on_overlap () =
  let run =
    run_centralized ~algorithm:(module Eca : Algorithm.S)
      ~updates:[ (0.0, 1, ins 1); (0.5, 2, ins 1); (0.9, 0, ins 1) ]
  in
  let v = (check_centralized run).Checker.verdict in
  Alcotest.(check bool) "eca ≥ convergent" true
    (Checker.compare_verdict v Checker.Convergent <= 0)

(* Strobe: a delete delivered while an insert's query is in flight must be
   applied to that query's answer (kill) — final state exact (strong). *)
let test_strobe_mid_flight_kill () =
  let view = Chain.view ~n:3 () in
  let initial =
    Array.init 3 (fun _ -> Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:0 ])
  in
  let outcome =
    Experiment.run_scripted ~algorithm:(module Strobe : Algorithm.S) ~view
      ~initial
      ~updates:
        [ (0.0, 1, ins 1);
          (* in flight 1→5 *)
          (2.5, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:0)) ]
      ()
  in
  Alcotest.(check bool) "≥ strong" true
    (Checker.compare_verdict
       (Experiment.check_scripted outcome).Checker.verdict Checker.Strong
    <= 0);
  (* the killed derivations are gone: only the R0-less... the final view
     must equal a recomputation *)
  let expected =
    Test_checker.expected_states view
      ~initial:outcome.Experiment.initial_sources
      ~deliveries:(Node.deliveries outcome.Experiment.node)
  in
  Alcotest.check Rig.bag "final exact"
    expected.(Array.length expected - 1)
    (Node.view_contents outcome.Experiment.node)

(* C-strobe pin-set growth: one insert with two concurrent deletes at two
   other sources (n = 4) spawns compensating queries for each pin subset:
   {i,d1}, {i,d2}, {i,d1,d2}. Exact query count:
   base job: 3 queries; {i,d1}: 2; {i,d2}: 2; {i,d1,d2}: 1 → 8 total,
   plus 0 for the deletes themselves. *)
let test_cstrobe_pinset_growth () =
  let view = Chain.view ~n:4 () in
  let initial =
    Array.init 4 (fun _ ->
        Relation.of_tuples
          [ Chain.tuple ~key:0 ~a:0 ~b:0; Chain.tuple ~key:1 ~a:0 ~b:0 ])
  in
  let outcome =
    Experiment.run_scripted ~algorithm:(module C_strobe : Algorithm.S) ~view
      ~initial
      ~updates:
        [ (0.0, 0, ins 2);
          (1.2, 1, Delta.deletion (Chain.tuple ~key:1 ~a:0 ~b:0));
          (1.3, 2, Delta.deletion (Chain.tuple ~key:1 ~a:0 ~b:0)) ]
      ()
  in
  let m = Node.metrics outcome.Experiment.node in
  Alcotest.(check int) "8 queries: 3 + 2 + 2 + 1" 8 m.Metrics.queries_sent;
  Alcotest.check Rig.verdict "complete" Checker.Complete
    (Experiment.check_scripted outcome).Checker.verdict

(* C-strobe concurrent-insert kill: the later insert's derivations are
   removed from the earlier answer and only appear in its own install —
   that is precisely complete consistency, which the checker verifies. *)
let test_cstrobe_insert_kill () =
  let view = Chain.view ~n:3 () in
  let initial =
    Array.init 3 (fun _ -> Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:0 ])
  in
  let outcome =
    Experiment.run_scripted ~algorithm:(module C_strobe : Algorithm.S) ~view
      ~initial
      ~updates:[ (0.0, 1, ins 1); (1.2, 0, ins 1) ]
      ()
  in
  Alcotest.check Rig.verdict "complete despite overlapping inserts"
    Checker.Complete
    (Experiment.check_scripted outcome).Checker.verdict;
  Alcotest.(check int) "one install per update" 2
    (Node.metrics outcome.Experiment.node).Metrics.installs

let suite =
  [ Alcotest.test_case "eca query-term algebra" `Quick test_eca_term_algebra;
    Alcotest.test_case "eca converges on overlap" `Quick
      test_eca_converges_on_overlap;
    Alcotest.test_case "strobe mid-flight kill" `Quick
      test_strobe_mid_flight_kill;
    Alcotest.test_case "c-strobe pin-set growth (exact counts)" `Quick
      test_cstrobe_pinset_growth;
    Alcotest.test_case "c-strobe concurrent-insert kill" `Quick
      test_cstrobe_insert_kill ]
