(* Behavioural tests for the comparison baselines: Strobe's quiescence
   batching and free deletes, C-strobe's remote compensation blow-up
   (pinned message-for-message), ECA's O(1) round trips with growing
   query size, and recompute's payload. *)

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

let test_strobe_requires_keys () =
  let keyless = Chain.view ~n:2 ~projection:[| 1; 5 |] ~name:"keyless" () in
  let ctx_fails algorithm =
    match
      Rig.scripted ~algorithm ~view:keyless
        ~initial:
          [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
             Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ] |]
        ~updates:[] ()
    with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "strobe refuses keyless views" true
    (ctx_fails (module Strobe : Algorithm.S));
  Alcotest.(check bool) "c-strobe refuses keyless views" true
    (ctx_fails (module C_strobe : Algorithm.S));
  (* SWEEP does not need keys: it must accept the same view. *)
  let ok =
    Rig.scripted ~view:keyless
      ~initial:
        [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
           Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ] |]
      ~updates:[ (0.0, 0, Delta.insertion (Chain.tuple ~key:1 ~a:9 ~b:1)) ]
      ()
  in
  Alcotest.check Rig.verdict "sweep handles keyless views" Checker.Complete
    (Rig.check ok).Checker.verdict

let test_strobe_deletes_are_free () =
  let outcome =
    Rig.scripted ~algorithm:(module Strobe : Algorithm.S) ~view
      ~initial:(initial ())
      ~updates:[ (0.0, 1, Delta.deletion (Chain.tuple ~key:0 ~a:1 ~b:2)) ]
      ()
  in
  let m = Node.metrics outcome.node in
  Alcotest.(check int) "no queries for a delete" 0 m.Metrics.queries_sent;
  Alcotest.(check int) "installed" 1 m.Metrics.installs;
  Alcotest.(check bool) "≥ strong" true
    (Checker.compare_verdict (Rig.check outcome).Checker.verdict
       Checker.Strong
    <= 0)

let test_strobe_batches_until_quiescence () =
  (* three closely spaced inserts: their queries overlap, so Strobe may
     install fewer times than there are updates *)
  let sc =
    { Scenario.default with
      n_sources = 3;
      init_size = 15;
      stream =
        { Update_gen.default with
          n_updates = 40; mean_gap = 0.2; p_insert = 0.9 };
      seed = 9L }
  in
  let r = Experiment.run sc (module Strobe : Algorithm.S) in
  Alcotest.(check bool) "fewer installs than updates" true
    (r.Experiment.metrics.Metrics.installs
    < r.Experiment.metrics.Metrics.updates_incorporated);
  Alcotest.(check bool) "≥ strong" true
    (Checker.compare_verdict r.Experiment.verdict.Checker.verdict
       Checker.Strong
    <= 0)

let test_cstrobe_remote_compensation () =
  (* a concurrent delete during the insert's query forces at least one
     compensating query: more than the n−1 = 2 a SWEEP sweep would use *)
  let outcome =
    Rig.scripted ~algorithm:(module C_strobe : Algorithm.S) ~view
      ~initial:(initial ())
      ~updates:
        [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
          (3.5, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1)) ]
      ()
  in
  let m = Node.metrics outcome.node in
  (* insert's own query = 2 messages (n−1); the concurrent delete forces a
     remote compensating query on top (the delete itself is free) *)
  Alcotest.(check int) "one extra compensating query" 3
    m.Metrics.queries_sent;
  Alcotest.check Rig.verdict "complete" Checker.Complete
    (Rig.check outcome).Checker.verdict

(* C-strobe pinned message-for-message, recorded from the implementation
   that kept its own copy of the sweep leg: the query counts of E1b's
   scripted blow-up (one insert at R0, K concurrent deletes at K distinct
   sources during its evaluation, n = 8), and queries, answers, installs,
   events, sim time and an MD5 of the final view (sorted, as Bag.pp
   prints it) on the concurrent preset. *)
let test_cstrobe_e1b_pins () =
  let cstrobe =
    List.find
      (fun (r : Paper_experiments.E1b.row) -> r.algorithm = "c-strobe")
      (Paper_experiments.E1b.rows ())
  in
  Alcotest.(check (list int)) "queries sent for K = 0..5"
    [ 7; 13; 24; 44; 80; 144 ]
    (List.map
       (fun (c : Paper_experiments.E1b.cell) -> c.queries)
       cstrobe.cells)

let cstrobe_pins =
  [ (3L, [ 11996; 11996; 120; 24233 ], 898.79055927055504,
     "b4c8790f83f499b0a2567e32f04c798b");
    (4L, [ 6975; 6975; 120; 14191 ], 943.5407616654918,
     "2b22e9a8467cc79de6d513d793f93ce6");
    (5L, [ 11821; 11821; 120; 23883 ], 987.24878177267283,
     "bca2675c73a66898089945500ba642af") ]

let test_cstrobe_concurrent_pins () =
  let preset = Option.get (Scenario.find_preset "concurrent") in
  List.iter
    (fun (seed, counts, sim_time, digest) ->
      let r =
        Experiment.run { preset with Scenario.seed }
          (module C_strobe : Algorithm.S)
      in
      let m = r.Experiment.metrics in
      let what = Printf.sprintf "seed %Ld" seed in
      Alcotest.(check (list int)) (what ^ " queries, answers, installs, events")
        counts
        [ m.Metrics.queries_sent; m.Metrics.answers_received;
          m.Metrics.installs; r.Experiment.events ];
      Alcotest.(check (float 0.)) (what ^ " sim time") sim_time
        r.Experiment.sim_time;
      Alcotest.(check string) (what ^ " final view") digest
        (Digest.to_hex
           (Digest.string
              (Format.asprintf "%a" Bag.pp r.Experiment.final_view)));
      Alcotest.check Rig.verdict (what ^ " complete") Checker.Complete
        r.Experiment.verdict.Checker.verdict)
    cstrobe_pins

let test_eca_single_round_trip () =
  let sc =
    { Scenario.default with
      topology = Scenario.Centralized;
      n_sources = 3;
      init_size = 15;
      stream = { Update_gen.default with n_updates = 30; mean_gap = 0.4 };
      seed = 31L }
  in
  let r = Experiment.run sc (module Eca : Algorithm.S) in
  Alcotest.(check int) "exactly one query per update" 30
    r.Experiment.metrics.Metrics.queries_sent;
  Alcotest.(check bool) "converges" true
    (Checker.compare_verdict r.Experiment.verdict.Checker.verdict
       Checker.Convergent
    <= 0)

let test_eca_query_size_grows_with_overlap () =
  let run gap =
    let sc =
      { Scenario.default with
        topology = Scenario.Centralized;
        n_sources = 3;
        init_size = 15;
        stream =
          { Update_gen.default with n_updates = 30; mean_gap = gap };
        seed = 31L }
    in
    let r = Experiment.run sc (module Eca : Algorithm.S) in
    r.Experiment.metrics.Metrics.query_weight
  in
  let concurrent = run 0.1 and sequential = run 50. in
  Alcotest.(check bool)
    (Printf.sprintf "overlapping updates inflate queries (%d > %d)" concurrent
       sequential)
    true
    (concurrent > sequential)

let test_recompute_pulls_everything () =
  let outcome =
    Rig.scripted ~algorithm:(module Recompute : Algorithm.S) ~view
      ~initial:(initial ())
      ~updates:[ (0.0, 1, Delta.insertion (Chain.tuple ~key:1 ~a:1 ~b:2)) ]
      ()
  in
  let m = Node.metrics outcome.node in
  Alcotest.(check int) "n fetches" 3 m.Metrics.queries_sent;
  Alcotest.(check int) "n snapshots" 3 m.Metrics.answers_received;
  (* snapshot payload ≥ whole database *)
  Alcotest.(check bool) "snapshot weight covers database" true
    (m.Metrics.answer_weight >= 4);
  Alcotest.check Rig.verdict "complete when alone" Checker.Complete
    (Rig.check outcome).Checker.verdict

let test_naive_vs_sweep_divergence_point () =
  (* identical scripted interference: sweep stays right, naive is wrong *)
  let updates =
    [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
      (3.5, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1)) ]
  in
  let sweep =
    Rig.scripted ~algorithm:(module Sweep : Algorithm.S) ~view
      ~initial:(initial ()) ~updates ()
  in
  let naive =
    Rig.scripted ~algorithm:(module Naive : Algorithm.S) ~view
      ~initial:(initial ()) ~updates ()
  in
  Alcotest.check Rig.verdict "sweep complete" Checker.Complete
    (Rig.check sweep).Checker.verdict;
  Alcotest.(check bool) "naive wrong on this interleaving" true
    (Checker.compare_verdict (Rig.check naive).Checker.verdict
       Checker.Convergent
    > 0);
  Alcotest.(check bool) "final views differ" false
    (Bag.equal (Rig.final_view sweep) (Rig.final_view naive))

let suite =
  [ Alcotest.test_case "strobe family requires keys; sweep does not" `Quick
      test_strobe_requires_keys;
    Alcotest.test_case "strobe: deletes are message-free" `Quick
      test_strobe_deletes_are_free;
    Alcotest.test_case "strobe: batches until quiescence" `Slow
      test_strobe_batches_until_quiescence;
    Alcotest.test_case "c-strobe: remote compensation costs messages" `Quick
      test_cstrobe_remote_compensation;
    Alcotest.test_case "c-strobe: E1b blow-up pinned" `Quick
      test_cstrobe_e1b_pins;
    Alcotest.test_case "c-strobe: concurrent preset pinned" `Quick
      test_cstrobe_concurrent_pins;
    Alcotest.test_case "eca: one round trip per update" `Slow
      test_eca_single_round_trip;
    Alcotest.test_case "eca: query size grows with overlap" `Slow
      test_eca_query_size_grows_with_overlap;
    Alcotest.test_case "recompute: fetches whole database" `Quick
      test_recompute_pulls_everything;
    Alcotest.test_case "naive vs sweep on the same race" `Quick
      test_naive_vs_sweep_divergence_point ]
