(* Reproduction of the paper's §5.2 example: the three concurrent updates
   of Figure 5 must drive the SWEEP warehouse through exactly the state
   sequence of the sequential execution. *)

open Repro_relational
open Repro_warehouse
open Repro_consistency

let updates_concurrent =
  (* ΔR2 applied at t=0 (delivered t=1); the warehouse's query to R1 is in
     flight 1→2; ΔR3 (t=1.4) and ΔR1 (t=1.5) are applied before that query
     is evaluated and delivered (2.4, 2.5) before its answer (3.0) — the
     precise interleaving narrated in §5.2. *)
  let s2, d2 = (Paper_example.d_r2 ()) in
  let s3, d3 = (Paper_example.d_r3 ()) in
  let s1, d1 = (Paper_example.d_r1 ()) in
  [ (0.0, s2, d2); (1.4, s3, d3); (1.5, s1, d1) ]

let run algorithm =
  Rig.scripted ~algorithm ~view:(Paper_example.view ())
    ~initial:(Paper_example.initial ()) ~updates:updates_concurrent ()

let test_initial_view () =
  let v =
    Algebra.eval (Paper_example.view ()) (fun i -> (Paper_example.initial ()).(i))
  in
  Alcotest.check Rig.bag "initial view is {(7,8)[2]}" (Paper_example.v0 ())
    (Relation.as_bag v)

let test_sweep_state_sequence () =
  let outcome = run (module Sweep : Algorithm.S) in
  let v = Bag.copy (Node.initial_view outcome.node) in
  let snaps =
    List.map
      (fun (r : Node.install_record) ->
        Bag.merge_into ~into:v r.delta;
        Bag.copy v)
      (Node.installs outcome.node)
  in
  Alcotest.(check int) "three installs" 3 (List.length snaps);
  (match snaps with
  | [ s1; s2; s3 ] ->
      Alcotest.check Rig.bag "after ΔR2" (Paper_example.v1 ()) s1;
      Alcotest.check Rig.bag "after ΔR3" (Paper_example.v2 ()) s2;
      Alcotest.check Rig.bag "after ΔR1" (Paper_example.v3 ()) s3
  | _ -> Alcotest.fail "expected exactly three snapshots");
  Alcotest.check Rig.verdict "complete consistency" Checker.Complete
    (Rig.check outcome).Checker.verdict

let test_sweep_compensated () =
  let outcome = run (module Sweep : Algorithm.S) in
  let m = Node.metrics outcome.node in
  (* §5.2: ΔR1 interferes with ΔR2's sweep (real compensation) and with
     ΔR3's sweep; ΔR3 also interferes with ΔR2's right sweep (the ∅
     compensation). *)
  Alcotest.(check bool) "compensations occurred" true
    (m.Metrics.compensations >= 2);
  (* 2 sweeps of 2 queries + ... exactly (n-1) queries per update. *)
  Alcotest.(check int) "2(n-1) messages per update: 6 queries for 3 updates"
    6 m.Metrics.queries_sent

let test_sequential_matches_figure5 () =
  (* Far-apart updates: the trivial regime; same final states. *)
  let s2, d2 = (Paper_example.d_r2 ()) in
  let s3, d3 = (Paper_example.d_r3 ()) in
  let s1, d1 = (Paper_example.d_r1 ()) in
  let outcome =
    Rig.scripted ~view:(Paper_example.view ()) ~initial:(Paper_example.initial ())
      ~updates:[ (0.0, s2, d2); (100.0, s3, d3); (200.0, s1, d1) ]
      ()
  in
  Alcotest.check Rig.bag "final view {(5,6)[1]}" (Paper_example.v3 ())
    (Rig.final_view outcome);
  Alcotest.check Rig.verdict "complete" Checker.Complete
    (Rig.check outcome).Checker.verdict

let test_nested_sweep_same_final_state () =
  let outcome = run (module Nested_sweep : Algorithm.S) in
  Alcotest.check Rig.bag "final view {(5,6)[1]}" (Paper_example.v3 ())
    (Rig.final_view outcome);
  let v = (Rig.check outcome).Checker.verdict in
  Alcotest.(check bool) "at least strong"
    true
    (Checker.compare_verdict v Checker.Strong <= 0)

let test_naive_diverges_here () =
  (* With this interleaving the naive algorithm misses the compensation
     for ΔR1 and (2,3,5)'s contribution survives spuriously. *)
  let outcome = run (module Naive : Algorithm.S) in
  let v = (Rig.check outcome).Checker.verdict in
  Alcotest.(check bool) "naive is not complete" true
    (Checker.compare_verdict v Checker.Complete > 0)

let suite =
  [ Alcotest.test_case "initial view" `Quick test_initial_view;
    Alcotest.test_case "sweep: exact Figure 5 state sequence" `Quick
      test_sweep_state_sequence;
    Alcotest.test_case "sweep: compensation and message counts" `Quick
      test_sweep_compensated;
    Alcotest.test_case "sequential run matches Figure 5" `Quick
      test_sequential_matches_figure5;
    Alcotest.test_case "nested sweep reaches the same final state" `Quick
      test_nested_sweep_same_final_state;
    Alcotest.test_case "naive misses the compensation" `Quick
      test_naive_diverges_here ]
