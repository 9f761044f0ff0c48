(* Unit tests for the consistency checker itself, using hand-built
   observations over the paper's example so each verdict level is
   exercised against a known ground truth. *)

open Repro_relational
open Repro_protocol
open Repro_consistency
open Repro_workload

let view = (Paper_example.view ())

let deliveries =
  (* delivery order: ΔR2, ΔR3, ΔR1 with per-source seq numbers *)
  let mk source seq (_, delta) =
    { Message.txn = { Message.source; seq }; delta; occurred_at = 0.; global = None }
  in
  [ mk 1 0 (Paper_example.d_r2 ()); mk 2 0 (Paper_example.d_r3 ());
    mk 0 0 (Paper_example.d_r1 ()) ]

let txn k = (List.nth deliveries k).Message.txn

let obs ?(deliveries = deliveries) installs final =
  Rig.history ~initial:(Paper_example.initial ()) ~v0:(Paper_example.v0 ())
    ~deliveries installs final

(* The ground-truth view after each delivery prefix (element 0 is the
   initial view), each recomputed from scratch over the sources as the
   prefix leaves them, so it shares no replay code with the checker. *)
let expected_states view ~initial ~deliveries =
  let rels = Array.map Relation.copy initial in
  let state () = Relation.as_bag (Algebra.eval view (Array.get rels)) in
  let after (u : Message.update) =
    match Relation.apply rels.(u.Message.txn.source) u.Message.delta with
    | Ok () -> state ()
    | Error _ -> invalid_arg "expected_states: a delete of absent tuples"
  in
  let s0 = state () in
  Array.of_list (s0 :: List.map after deliveries)

let test_expected_states () =
  let states =
    expected_states view ~initial:(Paper_example.initial ())
      ~deliveries
  in
  Alcotest.(check int) "four states" 4 (Array.length states);
  Alcotest.check Rig.bag "s0" (Paper_example.v0 ()) states.(0);
  Alcotest.check Rig.bag "s1" (Paper_example.v1 ()) states.(1);
  Alcotest.check Rig.bag "s2" (Paper_example.v2 ()) states.(2);
  Alcotest.check Rig.bag "s3" (Paper_example.v3 ()) states.(3)

let test_complete_accepted () =
  let r =
    Checker.check view
      (obs
         [ ([ txn 0 ], (Paper_example.v1 ())); ([ txn 1 ], (Paper_example.v2 ()));
           ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "complete" Checker.Complete r.Checker.verdict

let test_contiguous_batching_complete () =
  (* two updates installed as one batch covering exactly the next two
     deliveries: a contiguous run, so still complete (Sweep_batched's
     install shape) *)
  let r =
    Checker.check view
      (obs
         [ ([ txn 0; txn 1 ], (Paper_example.v2 ())); ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "complete" Checker.Complete r.Checker.verdict

let test_strong_batching_accepted () =
  (* the first install batches deliveries 0 and 2, skipping over source
     2's delivery 1: a legal serialization (per-source orders respected)
     but not a delivery-order prefix — strong, not complete *)
  let states =
    expected_states view ~initial:(Paper_example.initial ())
      ~deliveries:
        [ List.nth deliveries 0; List.nth deliveries 2; List.nth deliveries 1 ]
  in
  let r =
    Checker.check view
      (obs
         [ ([ txn 0; txn 2 ], states.(2)); ([ txn 1 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "strong" Checker.Strong r.Checker.verdict

let test_strong_rejects_gaps () =
  (* skipping ΔR3 while installing ΔR1: delivery of source 2 never
     incorporated → only convergent if final happens to match, here it
     does not *)
  let r =
    Checker.check view
      (obs
         [ ([ txn 0 ], (Paper_example.v1 ())); ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.(check bool) "not strong" true
    (Checker.compare_verdict r.Checker.verdict Checker.Strong > 0)

let test_out_of_order_same_source_rejected () =
  (* two updates of one source applied out of order must not be strong *)
  let d1 = Delta.insertion (Tuple.ints [ 9; 5 ]) in
  let d2 = Delta.deletion (Tuple.ints [ 3; 7 ]) in
  let deliveries =
    [ { Message.txn = { Message.source = 1; seq = 0 }; delta = d1;
        occurred_at = 0.; global = None };
      { Message.txn = { Message.source = 1; seq = 1 }; delta = d2;
        occurred_at = 0.; global = None } ]
  in
  let states =
    expected_states view ~initial:(Paper_example.initial ())
      ~deliveries
  in
  let final = states.(2) in
  let r =
    Checker.check view
      (obs ~deliveries
         [ ([ { Message.source = 1; seq = 1 } ], final);
           ([ { Message.source = 1; seq = 0 } ], final) ]
         final)
  in
  Alcotest.(check bool) "reordered source txns rejected" true
    (Checker.compare_verdict r.Checker.verdict Checker.Strong > 0)

let test_convergent () =
  (* garbage intermediate state but correct final state *)
  let junk = Bag.of_list [ (Tuple.ints [ 0; 0 ], 1) ] in
  let r =
    Checker.check view
      (obs
         [ ([ txn 0 ], junk); ([ txn 1 ], junk); ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "convergent" Checker.Convergent r.Checker.verdict

let test_inconsistent () =
  let junk = Bag.of_list [ (Tuple.ints [ 0; 0 ], 1) ] in
  let r = Checker.check view (obs [ ([ txn 0 ], junk) ] junk) in
  Alcotest.check Rig.verdict "inconsistent" Checker.Inconsistent
    r.Checker.verdict

let test_verdict_order () =
  Alcotest.(check bool) "complete < strong" true
    (Checker.compare_verdict Checker.Complete Checker.Strong < 0);
  Alcotest.(check bool) "strong < convergent" true
    (Checker.compare_verdict Checker.Strong Checker.Convergent < 0);
  Alcotest.(check bool) "convergent < inconsistent" true
    (Checker.compare_verdict Checker.Convergent Checker.Inconsistent < 0)

let suite =
  [ Alcotest.test_case "expected states replay Figure 5" `Quick
      test_expected_states;
    Alcotest.test_case "accepts complete histories" `Quick
      test_complete_accepted;
    Alcotest.test_case "contiguous batching is complete" `Quick
      test_contiguous_batching_complete;
    Alcotest.test_case "accepts strong batching" `Quick
      test_strong_batching_accepted;
    Alcotest.test_case "rejects skipped updates" `Quick
      test_strong_rejects_gaps;
    Alcotest.test_case "rejects per-source reordering" `Quick
      test_out_of_order_same_source_rejected;
    Alcotest.test_case "classifies convergent" `Quick test_convergent;
    Alcotest.test_case "classifies inconsistent" `Quick test_inconsistent;
    Alcotest.test_case "verdict ordering" `Quick test_verdict_order ]

(* Mutation testing of the checker itself: perturbing a known-complete
   history in any way must degrade the verdict. A checker that accepts
   mutants would silently bless broken algorithms. *)
let complete_installs () =
  [ ([ txn 0 ], (Paper_example.v1 ())); ([ txn 1 ], (Paper_example.v2 ()));
    ([ txn 2 ], (Paper_example.v3 ())) ]

let degraded r = Checker.compare_verdict r.Checker.verdict Checker.Complete > 0

let test_mutation_snapshot_tuple () =
  (* add a spurious tuple to one snapshot *)
  let installs =
    List.mapi
      (fun i (txns, snap) ->
        if i = 1 then begin
          let snap = Bag.copy snap in
          Bag.add snap (Tuple.ints [ 4; 4 ]) 1;
          (txns, snap)
        end
        else (txns, snap))
      (complete_installs ())
  in
  Alcotest.(check bool) "spurious tuple caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_count_off_by_one () =
  let installs =
    List.mapi
      (fun i (txns, snap) ->
        if i = 0 then begin
          let snap = Bag.copy snap in
          Bag.add snap (Tuple.ints [ 5; 6 ]) (-1);
          (txns, snap)
        end
        else (txns, snap))
      (complete_installs ())
  in
  Alcotest.(check bool) "multiplicity error caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_swapped_installs () =
  let installs =
    match complete_installs () with
    | [ a; b; c ] -> [ b; a; c ]
    | _ -> assert false
  in
  Alcotest.(check bool) "swapped installs caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_duplicated_txn () =
  (* the same txn claimed by two installs *)
  let installs =
    match complete_installs () with
    | [ (t0, s0); (_, s1); c ] -> [ (t0, s0); (t0, s1); c ]
    | _ -> assert false
  in
  Alcotest.(check bool) "duplicate claim caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_dropped_install () =
  let installs =
    match complete_installs () with
    | [ a; _; c ] -> [ a; c ]
    | _ -> assert false
  in
  Alcotest.(check bool) "missing install caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

(* Degenerate inputs: the checker must classify trivial runs correctly
   rather than crash or misgrade them — empty initial database, runs with
   no updates at all, and runs whose every delta is a no-op. *)

let test_degenerate_empty_initial () =
  let n = Repro_relational.View_def.n_sources view in
  let initial = Array.init n (fun _ -> Relation.create ()) in
  let states = expected_states view ~initial ~deliveries:[] in
  Alcotest.(check int) "one state (the initial view)" 1 (Array.length states);
  Alcotest.(check bool) "empty sources give an empty view" true
    (Bag.is_empty states.(0));
  let r =
    Checker.check view
      (Rig.history ~initial ~v0:(Bag.create ()) ~deliveries:[] []
         (Bag.create ()))
  in
  Alcotest.check Rig.verdict "empty run is complete" Checker.Complete
    r.Checker.verdict

let test_degenerate_zero_updates () =
  let r =
    Checker.check view
      (obs ~deliveries:[] [] (Paper_example.v0 ()))
  in
  Alcotest.check Rig.verdict "no-update run is complete" Checker.Complete
    r.Checker.verdict;
  let wrong = Bag.of_list [ (Tuple.ints [ 1; 2 ], 1) ] in
  let r =
    Checker.check view
      (obs ~deliveries:[] [] wrong)
  in
  Alcotest.check Rig.verdict "wrong final view still caught"
    Checker.Inconsistent r.Checker.verdict

let test_degenerate_all_noop_deltas () =
  let mk source seq =
    { Message.txn = { Message.source; seq }; delta = Delta.empty ();
      occurred_at = 0.; global = None }
  in
  let deliveries = [ mk 0 0; mk 1 0; mk 0 1 ] in
  let states =
    expected_states view ~initial:(Paper_example.initial ())
      ~deliveries
  in
  Array.iter
    (fun s -> Alcotest.check Rig.bag "every state is the initial view"
        (Paper_example.v0 ()) s)
    states;
  let txn k = (List.nth deliveries k).Message.txn in
  let r =
    Checker.check view
      (obs ~deliveries
         [ ([ txn 0 ], Paper_example.v0 ()); ([ txn 1 ], Paper_example.v0 ());
           ([ txn 2 ], Paper_example.v0 ()) ]
         (Paper_example.v0 ()))
  in
  Alcotest.check Rig.verdict "per-update no-op installs are complete"
    Checker.Complete r.Checker.verdict;
  let r =
    Checker.check view
      (obs ~deliveries
         [ ([ txn 0; txn 1; txn 2 ], Paper_example.v0 ()) ]
         (Paper_example.v0 ()))
  in
  Alcotest.(check bool) "batched no-op install at least strong" true
    (Checker.compare_verdict r.Checker.verdict Checker.Strong <= 0)

(* Degraded-mode degenerate inputs: a run that ends with breakers still
   open may have delivered nothing, installed nothing, or consist purely
   of reads. [check ~degraded:true] must still grade these rather than
   crash or misclassify. *)

let test_degraded_zero_updates () =
  (* nothing delivered, nothing installed, view untouched: the run is
     trivially complete even under the degraded grader — degraded mode
     must not demote a vacuous history *)
  let r =
    Checker.check ~degraded:true view
      (obs ~deliveries:[] [] (Paper_example.v0 ()))
  in
  Alcotest.check Rig.verdict "zero-update degraded run is complete"
    Checker.Complete r.Checker.verdict

let test_degraded_read_only_with_parked_updates () =
  (* updates were delivered but the breaker opened before any install:
     the view honestly reflects the empty incorporated subset, so the
     run grades Degraded — not Inconsistent, and not a crash *)
  let r =
    Checker.check ~degraded:true view
      (obs [] (Paper_example.v0 ()))
  in
  Alcotest.check Rig.verdict "parked deliveries grade degraded"
    Checker.Degraded r.Checker.verdict;
  (* without the degraded flag the same history is inconsistent: the
     deliveries were never incorporated and the final view differs from
     the fully-updated state *)
  let r =
    Checker.check view
      (obs [] (Paper_example.v0 ()))
  in
  Alcotest.check Rig.verdict "same history without the flag is inconsistent"
    Checker.Inconsistent r.Checker.verdict

let test_degraded_dishonest_final_view_rejected () =
  (* degraded mode is not a free pass: if the final view does not match
     the incorporated subset's state it is still inconsistent *)
  let junk = Bag.of_list [ (Tuple.ints [ 0; 0 ], 1) ] in
  let r =
    Checker.check ~degraded:true view
      (obs [] junk)
  in
  Alcotest.check Rig.verdict "dishonest degraded view rejected"
    Checker.Inconsistent r.Checker.verdict

let suite =
  suite
  @ [ Alcotest.test_case "degenerate: empty initial database" `Quick
        test_degenerate_empty_initial;
      Alcotest.test_case "degraded: zero-update run still grades" `Quick
        test_degraded_zero_updates;
      Alcotest.test_case "degraded: read-only run with parked updates" `Quick
        test_degraded_read_only_with_parked_updates;
      Alcotest.test_case "degraded: dishonest final view rejected" `Quick
        test_degraded_dishonest_final_view_rejected;
      Alcotest.test_case "degenerate: zero updates" `Quick
        test_degenerate_zero_updates;
      Alcotest.test_case "degenerate: all no-op deltas" `Quick
        test_degenerate_all_noop_deltas;
      Alcotest.test_case "mutant: spurious tuple" `Quick
        test_mutation_snapshot_tuple;
      Alcotest.test_case "mutant: multiplicity off by one" `Quick
        test_mutation_count_off_by_one;
      Alcotest.test_case "mutant: swapped installs" `Quick
        test_mutation_swapped_installs;
      Alcotest.test_case "mutant: duplicated txn claim" `Quick
        test_mutation_duplicated_txn;
      Alcotest.test_case "mutant: dropped install" `Quick
        test_mutation_dropped_install ]

(* The difference bag names the first inexact install and the smallest
   differing tuples with their expected and observed counts. *)
let test_deviation_reported () =
  let spurious = Tuple.ints [ 4; 4 ] in
  let installs =
    List.mapi
      (fun i (txns, snap) ->
        if i = 1 then begin
          let snap = Bag.copy snap in
          Bag.add snap spurious 1;
          (txns, snap)
        end
        else (txns, snap))
      (complete_installs ())
  in
  let r = Checker.check view (obs installs (Paper_example.v3 ())) in
  match r.Checker.deviation with
  | Some d ->
      Alcotest.(check int) "install" 1 d.Checker.install;
      Alcotest.(check bool) "txns" true (d.Checker.txns = [ txn 1 ]);
      Alcotest.(check bool) "tuple, expected, observed" true
        (d.Checker.tuples = [ (spurious, 0, 1) ])
  | None -> Alcotest.fail "no deviation reported"

(* Under the Strong policy too: a batch that skips over another source's
   delivery, then carries a spurious tuple. *)
let test_strong_deviation_reported () =
  let states =
    expected_states view ~initial:(Paper_example.initial ())
      ~deliveries:
        [ List.nth deliveries 0; List.nth deliveries 2; List.nth deliveries 1 ]
  in
  let snap = Bag.copy states.(2) in
  Bag.add snap (Tuple.ints [ 4; 4 ]) 1;
  let r =
    Checker.check view
      (obs
         [ ([ txn 0; txn 2 ], snap); ([ txn 1 ], Paper_example.v3 ()) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "convergent" Checker.Convergent r.Checker.verdict;
  Alcotest.(check (option int)) "deviating install" (Some 0)
    (Option.map (fun d -> d.Checker.install) r.Checker.deviation)

(* Mutated real histories. Seeded runs of the four algorithms that are at
   least strong: a random stream of inserts and deletes over a 3-way
   chain view, in bursts of three overlapping updates with a pause after
   each, so batching algorithms install several batches. *)
let seeded_observation name seed =
  let view = Chain.view ~n:3 () in
  let rng = Repro_sim.Rng.create (Int64.of_int seed) in
  let initial = Chain.populate view ~size:8 ~domain:4 rng in
  let mirrors = Array.map Update_gen.Mirror.of_relation initial in
  let config = { Update_gen.default with p_insert = 0.6; domain = 4 } in
  let updates =
    List.init 10 (fun k ->
        let s = Repro_sim.Rng.int rng 3 in
        ( (0.5 *. float_of_int k) +. (8. *. float_of_int (k / 3)),
          s,
          Update_gen.Mirror.gen rng config mirrors.(s) ))
  in
  let algorithm =
    Option.get (Repro_harness.Experiment.algorithm_by_name name)
  in
  let outcome =
    Repro_harness.Experiment.run_scripted ~algorithm ~view ~initial ~updates ()
  in
  ( view,
    Repro_harness.Experiment.observation
      ~initial_sources:outcome.Repro_harness.Experiment.initial_sources
      outcome.Repro_harness.Experiment.node )

let spurious = Tuple.ints [ -1; -1; -1; -1; -1 ]

(* [o] with [n] copies of [spurious] added to install [k]'s delta. *)
let tamper (o : Checker.observation) k n =
  { o with
    installs =
      List.mapi
        (fun j (txns, delta) ->
          if j <> k then (txns, delta)
          else begin
            let delta = Delta.copy delta in
            Delta.add delta spurious n;
            (txns, delta)
          end)
        o.installs }

let qcheck_mutated_histories =
  QCheck.Test.make ~name:"checker rejects mutated real histories" ~count:15
    (QCheck.int_range 1 10_000)
    (fun seed ->
      List.for_all
        (fun name ->
          let view, o = seeded_observation name seed in
          let grade o = Checker.check view o in
          let at_least_strong r =
            Checker.compare_verdict r.Checker.verdict Checker.Strong <= 0
          in
          let n_installs = List.length o.Checker.installs in
          let k = seed mod max 1 (n_installs - 1) in
          (* (i) a tuple installed at k and retracted at k+1 *)
          let moved = grade (tamper (tamper o k 1) (k + 1) (-1)) in
          (* (ii) a tuple installed at k and kept, final view included *)
          let kept =
            let final_view = Bag.copy o.final_view in
            Bag.add final_view spurious 1;
            grade { (tamper o k 1) with final_view }
          in
          (* (iii) a final view that is not the initial view plus the
             deltas *)
          let corrupt =
            let final_view = Bag.copy o.final_view in
            Bag.add final_view spurious 1;
            grade { o with final_view }
          in
          at_least_strong (grade o)
          && (n_installs < 2
             || (not (at_least_strong moved))
                && Option.map (fun d -> d.Checker.install) moved.deviation
                   = Some k)
          && kept.Checker.verdict = Checker.Inconsistent
          && corrupt.Checker.verdict = Checker.Inconsistent)
        [ "sweep"; "sweep-batched"; "nested-sweep"; "strobe" ])

let suite =
  suite
  @ [ Alcotest.test_case "deviation names install and tuples" `Quick
        test_deviation_reported;
      Alcotest.test_case "deviation under strong admission" `Quick
        test_strong_deviation_reported;
      QCheck_alcotest.to_alcotest qcheck_mutated_histories ]
