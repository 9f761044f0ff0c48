(* Incremental group-by aggregates over the materialized view (the
   paper's §2 aggregate extension). *)

open Repro_relational
open Repro_warehouse
open Repro_workload
open Repro_harness

let t2 k v = Tuple.ints [ k; v ]

let test_count_sum_avg () =
  let a =
    Aggregate.create ~group_by:[| 0 |]
      ~aggregates:[ Aggregate.Count; Aggregate.Sum 1; Aggregate.Avg 1 ]
  in
  Aggregate.apply a
    (Delta.of_list [ (t2 1 10, 2); (t2 1 20, 1); (t2 2 5, 1) ]);
  Alcotest.(check (list (option (float 1e-9))))
    "group 1"
    [ Some 3.; Some 40.; Some (40. /. 3.) ]
    (Aggregate.get a (Tuple.ints [ 1 ]));
  Alcotest.(check (list (option (float 1e-9))))
    "group 2" [ Some 1.; Some 5.; Some 5. ]
    (Aggregate.get a (Tuple.ints [ 2 ]));
  Alcotest.(check (list (option (float 1e-9))))
    "missing group" [ Some 0.; None; None ]
    (Aggregate.get a (Tuple.ints [ 3 ]))

let test_min_max_under_deletes () =
  let a =
    Aggregate.create ~group_by:[| 0 |]
      ~aggregates:[ Aggregate.Min 1; Aggregate.Max 1 ]
  in
  Aggregate.apply a
    (Delta.of_list [ (t2 1 10, 1); (t2 1 20, 1); (t2 1 30, 1) ]);
  Alcotest.(check (list (option (float 1e-9))))
    "initial extremes" [ Some 10.; Some 30. ]
    (Aggregate.get a (Tuple.ints [ 1 ]));
  (* deleting the current max must reveal the runner-up — impossible with
     plain counters, fine with the value multiset *)
  Aggregate.apply a (Delta.of_list [ (t2 1 30, -1) ]);
  Alcotest.(check (list (option (float 1e-9))))
    "max recedes" [ Some 10.; Some 20. ]
    (Aggregate.get a (Tuple.ints [ 1 ]));
  Aggregate.apply a (Delta.of_list [ (t2 1 10, -1); (t2 1 20, -1) ]);
  Alcotest.(check (list (option (float 1e-9))))
    "empty group" [ None; None ]
    (Aggregate.get a (Tuple.ints [ 1 ]))

let test_group_lifecycle () =
  let a = Aggregate.create ~group_by:[| 0 |] ~aggregates:[ Aggregate.Count ] in
  Aggregate.apply a (Delta.of_list [ (t2 7 0, 2) ]);
  Alcotest.(check int) "one group" 1 (List.length (Aggregate.groups a));
  Aggregate.apply a (Delta.of_list [ (t2 7 0, -2) ]);
  Alcotest.(check int) "group vanishes" 0 (List.length (Aggregate.groups a))

let test_over_deletion_rejected () =
  let a = Aggregate.create ~group_by:[| 0 |] ~aggregates:[ Aggregate.Min 1 ] in
  Aggregate.apply a (Delta.of_list [ (t2 1 5, 1) ]);
  Alcotest.(check bool) "deleting more than present raises" true
    (match Aggregate.apply a (Delta.of_list [ (t2 1 5, -2) ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_non_numeric_rejected () =
  let a = Aggregate.create ~group_by:[||] ~aggregates:[ Aggregate.Sum 0 ] in
  Alcotest.(check bool) "string in SUM column raises" true
    (match
       Aggregate.apply a (Delta.of_list [ ([| Value.str "x" |], 1) ])
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* End to end: an aggregate fed by the warehouse's install listener must
   equal the aggregate recomputed from the final view. *)
let test_tracks_warehouse_installs () =
  let sc =
    { Scenario.default with
      n_sources = 3;
      init_size = 20;
      domain = 8;
      stream = { Update_gen.default with n_updates = 60; mean_gap = 0.5 };
      seed = 23L }
  in
  (* The chain view projects n keys + payloads; group by the first key. *)
  let make () =
    Aggregate.create ~group_by:[| 0 |]
      ~aggregates:[ Aggregate.Count; Aggregate.Sum 3; Aggregate.Min 3 ]
  in
  (* run with a listener attached via a custom scripted wiring: reuse
     Experiment.run then seed+replay using the recorded installs *)
  let r = Experiment.run sc (module Sweep : Algorithm.S) in
  ignore r;
  (* deterministic replay: recompute via scripted run with listener *)
  let view = Chain.view ~n:3 () in
  let rng = Repro_sim.Rng.create 23L in
  let initial = Chain.populate view ~size:20 ~domain:8 rng in
  let incremental = make () in
  let initial_view = Algebra.eval view (fun i -> initial.(i)) in
  Aggregate.seed incremental (Relation.as_bag initial_view);
  let outcome =
    Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S) ~view
      ~initial
      ~updates:
        [ (0.0, 1, Delta.insertion (Chain.tuple ~key:100 ~a:3 ~b:4));
          (0.7, 0, Delta.insertion (Chain.tuple ~key:100 ~a:1 ~b:3));
          (1.1, 2, Delta.insertion (Chain.tuple ~key:100 ~a:4 ~b:2));
          (9.0, 1, Delta.deletion (Chain.tuple ~key:100 ~a:3 ~b:4)) ]
      ()
  in
  (* replay the recorded install deltas *)
  List.iter
    (fun (r : Node.install_record) -> Aggregate.apply incremental r.Node.delta)
    (Node.installs outcome.Experiment.node);
  let recomputed = make () in
  Aggregate.seed recomputed (Node.view_contents outcome.Experiment.node);
  List.iter
    (fun key ->
      Alcotest.(check (list (option (float 1e-6))))
        (Format.asprintf "group %a" Tuple.pp key)
        (Aggregate.get recomputed key)
        (Aggregate.get incremental key))
    (List.sort_uniq Tuple.compare
       (Aggregate.groups incremental @ Aggregate.groups recomputed))

(* Property: applying a delta then its negation restores all aggregates. *)
let qcheck_apply_negate_roundtrip =
  QCheck.Test.make ~name:"aggregate apply/negate roundtrip"
    QCheck.(
      small_list (pair (pair (int_range 0 2) (int_range 0 20)) (int_range 1 3)))
    (fun entries ->
      let base =
        Delta.of_list (List.map (fun ((k, v), c) -> (t2 k v, c)) entries)
      in
      let make () =
        Aggregate.create ~group_by:[| 0 |]
          ~aggregates:
            [ Aggregate.Count; Aggregate.Sum 1; Aggregate.Min 1;
              Aggregate.Max 1 ]
      in
      let a = make () in
      Aggregate.apply a base;
      let extra =
        Delta.of_list [ (t2 0 99, 2); (t2 1 3, 1); (t2 2 50, 4) ]
      in
      Aggregate.apply a extra;
      Aggregate.apply a (Delta.negate extra);
      let b = make () in
      Aggregate.apply b base;
      List.for_all
        (fun key -> Aggregate.get a key = Aggregate.get b key)
        (List.map (fun k -> Tuple.ints [ k ]) [ 0; 1; 2 ]))

let suite =
  [ Alcotest.test_case "count/sum/avg" `Quick test_count_sum_avg;
    Alcotest.test_case "min/max survive deletes" `Quick
      test_min_max_under_deletes;
    Alcotest.test_case "group lifecycle" `Quick test_group_lifecycle;
    Alcotest.test_case "over-deletion rejected" `Quick
      test_over_deletion_rejected;
    Alcotest.test_case "non-numeric rejected" `Quick test_non_numeric_rejected;
    Alcotest.test_case "tracks warehouse installs" `Quick
      test_tracks_warehouse_installs;
    QCheck_alcotest.to_alcotest qcheck_apply_negate_roundtrip ]
