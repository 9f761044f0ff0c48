open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_source

let test_txn_id_order () =
  let a = { Message.source = 0; seq = 5 } in
  let b = { Message.source = 1; seq = 0 } in
  Alcotest.(check bool) "source major" true (Message.compare_txn_id a b < 0);
  Alcotest.(check bool) "seq minor" true
    (Message.compare_txn_id a { a with Message.seq = 6 } < 0);
  Alcotest.(check string) "printing" "u0.5"
    (Format.asprintf "%a" Message.pp_txn_id a)

let test_message_weights () =
  let d = Delta.of_list [ (Tuple.ints [ 1 ], 2); (Tuple.ints [ 2 ], -1) ] in
  let p = { Partial.lo = 0; hi = 0; data = d } in
  Alcotest.(check int) "sweep query weight" 3
    (Message.weight_to_source
       (Message.Sweep_query { qid = 1; target = 0; partial = p }));
  Alcotest.(check int) "fetch weight" 1
    (Message.weight_to_source (Message.Fetch { qid = 1; target = 0 }));
  Alcotest.(check int) "eca query weight: Σ pins + 1 per term" 8
    (Message.weight_to_source
       (Message.Eca_query { qid = 1; terms = [ [ (0, d) ]; [ (0, d) ] ] }));
  Alcotest.(check int) "notice weight" 3
    (Message.weight_to_warehouse
       (Message.Update_notice
          { txn = { Message.source = 0; seq = 0 }; delta = d;
            occurred_at = 0.; global = None }));
  Alcotest.(check int) "snapshot weight" 4
    (Message.weight_to_warehouse
       (Message.Snapshot
          { qid = 1; source = 0;
            relation = Relation.of_list [ (Tuple.ints [ 9 ], 4) ] }))

let test_base_table_log () =
  let module Chain = Repro_workload.Chain in
  let tbl =
    Base_table.create ~source:2 ~view:(Chain.view ~n:3 ()) (Relation.create ())
  in
  let tuple k = Chain.tuple ~key:k ~a:k ~b:k in
  let t1 = Base_table.apply tbl (Delta.insertion (tuple 1)) in
  let t2 = Base_table.apply tbl (Delta.insertion (tuple 2)) in
  Alcotest.(check int) "seq 0" 0 t1.Message.seq;
  Alcotest.(check int) "seq 1" 1 t2.Message.seq;
  Alcotest.(check int) "source stamped" 2 t1.Message.source;
  Alcotest.(check int) "applied" 2 (Base_table.applied tbl);
  Alcotest.(check bool) "bad delete raises" true
    (match Base_table.apply tbl (Delta.deletion (tuple 99)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A lone source node answering a sweep query must compute ΔV ⋈ R
   (Fig. 3) against its *current* relation. *)
let test_source_node_query () =
  let view = (Paper_example.view ()) in
  let engine = Engine.create () in
  let outbox = ref [] in
  let src =
    Source_node.create engine ~view ~id:0
      ~init:(Paper_example.initial ()).(0)
      ~send:(fun m -> outbox := m :: !outbox)
      ~trace:(Trace.create ())
  in
  (* local update first: (2,3) disappears *)
  ignore (Source_node.local_update src (Delta.deletion (Tuple.ints [ 2; 3 ])));
  let partial =
    { Partial.lo = 1; hi = 1; data = Delta.of_list [ (Tuple.ints [ 3; 5 ], 1) ] }
  in
  Source_node.handle src (Message.Sweep_query { qid = 7; target = 0; partial });
  (match !outbox with
  | [ Message.Answer { qid = 7; source = 0; partial = ans };
      Message.Update_notice _ ] ->
      Alcotest.check Rig.delta "answer reflects the newer state"
        (Delta.of_list [ (Tuple.ints [ 1; 3; 3; 5 ], 1) ])
        ans.Partial.data
  | _ -> Alcotest.fail "expected notice then answer");
  Alcotest.(check bool) "misrouted query rejected" true
    (match
       Source_node.handle src
         (Message.Sweep_query { qid = 8; target = 1; partial })
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_source_node_fetch_snapshot_isolated () =
  let view = (Paper_example.view ()) in
  let engine = Engine.create () in
  let outbox = ref [] in
  let src =
    Source_node.create engine ~view ~id:2
      ~init:(Paper_example.initial ()).(2)
      ~send:(fun m -> outbox := m :: !outbox)
      ~trace:(Trace.create ())
  in
  Source_node.handle src (Message.Fetch { qid = 1; target = 2 });
  let snap =
    match !outbox with
    | [ Message.Snapshot { relation; _ } ] -> relation
    | _ -> Alcotest.fail "expected snapshot"
  in
  (* mutating the source afterwards must not affect the shipped copy *)
  ignore (Source_node.local_update src (Delta.deletion (Tuple.ints [ 7; 8 ])));
  Alcotest.(check int) "snapshot is isolated" 2 (Relation.cardinal snap)

let test_eca_site_terms () =
  let view = (Paper_example.view ()) in
  let engine = Engine.create () in
  let outbox = ref [] in
  let site =
    Eca_site.create engine ~view ~inits:(Paper_example.initial ())
      ~send:(fun m -> outbox := m :: !outbox)
      ~trace:(Trace.create ())
  in
  (* ΔR2 = +(3,5): V(U) term evaluates to the two full-width tuples *)
  let d = Delta.insertion (Tuple.ints [ 3; 5 ]) in
  let result = Eca_site.eval_terms site [ [ (1, d) ] ] in
  Alcotest.(check int) "two derivations, no (7,8) partner for D=5... " 0
    (Delta.count result.Partial.data (Tuple.ints [ 1; 3; 3; 5; 7; 8 ]));
  (* (3,5) joins R3 on D=5 → (5,6) *)
  Alcotest.(check int) "derivation via (5,6)" 1
    (Delta.count result.Partial.data (Tuple.ints [ 1; 3; 3; 5; 5; 6 ]));
  Alcotest.(check int) "both R1 tuples match" 1
    (Delta.count result.Partial.data (Tuple.ints [ 2; 3; 3; 5; 5; 6 ]));
  (* a two-term expression sums *)
  let two = Eca_site.eval_terms site [ [ (1, d) ]; [ (1, d) ] ] in
  Alcotest.(check int) "terms sum" 2
    (Delta.count two.Partial.data (Tuple.ints [ 1; 3; 3; 5; 5; 6 ]));
  Alcotest.check_raises "a term that pins no source is rejected"
    (Invalid_argument "Eca_site.eval_terms: term pins no source") (fun () ->
      ignore (Eca_site.eval_terms site [ [] ]))

let suite =
  [ Alcotest.test_case "txn id ordering" `Quick test_txn_id_order;
    Alcotest.test_case "message weights" `Quick test_message_weights;
    Alcotest.test_case "base table log" `Quick test_base_table_log;
    Alcotest.test_case "source node: query joins current state" `Quick
      test_source_node_query;
    Alcotest.test_case "source node: snapshot isolation" `Quick
      test_source_node_fetch_snapshot_isolated;
    Alcotest.test_case "eca site: term evaluation" `Quick test_eca_site_terms ]
