open Repro_relational
open Repro_workload

let view2 = Chain.view ~n:2 ()
let view3 = Chain.view ~n:3 ()

(* Deterministic small relation generator for properties. *)
let gen_relation =
  QCheck.map
    (fun entries ->
      Relation.of_list
        (List.map
           (fun ((k : int), a, b) -> (Chain.tuple ~key:k ~a ~b, 1))
           (List.sort_uniq compare entries)))
    QCheck.(small_list (triple (int_range 0 9) (int_range 0 3) (int_range 0 3)))

let test_join_counts_multiply () =
  (* counts multiply across a join: 2 copies ⋈ 3 copies = 6 derivations *)
  let left =
    { Partial.lo = 0; hi = 0;
      data = Delta.of_list [ (Chain.tuple ~key:0 ~a:0 ~b:7, 2) ] }
  in
  let right =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (Chain.tuple ~key:0 ~a:7 ~b:0, 3) ] }
  in
  let joined = Algebra.join view2 left right in
  Alcotest.(check int) "one distinct tuple" 1 (Partial.cardinal joined);
  Alcotest.(check int) "count 6" 6 (Partial.weight joined)

let test_join_sign_propagation () =
  let left =
    { Partial.lo = 0; hi = 0;
      data = Delta.of_list [ (Chain.tuple ~key:0 ~a:0 ~b:7, -1) ] }
  in
  let right =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (Chain.tuple ~key:0 ~a:7 ~b:0, -2) ] }
  in
  let joined = Algebra.join view2 left right in
  Delta.iter
    (fun _ c -> Alcotest.(check int) "(-1)·(-2) = 2" 2 c)
    joined.Partial.data

let test_join_requires_adjacency () =
  let p0 = { Partial.lo = 0; hi = 0; data = Delta.empty () } in
  let p2 = { Partial.lo = 2; hi = 2; data = Delta.empty () } in
  Alcotest.(check bool) "non-adjacent rejected" true
    (match Algebra.join view3 p0 p2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Source [j]'s relation as a partial, sharing its bag. *)
let leaf j r = { Partial.lo = j; hi = j; data = Relation.as_bag r }

let test_extend_both_sides () =
  let r0 = Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:5 ] in
  let r2 = Relation.of_tuples [ Chain.tuple ~key:0 ~a:6 ~b:9 ] in
  let mid =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (Chain.tuple ~key:3 ~a:5 ~b:6, 1) ] }
  in
  let left = Algebra.join view3 (leaf 0 r0) mid in
  Alcotest.(check int) "left extension matched" 1 (Partial.cardinal left);
  Alcotest.(check int) "covers 0..1" 0 left.Partial.lo;
  let both = Algebra.join view3 left (leaf 2 r2) in
  Alcotest.(check bool) "covers all" true (Partial.covers_all view3 both);
  Alcotest.(check bool) "overlapping join rejected" true
    (match Algebra.join view3 left (leaf 0 r0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_select_project () =
  let sel = Predicate.cmp_const Predicate.Gt 1 (Value.int 0) in
  let v = Chain.view ~n:2 ~selection:sel ~projection:[| 0; 3 |] ~name:"sp" () in
  let full =
    { Partial.lo = 0; hi = 1;
      data =
        Delta.of_list
          [ (Tuple.ints [ 1; 1; 7; 10; 7; 2 ], 1);
            (* fails selection: a = 0 *)
            (Tuple.ints [ 2; 0; 7; 11; 7; 2 ], 1);
            (* projects onto the same view tuple as the first *)
            (Tuple.ints [ 1; 2; 8; 10; 8; 3 ], 2) ]
    }
  in
  let out = Algebra.select_project v full in
  Alcotest.check Rig.delta "selection filters, projection accumulates"
    (Delta.of_list [ (Tuple.ints [ 1; 10 ], 3) ])
    out;
  Alcotest.(check bool) "partial coverage rejected" true
    (match
       Algebra.select_project v { full with Partial.hi = 0 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_compensate_example () =
  (* the §5.2 compensation: answer − ΔR1 ⋈ TempView *)
  let view = (Paper_example.view ()) in
  let temp =
    { Partial.lo = 1; hi = 1; data = Delta.of_list [ (Tuple.ints [ 3; 5 ], 1) ] }
  in
  let answer =
    { Partial.lo = 0; hi = 1;
      data = Delta.of_list [ (Tuple.ints [ 1; 3; 3; 5 ], 1) ] }
  in
  let interfering = Delta.deletion (Tuple.ints [ 2; 3 ]) in
  let fixed = Algebra.compensate view ~answer ~interfering ~temp in
  Alcotest.check Rig.delta "both derivations restored"
    (Delta.of_list
       [ (Tuple.ints [ 1; 3; 3; 5 ], 1); (Tuple.ints [ 2; 3; 3; 5 ], 1) ])
    fixed.Partial.data

(* The central algebra property: the incremental delta equals the
   recomputation difference, for inserts and deletes, on 2-way and 3-way
   chains. ΔV = R ⋈ … ⋈ ΔRi ⋈ … ⋈ R computed on the pre-update state. *)
let incremental_matches_recompute view n =
  QCheck.Test.make
    ~name:(Printf.sprintf "incremental = recompute (n=%d)" n)
    ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.return n) gen_relation)
       (QCheck.triple (QCheck.int_range 0 (n - 1)) (QCheck.int_range 0 3)
          (QCheck.int_range 0 3)))
    (fun (rels, (i, a, b)) ->
      let rels = Array.of_list rels in
      let before = Algebra.eval view (fun j -> rels.(j)) in
      (* insert a fresh tuple, or delete an existing one when possible *)
      let delta =
        match Relation.to_sorted_list rels.(i) with
        | (victim, _) :: _ when (a + b) mod 2 = 0 -> Delta.deletion victim
        | _ -> Delta.insertion (Chain.tuple ~key:100 ~a ~b)
      in
      let partial = ref (Partial.of_source_delta view i delta) in
      for j = i - 1 downto 0 do
        partial := Algebra.join view (leaf j rels.(j)) !partial
      done;
      for j = i + 1 to n - 1 do
        partial := Algebra.join view !partial (leaf j rels.(j))
      done;
      let dv = Algebra.select_project view !partial in
      (match Relation.apply rels.(i) delta with
      | Ok () -> ()
      | Error _ -> QCheck.assume_fail ());
      let after = Algebra.eval view (fun j -> rels.(j)) in
      let expected = Delta.of_relation after in
      Bag.diff_into ~into:expected (Relation.as_bag before);
      Delta.equal dv expected)

(* ————— ownership: joins read their inputs in place ————— *)

let view1 = Chain.view ~n:1 ()

(* Joins never mutate what they read: every input relation and partial
   equals the copy taken before the call. *)
let qcheck_inputs_untouched =
  QCheck.Test.make ~name:"join, extend and eval leave their inputs intact"
    ~count:200
    (QCheck.triple gen_relation gen_relation gen_relation)
    (fun (r0, r1, r2) ->
      let rels = [| r0; r1; r2 |] in
      let before = Array.map Relation.copy rels in
      let p1 = Partial.of_relation view3 1 r1 in
      let p1_before = Partial.copy p1 in
      let joined = Algebra.join view3 (leaf 0 r0) p1 in
      let joined_before = Partial.copy joined in
      ignore (Algebra.join view3 p1 (leaf 2 r2));
      ignore (Algebra.join view3 joined (leaf 2 r2));
      ignore (Algebra.eval view3 (fun j -> rels.(j)));
      ignore (Algebra.eval view1 (fun _ -> r0));
      Array.for_all2 Relation.equal rels before
      && Partial.equal p1 p1_before
      && Partial.equal joined joined_before)

(* [eval]'s result is fresh: mutating it, even for a single-source view
   whose projection keeps every column, leaves every fetched relation
   unchanged. *)
let test_eval_result_is_fresh () =
  let r0 = Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ] in
  let r1 = Relation.of_tuples [ Chain.tuple ~key:5 ~a:2 ~b:3 ] in
  let rels = [| r0; r1 |] in
  let before = Array.map Relation.copy rels in
  List.iter
    (fun (name, view) ->
      let v = Algebra.eval view (fun j -> rels.(j)) in
      Relation.to_sorted_list v
      |> List.iter (fun (tup, c) -> Relation.delete v tup c);
      Relation.insert v (Chain.tuple ~key:9 ~a:9 ~b:9) 1;
      Array.iteri
        (fun j r ->
          Alcotest.check Rig.relation
            (Printf.sprintf "%s: relation %d unchanged" name j)
            before.(j) r)
        rels)
    [ ("n=2", view2); ("n=1, every column", view1) ]

(* Recompute installs a fresh delta, never a snapshot it was sent, and
   leaves both the snapshots and the view it read unchanged. *)
let test_recompute_diffs_into_fresh_bag () =
  let open Repro_warehouse in
  let open Repro_protocol in
  let rels =
    [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
       Relation.of_tuples
         [ Chain.tuple ~key:0 ~a:2 ~b:3; Chain.tuple ~key:1 ~a:2 ~b:4 ];
       Relation.of_tuples [ Chain.tuple ~key:0 ~a:3 ~b:5 ] |]
  in
  let snapshots = Array.map Relation.copy rels in
  let snapshots_before = Array.map Relation.copy rels in
  let stale = Tuple.ints [ 9; 9; 9; 9; 9 ] in
  let current = Delta.of_list [ (stale, 1) ] in
  let installs = ref [] and fetches = ref [] in
  let queue = Update_queue.create ~view:view3 () in
  let ctx =
    { Algorithm.engine = Repro_sim.Engine.create (); view = view3;
      trace = Repro_sim.Trace.create ();
      obs = Repro_observability.Obs.disabled (); metrics = Metrics.create ();
      aux = Aux_store.off (); queue;
      send =
        (fun _ msg ->
          match msg with
          | Message.Fetch { qid; _ } -> fetches := qid :: !fetches
          | _ -> ());
      install = (fun d ~txns:_ -> installs := d :: !installs);
      view_contents = (fun () -> current);
      fresh_qid = (fun () -> 7);
      source_ok = (fun _ -> true);
      stall_cap = 0 }
  in
  let t = Recompute.create ctx in
  let update =
    { Message.txn = { Message.source = 1; seq = 0 };
      delta = Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:4);
      occurred_at = 0.; global = None }
  in
  Recompute.on_update t (Update_queue.append queue update ~arrived_at:0.);
  Alcotest.(check (list int)) "one fetch per source" [ 7; 7; 7 ] !fetches;
  Array.iteri
    (fun source relation ->
      Recompute.on_answer t (Message.Snapshot { qid = 7; source; relation }))
    snapshots;
  match !installs with
  | [ d ] ->
      Array.iteri
        (fun j r ->
          Alcotest.(check bool)
            (Printf.sprintf "install is not snapshot %d's bag" j)
            false
            (d == Relation.as_bag r);
          Alcotest.check Rig.relation
            (Printf.sprintf "snapshot %d unchanged" j)
            snapshots_before.(j) r)
        snapshots;
      Alcotest.check Rig.delta "the view it read is unchanged"
        (Delta.of_list [ (stale, 1) ])
        current;
      let expected = Relation.as_bag (Algebra.eval view3 (fun j -> rels.(j))) in
      Bag.add expected stale (-1);
      Alcotest.check Rig.bag "the install is the recomputed view minus the \
                              current one"
        expected d
  | l -> Alcotest.failf "expected one install, got %d" (List.length l)

(* ————— the worst build shapes of the join index ————— *)

(* The shapes of the micro rows that would show a quadratic build: 4000
   source-1 tuples under one join value, probed by one source-0 tuple;
   and a cross-product junction between 1000 and 8 tuples, which
   indexes the 8 under one empty key. Both must equal the nested-loop
   reference. *)
let test_one_key_build () =
  let rels =
    [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:7 ];
       Relation.of_tuples
         (List.init 4000 (fun k -> Chain.tuple ~key:k ~a:7 ~b:k)) |]
  in
  let got = Relation.as_bag (Algebra.eval view2 (Array.get rels)) in
  Alcotest.(check int) "one view tuple per build tuple" 4000
    (Bag.cardinal got);
  Alcotest.check Rig.bag "equals the nested-loop join"
    (Nested_loop.eval view2 rels) got

let test_cross_product_junction () =
  let view =
    View_def.make ~name:"cross" ~schemas:(Chain.schemas ~n:2)
      ~joins:[| Join_spec.make [] |] ~projection:[| 0; 3 |] ()
  in
  let side lo n =
    { Partial.lo; hi = lo;
      data =
        Delta.of_list
          (List.init n (fun k -> (Chain.tuple ~key:k ~a:(k mod 5) ~b:k, 1))) }
  in
  let left = side 0 1000 and right = side 1 8 in
  let got = Algebra.join view left right in
  Alcotest.(check int) "every pair joins" 8000 (Partial.cardinal got);
  Alcotest.(check bool) "equals the nested-loop join" true
    (Partial.equal got (Nested_loop.join view left right))

let suite =
  [ Alcotest.test_case "join multiplies counts" `Quick
      test_join_counts_multiply;
    Alcotest.test_case "join propagates signs" `Quick
      test_join_sign_propagation;
    Alcotest.test_case "join adjacency enforced" `Quick
      test_join_requires_adjacency;
    Alcotest.test_case "extend on both sides" `Quick test_extend_both_sides;
    Alcotest.test_case "select and project" `Quick test_select_project;
    Alcotest.test_case "compensation (paper example)" `Quick
      test_compensate_example;
    QCheck_alcotest.to_alcotest (incremental_matches_recompute view2 2);
    QCheck_alcotest.to_alcotest (incremental_matches_recompute view3 3);
    QCheck_alcotest.to_alcotest qcheck_inputs_untouched;
    Alcotest.test_case "eval's result is fresh" `Quick
      test_eval_result_is_fresh;
    Alcotest.test_case "recompute diffs into a fresh bag" `Quick
      test_recompute_diffs_into_fresh_bag;
    Alcotest.test_case "a 4k-tuple build under one join value" `Quick
      test_one_key_build;
    Alcotest.test_case "a 1k x 8 cross-product junction" `Quick
      test_cross_product_junction ]
