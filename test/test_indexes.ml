(* Persistent join-column indexes at the sources: maintenance under
   updates, probe results, and equivalence of the indexed sweep-query
   fast path with the generic hash join. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_source
open Repro_warehouse
open Repro_workload

let view = Chain.view ~n:3 ()

let test_index_maintenance () =
  let tbl =
    Base_table.create ~source:1 ~indexes:[ 1; 2 ]
      (Relation.of_tuples
         [ Chain.tuple ~key:0 ~a:5 ~b:7; Chain.tuple ~key:1 ~a:5 ~b:8 ])
  in
  Alcotest.(check (list int)) "indexed columns" [ 1; 2 ]
    (Base_table.indexed_columns tbl);
  Alcotest.(check int) "probe a=5 finds both" 2
    (List.length (Rig.matches (Base_table.probe tbl ~col:1 ~value:(Value.int 5))));
  Alcotest.(check int) "probe b=7 finds one" 1
    (List.length (Rig.matches (Base_table.probe tbl ~col:2 ~value:(Value.int 7))));
  (* updates keep the index exact *)
  ignore (Base_table.apply tbl (Delta.deletion (Chain.tuple ~key:0 ~a:5 ~b:7)));
  Alcotest.(check int) "after delete" 1
    (List.length (Rig.matches (Base_table.probe tbl ~col:1 ~value:(Value.int 5))));
  Alcotest.(check int) "emptied bucket" 0
    (List.length (Rig.matches (Base_table.probe tbl ~col:2 ~value:(Value.int 7))));
  ignore
    (Base_table.apply tbl
       (Delta.of_list [ (Chain.tuple ~key:2 ~a:5 ~b:7, 3) ]));
  (match Rig.matches (Base_table.probe tbl ~col:2 ~value:(Value.int 7)) with
  | [ (_, 3) ] -> ()
  | _ -> Alcotest.fail "expected multiplicity 3 via index");
  (* an unindexed column degrades to a counted scan with the same answer *)
  let before = Base_table.scan_count tbl in
  Alcotest.(check int) "unindexed probe scans to the same answer" 1
    (List.length (Rig.matches (Base_table.probe tbl ~col:0 ~value:(Value.int 2))));
  Alcotest.(check int) "and the degradation is counted" (before + 1)
    (Base_table.scan_count tbl)

(* Property: the probe-served extension equals the generic hash join on
   random relations and partials, on both sides. *)
let qcheck_probe_equals_extend =
  let gen_rel =
    QCheck.map
      (fun entries ->
        Relation.of_list
          (List.map
             (fun ((k : int), a, b) -> (Chain.tuple ~key:k ~a ~b, 1))
             (List.sort_uniq compare entries)))
      QCheck.(
        small_list (triple (int_range 0 9) (int_range 0 3) (int_range 0 3)))
  in
  QCheck.Test.make ~name:"indexed probe ≡ generic extend" ~count:200
    (QCheck.triple gen_rel gen_rel QCheck.bool)
    (fun (r_src, r_mid, left_side) ->
      let source = if left_side then 0 else 2 in
      let tbl =
        Base_table.create ~source
          ~indexes:(if left_side then [ 2 ] else [ 1 ])
          r_src
      in
      let partial = Partial.of_relation view 1 r_mid in
      let via_probe =
        Algebra.extend_with_probe view partial ~source
          ~probe:(fun ~col ~value -> Base_table.probe tbl ~col ~value)
      in
      let generic =
        Algebra.extend view partial ~with_relation:(source, r_src)
      in
      match via_probe with
      | Some p -> Partial.equal p generic
      | None -> false)

(* Residual junctions are served by the probe path now (the residual
   filters probe hits when the adjacent ranges meet); only a junction
   with no equality at all — a cross product, nothing to probe on —
   declines. *)
let test_probe_serves_residuals_declines_cross () =
  let schemas = Chain.schemas ~n:2 in
  let v =
    View_def.make ~name:"residual" ~schemas
      ~joins:
        [| Join_spec.make
             ~residual:(Predicate.cmp_const Predicate.Gt 1 (Value.int 0))
             [ (2, 4) ] |]
      ~projection:[| 0; 3 |] ()
  in
  let r_src =
    Relation.of_tuples
      [ Chain.tuple ~key:0 ~a:1 ~b:1; Chain.tuple ~key:1 ~a:0 ~b:1;
        Chain.tuple ~key:2 ~a:2 ~b:2 ]
  in
  let tbl = Base_table.create ~source:0 ~view:v r_src in
  let partial =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1) ] }
  in
  (match
     Algebra.extend_with_probe v partial ~source:0
       ~probe:(fun ~col ~value -> Base_table.probe tbl ~col ~value)
   with
  | None -> Alcotest.fail "residual junction must be served, not declined"
  | Some p ->
      Alcotest.(check bool) "residual-filtered probe ≡ generic extend" true
        (Partial.equal p (Algebra.extend v partial ~with_relation:(0, r_src))));
  let cross =
    View_def.make ~name:"cross" ~schemas
      ~joins:[| Join_spec.make [] |]
      ~projection:[| 0; 3 |] ()
  in
  Alcotest.(check bool) "cross-product junction declines" true
    (Algebra.extend_with_probe cross partial ~source:0
       ~probe:(fun ~col:_ ~value:_ _ -> ())
    = None)

let test_source_auto_indexes () =
  let engine = Engine.create () in
  let src =
    Source_node.create engine ~view ~id:1
      ~init:(Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ])
      ~send:(fun _ -> ())
      ~trace:(Trace.create ())
  in
  (* middle source indexes both its join columns: a (=1) and b (=2) *)
  Alcotest.(check (list int)) "auto-derived join columns" [ 1; 2 ]
    (Base_table.indexed_columns (Source_node.table src));
  let endpoint =
    Source_node.create engine ~view ~id:0
      ~init:(Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ])
      ~send:(fun _ -> ())
      ~trace:(Trace.create ())
  in
  Alcotest.(check (list int)) "endpoint indexes one column" [ 2 ]
    (Base_table.indexed_columns (Source_node.table endpoint))

(* The cross-product fallback through the three callers that take it —
   a source answering a sweep query, the ECA site answering one, the
   aux store answering a leg locally in [Full] mode — each against the
   reference hash join. The view projects every attribute, so [Full]
   tracks every column and its lifted answer is the full tuple. *)
let test_cross_product_fallback () =
  let cross =
    View_def.make ~name:"cross" ~schemas:(Chain.schemas ~n:2)
      ~joins:[| Join_spec.make [] |]
      ~projection:[| 0; 1; 2; 3; 4; 5 |] ()
  in
  let r0 =
    Relation.of_tuples
      [ Chain.tuple ~key:0 ~a:1 ~b:1; Chain.tuple ~key:1 ~a:2 ~b:3 ]
  in
  let r1 = Relation.of_tuples [ Chain.tuple ~key:5 ~a:4 ~b:4 ] in
  let partial =
    { Partial.lo = 1; hi = 1;
      data =
        Delta.of_list
          [ (Chain.tuple ~key:7 ~a:1 ~b:2, 2); (Chain.tuple ~key:8 ~a:0 ~b:0, -1) ] }
  in
  let want = Algebra.extend cross partial ~with_relation:(0, r0) in
  let check ctx got =
    Alcotest.(check bool) (ctx ^ " ≡ reference") true (Partial.equal got want)
  in
  let answer = ref None in
  let send = function
    | Message.Answer { partial; _ } -> answer := Some partial
    | m -> Alcotest.failf "unexpected %a" Message.pp_to_warehouse m
  in
  let answered () =
    let a = Option.get !answer in
    answer := None;
    a
  in
  let query = Message.Sweep_query { qid = 1; target = 0; partial } in
  let engine = Engine.create () and trace = Trace.create () in
  let src = Source_node.create engine ~view:cross ~id:0 ~init:r0 ~send ~trace in
  Source_node.handle src query;
  check "Source_node.handle" (answered ());
  let site =
    Eca_site.create engine ~view:cross ~inits:[| r0; r1 |] ~send ~trace
  in
  Eca_site.handle site query;
  check "Eca_site.handle" (answered ());
  let aux =
    Aux_store.create ~view:cross ~mode:Aux_store.Full ~initial:[| r0; r1 |] ()
  in
  match
    Aux_store.local_answer aux ~target:0 ~partial ~overlay:(Delta.empty ())
  with
  | None -> Alcotest.fail "Full mode must answer the cross-product leg"
  | Some got -> check "Aux_store.local_answer" got

(* ————— Column_index: incremental = rebuilt ————— *)

(* Random update transactions over a tiny domain, so that tuples repeat,
   counts cancel within and across transactions, and buckets empty.
   Each (key, a, b, n) adds [n] copies (negative: deletes); a
   transaction that would drive a count below zero is skipped. *)
let gen_txns =
  QCheck.(
    small_list
      (small_list
         (quad (int_range 0 3) (int_range 0 2) (int_range 0 2)
            (int_range (-2) 2))))

let delta_of txn =
  Delta.of_list
    (List.map (fun (key, a, b, n) -> (Chain.tuple ~key ~a ~b, n)) txn)

(* Runs [txns] against [mirror], calling [apply] with every delta it
   accepts. *)
let replay mirror txns apply =
  List.iter
    (fun txn ->
      let d = delta_of txn in
      match Relation.applied mirror d with
      | Ok _ ->
          ignore (Relation.apply mirror d);
          apply d
      | Error _ -> ())
    txns

let qcheck_column_index_base_table =
  QCheck.Test.make ~name:"Column_index: Base_table's indexes equal rebuilt ones"
    ~count:300 gen_txns (fun txns ->
      let cols = [ 0; 1; 2 ] in
      let tbl =
        Base_table.create ~source:1 ~indexes:cols (Relation.create ())
      in
      let mirror = Relation.create () in
      replay mirror txns (fun d -> ignore (Base_table.apply tbl d));
      List.for_all
        (fun col ->
          match Base_table.index tbl ~col with
          | Some idx ->
              Column_index.equal idx
                (Column_index.of_bag ~col (Relation.as_bag mirror))
          | None -> false)
        cols)

(* The Aux_store use indexes projected tuples: in keys-only mode source 0
   of a 2-chain tracks (k, b), so tuples that differ only in [a] project
   alike and their counts cancel in the projection. *)
let qcheck_column_index_aux_store =
  QCheck.Test.make ~name:"Column_index: Aux_store's indexes equal rebuilt ones"
    ~count:300 gen_txns (fun txns ->
      let view = Chain.view ~n:2 () in
      let aux =
        Aux_store.create ~view ~mode:Aux_store.Keys_only
          ~initial:[| Relation.create (); Relation.create () |]
          ()
      in
      let mirror = Relation.create () in
      replay mirror txns (fun d -> Aux_store.apply aux ~source:0 d);
      let tracked = Aux_store.tracked aux 0 in
      let projected = Bag.create () in
      Relation.iter
        (fun tup c -> Bag.add projected (Tuple.project tup tracked) c)
        mirror;
      List.for_all
        (fun col ->
          match Aux_store.index aux 0 ~col with
          | Some idx ->
              let pos = ref (-1) in
              Array.iteri (fun k c -> if c = col then pos := k) tracked;
              Column_index.equal idx (Column_index.of_bag ~col:!pos projected)
          | None -> false)
        (View_def.join_columns view 0))

(* ————— Compensation probes the queued L_j ————— *)

(* [Algebra.compensate ~index ~extras] joins TempView with L_j by
   probing L_j's column indexes and with each extra by the hash join,
   all into one error term. It must equal subtracting the join of the
   summed interference, over 2-chains whose junction is one equality, two
   equalities, an equality with a residual, or a cross product, with L_j
   on either side of TempView. Counts are signed and, when [cancel]
   holds, one extra is −L_j, so the summed interference cancels. When the
   error term is empty the answer itself comes back. *)
let qcheck_probe_compensation =
  let schemas = Chain.schemas ~n:2 in
  let junctions =
    [| Join_spec.make [ (2, 4) ];
       Join_spec.make [ (2, 4); (1, 5) ];
       Join_spec.make
         ~residual:
           (Predicate.Cmp (Predicate.Ge, Predicate.Attr 0, Predicate.Attr 3))
         [ (2, 4) ];
       Join_spec.make [] |]
  in
  let views =
    Array.mapi
      (fun i js ->
        View_def.make ~name:(Printf.sprintf "junction-%d" i) ~schemas
          ~joins:[| js |] ~projection:[| 0; 3 |] ())
      junctions
  in
  let gen_delta =
    QCheck.(
      small_list
        (pair (triple (int_range 0 2) (int_range 0 2) (int_range 0 2))
           (int_range (-2) 2)))
  in
  let delta_of l =
    Delta.of_list
      (List.map (fun ((k, a, b), c) -> (Chain.tuple ~key:k ~a ~b, c)) l)
  in
  QCheck.Test.make ~name:"probe compensation ≡ subtracting the summed join"
    ~count:300
    QCheck.(
      pair
        (triple (int_range 0 3) bool bool)
        (quad gen_delta gen_delta (small_list gen_delta) gen_delta))
    (fun ((v, left, cancel), (temp_l, lj_l, extras_l, r_l)) ->
      let view = views.(v) in
      let j, t = if left then (0, 1) else (1, 0) in
      let temp = { Partial.lo = t; hi = t; data = delta_of temp_l } in
      let lj = delta_of lj_l in
      let extras =
        List.map delta_of extras_l @ if cancel then [ Delta.negate lj ] else []
      in
      let join_with_temp d =
        let dp = { Partial.lo = j; hi = j; data = d } in
        if left then Algebra.join view dp temp else Algebra.join view temp dp
      in
      let answer = join_with_temp (Delta.sum (delta_of r_l :: lj :: extras)) in
      let error = join_with_temp (Delta.sum (lj :: extras)) in
      let index =
        List.map
          (fun col -> Column_index.of_bag ~col lj)
          (List.sort_uniq compare (View_def.join_columns view j))
      in
      let lj_before = Delta.copy lj and answer_before = Partial.copy answer in
      let got =
        Algebra.compensate ~index ~extras view ~answer ~interfering:lj ~temp
      in
      Partial.equal got (Partial.sub answer error)
      && (Partial.is_empty error = (got == answer))
      && Delta.equal lj lj_before
      && Partial.equal answer answer_before
      && List.for_all
           (fun idx ->
             Column_index.equal idx
               (Column_index.of_bag ~col:(Column_index.col idx) lj))
           index)

(* A bucket holds a lone tuple inline and a [Bag] from the second
   distinct tuple on; it must read the same through every transition:
   one tuple, two, back to one, then none. *)
let test_inline_bucket_transitions () =
  let col = 1 in
  let idx = Column_index.of_bag ~col (Bag.create ()) in
  let mirror = Bag.create () in
  let u = Chain.tuple ~key:0 ~a:5 ~b:1 and w = Chain.tuple ~key:1 ~a:5 ~b:2 in
  let under_5 () =
    List.sort compare (Rig.matches (Column_index.iter idx (Value.int 5)))
  in
  let step name tup n expected =
    Column_index.add idx tup n;
    Bag.add mirror tup n;
    Alcotest.(check bool) (name ^ ": bucket contents") true
      (under_5 () = List.sort compare expected);
    Alcotest.(check bool) (name ^ ": equals the rebuilt index") true
      (Column_index.equal idx (Column_index.of_bag ~col mirror))
  in
  step "one tuple" u 1 [ (u, 1) ];
  step "same tuple again" u 2 [ (u, 3) ];
  step "two tuples" w (-1) [ (u, 3); (w, -1) ];
  step "back to one" u (-3) [ (w, -1) ];
  step "two again" u 1 [ (u, 1); (w, -1) ];
  step "one again" u (-1) [ (w, -1) ];
  step "empty" w 1 [];
  Alcotest.(check bool) "an emptied index equals an empty one" true
    (Column_index.equal idx (Column_index.of_bag ~col (Bag.create ())))

let suite =
  [ Alcotest.test_case "index maintenance under updates" `Quick
      test_index_maintenance;
    QCheck_alcotest.to_alcotest qcheck_probe_equals_extend;
    Alcotest.test_case "fast path serves residuals, declines cross products"
      `Quick test_probe_serves_residuals_declines_cross;
    Alcotest.test_case "sources auto-index join columns" `Quick
      test_source_auto_indexes;
    Alcotest.test_case "cross-product fallback through its callers" `Quick
      test_cross_product_fallback;
    QCheck_alcotest.to_alcotest qcheck_column_index_base_table;
    QCheck_alcotest.to_alcotest qcheck_column_index_aux_store;
    Alcotest.test_case "Column_index: inline buckets through every transition"
      `Quick test_inline_bucket_transitions;
    QCheck_alcotest.to_alcotest qcheck_probe_compensation ]
