(* Join indexes (DESIGN.md §15): the one index every join leg probes,
   changed in place as its bag changes; its maintenance at the sources,
   the update queue and the auxiliary store; and every leg that probes
   it against the nested-loop reference on every junction shape. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_source
open Repro_warehouse
open Repro_workload

let view = Chain.view ~n:3 ()

(* The four junction shapes of a 2-chain: one equality, two equalities,
   an equality with a residual, and a cross product. Each projects the
   keys of both sources. *)
let shapes =
  let junctions =
    [| Join_spec.make [ (2, 4) ];
       Join_spec.make [ (2, 4); (1, 5) ];
       Join_spec.make
         ~residual:
           (Predicate.Cmp (Predicate.Ge, Predicate.Attr 0, Predicate.Attr 3))
         [ (2, 4) ];
       Join_spec.make [] |]
  in
  Array.mapi
    (fun i js ->
      View_def.make ~name:(Printf.sprintf "junction-%d" i)
        ~schemas:(Chain.schemas ~n:2) ~joins:[| js |] ~projection:[| 0; 3 |] ())
    junctions

(* A middle source of [view] keeps one index per junction: keyed on
   [a] (column 1) toward source 0 and on [b] (column 2) toward source 2. *)
let test_index_maintenance () =
  let tbl =
    Base_table.create ~source:1 ~view
      (Relation.of_tuples
         [ Chain.tuple ~key:0 ~a:5 ~b:7; Chain.tuple ~key:1 ~a:5 ~b:8 ])
  in
  let ix = Base_table.indexes tbl in
  let under idx col v =
    Rig.matches (Algebra.matches (Option.get idx) (Tuple.ints [ v ]) [| col |])
  in
  let a5 () = under ix.Algebra.lower 0 5 in
  let b7 () = under ix.Algebra.upper 0 7 in
  Alcotest.(check int) "probe a=5 finds both" 2 (List.length (a5 ()));
  Alcotest.(check int) "probe b=7 finds one" 1 (List.length (b7 ()));
  (* updates keep the index exact *)
  ignore (Base_table.apply tbl (Delta.deletion (Chain.tuple ~key:0 ~a:5 ~b:7)));
  Alcotest.(check int) "after delete" 1 (List.length (a5 ()));
  Alcotest.(check int) "emptied key" 0 (List.length (b7 ()));
  ignore
    (Base_table.apply tbl
       (Delta.of_list [ (Chain.tuple ~key:2 ~a:5 ~b:7, 3) ]));
  match b7 () with
  | [ (_, 3) ] -> ()
  | _ -> Alcotest.fail "expected multiplicity 3 via index"

(* A source's leg, probing its table's index, equals the nested-loop
   join on every junction shape, with the source on either side. *)
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
    QCheck.(quad (int_range 0 3) gen_rel gen_rel bool)
    (fun (v, r_src, r_other, left_side) ->
      let view = shapes.(v) in
      let source, other = if left_side then (0, 1) else (1, 0) in
      let tbl = Base_table.create ~source ~view r_src in
      let partial = Partial.of_relation view other r_other in
      Partial.equal
        (Base_table.extend tbl partial)
        (Nested_loop.extend view partial ~with_relation:(source, r_src)))

(* A residual junction filters the probe's pairs, and a junction with no
   equality probes the index with no key columns, whose one chain holds
   every tuple. *)
let test_probe_serves_residuals_and_cross () =
  let r_src =
    Relation.of_tuples
      [ Chain.tuple ~key:0 ~a:1 ~b:1; Chain.tuple ~key:1 ~a:0 ~b:1;
        Chain.tuple ~key:2 ~a:2 ~b:2 ]
  in
  let partial =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1) ] }
  in
  List.iter
    (fun (name, v) ->
      let tbl = Base_table.create ~source:0 ~view:v r_src in
      Alcotest.(check bool) (name ^ ": probe ≡ reference") true
        (Partial.equal
           (Base_table.extend tbl partial)
           (Nested_loop.extend v partial ~with_relation:(0, r_src))))
    [ ("residual", shapes.(2)); ("cross product", shapes.(3)) ]

let test_source_auto_indexes () =
  let engine = Engine.create () in
  let indexes view id =
    Base_table.indexes
      (Source_node.table
         (Source_node.create engine ~view ~id
            ~init:(Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ])
            ~send:(fun _ -> ())
            ~trace:(Trace.create ())))
  in
  let shape (ix : Algebra.indexes) =
    match (ix.lower, ix.upper) with
    | Some l, Some u -> if l == u then "shared" else "two"
    | Some _, None -> "lower"
    | None, Some _ -> "upper"
    | None, None -> "none"
  in
  (* a middle source indexes both junctions: on a (=1) and on b (=2) *)
  Alcotest.(check string) "middle source" "two" (shape (indexes view 1));
  Alcotest.(check string) "first source" "upper" (shape (indexes view 0));
  Alcotest.(check string) "last source" "lower" (shape (indexes view 2));
  (* source 1 joins both neighbours on a: one index serves both *)
  let same_key =
    View_def.make ~name:"same-key" ~schemas:(Chain.schemas ~n:3)
      ~joins:[| Join_spec.make [ (2, 4) ]; Join_spec.make [ (4, 7) ] |]
      ~projection:[| 0 |] ()
  in
  Alcotest.(check string) "a key both junctions share" "shared"
    (shape (indexes same_key 1))

(* The callers that once fell back to a whole-relation join on a cross
   product now probe on every junction shape: a source answering a
   sweep query, the ECA site answering one, and the aux store answering
   a leg locally in [Full] and [Keys_only] mode, with an overlay that
   inserts one tuple and deletes another. The sources
   answer exactly the reference partial; the aux store lifts untracked
   columns to Null, so its answer is compared through the view's
   selection and projection, which never read them. *)
let test_cross_product_fallback () =
  let r0 =
    Relation.of_tuples
      [ Chain.tuple ~key:0 ~a:1 ~b:1; Chain.tuple ~key:1 ~a:2 ~b:3;
        Chain.tuple ~key:2 ~a:2 ~b:1 ]
  in
  let r1 = Relation.of_tuples [ Chain.tuple ~key:5 ~a:4 ~b:4 ] in
  let partial =
    { Partial.lo = 1; hi = 1;
      data =
        Delta.of_list
          [ (Chain.tuple ~key:7 ~a:1 ~b:2, 2);
            (Chain.tuple ~key:8 ~a:3 ~b:1, -1);
            (Chain.tuple ~key:0 ~a:1 ~b:1, 1) ] }
  in
  let overlay =
    Delta.of_list
      [ (Chain.tuple ~key:3 ~a:3 ~b:1, 1); (Chain.tuple ~key:1 ~a:2 ~b:3, -1) ]
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
  Array.iteri
    (fun i cross ->
      let ctx what = Printf.sprintf "junction-%d: %s ≡ reference" i what in
      let want = Nested_loop.extend cross partial ~with_relation:(0, r0) in
      let check what got =
        Alcotest.(check bool) (ctx what) true (Partial.equal got want)
      in
      let engine = Engine.create () and trace = Trace.create () in
      let src =
        Source_node.create engine ~view:cross ~id:0 ~init:r0 ~send ~trace
      in
      Source_node.handle src query;
      check "Source_node.handle" (answered ());
      let site =
        Eca_site.create engine ~view:cross ~inits:[| r0; r1 |] ~send ~trace
      in
      Eca_site.handle site query;
      check "Eca_site.handle" (answered ());
      let r0' = Relation.copy r0 in
      ignore (Relation.apply r0' overlay);
      let want = Nested_loop.extend cross partial ~with_relation:(0, r0') in
      List.iter
        (fun mode ->
          let aux =
            Aux_store.create ~view:cross ~mode ~initial:[| r0; r1 |] ()
          in
          match Aux_store.local_answer aux ~target:0 ~partial ~overlay with
          | None -> Alcotest.fail (ctx "an answerable leg declined")
          | Some got ->
              Alcotest.(check bool)
                (ctx ("Aux_store " ^ Aux_store.mode_to_string mode))
                true
                (Delta.equal
                   (Algebra.select_project cross got)
                   (Algebra.select_project cross want)))
        [ Aux_store.Full; Aux_store.Keys_only ])
    shapes

(* ————— the join index against a model ————— *)

module Model = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

(* Signed adds over a tiny domain, so that counts cancel, chains empty
   and keys leave the table from the middle of linear-probe runs, which
   a small table makes wrap. The index starts from a bulk build of at
   most two entries, so it must grow its table and its entries. After
   every add, probing each key of the domain yields the model's entries
   under that key, and the index equals a bulk build of the model. Keys
   are one column, two, or none (a cross product: one key, one
   chain). *)
let qcheck_index_model =
  let entry =
    QCheck.(
      quad (int_range 0 3) (int_range 0 2) (int_range 0 2) (int_range (-2) 2))
  in
  QCheck.Test.make ~name:"join index: signed adds ≡ a Map model and a build"
    ~count:500
    QCheck.(
      triple (int_range 0 2) (list_of_size Gen.(0 -- 2) entry) (small_list entry))
    (fun (kc, initial, adds) ->
      let cols = [| [| 1 |]; [| 1; 2 |]; [||] |].(kc) in
      let tuple (key, a, b, _) = Chain.tuple ~key ~a ~b in
      let bump model (tup, n) =
        Model.update tup
          (fun c ->
            match Option.value c ~default:0 + n with 0 -> None | c -> Some c)
          model
      in
      let initial = List.map (fun e -> (tuple e, 1)) initial in
      let model = ref (List.fold_left bump Model.empty initial) in
      let bag m = Delta.of_list (Model.bindings m) in
      let idx = Algebra.index (bag !model) cols in
      let sorted l = List.sort compare l in
      let keys =
        List.concat_map
          (fun a -> List.map (fun b -> Chain.tuple ~key:0 ~a ~b) [ 0; 1; 2 ])
          [ 0; 1; 2 ]
      in
      let agrees () =
        List.for_all
          (fun k ->
            sorted (Rig.matches (Algebra.matches idx k cols))
            = sorted
                (Model.bindings
                   (Model.filter
                      (fun t _ -> Tuple.equal_cols t cols k cols)
                      !model)))
          keys
        && Algebra.equal_index idx (Algebra.index (bag !model) cols)
      in
      List.for_all
        (fun ((_, _, _, n) as e) ->
          Algebra.add idx (tuple e) n;
          model := bump !model (tuple e, n);
          agrees ())
        adds)

(* Each key's size, kept with its chain's head, against the chain after
   every add ([Algebra.equal_index] checks it on both sides), from an
   empty index. Keys are the 64 values of [b], each with up to four
   tuples: keys come and go, so the table doubles several times,
   emptied keys leave runs by backward shift, moving the keys behind
   them, and freed entries are taken again. With no key columns, every
   tuple is under one key. *)
let qcheck_index_sizes =
  let add =
    QCheck.(triple (int_range 0 63) (int_range 0 3) (oneofl [ 1; -1 ]))
  in
  QCheck.Test.make ~name:"join index: each key's size is its chain's length"
    ~count:100
    QCheck.(pair bool (list_of_size Gen.(0 -- 400) add))
    (fun (cross, adds) ->
      let cols = if cross then [||] else [| 2 |] in
      let idx = Algebra.index (Delta.empty ()) cols in
      let model = ref Model.empty in
      List.for_all
        (fun (b, a, n) ->
          let tup = Chain.tuple ~key:0 ~a ~b in
          Algebra.add idx tup n;
          model :=
            Model.update tup
              (fun c ->
                match Option.value c ~default:0 + n with
                | 0 -> None
                | c -> Some c)
              !model;
          Algebra.equal_index idx
            (Algebra.index (Delta.of_list (Model.bindings !model)) cols))
        adds)

(* ————— the owners' indexes equal rebuilt ones ————— *)

(* Random update transactions over a tiny domain, so that tuples repeat,
   counts cancel within and across transactions, and keys empty.
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

let qcheck_base_table_indexes =
  QCheck.Test.make ~name:"join index: Base_table's indexes equal rebuilt ones"
    ~count:300 gen_txns (fun txns ->
      let tbl = Base_table.create ~source:1 ~view (Relation.create ()) in
      (* built now, so that every replayed delta moves them *)
      ignore (Base_table.indexes tbl : Algebra.indexes);
      let mirror = Relation.create () in
      replay mirror txns (fun d -> ignore (Base_table.apply tbl d));
      Rig.indexes_equal (Base_table.indexes tbl)
        (Algebra.indexes view 1 (Relation.as_bag mirror)))

(* The Aux_store indexes projected tuples: in keys-only mode source 0
   of a 2-chain tracks (k, b), so tuples that differ only in [a] project
   alike and their counts cancel in the projection. *)
let qcheck_aux_store_indexes =
  QCheck.Test.make ~name:"join index: Aux_store's indexes equal rebuilt ones"
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
      let at col =
        let pos = ref (-1) in
        Array.iteri (fun k c -> if c = col then pos := k) tracked;
        !pos
      in
      Rig.indexes_equal (Aux_store.indexes aux 0)
        (Algebra.indexes ~at view 0 projected))

(* ————— Compensation probes the queued L_j ————— *)

(* [Algebra.compensate ~index ~extras] joins TempView with L_j by
   probing L_j's junction index and with each extra by the hash join,
   all into one error term. It must equal subtracting the join of the
   summed interference, over every junction shape, with L_j on either
   side of TempView. Counts are signed and, when [cancel] holds, one
   extra is −L_j, so the summed interference cancels. When the error
   term is empty the answer itself comes back. *)
let qcheck_probe_compensation =
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
      let view = shapes.(v) in
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
      let index = Algebra.indexes view j lj in
      let lj_before = Delta.copy lj and answer_before = Partial.copy answer in
      let got =
        Algebra.compensate ~index ~extras view ~answer ~interfering:lj ~temp
      in
      Partial.equal got (Partial.sub answer error)
      && (Partial.is_empty error = (got == answer))
      && Delta.equal lj lj_before
      && Partial.equal answer answer_before
      && Rig.indexes_equal index (Algebra.indexes view j lj))

let suite =
  [ Alcotest.test_case "index maintenance under updates" `Quick
      test_index_maintenance;
    QCheck_alcotest.to_alcotest qcheck_probe_equals_extend;
    Alcotest.test_case
      "fast path serves residuals, degenerate (cross-product) junctions too"
      `Quick test_probe_serves_residuals_and_cross;
    Alcotest.test_case "sources auto-index join columns" `Quick
      test_source_auto_indexes;
    Alcotest.test_case "cross-product fallback through its callers" `Quick
      test_cross_product_fallback;
    QCheck_alcotest.to_alcotest qcheck_index_model;
    QCheck_alcotest.to_alcotest qcheck_index_sizes;
    QCheck_alcotest.to_alcotest qcheck_base_table_indexes;
    QCheck_alcotest.to_alcotest qcheck_aux_store_indexes;
    QCheck_alcotest.to_alcotest qcheck_probe_compensation ]
