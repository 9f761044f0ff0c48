open Repro_relational

let t1 = Tuple.ints [ 1 ]
let t2 = Tuple.ints [ 2 ]
let t3 = Tuple.ints [ 3 ]

let test_add_cancel () =
  let b = Bag.create () in
  Bag.add b t1 3;
  Bag.add b t1 (-3);
  Alcotest.(check bool) "cancelled entry removed" true (Bag.is_empty b);
  Bag.add b t1 0;
  Alcotest.(check bool) "zero add is no-op" true (Bag.is_empty b)

let test_counts () =
  let b = Bag.of_list [ (t1, 2); (t2, -1) ] in
  Alcotest.(check int) "count t1" 2 (Bag.count b t1);
  Alcotest.(check int) "count t2" (-1) (Bag.count b t2);
  Alcotest.(check int) "count absent" 0 (Bag.count b t3);
  Alcotest.(check int) "cardinal" 2 (Bag.cardinal b);
  Alcotest.(check int) "total" 1 (Bag.total b);
  Alcotest.(check int) "weight" 3 (Bag.weight b);
  Alcotest.(check bool) "has_negative" true (Bag.has_negative b)

let test_merge_diff () =
  let a = Bag.of_list [ (t1, 1); (t2, 2) ] in
  let b = Bag.of_list [ (t2, -2); (t3, 5) ] in
  let m = Bag.copy a in
  Bag.merge_into ~into:m b;
  Alcotest.check Rig.bag "merge" (Bag.of_list [ (t1, 1); (t3, 5) ]) m;
  let d = Bag.copy a in
  Bag.diff_into ~into:d a;
  Alcotest.(check bool) "a - a = empty" true (Bag.is_empty d)

let test_merge_into_self () =
  (* regression: iterating [src] while mutating [into] is undefined when
     they alias; the copy-on-alias guard makes self-merge double every
     multiplicity *)
  let b = Bag.of_list [ (t1, 2); (t2, -1) ] in
  Bag.merge_into ~into:b b;
  Alcotest.check Rig.bag "self-merge doubles"
    (Bag.of_list [ (t1, 4); (t2, -2) ])
    b

let test_diff_into_self () =
  let b = Bag.of_list [ (t1, 3); (t3, 7) ] in
  Bag.diff_into ~into:b b;
  Alcotest.(check bool) "self-diff empties" true (Bag.is_empty b)

let test_sorted_list_deterministic () =
  let b = Bag.of_list [ (t3, 1); (t1, 1); (t2, 1) ] in
  Alcotest.(check (list int))
    "sorted by tuple" [ 1; 2; 3 ]
    (List.map
       (fun (tup, _) ->
         match Tuple.get tup 0 with Value.Int i -> i | _ -> assert false)
       (Bag.to_sorted_list b))

let test_equal_ignores_structure () =
  let a = Bag.create () in
  Bag.add a t1 1;
  Bag.add a t1 1;
  let b = Bag.of_list [ (t1, 2) ] in
  Alcotest.(check bool) "accumulated = direct" true (Bag.equal a b)

(* Property: of_list sums duplicate entries. *)
let qcheck_of_list_sums =
  let entry = QCheck.(pair (int_range 0 3) (int_range (-3) 3)) in
  QCheck.Test.make ~name:"bag of_list sums duplicates"
    (QCheck.small_list entry)
    (fun entries ->
      let b =
        Bag.of_list (List.map (fun (k, c) -> (Tuple.ints [ k ], c)) entries)
      in
      List.for_all
        (fun k ->
          let expected =
            List.fold_left
              (fun acc (k', c) -> if k = k' then acc + c else acc)
              0 entries
          in
          Bag.count b (Tuple.ints [ k ]) = expected)
        [ 0; 1; 2; 3 ])

(* Property: merge then diff restores the original. *)
let qcheck_merge_diff_roundtrip =
  let entry = QCheck.(pair (int_range 0 5) (int_range (-4) 4)) in
  QCheck.Test.make ~name:"bag merge/diff roundtrip"
    (QCheck.pair (QCheck.small_list entry) (QCheck.small_list entry))
    (fun (l1, l2) ->
      let mk l = Bag.of_list (List.map (fun (k, c) -> (Tuple.ints [ k ], c)) l) in
      let a = mk l1 and b = mk l2 in
      let x = Bag.copy a in
      Bag.merge_into ~into:x b;
      Bag.diff_into ~into:x b;
      Bag.equal x a)

(* Property: the running total is the signed sum of the entries after
   every kind of mutation, over three bags that the operations alias —
   a merge or diff of a bag into itself, a copy that is then mutated on
   its own. Op codes: 0 add, 1 add_new (a fresh tuple), 2 merge_into,
   3 diff_into, 4 copy, 5 of_list. *)
let qcheck_total_is_sum =
  let op =
    QCheck.(
      pair
        (triple (int_range 0 5) (int_range 0 2) (int_range 0 2))
        (pair (int_range 0 4) (int_range (-3) 3)))
  in
  QCheck.Test.make ~name:"bag total = sum of counts under every mutation"
    ~count:300 (QCheck.small_list op)
    (fun ops ->
      let bags = Array.init 3 (fun _ -> Bag.create ()) in
      let fresh = ref 100 in
      let summed b = Bag.fold (fun _ c acc -> acc + c) b 0 in
      List.for_all
        (fun ((code, i, k), (key, n)) ->
          (match code with
          | 0 -> Bag.add bags.(i) (Tuple.ints [ key ]) n
          | 1 ->
              incr fresh;
              if n <> 0 then Bag.add_new bags.(i) (Tuple.ints [ !fresh ]) n
          | 2 -> Bag.merge_into ~into:bags.(i) bags.(k)
          | 3 -> Bag.diff_into ~into:bags.(i) bags.(k)
          | 4 -> bags.(i) <- Bag.copy bags.(k)
          | _ ->
              bags.(i) <-
                Bag.of_list
                  [ (Tuple.ints [ key ], n); (Tuple.ints [ k ], -n);
                    (Tuple.ints [ key ], 1) ]);
          Array.for_all (fun b -> Bag.total b = summed b) bags)
        ops)

let suite =
  [ Alcotest.test_case "add cancels to empty" `Quick test_add_cancel;
    Alcotest.test_case "counts and sizes" `Quick test_counts;
    Alcotest.test_case "merge and diff" `Quick test_merge_diff;
    Alcotest.test_case "merge into itself" `Quick test_merge_into_self;
    Alcotest.test_case "diff against itself" `Quick test_diff_into_self;
    Alcotest.test_case "sorted list deterministic" `Quick
      test_sorted_list_deterministic;
    Alcotest.test_case "equality is content-based" `Quick
      test_equal_ignores_structure;
    QCheck_alcotest.to_alcotest qcheck_of_list_sums;
    QCheck_alcotest.to_alcotest qcheck_merge_diff_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_total_is_sum ]
