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
   its own. Op codes: 0 add, 1 add of a fresh tuple, 2 merge_into,
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
              Bag.add bags.(i) (Tuple.ints [ !fresh ]) n
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

(* Model test: three bags against three [Map]s under random operation
   sequences, checked after every step. [Add] draws from a few keys so
   counts cancel; [Copy] then mutating either side exercises
   copy-on-write both ways round; [Merge]/[Diff] alias a bag with
   itself when [i = k]; [Bulk] adds or cancels a run of up to 150 keys,
   so tables grow ×4 while small and ×2 from 64 slots; [Wrap] fills a
   full 8-slot table with keys whose home is one of its last two slots
   (the hash's low bits), so their run wraps past the last slot, then
   deletes some of them in the given order. *)
module M = Map.Make (Int)

type op =
  | Add of int * int * int
  | Copy of int * int
  | Merge of int * int
  | Diff of int * int
  | Bulk of int * int * int
  | Wrap of int * int list

let key k = Tuple.ints [ k ]

let wrap_keys =
  let rec find k n acc =
    if n = 7 then Array.of_list (List.rev acc)
    else if Tuple.hash (key k) land 7 >= 6 then find (k + 1) (n + 1) (k :: acc)
    else find (k + 1) n acc
  in
  find 2000 0 []

let pp_op = function
  | Add (i, k, n) -> Printf.sprintf "Add(%d,%d,%d)" i k n
  | Copy (i, k) -> Printf.sprintf "Copy(%d<-%d)" i k
  | Merge (i, k) -> Printf.sprintf "Merge(%d<-%d)" i k
  | Diff (i, k) -> Printf.sprintf "Diff(%d<-%d)" i k
  | Bulk (i, len, n) -> Printf.sprintf "Bulk(%d,%d,%d)" i len n
  | Wrap (i, order) ->
      Printf.sprintf "Wrap(%d,[%s])" i
        (String.concat ";" (List.map string_of_int order))

let gen_op =
  let open QCheck.Gen in
  let bag = int_range 0 2 in
  let small = oneof [ int_range 0 5; oneofa wrap_keys ] in
  let order =
    shuffle_l [ 0; 1; 2; 3; 4; 5; 6 ] >>= fun l ->
    int_range 0 7 >|= fun n -> List.filteri (fun i _ -> i < n) l
  in
  frequency
    [ (6, map3 (fun i k n -> Add (i, k, n)) bag small (int_range (-3) 3));
      (2, map2 (fun i k -> Copy (i, k)) bag bag);
      (2, map2 (fun i k -> Merge (i, k)) bag bag);
      (2, map2 (fun i k -> Diff (i, k)) bag bag);
      (1, map3 (fun i len n -> Bulk (i, len, n)) bag (int_range 0 150)
            (oneofl [ 1; -1 ]));
      (1, map2 (fun i order -> Wrap (i, order)) bag order) ]

let model_add m k n =
  let c = Option.value ~default:0 (M.find_opt k m) + n in
  if c = 0 then M.remove k m else M.add k c m

let agrees b m =
  Bag.cardinal b = M.cardinal m
  && Bag.total b = M.fold (fun _ c acc -> acc + c) m 0
  && Bag.to_sorted_list b = List.map (fun (k, c) -> (key k, c)) (M.bindings m)
  && M.for_all (fun k c -> Bag.count b (key k) = c) m
  && Array.for_all
       (fun k -> Bag.count b (key k) = Option.value ~default:0 (M.find_opt k m))
       (Array.append [| 0; 1; 2; 3; 4; 5; 1000; 1149 |] wrap_keys)

(* Beside the three bags, [held] keeps a copy taken at every [Copy],
   never mutated, with its model, as a cached snapshot would be. After
   every step, two bags that [Bag.shares] must be equal; a copy shares
   its bag right after [copy]; and a bag that changes shares with
   nothing it shared before. *)
let qcheck_model =
  QCheck.Test.make ~name:"bag ≡ Map model under every operation" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 0 40) gen_op))
    (fun ops ->
      let bags = Array.init 3 (fun _ -> Bag.create ()) in
      let models = Array.make 3 M.empty in
      let held = ref [] in
      let ok = ref true in
      let every () = Array.to_list bags @ List.map fst !held in
      let check () =
        let every = every () in
        ok :=
          !ok
          && Array.for_all2 agrees bags models
          && List.for_all (fun (h, m) -> agrees h m) !held
          && List.for_all
               (fun (i, j) ->
                 Bag.equal bags.(i) bags.(j) = M.equal Int.equal models.(i) models.(j))
               [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1) ]
          && List.for_all
               (fun x ->
                 List.for_all
                   (fun y -> (not (Bag.shares x y)) || Bag.equal x y)
                   every)
               every
      in
      (* [mutate i changes f] runs [f], which changes bag [i] when
         [changes] *)
      let mutate i changes f =
        let sharing =
          List.filter
            (fun x -> x != bags.(i) && Bag.shares x bags.(i))
            (every ())
        in
        f ();
        if changes then
          ok := !ok && not (List.exists (Bag.shares bags.(i)) sharing)
      in
      let add i k n =
        mutate i (n <> 0) (fun () -> Bag.add bags.(i) (key k) n);
        models.(i) <- model_add models.(i) k n;
        check ()
      in
      List.iter
        (function
          | Add (i, k, n) -> add i k n
          | Copy (i, k) ->
              let b = Bag.copy bags.(k) in
              ok := !ok && Bag.shares b bags.(k) && Bag.shares bags.(k) b;
              let h = Bag.copy b in
              held := (h, models.(k)) :: !held;
              bags.(i) <- b;
              models.(i) <- models.(k);
              ok := !ok && Bag.shares h b;
              check ()
          | Merge (i, k) ->
              let src = models.(k) in
              let negative = ref false in
              mutate i (not (Bag.is_empty bags.(k))) (fun () ->
                  negative := Bag.merge_checked ~into:bags.(i) bags.(k));
              models.(i) <- M.fold (fun k c m -> model_add m k c) src models.(i);
              ok :=
                !ok
                && !negative
                   = M.exists
                       (fun k _ ->
                         Option.value ~default:0 (M.find_opt k models.(i)) < 0)
                       src;
              check ()
          | Diff (i, k) ->
              let src = models.(k) in
              mutate i (not (Bag.is_empty bags.(k))) (fun () ->
                  Bag.diff_into ~into:bags.(i) bags.(k));
              models.(i) <- M.fold (fun k c m -> model_add m k (-c)) src models.(i);
              check ()
          | Bulk (i, len, n) ->
              for k = 1000 to 1000 + len - 1 do
                add i k n
              done
          | Wrap (i, order) ->
              bags.(i) <- Bag.create ~initial_size:7 ();
              models.(i) <- M.empty;
              Array.iter (fun k -> add i k 1) wrap_keys;
              List.iter (fun j -> add i wrap_keys.(j) (-1)) order)
        ops;
      !ok)

(* The three merges against a model on targets large enough that the
   merge first reads each source tuple's home slot (65,536 slots): a
   copy of a target of 30,000 keys at count 1, a source of signed
   counts over keys inside and outside it, so counts cancel, grow, turn
   negative and insert, and each merge once more with the target as its
   own source, which doubles or empties it. [merge_checked] must report
   a negative count exactly when the model holds one under a key of the
   source. *)
let qcheck_large_merges =
  let large = Bag.create () and large_model = ref M.empty in
  for k = 0 to 29_999 do
    Bag.add large (key k) 1;
    large_model := model_add !large_model k 1
  done;
  let entry = QCheck.(pair (int_range 29_000 31_000) (int_range (-3) 3)) in
  QCheck.Test.make ~name:"bag merges ≡ Map model on large targets, aliased too"
    ~count:30
    QCheck.(pair (int_range 0 5) (list_of_size Gen.(0 -- 300) entry))
    (fun (op, entries) ->
      let target = Bag.copy large and model = ref !large_model in
      let src, src_model =
        if op >= 3 then (target, !model)
        else
          ( Bag.of_list (List.map (fun (k, n) -> (key k, n)) entries),
            List.fold_left (fun m (k, n) -> model_add m k n) M.empty entries )
      in
      let sign = if op mod 3 = 2 then -1 else 1 in
      let negative =
        match op mod 3 with
        | 0 -> Bag.merge_checked ~into:target src
        | 1 ->
            Bag.merge_into ~into:target src;
            false
        | _ ->
            Bag.diff_into ~into:target src;
            false
      in
      model := M.fold (fun k c m -> model_add m k (sign * c)) src_model !model;
      let want_negative =
        op mod 3 = 0
        && M.exists
             (fun k _ -> Option.value ~default:0 (M.find_opt k !model) < 0)
             src_model
      in
      negative = want_negative && agrees target !model)

(* The read-only differ against a model: [old] is empty, or up to 7
   entries with signed counts in a table of 8 slots, drawn from a few
   keys and from [wrap_keys], so runs collide and wrap past the last
   slot. Visits repeat keys, name keys [old] lacks, and carry zero and
   negative counts. The result is Σ visits − [old]; [old] is not
   written, so a copy taken before still shares it; and a tuple is
   built only when [old] lacks it. *)
let qcheck_differ =
  let gen =
    let open QCheck.Gen in
    let k = oneof [ int_range 0 5; oneofa wrap_keys ] in
    let entries n keys =
      list_size (int_range 0 n) (pair keys (int_range (-3) 3))
    in
    pair
      (frequency [ (1, return []); (4, entries 7 k) ])
      (entries 20 (frequency [ (3, k); (1, int_range 6 9) ]))
  in
  let show l =
    String.concat " "
      (List.map (fun (k, c) -> Printf.sprintf "%d[%d]" k c) l)
  in
  QCheck.Test.make ~name:"bag differ = visits - old, old untouched"
    ~count:500
    (QCheck.make
       ~print:(fun (o, v) -> "old " ^ show o ^ " / visits " ^ show v)
       gen)
    (fun (old_entries, visits) ->
      let old = Bag.create ~initial_size:7 () in
      List.iter (fun (k, c) -> Bag.add old (key k) c) old_entries;
      let old_model =
        List.fold_left (fun m (k, c) -> model_add m k c) M.empty old_entries
      in
      let before = Bag.copy old in
      let made_present = ref false in
      let d = Bag.differ old in
      List.iter
        (fun (k, c) ->
          let tup = key k in
          Bag.visit d ~hash:(Tuple.hash tup) ~equal:(Tuple.equal tup)
            ~make:(fun () ->
              if Bag.mem old tup then made_present := true;
              tup)
            c)
        visits;
      let result = Bag.finish d in
      let expected =
        List.fold_left
          (fun m (k, c) -> model_add m k c)
          (M.map (fun c -> -c) old_model)
          visits
      in
      agrees result expected
      && Bag.shares before old && agrees old old_model
      && not !made_present)

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
    QCheck_alcotest.to_alcotest qcheck_total_is_sum;
    QCheck_alcotest.to_alcotest qcheck_model;
    QCheck_alcotest.to_alcotest qcheck_large_merges;
    QCheck_alcotest.to_alcotest qcheck_differ ]
