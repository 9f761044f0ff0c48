open Repro_relational

let abc =
  Schema.make "R"
    [ Schema.attr ~key:true "id" Value.T_int; Schema.attr "a" Value.T_int;
      Schema.attr "b" Value.T_str ]

let test_schema_basics () =
  Alcotest.(check string) "name" "R" (Schema.name abc);
  Alcotest.(check int) "arity" 3 (Schema.arity abc);
  Alcotest.(check int) "index_of a" 1 (Schema.index_of abc "a");
  Alcotest.(check bool) "missing attr" true
    (match Schema.index_of abc "zz" with
    | exception Not_found -> true
    | _ -> false);
  Alcotest.(check (list int)) "keys" [ 0 ] (Schema.key_indices abc)

let test_schema_validation () =
  Alcotest.check_raises "empty attrs"
    (Invalid_argument "Schema.make: empty attribute list") (fun () ->
      ignore (Schema.make "X" []));
  Alcotest.check_raises "duplicate attrs"
    (Invalid_argument "Schema.make: duplicate attribute a") (fun () ->
      ignore
        (Schema.make "X" [ Schema.attr "a" Value.T_int; Schema.attr "a" Value.T_int ]))

let test_schema_conforms () =
  Alcotest.(check bool) "conforming tuple" true
    (Schema.conforms abc [| Value.int 1; Value.int 2; Value.str "x" |]);
  Alcotest.(check bool) "wrong arity" false
    (Schema.conforms abc [| Value.int 1 |]);
  Alcotest.(check bool) "wrong type" false
    (Schema.conforms abc [| Value.int 1; Value.str "no"; Value.str "x" |]);
  Alcotest.(check bool) "nulls conform" true
    (Schema.conforms abc [| Value.Null; Value.Null; Value.Null |])

let test_tuple_ops () =
  let t = Tuple.ints [ 1; 2; 3 ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity t);
  Alcotest.check Rig.value "get" (Value.int 2) (Tuple.get t 1);
  Alcotest.check Rig.tuple "concat"
    (Tuple.ints [ 1; 2; 3; 4 ])
    (Tuple.concat t (Tuple.ints [ 4 ]));
  Alcotest.check Rig.tuple "project"
    (Tuple.ints [ 3; 1 ])
    (Tuple.project t [| 2; 0 |]);
  Alcotest.(check bool) "equal_cols" true
    (Tuple.equal_cols t [| 1; 2 |] (Tuple.ints [ 2; 3 ]) [| 0; 1 |]);
  Alcotest.(check string) "pp" "(1, 2, 3)" (Tuple.to_string t)

let test_tuple_compare () =
  let a = Tuple.ints [ 1; 2 ] and b = Tuple.ints [ 1; 3 ] in
  Alcotest.(check bool) "lt" true (Tuple.compare a b < 0);
  Alcotest.(check bool) "shorter first" true
    (Tuple.compare (Tuple.ints [ 9 ]) a < 0);
  Alcotest.(check bool) "eq" true (Tuple.equal a (Tuple.ints [ 1; 2 ]))

let qcheck_project_concat =
  QCheck.Test.make ~name:"project of concat recovers halves"
    QCheck.(pair (small_list small_signed_int) (small_list small_signed_int))
    (fun (l, r) ->
      let a = Tuple.ints l and b = Tuple.ints r in
      let c = Tuple.concat a b in
      let left_idx = Array.init (List.length l) (fun i -> i) in
      let right_idx =
        Array.init (List.length r) (fun i -> List.length l + i)
      in
      Tuple.equal (Tuple.project c left_idx) a
      && Tuple.equal (Tuple.project c right_idx) b)

(* ————— the hash/equality contract of Tuple (and so of Bag) ————— *)

(* Every constructor, with the floats that [Float.compare] equates but
   whose bits differ: 0.0/-0.0 and NaNs of several payloads. *)
let other_nan = Int64.float_of_bits 0x7FF0000000000001L

let gen_value =
  let open QCheck.Gen in
  frequency
    [ (1, return Value.Null);
      (1, map Value.bool bool);
      (4, map Value.int (int_range (-3) 3));
      (1, map Value.int int);
      ( 3,
        map Value.float
          (oneofl
             [ 0.0; -0.0; Float.nan; -.Float.nan; other_nan; 1.5; -1.5 ]) );
      (2, map Value.str (oneofl [ ""; "a"; "b"; "ab" ])) ]

(* A value [Value.compare] equates with [v], with other bits where
   there is one: the other zero, or a NaN of another payload. *)
let equivalent = function
  | Value.Float f when Float.is_nan f ->
      let bits = Int64.bits_of_float in
      let is_other = Int64.equal (bits f) (bits other_nan) in
      Value.Float (if is_other then Float.nan else other_nan)
  | Value.Float f when f = 0.0 -> Value.Float (-.f)
  | v -> v

let gen_tuple =
  QCheck.Gen.(map Array.of_list (list_size (int_range 0 4) gen_value))

(* Pairs that are often equal: [b] is [a] with each column kept, swapped
   for an equivalent, or redrawn; or a tuple of any arity. *)
let gen_pair =
  let open QCheck.Gen in
  let column v =
    frequency [ (3, return v); (3, return (equivalent v)); (1, gen_value) ]
  in
  gen_tuple >>= fun a ->
  frequency
    [ (4, map Array.of_list (flatten_l (List.map column (Array.to_list a))));
      (1, gen_tuple) ]
  >|= fun b -> (a, b)

let arb_pair =
  QCheck.make gen_pair ~print:(fun (a, b) ->
      Tuple.to_string a ^ " vs " ^ Tuple.to_string b)

let qcheck_equal_is_compare =
  QCheck.Test.make ~name:"Tuple.equal a b iff Tuple.compare a b = 0"
    ~count:1000 arb_pair (fun (a, b) ->
      Tuple.equal a b = (Tuple.compare a b = 0))

let qcheck_equal_hash =
  QCheck.Test.make ~name:"Tuple.equal a b implies equal hashes" ~count:1000
    arb_pair (fun (a, b) ->
      (not (Tuple.equal a b)) || Tuple.hash a = Tuple.hash b)

(* The polymorphic hash stops after about 10 values, so wide tuples that
   differ only in a late column used to share a hash. *)
let qcheck_wide_hash =
  QCheck.Test.make ~name:"wide tuples differing in the last column hash apart"
    ~count:200
    QCheck.(
      triple (int_range 11 18) (small_list small_signed_int)
        (pair small_signed_int small_signed_int))
    (fun (width, prefix, (x, y)) ->
      QCheck.assume (x <> y);
      let col i =
        Value.int (Option.value (List.nth_opt prefix i) ~default:i)
      in
      let with_last v =
        Array.init width (fun i -> if i = width - 1 then v else col i)
      in
      Tuple.hash (with_last (Value.int x))
      <> Tuple.hash (with_last (Value.int y)))

(* Column lists into a tuple of arity [n]: repeats allowed, none when
   [n = 0]. *)
let gen_cols n =
  let open QCheck.Gen in
  if n = 0 then return [||]
  else map Array.of_list (list_size (int_range 0 4) (int_range 0 (n - 1)))

let show_cols cols =
  String.concat ";" (Array.to_list (Array.map string_of_int cols))

let qcheck_hash_cols =
  QCheck.Test.make ~name:"Tuple.hash_cols t cols = hash (project t cols)"
    ~count:1000
    (QCheck.make
       ~print:(fun (t, cols) -> Tuple.to_string t ^ " at " ^ show_cols cols)
       QCheck.Gen.(
         gen_tuple >>= fun t ->
         map (fun c -> (t, c)) (gen_cols (Array.length t))))
    (fun (t, cols) ->
      Tuple.hash_cols t cols = Tuple.hash (Tuple.project t cols))

(* Usually the same columns of a pair that is often equal column by
   column, so that both outcomes occur; sometimes unrelated columns. *)
let qcheck_equal_cols =
  let gen =
    let open QCheck.Gen in
    gen_pair >>= fun (a, b) ->
    gen_cols (min (Array.length a) (Array.length b)) >>= fun same ->
    frequency
      [ (3, return (a, same, b, same));
        ( 1,
          map2
            (fun ac bc -> (a, ac, b, bc))
            (gen_cols (Array.length a))
            (gen_cols (Array.length b)) ) ]
  in
  QCheck.Test.make
    ~name:"Tuple.equal_cols a ac b bc iff equal (project a ac) (project b bc)"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, ac, b, bc) ->
         Printf.sprintf "%s at %s vs %s at %s" (Tuple.to_string a)
           (show_cols ac) (Tuple.to_string b) (show_cols bc))
       gen)
    (fun (a, ac, b, bc) ->
      Tuple.equal_cols a ac b bc
      = Tuple.equal (Tuple.project a ac) (Tuple.project b bc))

(* One to three parts, and columns drawn from them with repeats: none
   when every part is empty. *)
let gen_gather =
  let open QCheck.Gen in
  list_size (int_range 1 3) gen_tuple >>= fun parts ->
  let parts = Array.of_list parts in
  let places =
    List.concat
      (List.mapi
         (fun j t -> List.init (Array.length t) (fun a -> (j, a)))
         (Array.to_list parts))
  in
  (if places = [] then return []
   else list_size (int_range 0 4) (oneofl places))
  >|= fun cols ->
  ( parts,
    Array.of_list (List.map fst cols),
    Array.of_list (List.map snd cols) )

let show_gather (parts, srcs, locs) =
  Printf.sprintf "%s at %s / %s"
    (String.concat " " (Array.to_list (Array.map Tuple.to_string parts)))
    (show_cols srcs) (show_cols locs)

let qcheck_hash_gather =
  QCheck.Test.make ~name:"Tuple.hash_gather = hash (gather ...)" ~count:1000
    (QCheck.make ~print:show_gather gen_gather)
    (fun (parts, srcs, locs) ->
      Tuple.hash_gather parts srcs locs
      = Tuple.hash (Tuple.gather parts srcs locs))

(* Usually the gathered tuple with each column kept, swapped for an
   equivalent or redrawn; sometimes a tuple of any arity. *)
let qcheck_equal_gather =
  let gen =
    let open QCheck.Gen in
    gen_gather >>= fun (parts, srcs, locs) ->
    let column v =
      frequency [ (3, return v); (3, return (equivalent v)); (1, gen_value) ]
    in
    frequency
      [ ( 4,
          map Array.of_list
            (flatten_l
               (List.map column
                  (Array.to_list (Tuple.gather parts srcs locs)))) );
        (1, gen_tuple) ]
    >|= fun t -> (t, (parts, srcs, locs))
  in
  QCheck.Test.make
    ~name:"Tuple.equal_gather t parts srcs locs iff equal t (gather ...)"
    ~count:1000
    (QCheck.make
       ~print:(fun (t, g) -> Tuple.to_string t ^ " vs " ^ show_gather g)
       gen)
    (fun (t, (parts, srcs, locs)) ->
      Tuple.equal_gather t parts srcs locs
      = Tuple.equal t (Tuple.gather parts srcs locs))

let suite =
  [ Alcotest.test_case "schema basics" `Quick test_schema_basics;
    Alcotest.test_case "schema validation" `Quick test_schema_validation;
    Alcotest.test_case "schema conformance" `Quick test_schema_conforms;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Alcotest.test_case "tuple ordering" `Quick test_tuple_compare;
    QCheck_alcotest.to_alcotest qcheck_project_concat;
    QCheck_alcotest.to_alcotest qcheck_equal_is_compare;
    QCheck_alcotest.to_alcotest qcheck_equal_hash;
    QCheck_alcotest.to_alcotest qcheck_wide_hash;
    QCheck_alcotest.to_alcotest qcheck_hash_cols;
    QCheck_alcotest.to_alcotest qcheck_equal_cols;
    QCheck_alcotest.to_alcotest qcheck_hash_gather;
    QCheck_alcotest.to_alcotest qcheck_equal_gather ]
