type t = Value.t array

let ints l = Array.of_list (List.map Value.int l)
let arity = Array.length
let get t i = t.(i)

(* A tuple is compared and hashed on every bag probe. So the loops below
   are toplevel functions, not local closures, and allocate nothing, and
   [equal] and [hash] inline the [Int] cases of {!Value.equal} and
   {!Value.hash}. *)
let rec compare_from a b i n =
  if i = n then 0
  else
    let c = Value.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0 la

let rec equal_from a b i n =
  i = n
  || (match (Array.unsafe_get a i, Array.unsafe_get b i) with
     | Value.Int x, Value.Int y -> x = y
     | x, y -> Value.compare x y = 0)
     && equal_from a b (i + 1) n

let equal a b =
  let n = Array.length a in
  n = Array.length b && equal_from a b 0 n

(* Each column's hash is {!Value.hash}'s before its spread. *)
let rec hash_from t i n h =
  if i = n then h
  else
    let x =
      match Array.unsafe_get t i with Value.Int x -> x | v -> Hashtbl.hash v
    in
    hash_from t (i + 1) n ((h * 0x100000001b3) + x)

let hash t =
  let n = Array.length t in
  Value.spread (hash_from t 0 n n)

(* [hash] and [equal] of the columns [cols], read in place. *)
let rec hash_cols_from t cols i n h =
  if i = n then h
  else
    let x =
      match t.(Array.unsafe_get cols i) with
      | Value.Int x -> x
      | v -> Hashtbl.hash v
    in
    hash_cols_from t cols (i + 1) n ((h * 0x100000001b3) + x)

let hash_cols t cols =
  let n = Array.length cols in
  Value.spread (hash_cols_from t cols 0 n n)

let rec equal_cols_from a acols b bcols i n =
  i = n
  || (match (a.(Array.unsafe_get acols i), b.(Array.unsafe_get bcols i)) with
     | Value.Int x, Value.Int y -> x = y
     | x, y -> Value.compare x y = 0)
     && equal_cols_from a acols b bcols (i + 1) n

let equal_cols a acols b bcols =
  let n = Array.length acols in
  n = Array.length bcols && equal_cols_from a acols b bcols 0 n

let gather parts srcs locs =
  let t = Array.make (Array.length srcs) Value.Null in
  for i = 0 to Array.length srcs - 1 do
    t.(i) <- parts.(srcs.(i)).(locs.(i))
  done;
  t

(* Column [i] of [gather parts srcs locs], read in place. *)
let gathered parts srcs locs i =
  (Array.unsafe_get parts (Array.unsafe_get srcs i)).(Array.unsafe_get locs i)

(* [hash] and [equal] of [gather parts srcs locs], read in place. *)
let rec hash_gather_from parts srcs locs i n h =
  if i = n then h
  else
    let x =
      match gathered parts srcs locs i with
      | Value.Int x -> x
      | v -> Hashtbl.hash v
    in
    hash_gather_from parts srcs locs (i + 1) n ((h * 0x100000001b3) + x)

let hash_gather parts srcs locs =
  let n = Array.length srcs in
  Value.spread (hash_gather_from parts srcs locs 0 n n)

let rec equal_gather_from t parts srcs locs i n =
  i = n
  || (match (Array.unsafe_get t i, gathered parts srcs locs i) with
     | Value.Int x, Value.Int y -> x = y
     | x, y -> Value.compare x y = 0)
     && equal_gather_from t parts srcs locs (i + 1) n

let equal_gather t parts srcs locs =
  let n = Array.length srcs in
  n = Array.length t && equal_gather_from t parts srcs locs 0 n

let concat = Array.append

let project t indices =
  let n = Array.length indices in
  if n = 0 then [||]
  else begin
    let r = Array.make n t.(indices.(0)) in
    for i = 1 to n - 1 do
      r.(i) <- t.(indices.(i))
    done;
    r
  end

let pp ppf t =
  Format.pp_print_char ppf '(';
  Array.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_string ppf ", ";
      Value.pp ppf v)
    t;
  Format.pp_print_char ppf ')'

let to_string t = Format.asprintf "%a" pp t
