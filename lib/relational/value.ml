type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = T_bool | T_int | T_float | T_str

(* Rank by constructor so that values of distinct types still have a total,
   deterministic order (needed for canonical printing of relations). *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b =
  match (a, b) with Int x, Int y -> x = y | _ -> compare a b = 0

(* The MurmurHash3 finaliser, its constants cut to 62 bits. [Hashtbl.Make]
   picks a bucket by the low bits, and an [Int] hashes as itself, so
   without it keys that agree in their low bits would share a bucket. *)
let spread h =
  let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  (h lxor (h lsr 33)) land max_int

(* Ints, nearly every column, hash inline. Other values go through
   [Hashtbl.hash], which maps 0.0/-0.0 and every NaN together exactly as
   [Float.compare] equates them; hashing float bits would split equal
   values. [Tuple.hash] inlines the same match. *)
let hash v = spread (match v with Int i -> i | v -> Hashtbl.hash v)

let type_of = function
  | Null -> None
  | Bool _ -> Some T_bool
  | Int _ -> Some T_int
  | Float _ -> Some T_float
  | Str _ -> Some T_str

let conforms v ty =
  match type_of v with None -> true | Some ty' -> ty = ty'

let pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s

let pp_ty ppf = function
  | T_bool -> Format.pp_print_string ppf "bool"
  | T_int -> Format.pp_print_string ppf "int"
  | T_float -> Format.pp_print_string ppf "float"
  | T_str -> Format.pp_print_string ppf "str"

let to_string v = Format.asprintf "%a" pp v
let int i = Int i
let str s = Str s
let float f = Float f
let bool b = Bool b
