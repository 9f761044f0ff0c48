open Repro_relational
open Repro_protocol

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Tup of Tuple.t
  | Delta of Delta.t
  | Partial of Partial.t
  | Update of Message.update

(* ————— accessors ————— *)

let bad what = invalid_arg ("Snap." ^ what ^ ": constructor mismatch")
let to_bool = function Bool v -> v | _ -> bad "to_bool"
let to_int = function Int v -> v | _ -> bad "to_int"
let to_float = function Float v -> v | _ -> bad "to_float"
let to_str = function Str v -> v | _ -> bad "to_str"
let to_list = function List v -> v | _ -> bad "to_list"
let to_tuple = function Tup v -> v | _ -> bad "to_tuple"
let to_delta = function Delta v -> v | _ -> bad "to_delta"
let to_partial = function Partial v -> v | _ -> bad "to_partial"
let to_update = function Update v -> v | _ -> bad "to_update"

let ints vs = List (List.map (fun v -> Int v) vs)
let to_ints s = List.map to_int (to_list s)
let option f = function None -> List [] | Some v -> List [ f v ]

let to_option f = function
  | List [] -> None
  | List [ v ] -> Some (f v)
  | _ -> bad "to_option"

(* ————— structural equality (hashtable-free, for tests) ————— *)

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List x, List y ->
      (* lint: allow L3 length guard protecting for_all2 from Invalid_argument; both lists are walked once anyway *)
      List.length x = List.length y && List.for_all2 equal x y
  | Tup x, Tup y -> Tuple.equal x y
  | Delta x, Delta y -> Delta.equal x y
  | Partial x, Partial y -> Partial.equal x y
  | Update x, Update y ->
      Message.compare_txn_id x.Message.txn y.Message.txn = 0
      && Delta.equal x.Message.delta y.Message.delta
      && Float.equal x.Message.occurred_at y.Message.occurred_at
      && x.Message.global = y.Message.global
  | _ -> false

(* ————— codec ————— *)

let rec put b = function
  | Unit -> Codec.put_tag b 0
  | Bool v ->
      Codec.put_tag b 1;
      Codec.put_bool b v
  | Int v ->
      Codec.put_tag b 2;
      Codec.put_int b v
  | Float v ->
      Codec.put_tag b 3;
      Codec.put_float b v
  | Str v ->
      Codec.put_tag b 4;
      Codec.put_string b v
  | List vs ->
      Codec.put_tag b 5;
      Codec.put_list b put vs
  | Tup v ->
      Codec.put_tag b 6;
      Codec.put_tuple b v
  | Delta v ->
      Codec.put_tag b 7;
      Codec.put_delta b v
  | Partial v ->
      Codec.put_tag b 8;
      Codec.put_partial b v
  | Update v ->
      Codec.put_tag b 9;
      Codec.put_update b v

let rec get r =
  match Codec.get_tag r with
  | 0 -> Unit
  | 1 -> Bool (Codec.get_bool r)
  | 2 -> Int (Codec.get_int r)
  | 3 -> Float (Codec.get_float r)
  | 4 -> Str (Codec.get_string r)
  | 5 -> List (Codec.get_list r get)
  | 6 -> Tup (Codec.get_tuple r)
  | 7 -> Delta (Codec.get_delta r)
  | 8 -> Partial (Codec.get_partial r)
  | 9 -> Update (Codec.get_update r)
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad snap tag %d" t))

(* [Unit] or [List [Delta …]] with each delta kept as an image: the
   bytes [put] writes for the deltas the images hold. *)
let image_list_pieces = function
  | None -> [ Codec.encode put Unit ]
  | Some images ->
      Codec.encode
        (fun b n ->
          Codec.put_tag b 5;
          Codec.put_int b n)
        (List.length images)
      :: List.concat_map
           (fun i -> Codec.encode Codec.put_tag 7 :: Canon.pieces i)
           images

let get_image_list r =
  match Codec.get_tag r with
  | 0 -> None
  | 5 ->
      Some
        (Codec.get_list r (fun r ->
             match Codec.get_tag r with
             | 7 -> Canon.get r
             | t ->
                 raise (Codec.Corrupt (Printf.sprintf "bad delta tag %d" t))))
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad delta-list tag %d" t))

let encode s = Codec.encode put s
let decode s = Codec.decode get s
