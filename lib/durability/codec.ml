open Repro_relational
open Repro_protocol

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type reader = { buf : string; mutable pos : int }

let reader buf = { buf; pos = 0 }
let at_end r = r.pos = String.length r.buf

(* ————— primitives ————— *)

(* Fixed-width little-endian integers: the WAL favours decode simplicity
   and determinism over wire compactness (checkpoint size is itself a
   reported metric, so the format just has to be stable). *)

let put_int b i = Buffer.add_int64_le b (Int64.of_int i)

let get_int r =
  if r.pos + 8 > String.length r.buf then corrupt "int past end at %d" r.pos;
  let v = Int64.to_int (String.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

(* A list length or tuple arity. Every list element and tuple field
   encodes to at least one byte, so a count above the bytes left is
   corrupt; checking it here keeps a damaged count from sizing an
   allocation. *)
let get_count r what =
  let n = get_int r in
  let left = String.length r.buf - r.pos in
  if n < 0 || n > left then corrupt "%s %d with %d bytes left" what n left;
  n

let put_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let get_float r =
  if r.pos + 8 > String.length r.buf then corrupt "float past end at %d" r.pos;
  let v = Int64.float_of_bits (String.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let put_tag b t = Buffer.add_char b (Char.chr t)

let get_tag r =
  if r.pos >= String.length r.buf then corrupt "tag past end at %d" r.pos;
  let c = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let put_bool b v = put_tag b (if v then 1 else 0)

let get_bool r =
  match get_tag r with
  | 0 -> false
  | 1 -> true
  | t -> corrupt "bad bool tag %d" t

let put_string b s =
  put_int b (String.length s);
  Buffer.add_string b s

let get_string r =
  let n = get_int r in
  if n < 0 || r.pos + n > String.length r.buf then
    corrupt "string of %d past end at %d" n r.pos;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let put_list b f xs =
  put_int b (List.length xs);
  List.iter (f b) xs

let get_list r f =
  let n = get_count r "list length" in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f r :: acc) in
  go n []

let put_option b f = function
  | None -> put_tag b 0
  | Some x ->
      put_tag b 1;
      f b x

let get_option r f =
  match get_tag r with
  | 0 -> None
  | 1 -> Some (f r)
  | t -> corrupt "bad option tag %d" t

(* ————— relational values ————— *)

let put_value b = function
  | Value.Null -> put_tag b 0
  | Value.Bool v ->
      put_tag b 1;
      put_bool b v
  | Value.Int v ->
      put_tag b 2;
      put_int b v
  | Value.Float v ->
      put_tag b 3;
      put_float b v
  | Value.Str v ->
      put_tag b 4;
      put_string b v

let get_value r =
  match get_tag r with
  | 0 -> Value.Null
  | 1 -> Value.Bool (get_bool r)
  | 2 -> Value.Int (get_int r)
  | 3 -> Value.Float (get_float r)
  | 4 -> Value.Str (get_string r)
  | t -> corrupt "bad value tag %d" t

let put_tuple b (t : Tuple.t) =
  put_int b (Array.length t);
  Array.iter (put_value b) t

(* Array.init may evaluate out of order, which would scramble the stream;
   read tuples via an explicit loop instead. *)
let get_tuple r : Tuple.t =
  let n = get_count r "tuple arity" in
  let a = Array.make n Value.Null in
  for i = 0 to n - 1 do
    a.(i) <- get_value r
  done;
  a

(* Bags (and Delta/Relation, which share the representation) serialize as
   their canonical sorted (tuple, count) listing, so equal bags have equal
   bytes — checkpoints of the same state are bit-identical. *)

let put_counted b (t, c) =
  put_tuple b t;
  put_int b c

let get_counted r =
  let t = get_tuple r in
  let c = get_int r in
  (t, c)

let put_bag b (bag : Bag.t) = put_list b put_counted (Bag.to_sorted_list bag)
let get_bag r : Bag.t = Bag.of_list (get_list r get_counted)

let put_delta b (d : Delta.t) = put_list b put_counted (Delta.to_sorted_list d)
let get_delta r : Delta.t = Delta.of_list (get_list r get_counted)

let put_relation b (rel : Relation.t) =
  put_list b put_counted (Relation.to_sorted_list rel)

let get_relation r : Relation.t = Relation.of_list (get_list r get_counted)

let put_partial b (p : Partial.t) =
  put_int b p.Partial.lo;
  put_int b p.Partial.hi;
  put_delta b p.Partial.data

let get_partial r : Partial.t =
  let lo = get_int r in
  let hi = get_int r in
  let data = get_delta r in
  { Partial.lo; hi; data }

(* ————— protocol messages ————— *)

let put_txn_id b (t : Message.txn_id) =
  put_int b t.Message.source;
  put_int b t.Message.seq

let get_txn_id r : Message.txn_id =
  let source = get_int r in
  let seq = get_int r in
  { Message.source; seq }

let put_global b (g : Message.global_tag) =
  put_int b g.Message.gid;
  put_int b g.Message.parts

let get_global r : Message.global_tag =
  let gid = get_int r in
  let parts = get_int r in
  { Message.gid; parts }

let put_update b (u : Message.update) =
  put_txn_id b u.Message.txn;
  put_delta b u.Message.delta;
  put_float b u.Message.occurred_at;
  put_option b put_global u.Message.global

let get_update r : Message.update =
  let txn = get_txn_id r in
  let delta = get_delta r in
  let occurred_at = get_float r in
  let global = get_option r get_global in
  { Message.txn; delta; occurred_at; global }

let put_eca_term b (term : Message.eca_term) =
  put_list b
    (fun b (src, d) ->
      put_int b src;
      put_delta b d)
    term

let get_eca_term r : Message.eca_term =
  get_list r (fun r ->
      let src = get_int r in
      let d = get_delta r in
      (src, d))

let put_to_source b = function
  | Message.Sweep_query { qid; target; partial } ->
      put_tag b 0;
      put_int b qid;
      put_int b target;
      put_partial b partial
  | Message.Fetch { qid; target } ->
      put_tag b 1;
      put_int b qid;
      put_int b target
  | Message.Eca_query { qid; terms } ->
      put_tag b 2;
      put_int b qid;
      put_list b put_eca_term terms

let get_to_source r =
  match get_tag r with
  | 0 ->
      let qid = get_int r in
      let target = get_int r in
      let partial = get_partial r in
      Message.Sweep_query { qid; target; partial }
  | 1 ->
      let qid = get_int r in
      let target = get_int r in
      Message.Fetch { qid; target }
  | 2 ->
      let qid = get_int r in
      let terms = get_list r get_eca_term in
      Message.Eca_query { qid; terms }
  | t -> corrupt "bad to_source tag %d" t

let put_to_warehouse b = function
  | Message.Update_notice u ->
      put_tag b 0;
      put_update b u
  | Message.Answer { qid; source; partial } ->
      put_tag b 1;
      put_int b qid;
      put_int b source;
      put_partial b partial
  | Message.Snapshot { qid; source; relation } ->
      put_tag b 2;
      put_int b qid;
      put_int b source;
      put_relation b relation
  | Message.Eca_answer { qid; partial } ->
      put_tag b 3;
      put_int b qid;
      put_partial b partial

let get_to_warehouse r =
  match get_tag r with
  | 0 -> Message.Update_notice (get_update r)
  | 1 ->
      let qid = get_int r in
      let source = get_int r in
      let partial = get_partial r in
      Message.Answer { qid; source; partial }
  | 2 ->
      let qid = get_int r in
      let source = get_int r in
      let relation = get_relation r in
      Message.Snapshot { qid; source; relation }
  | 3 ->
      let qid = get_int r in
      let partial = get_partial r in
      Message.Eca_answer { qid; partial }
  | t -> corrupt "bad to_warehouse tag %d" t

(* ————— whole-string convenience ————— *)

let encode f x =
  let b = Buffer.create 256 in
  f b x;
  Buffer.contents b

let decode f s =
  let r = reader s in
  let v = f r in
  if not (at_end r) then corrupt "%d trailing bytes" (String.length s - r.pos);
  v
