(** Wire (de)serializers for the durability layer.

    A small hand-rolled binary format: fixed-width little-endian integers
    and floats, length-prefixed strings and lists, one tag byte per
    variant. Bags (and [Delta]/[Relation], which share the
    representation) serialize as their canonical sorted
    [(tuple, count)] listing, so equal values always produce equal bytes
    — two checkpoints of the same warehouse state are bit-identical,
    which the recovery tests rely on.

    Encoders append to a [Buffer.t]; decoders consume a {!reader}.
    Decoding malformed bytes raises {!Corrupt}, never
    [Invalid_argument]. Every list element and tuple field encodes to at
    least one byte, so a decoded list length or tuple arity larger than
    the bytes left is {!Corrupt} too, before it sizes an allocation. *)

open Repro_relational
open Repro_protocol

exception Corrupt of string

type reader

val reader : string -> reader

(** True once every byte has been consumed. *)
val at_end : reader -> bool

(** {2 Primitives} *)

val put_int : Buffer.t -> int -> unit
val get_int : reader -> int

(** One variant-tag byte (values 0–255). *)
val put_tag : Buffer.t -> int -> unit

val get_tag : reader -> int
val put_float : Buffer.t -> float -> unit
val get_float : reader -> float
val put_bool : Buffer.t -> bool -> unit
val get_bool : reader -> bool
val put_string : Buffer.t -> string -> unit
val get_string : reader -> string
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val get_list : reader -> (reader -> 'a) -> 'a list
val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
val get_option : reader -> (reader -> 'a) -> 'a option

(** {2 Relational values} *)

val put_value : Buffer.t -> Value.t -> unit
val get_value : reader -> Value.t
val put_tuple : Buffer.t -> Tuple.t -> unit
val get_tuple : reader -> Tuple.t

(** One [(tuple, count)] entry of a bag listing. *)
val put_counted : Buffer.t -> Tuple.t * int -> unit

val get_counted : reader -> Tuple.t * int
val put_bag : Buffer.t -> Bag.t -> unit
val get_bag : reader -> Bag.t
val put_delta : Buffer.t -> Delta.t -> unit
val get_delta : reader -> Delta.t
val put_relation : Buffer.t -> Relation.t -> unit
val get_relation : reader -> Relation.t
val put_partial : Buffer.t -> Partial.t -> unit
val get_partial : reader -> Partial.t

(** {2 Protocol messages} *)

val put_txn_id : Buffer.t -> Message.txn_id -> unit
val get_txn_id : reader -> Message.txn_id
val put_update : Buffer.t -> Message.update -> unit
val get_update : reader -> Message.update
val put_to_source : Buffer.t -> Message.to_source -> unit
val get_to_source : reader -> Message.to_source
val put_to_warehouse : Buffer.t -> Message.to_warehouse -> unit
val get_to_warehouse : reader -> Message.to_warehouse

(** {2 Whole-string convenience} *)

(** [encode put x] runs [put] into a fresh buffer and returns the bytes. *)
val encode : (Buffer.t -> 'a -> unit) -> 'a -> string

(** [decode get s] reads one value and checks every byte was consumed. *)
val decode : (reader -> 'a) -> string -> 'a
