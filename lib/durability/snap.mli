(** Generic serializable snapshot trees for algorithm state.

    Every maintenance algorithm must be able to checkpoint its resumable
    state (in-flight sweeps, pending compensations, install buffers) and
    restore it after a warehouse crash. Rather than one bespoke wire
    format per algorithm, each implements
    {!Repro_warehouse.Algorithm.S.snapshot} by mapping its state onto
    this small tree of primitives, tuples, deltas, partials and updates —
    and [restore] by reading it back with the [to_*] accessors, which
    raise [Invalid_argument] on shape mismatch (a corrupted or
    cross-algorithm checkpoint).

    Snapshots must be canonical: any internal hashtable state has to be
    dumped in a sorted order so that equal states produce equal encoded
    bytes. *)

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

val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float
val to_str : t -> string
val to_list : t -> t list
val to_tuple : t -> Tuple.t
val to_delta : t -> Delta.t
val to_partial : t -> Partial.t
val to_update : t -> Message.update

(** [ints [1;2]] is [List [Int 1; Int 2]]; {!to_ints} reads it back. *)
val ints : int list -> t

val to_ints : t -> int list

(** Options encode as [List []] / [List [x]]. *)
val option : ('a -> t) -> 'a option -> t

val to_option : (t -> 'a) -> t -> 'a option

(** Deep structural equality (deltas and partials compare by content). *)
val equal : t -> t -> bool

val put : Buffer.t -> t -> unit

(** The encoding of {!Unit} ([None]) or of [List [Delta d1; …; Delta
    dk]] where each [di] is held as a {!Canon.t} image, as byte pieces:
    the images' {!Canon.pieces} with the list's tags around them.
    Concatenated, they are the bytes {!put} writes for that tree. *)
val image_list_pieces : Canon.t list option -> string list

(** Reads what {!image_list_pieces} writes. Raises {!Codec.Corrupt} on
    any other shape, or on a listing {!Canon.get} rejects. *)
val get_image_list : Codec.reader -> Canon.t list option

val get : Codec.reader -> t
val encode : t -> string
val decode : string -> t
