(** Atomic values stored in tuples.

    The warehouse model is relational; base relations and the materialized
    view hold tuples of these atomic values. Comparison is total and
    deterministic so relations can be printed and tested in a canonical
    order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

(** Value types, used by {!Schema} to describe attributes. *)
type ty = T_bool | T_int | T_float | T_str

val compare : t -> t -> int

(** [equal a b] holds exactly when [compare a b = 0]. *)
val equal : t -> t -> bool

(** [spread h] is a non-negative hash whose low bits depend on every bit
    of [h], as the bucket index of a [Hashtbl.Make] table needs. *)
val spread : int -> int

(** [hash v] is consistent with {!equal}: [Float 0.0] and [Float (-0.0)]
    hash alike, and so do all NaNs. An [Int] hashes without the
    polymorphic hash. *)
val hash : t -> int

(** [type_of v] is the type of [v]; [Null] has no type. *)
val type_of : t -> ty option

(** [conforms v ty] holds when [v] can populate an attribute of type [ty].
    [Null] conforms to every type. *)
val conforms : t -> ty -> bool

val pp : Format.formatter -> t -> unit
val pp_ty : Format.formatter -> ty -> unit
val to_string : t -> string

(** Convenience constructors used pervasively in tests and examples. *)
val int : int -> t

val str : string -> t
val float : float -> t
val bool : bool -> t
