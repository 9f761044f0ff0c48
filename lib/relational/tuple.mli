(** Tuples: immutable arrays of {!Value.t}.

    Tuples are treated as values — never mutate the underlying array after
    construction; all operations here copy. *)

type t = Value.t array

val of_list : Value.t list -> t

(** [ints [1;2]] builds an all-integer tuple; the common case in tests. *)
val ints : int list -> t

val arity : t -> int
val get : t -> int -> Value.t
val compare : t -> t -> int

(** [equal a b] holds exactly when [compare a b = 0]. *)
val equal : t -> t -> bool

(** [hash t] mixes every column, however wide the tuple (ints inline,
    without the polymorphic hash), and spreads the result for
    [Hashtbl.Make]. [equal a b] implies [hash a = hash b]. *)
val hash : t -> int

(** [concat a b] is the juxtaposition of [a] and [b] — the tuple of the
    joined relation. *)
val concat : t -> t -> t

(** [project t indices] keeps the values at [indices], in that order. *)
val project : t -> int array -> t

(** [slice t pos len] is the contiguous sub-tuple starting at [pos]. *)
val slice : t -> int -> int -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
