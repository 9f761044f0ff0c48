(** Tuples: immutable arrays of {!Value.t}.

    Tuples are treated as values — never mutate the underlying array after
    construction; all operations here copy. *)

type t = Value.t array

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

(** [hash_cols t cols] is [hash (project t cols)], without building the
    projection. *)
val hash_cols : t -> int array -> int

(** [equal_cols a acols b bcols] is
    [equal (project a acols) (project b bcols)], without building
    either projection. *)
val equal_cols : t -> int array -> t -> int array -> bool

(** [gather parts srcs locs] is the tuple whose column [i] is column
    [locs.(i)] of [parts.(srcs.(i))]: a view tuple read off the source
    tuples matched along a join chain. *)
val gather : t array -> int array -> int array -> t

(** [hash_gather parts srcs locs] is [hash (gather parts srcs locs)],
    without building the tuple. *)
val hash_gather : t array -> int array -> int array -> int

(** [equal_gather t parts srcs locs] is
    [equal t (gather parts srcs locs)], without building the tuple. *)
val equal_gather : t -> t array -> int array -> int array -> bool

(** [concat a b] is the juxtaposition of [a] and [b] — the tuple of the
    joined relation. *)
val concat : t -> t -> t

(** [project t indices] keeps the values at [indices], in that order. *)
val project : t -> int array -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
