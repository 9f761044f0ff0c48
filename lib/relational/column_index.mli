(** A persistent hash index on one column of a counted bag: each value
    of the column maps to the tuples that carry it, with their counts.
    A value carried by one tuple holds it inline; only a second distinct
    tuple makes its bucket a {!Bag}. The index holds no empty bucket: a
    bucket whose last tuple cancels is removed.

    Source tables index their join columns with it ([Base_table]), so do
    the warehouse's auxiliary projections ([Aux_store]) and the update
    queue's running L_j ([Update_queue]), so that a sweep leg or a
    compensation probes instead of scanning. *)

type t

(** [of_bag ~col b] indexes the tuples of [b] on column [col]. *)
val of_bag : col:int -> Bag.t -> t

(** The indexed column. *)
val col : t -> int

(** [add t tup n] adds [n] (possibly negative) to [tup]'s multiplicity
    in its bucket, keeping the index in step with a bag that received
    the same [Bag.add]. *)
val add : t -> Tuple.t -> int -> unit

(** [iter t v f] calls [f] on the tuples whose indexed column equals
    [v], with their multiplicities, in no particular order. *)
val iter : t -> Value.t -> (Tuple.t -> int -> unit) -> unit

(** Same column and the same tuples with the same counts under every
    value. *)
val equal : t -> t -> bool
