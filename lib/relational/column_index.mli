(** A persistent hash index on one column of a counted bag: each value
    of the column maps to the bag of tuples that carry it. The index
    holds no empty bucket: a bucket whose last tuple cancels is removed.

    Source tables index their join columns with it ([Base_table]), and
    so do the warehouse's auxiliary projections ([Aux_store]), so that a
    sweep leg probes instead of scanning. *)

type t

(** [of_bag ~col b] indexes the tuples of [b] on column [col]. *)
val of_bag : col:int -> Bag.t -> t

(** The indexed column. *)
val col : t -> int

(** [add t tup n] adds [n] (possibly negative) to [tup]'s multiplicity
    in its bucket, keeping the index in step with a bag that received
    the same [Bag.add]. *)
val add : t -> Tuple.t -> int -> unit

(** [fold t v f init] folds [f] over the tuples whose indexed column
    equals [v], with their multiplicities, in no particular order. *)
val fold : t -> Value.t -> (Tuple.t -> int -> 'a -> 'a) -> 'a -> 'a

(** Same column and the same buckets, bucket for bucket: an empty
    bucket differs from an absent one. *)
val equal : t -> t -> bool
