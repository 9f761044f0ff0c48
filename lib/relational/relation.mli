(** Base relations and materialized views: bags with non-negative counts.

    Each data source conceptually stores one base relation (paper §2); the
    warehouse's materialized view is also a relation whose counts record in
    how many ways each view tuple is derivable. *)

type t

val create : ?initial_size:int -> unit -> t
val copy : t -> t

(** [insert r tup n] adds [n >= 1] occurrences of [tup].
    Raises [Invalid_argument] when [n < 1]. *)
val insert : t -> Tuple.t -> int -> unit

(** [delete r tup n] removes [n >= 1] occurrences.
    Raises [Invalid_argument] when fewer than [n] are present. *)
val delete : t -> Tuple.t -> int -> unit

val count : t -> Tuple.t -> int
val is_empty : t -> bool
val cardinal : t -> int

(** Sum of counts. *)
val total : t -> int

val iter : (Tuple.t -> int -> unit) -> t -> unit
val to_sorted_list : t -> (Tuple.t * int) list

(** [of_list l] builds a relation; entries may repeat (counts accumulate).
    Raises [Invalid_argument] if any accumulated count is negative. *)
val of_list : (Tuple.t * int) list -> t

(** [of_tuples l] inserts each tuple once. *)
val of_tuples : Tuple.t list -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** The underlying bag, shared. Mutate it only when the relation is
    yours alone, as {!Algebra.eval}'s fresh result is. *)
val as_bag : t -> Bag.t

(** [adopt b] is [b] as a relation, without a copy. The caller gives [b]
    up, and every count in it must be positive (unchecked). *)
val adopt : Bag.t -> t

(** [apply r delta] adds the signed [delta] to [r].
    Returns [Error tuples] listing tuples whose count would go negative —
    the signature of an inconsistent maintenance algorithm — in which case
    [r] is left unchanged. *)
val apply : t -> Bag.t -> (unit, Tuple.t list) result

(** Fresh relation equal to [r + delta]; same error behaviour as
    {!apply}. *)
val applied : t -> Bag.t -> (t, Tuple.t list) result
