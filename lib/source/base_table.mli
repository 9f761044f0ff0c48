(** A base relation and its join indexes.

    Updates are applied atomically and sequence-numbered. The table keeps
    no history of them: the consistency checker replays the warehouse's
    delivery record ([Node.deliveries]), which holds
    every update in the order it was delivered. *)

open Repro_relational
open Repro_protocol

type t

(** [create ~source ~view rel] is source [source]'s table of [view],
    holding [rel]. Its join indexes, one per junction of [source]
    ({!Algebra.indexes}), are built at the first {!extend} and kept in
    step by {!apply} from then on. *)
val create : source:int -> view:View_def.t -> Relation.t -> t

val source : t -> int

(** The table's join indexes, built now if no leg has probed them yet;
    read-only. *)
val indexes : t -> Algebra.indexes

(** [extend t partial] — one sweep leg: joins [partial] with this
    table's current relation ({!Algebra.join}'s result, bag for bag)
    by probing the index of the junction [partial] meets
    ({!Algebra.answer}), whatever its shape: a cross product probes the
    index with no key columns. [partial] must be adjacent to
    {!source}. *)
val extend : t -> Partial.t -> Partial.t

(** The live relation (mutated by {!apply}); treat as read-only. *)
val relation : t -> Relation.t

(** Atomically apply one update transaction (single update or
    source-local multi-update, paper §2) and return its sequence
    number. Raises
    [Invalid_argument] when a delete refers to absent tuples. *)
val apply : t -> Delta.t -> Message.txn_id

(** Number of transactions applied. *)
val applied : t -> int
