(** A base relation plus its local transaction log.

    Updates are applied atomically and sequence-numbered; the log is the
    per-source ground truth the consistency checker replays. *)

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
    source-local multi-update, paper §2) and log it. Raises
    [Invalid_argument] when a delete refers to absent tuples. *)
val apply : t -> Delta.t -> Message.txn_id

(** Applied transactions, oldest first. *)
val log : t -> (Message.txn_id * Delta.t) list

(** Number of transactions applied. *)
val applied : t -> int
