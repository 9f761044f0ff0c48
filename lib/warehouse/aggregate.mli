(** Incremental group-by aggregates over the materialized view.

    The paper restricts the view function to SPJ expressions but notes
    (§2) that "it is possible to model the data warehouse using more
    complex view functions such as aggregates". This module is that
    extension: it consumes the very same view-level deltas the warehouse
    installs and maintains [COUNT], [SUM], [AVG], [MIN] and [MAX] per
    group incrementally — deletions included, thanks to the counting
    representation (a per-group value multiset makes MIN/MAX maintainable
    under deletes, which plain counters cannot do).

    Feed one from a warehouse's install history: {!seed} it with
    {!Node.initial_view}, then {!apply} the delta of every record in
    {!Node.installs}, in order. Each install keeps the aggregate exactly
    consistent with the view it is derived from (asserted by the test
    suite; [examples/star_schema.ml] does the same). *)

open Repro_relational

type func = Count | Sum of int | Avg of int | Min of int | Max of int
(** Aggregate functions; the [int] is the *view-tuple* column index. *)

type t

(** [create ~group_by ~aggregates] — [group_by] lists view-tuple columns
    forming the grouping key (empty = one global group). *)
val create : group_by:int array -> aggregates:func list -> t

(** Feed one view-level delta (as passed to the warehouse's install). *)
val apply : t -> Delta.t -> unit

(** [seed t view_contents] (re)initializes from a full view — used to
    seed from the initial materialized view. *)
val seed : t -> Bag.t -> unit

(** Current value of each aggregate for a group key, in the order given
    at [create]. [None] when the group is empty (SUM/AVG/MIN/MAX of an
    empty group; COUNT of a missing group is [Some 0.]). *)
val get : t -> Tuple.t -> float option list

(** All non-empty groups, sorted by key. *)
val groups : t -> Tuple.t list

val pp : Format.formatter -> t -> unit
