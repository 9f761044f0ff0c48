(** Auxiliary projections for self-maintainable views (DESIGN.md §14).

    SWEEP's 2(n−1) messages/update is the floor only if the warehouse
    stores nothing beyond the view itself. This module keeps, per base
    relation, a counting projection onto a small set of {e tracked}
    columns — maintained as a mini-view from the same installed delta
    stream the main view sees — and a planner that decides, per sweep
    leg, whether the leg can be answered locally from the projection
    (zero messages) or must fall back to a remote query.

    {2 Exactness}

    The projection of source [j] is advanced only when an update is
    {e installed} into the view, so at any instant it equals exactly
    [π_tracked (R_j_init + installed_j)] — the same state a remote
    answer has {e after} interference compensation. A local answer
    therefore needs no compensation; engines add a per-algorithm
    {e overlay} (delivered-but-uninstalled deltas of [j], e.g. the rest
    of a batch) when their remote path would see them.

    {2 Answerability}

    A leg against source [j] is locally answerable iff the tracked
    columns functionally determine the leg's contribution: every column
    of [j] referenced by any join equality, any join residual, the
    selection, or the projection must be tracked. Untracked columns are
    lifted as {!Value.Null} placeholders — never consulted, and
    discarded by the final projection, so answers are bit-identical to
    the remote path. [Keys_only] mode tracks keys + join columns (small,
    may leave some legs remote); [Full] tracks everything referenced
    (every leg local). *)

open Repro_relational

type mode = Off | Keys_only | Full

val mode_to_string : mode -> string

(** Parses ["off" | "keys" | "keys-only" | "full"]. *)
val mode_of_string : string -> mode option

type t

(** A store that answers nothing and stores nothing ([mode = Off]);
    the default for nodes created without auxiliary state. *)
val off : unit -> t

(** [create ~view ~mode ~initial ()] projects the initial base
    relations. [initial.(j)] must be source [j]'s relation at warehouse
    genesis (the state [init] the initial view was computed from).
    Each projection keeps one join index per junction of its source,
    so {!local_answer} probes instead of copying the projection. *)
val create :
  view:View_def.t -> mode:mode -> initial:Relation.t array -> unit -> t

val mode : t -> mode

(** Tracked local columns of source [j] (sorted; [[||]] when off). *)
val tracked : t -> int -> int array

(** Whether legs against source [j] can be answered locally. *)
val answers : t -> int -> bool

(** [indexes t j] are the live join indexes of source [j]'s
    projection, one per junction, keyed on the junction's columns at
    their positions in {!tracked}. Raises when off. *)
val indexes : t -> int -> Algebra.indexes

(** Advance source [j]'s projection by an installed delta. Must be
    called exactly once per installed update, in install order —
    {!Node} does this from its install path (live and replaying). *)
val apply : t -> source:int -> Delta.t -> unit

(** [local_answer t ~target ~partial ~overlay] answers the sweep leg
    joining [partial] with source [target] from the projection, or
    returns [None] when the leg is not locally answerable. [overlay] is
    the sum of delivered-but-uninstalled deltas of [target] that the
    remote path would observe (net of compensation); pass
    [Delta.empty ()] when the remote path would see exactly the
    installed state. [partial] must be adjacent to [target]
    ([target = partial.lo - 1] or [target = partial.hi + 1]). The leg
    probes the projection's index of the junction it meets, whatever
    its shape ({!Algebra.answer}), and joins the overlay beside it. *)
val local_answer :
  t -> target:int -> partial:Partial.t -> overlay:Delta.t -> Partial.t option

(** Serialized size of the current state, as the checkpoint writes it
    — the storage side of the storage-vs-messages trade-off
    ([Metrics.aux_bytes]). *)
val bytes : t -> int

(** The projections as checkpoint images, one per source in source
    order ([None] when off). Built at the first call, then kept in step
    by {!apply}, so a checkpoint re-encodes only the pages that changed.
    The images are live, not copies: they ride the §8 checkpoint, which
    the store encodes as soon as it is captured. *)
val image : t -> Repro_durability.Canon.t list option

(** Restore projections from a decoded checkpoint's images (crash
    recovery), adopting them as the live images. Mode and view must
    match the store that produced them. *)
val restore : t -> Repro_durability.Canon.t list -> unit

(** Reset projections to warehouse genesis (recovery without a
    checkpoint: WAL replay re-applies every installed delta). *)
val reset : t -> unit
