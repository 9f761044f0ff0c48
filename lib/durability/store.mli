(** The warehouse's durable state: one WAL plus the latest checkpoint.

    The node logs every delivered message and every install through
    {!log}; the experiment harness installs a {!set_capture} callback
    that freezes the full recoverable state ({!Checkpoint.t}) and calls
    {!maybe_checkpoint} at consistent points (after a delivery has been
    fully processed). A checkpoint is taken every [checkpoint_every] WAL
    records — record-count triggered, not timer triggered, so an idle
    warehouse schedules no events and fault-free engines still drain.

    Checkpoints are held encoded, as the ordered byte pieces of
    {!Checkpoint.pieces}: the view's and aux projections' page strings
    are immutable and shared from one checkpoint to the next, as in
    shadow paging, so taking one costs the pages that changed plus one
    list cell per page, not a copy of the view. {!latest_checkpoint}
    concatenates the pieces and decodes a fresh copy, so recovered state
    never aliases the live structures it was captured from. Each
    checkpoint truncates the WAL to the records after its [wal_pos]. *)

type t

(** [checkpoint_every = 0] disables checkpointing (recovery then replays
    the whole WAL). Default 8. *)
val create : ?checkpoint_every:int -> unit -> t

val set_capture : t -> (unit -> Checkpoint.t) -> unit

(** Append one record (does not checkpoint; call {!maybe_checkpoint} at
    the next consistent point). *)
val log : t -> Wal.record -> unit

(** Take a checkpoint if [checkpoint_every] records have been logged
    since the last one. *)
val maybe_checkpoint : t -> unit

(** Unconditional checkpoint; truncates the WAL to the records after
    the checkpoint's [wal_pos]. Raises if no capture function is set. *)
val checkpoint_now : t -> unit

(** Concatenate and decode the most recent checkpoint, if any. *)
val latest_checkpoint : t -> Checkpoint.t option

(** The WAL records recovery must replay: everything after the latest
    checkpoint's [wal_pos] (the whole log when no checkpoint exists).
    The position is kept beside the stored pieces, so this decodes
    no checkpoint. *)
val tail : t -> Wal.record list

(** Records and bytes ever logged, truncated ones included. *)
val wal_length : t -> int

val wal_bytes : t -> int

(** The most WAL bytes held at once between truncations. *)
val wal_live_bytes_max : t -> int

val checkpoints : t -> int

(** Total logical bytes across all checkpoints taken: the length each
    checkpoint's encoding would have, although pages shared between
    checkpoints are stored once. *)
val checkpoint_bytes : t -> int
