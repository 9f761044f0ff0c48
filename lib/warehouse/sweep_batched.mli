(** The SWEEP engine: one sweep amortized over a batch of queued updates.

    When an update reaches the head of the queue the engine drains up
    to [batch_max] queued updates (chosen up front — no termination
    hazard, no recursion fallback), coalesces them into per-source
    combined deltas D_i via {!Delta.sum}, and runs one {!Sweep_leg} per
    distinct source with a non-empty D_i, in ascending source order.
    Leg i's local error correction runs against the *combined* deltas:
    an answer from source j is compensated by the queued interference
    L_j always, plus the batch's own D_j when j > i — a right-leg source
    must contribute its pre-batch state. The summed view delta is one
    transition covering the whole batch, which the checker grades
    *completely* consistent (the install equals the next-|batch|
    database state; see DESIGN.md §10 for the multilinearity argument).

    SWEEP (paper §5, Fig. 4) is a batch of one, and so are its policies:
    the naive baseline without compensation, and Global SWEEP, whose
    install hook buffers batches while a global transaction is open.

    Message cost: 2(n−1) per *distinct source* in the batch instead of
    per update — messages per update falls toward O(n/k) as the batch
    size k grows. *)

open Repro_relational

(** What distinguishes one member of the SWEEP family from another. *)
module type POLICY = sig
  val name : string

  (** Most queued updates drained into one batch (≥ 1; SWEEP is 1). *)
  val batch_max : int

  (** Apply §4's on-line error correction to answers? (The naive
      baseline says no — that is its entire difference from SWEEP.) *)
  val compensate : bool

  (** May sweep legs be answered from the aux store (DESIGN.md §14)?
      Requires that every batch is installed before the next one
      starts: aux projections advance at install time, so a policy that
      buffers finished-but-uninstalled batches (sweep-global) would
      leave their deltas visible to neither the projections nor the
      interference-compensation queue scan. *)
  val local_answers : bool

  (** Per-instance policy state (install buffers, transaction
      ledgers…). *)
  type extra

  val create_extra : Algorithm.ctx -> extra

  (** A batch finished with view delta [delta] for [entries] (delivery
      order): the policy installs it — immediately, buffered, … The
      engine starts the next batch afterwards. *)
  val install :
    Algorithm.ctx -> extra -> Delta.t -> Update_queue.entry list -> unit

  (** Is the policy state quiescent (nothing buffered)? *)
  val extra_idle : extra -> bool

  (** Checkpoint / restore the policy state (crash recovery). *)
  val extra_snapshot : extra -> Repro_durability.Snap.t

  val extra_restore : Algorithm.ctx -> Repro_durability.Snap.t -> extra
end

(** The stateless install policy: each batch is installed as soon as it
    finishes (complete consistency). *)
module Immediate : sig
  type extra = unit

  val create_extra : Algorithm.ctx -> extra

  val install :
    Algorithm.ctx -> extra -> Delta.t -> Update_queue.entry list -> unit

  val extra_idle : extra -> bool
  val extra_snapshot : extra -> Repro_durability.Snap.t
  val extra_restore : Algorithm.ctx -> Repro_durability.Snap.t -> extra
end

(** Raises on [create] when [P.batch_max] < 1. *)
module Make (P : POLICY) : Algorithm.S

(** Batched SWEEP, [batch_max] = 16. *)
include Algorithm.S

(** Same algorithm with a custom batch-size cap (default 16). Raises on
    [create] when the cap is < 1. *)
val with_batch_max : int -> (module Algorithm.S)
