(** Post-hoc verification of the consistency level a run achieved
    (paper §2's hierarchy: complete ⊃ strong ⊃ convergence).

    The warehouse serializes source updates in delivery order (paper §5).
    Replaying that serialization over the initial database gives the
    expected view; the observed install history — the initial view plus
    one installed delta per install — is graded in one pass over a
    difference bag D = expected − observed, so the cost is the replay
    plus the installed deltas, never a copy of the view per install:

    - {b Complete}: the installs partition the delivery log into
      contiguous runs, in delivery order, each leaving D empty — every
      warehouse state is a source state and no update is reflected early
      or late. One install per update (SWEEP) is the all-runs-of-length-1
      case; a batched install (Sweep_batched) qualifies iff it covers
      exactly the next pending deliveries.
    - {b Strong}: installs may batch several updates {e skipping over
      other sources' deliveries}, as long as each batch keeps every
      source's updates in order (cumulative sets are per-source
      prefixes — sources are autonomous, so any interleaving respecting
      per-source order is a legal serialization) and leaves D empty.
    - {b Convergent}: intermediate installs stray from every legal state,
      but the final view is correct once the run drains.
    - {b Degraded}: the run ended with circuit breakers still open
      (source outage outlasting the run), so parked updates were never
      incorporated — accepted only when [check ~degraded:true] and the
      install history is order-preserving and exact over the
      {e incorporated subset}: the view is honest about what it
      reflects, it just is not done.
    - {b Inconsistent}: the final view is wrong, or is not the initial
      view plus the installed deltas.

    Commercial systems of the era ensured only convergence (paper §2 cites
    Red Brick); SWEEP must test as Complete, Nested SWEEP and Strobe as
    Strong — the test suite asserts exactly that on randomized runs. *)

open Repro_relational
open Repro_protocol

type verdict = Complete | Strong | Convergent | Degraded | Inconsistent

val verdict_to_string : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit

(** Verdict ordering: [Complete] strongest. *)
val compare_verdict : verdict -> verdict -> int

type observation = {
  initial_sources : Relation.t array;  (** source contents before any update *)
  deliveries : Message.update list;  (** warehouse delivery order *)
  initial_view : Bag.t;  (** the node's view before its first install *)
  installs : (Message.txn_id list * Delta.t) list;
      (** per install: incorporated txns and the view delta installed;
          the state after install k is [initial_view] plus deltas 0..k *)
  final_view : Bag.t;  (** must equal [initial_view] plus every delta *)
}

(** Where an install first left the expected state: its index in the
    install history, its txns, and up to three of the smallest (by
    {!Tuple.compare}) differing tuples with their expected and observed
    counts after it. *)
type deviation = {
  install : int;
  txns : Message.txn_id list;
  tuples : (Tuple.t * int * int) list;  (** tuple, expected, observed *)
}

type result = {
  verdict : verdict;
  detail : string;  (** human explanation of the strongest failed level *)
  deviation : deviation option;
      (** the first inexact install, when one caused the verdict *)
}

val pp_deviation : Format.formatter -> deviation -> unit

(** [degraded] (default false): the run ended with breakers open —
    accept an exact-over-the-incorporated-subset history as
    {!Degraded} instead of grading it {!Inconsistent}. *)
val check : ?degraded:bool -> View_def.t -> observation -> result

(** {2 Session guarantees over the read path}

    The serving tier ({!Repro_serving.Server}) answers reads from the
    materialized view while maintenance may be lagging. Two classic
    session guarantees are graded post-hoc from the read log:

    - {b monotonic reads}: within one session, the view version observed
      never goes backwards (a later read never sees an older view);
    - {b read-your-writes}: a read issued by session [s] (sessions are
      pinned to source sites) reflects every update of source [s] the
      warehouse had {e acknowledged} — delivered into its queue — by the
      time the read was issued.

    Stale serving can violate read-your-writes by design (that is what
    the staleness stamp is for); the checker measures how often, it does
    not forbid it. *)

(** One served (not shed) read, in serve order. *)
type read_view = {
  session : int;  (** client session; pinned to a source id for RYW *)
  issued_at : float;
  version : int;  (** warehouse install count observed at serve time *)
  incorporated : int array;
      (** per-source count of updates reflected in the served view *)
  acked : int array;
      (** per-source count of updates the warehouse had acknowledged
          when the read was issued *)
}

type session_report = {
  reads_graded : int;
  monotonic_reads : bool;
  mr_violations : int;
  read_your_writes : bool;
  ryw_violations : int;
}

(** [check_sessions ~n_sources reads] grades the read log (serve
    order). An empty log trivially satisfies both guarantees. *)
val check_sessions : n_sources:int -> read_view list -> session_report

val pp_session_report : Format.formatter -> session_report -> unit
