(** Per-run counters: the quantities Table 1 and our experiments report.

    Message counts and weights are maintained by the warehouse node's send
    and deliver paths; algorithm-specific counters (compensations,
    recursions, fallbacks) by the algorithms themselves. *)

type t = {
  mutable updates_received : int;  (** update notices delivered *)
  mutable updates_incorporated : int;  (** txns reflected in the view *)
  mutable queries_sent : int;  (** messages warehouse → sources *)
  mutable answers_received : int;  (** non-update messages sources → warehouse *)
  mutable query_weight : int;  (** Σ payload tuples, warehouse → sources *)
  mutable answer_weight : int;  (** Σ payload tuples, sources → warehouse *)
  mutable notice_weight : int;  (** Σ payload tuples of update notices *)
  mutable installs : int;  (** view-state transitions *)
  mutable compensations : int;  (** local error corrections performed *)
  mutable recursions : int;  (** Nested SWEEP recursive frames *)
  mutable fallbacks : int;  (** Nested SWEEP forced terminations *)
  mutable max_depth : int;  (** max Nested SWEEP stack depth *)
  mutable max_queue : int;  (** max update-queue length *)
  mutable negative_installs : int;  (** installs driving a count < 0 *)
  mutable staleness_sum : float;  (** Σ (install − arrival) over txns *)
  mutable staleness_max : float;
  mutable retransmissions : int;  (** transport frames resent on timeout *)
  mutable timeouts : int;  (** transport retransmission timer expiries *)
  mutable duplicates_suppressed : int;  (** dup frames dropped by receivers *)
  mutable recoveries : int;  (** frames acked after ≥1 retransmission *)
  mutable frames_lost : int;  (** frames lost to drop + crash windows *)
  mutable wh_crashes : int;  (** warehouse crash/restart cycles *)
  mutable wal_records : int;  (** records ever appended to the WAL *)
  mutable wal_bytes : int;  (** encoded bytes ever appended to the WAL *)
  mutable wal_live_bytes_max : int;
      (** the most WAL bytes held at once; each checkpoint truncates the
          log, so this stays near [checkpoint_every] records' bytes *)
  mutable checkpoints : int;  (** checkpoints taken *)
  mutable checkpoint_bytes : int;  (** Σ encoded checkpoint sizes *)
  mutable replayed_records : int;  (** WAL records replayed during recovery *)
  mutable recovery_seconds : float;  (** wall-clock time spent recovering *)
  mutable snapshots_fetched : int;  (** Snapshot answers (full refetches) *)
  mutable queue_deferred : int;  (** updates held back by backpressure *)
  mutable queue_shed : int;  (** no-op updates dropped at capacity *)
  mutable batches : int;  (** batched installs (Sweep_batched) *)
  mutable max_batch : int;  (** largest batch of updates swept at once *)
  mutable query_timeouts : int;  (** sweep-query deadlines blown *)
  mutable breaker_trips : int;  (** circuit-breaker Closed→Open edges *)
  mutable stalled_updates : int;  (** updates parked behind an open breaker *)
  mutable degraded_time : float;  (** sim-time spent with ≥1 breaker open *)
  mutable reads_served : int;  (** reads answered (fresh + stale) *)
  mutable reads_stale : int;  (** served reads over the staleness SLO *)
  mutable reads_shed : int;  (** reads rejected by admission control *)
  mutable read_staleness_p50 : float;  (** median staleness stamp served *)
  mutable read_staleness_p99 : float;  (** tail staleness stamp served *)
  mutable local_answers : int;  (** sweep legs answered from the aux store *)
  mutable aux_bytes : int;  (** encoded aux-store size at end of run *)
}

val create : unit -> t

(** Observe queue length after an append. *)
val note_queue_length : t -> int -> unit

(** Observe one batched sweep of [size] updates (counts the batch,
    retains the high-water mark). *)
val note_batch : t -> int -> unit

(** Observe one incorporated txn's staleness. *)
val note_staleness : t -> float -> unit

(** Mean staleness per incorporated txn (0 when none). *)
val mean_staleness : t -> float

(** Queries sent per incorporated txn (the paper's message cost per
    update). *)
val queries_per_update : t -> float

(** Total protocol messages (queries + answers) per incorporated txn —
    the cost batching drives toward O(n/k). *)
val messages_per_update : t -> float

(** Fraction of sweep legs answered locally from the aux store,
    [local_answers / (local_answers + queries_sent)] (0 when no legs). *)
val aux_hit_rate : t -> float

(** Canonical flat export (declaration order, derived means last) for
    a run's JSON export and the P1 preset-counter page. *)
val fields : t -> (string * [ `Int of int | `Float of float ]) list

val pp : Format.formatter -> t -> unit
