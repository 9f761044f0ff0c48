(** The warehouse site (paper Figs. 1 and 4).

    Owns the materialized view, the update message queue and the metrics;
    runs one maintenance algorithm. The [LogUpdates] process of Fig. 4 is
    {!deliver} on an [Update_notice]; answers are routed to the
    algorithm's [on_answer]. All messages the algorithm sends are
    instrumented here, and every install is recorded (incorporated
    transactions, installed view delta) for the consistency checker.

    The view is stored as a signed {!Bag} on purpose: a correct algorithm
    never drives a count negative, and the node records it when one does
    (the naive baseline's failure mode) instead of crashing.

    With a durability {!Repro_durability.Store} attached, every delivered
    message is WAL-logged {e before} it is processed (and the transport
    acknowledges only after {!deliver} returns, so everything acked is on
    the log), every install is logged for replay verification, and a
    checkpoint is taken every [checkpoint_every] records at the end of a
    delivery — a consistent point. After a crash, {!recover} rebuilds the
    node from the latest checkpoint and {!replay_record} re-drives the WAL
    tail through the algorithm with all externally visible effects
    (metrics, histories, WAL appends, listeners) suppressed — they already
    happened before the crash. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_durability

(** One install: the view after install k is {!initial_view} plus the
    deltas of installs 0..k. *)
type install_record = {
  txns : Message.txn_id list;  (** incorporated by this install *)
  delta : Delta.t;  (** the view delta installed (a copy) *)
}

type t

(** [create engine ~view ~algorithm ~send ~init ()] builds the node.
    [send i msg] must transmit [msg] to source [i] (or to the centralized
    site); [init] is the initial, correct materialized view (paper §5.1
    assumes V starts correct).

    The node adopts [init]: its bag becomes the live view, and every
    install changes it in place, so a caller that reads [init] after
    [create] passes a {!Relation.copy} (O(1)). The node keeps a copy of
    it as {!initial_view} only for the readers of that view, the
    checker's history ([record_history]) and genesis recovery
    ([durability]). That copy shares the view's arrays, so the first
    install copies them; without either reader the node takes no copy
    and the first install writes the arrays in place.

    [record_history] (default true) keeps, for the checker, the initial
    view, every delivered update ({!deliveries}) and each install's txns
    and a copy of its delta — O(|Δ|) per update and install, not
    O(|view|). Without it the node keeps no per-update history, so its
    memory follows the view and the queue, not the run's length.
    [durability] attaches a WAL + checkpoint store; [metrics] lets the
    caller supply the counter record (so it can survive crash/recovery);
    [queue_capacity] bounds the update queue (admission control must
    hold updates back — see {!Update_queue.create}); [obs] attaches
    structured spans + latency histograms (a disabled handle by default
    — one branch per emission). Observability is muted during WAL
    replay: replayed work was already observed before the crash.
    [breaker] attaches per-source circuit breakers: the node routes
    answer arrivals to
    {!Breaker.record_success}, wires breaker open/close transitions to
    the algorithm's [on_source_down]/[on_source_up] hooks, and
    checkpoints/restores breaker state with the rest of the node.
    [stall_cap] (default 256) bounds how many updates the algorithm may
    park behind open breakers. *)
val create :
  Engine.t ->
  view:View_def.t ->
  algorithm:(module Algorithm.S) ->
  send:(int -> Message.to_source -> unit) ->
  init:Relation.t ->
  ?durability:Store.t ->
  ?metrics:Metrics.t ->
  ?queue_capacity:int ->
  ?breaker:Breaker.t ->
  ?aux:Aux_store.t ->
  ?stall_cap:int ->
  ?record_history:bool ->
  ?trace:Trace.t ->
  ?obs:Repro_observability.Obs.t ->
  unit ->
  t

(** Deliver one message from a source channel. *)
val deliver : t -> Message.to_warehouse -> unit

(** {2 Crash recovery} *)

(** [recover ~prev ?checkpoint ()] — restart after a crash. Volatile
    state (view, queue, algorithm, query-id counter) is rebuilt from
    [checkpoint], or from genesis (initial view, empty queue, fresh
    algorithm) when no checkpoint was taken; durable artifacts — store,
    metrics, install/delivery histories, listeners — carry over from
    [prev]. The node takes over [checkpoint]'s view image as its own.
    The caller must then replay the WAL tail:
    {!begin_replay}, {!replay_record} per record, {!end_replay}. *)
val recover : prev:t -> ?checkpoint:Checkpoint.t -> unit -> t

val begin_replay : t -> unit

(** Re-drive one WAL record through the algorithm. [Installed] records
    are not applied — replay regenerates installs; each one is checked
    against the log (raises [Invalid_argument] on divergence). *)
val replay_record : t -> Wal.record -> unit

(** Raises if replay regenerated installs the log does not contain. *)
val end_replay : t -> unit

(** Freeze the node's recoverable state. [wal_pos] is the WAL length at
    capture; [recv_expected] / [senders] are the transport endpoints'
    frozen states (supplied by the wiring layer, which owns the links).
    The view is the node's live {!Canon.t} image, not a copy — built on
    the first call, then kept in step by every install — so encode the
    checkpoint before the node installs again. *)
val checkpoint :
  t ->
  wal_pos:int ->
  recv_expected:int array ->
  senders:Checkpoint.sender_state array ->
  Checkpoint.t

(** {2 Observation} *)

(** [add_incorporate_listener t f] calls [f n] after every install that
    incorporated [n] update transactions — the backpressure layer's
    token-release hook. Not fired during replay. *)
val add_incorporate_listener : t -> (int -> unit) -> unit

(** [add_delivery_listener t f] calls [f update] when an update notice is
    delivered (acknowledged) into the warehouse queue — the serving
    tier's staleness feed. Not fired during replay. *)
val add_delivery_listener : t -> (Message.update -> unit) -> unit

(** [add_install_txns_listener t f] calls [f txns] after every install
    with the transaction ids it incorporated — the serving tier's
    catch-up feed. Not fired during replay. *)
val add_install_txns_listener : t -> (Message.txn_id list -> unit) -> unit

(** Current materialized view contents (live; treat as read-only). *)
val view_contents : t -> Bag.t

val metrics : t -> Metrics.t

(** The structured-observability handle passed at {!create} (a disabled
    one when none was). *)
val obs : t -> Repro_observability.Obs.t

val queue : t -> Update_queue.t

(** The breaker passed at {!create}, if any. *)
val breaker : t -> Breaker.t option

(** The self-maintenance aux store ([Aux_store.off ()] when none was
    passed to {!create}). *)
val aux : t -> Aux_store.t

(** At least one source's breaker is currently not closed. *)
val degraded : t -> bool

val algorithm_name : t -> string

(** Installs in order of occurrence; [[]] without [record_history]. *)
val installs : t -> install_record list

(** Updates in warehouse delivery order; [[]] without
    [record_history]. *)
val deliveries : t -> Message.update list

(** Initial view contents (a copy of [init] taken at creation). Raises
    [Invalid_argument] when the node was created with
    [~record_history:false] and no durability store, as it then keeps
    no copy. *)
val initial_view : t -> Bag.t

(** True when the algorithm has no in-flight work and the queue is
    empty. *)
val idle : t -> bool
