(** The interface every view-maintenance algorithm implements.

    The paper's pseudocode blocks on [RECEIVE]; here each algorithm is an
    event-driven state machine: the warehouse node appends delivered
    updates to the shared {!Update_queue} and invokes [on_update], and
    routes query answers to [on_answer]. Everything an algorithm may do to
    the outside world goes through the capabilities in {!ctx}. *)

open Repro_relational
open Repro_sim
open Repro_protocol

type ctx = {
  engine : Engine.t;
  view : View_def.t;
  trace : Trace.t;
  obs : Repro_observability.Obs.t;
      (** structured spans + histograms (disabled by default; one branch
          per emission when off) *)
  metrics : Metrics.t;
  aux : Aux_store.t;
      (** auxiliary projections for self-maintenance (DESIGN.md §14);
          [Aux_store.off ()] when disabled *)
  queue : Update_queue.t;  (** the UpdateMessageQueue of Fig. 4 *)
  send : int -> Message.to_source -> unit;
      (** transmit to source [i] (metrics-instrumented by the node) *)
  install : Delta.t -> txns:Update_queue.entry list -> unit;
      (** apply a *view-level* delta to the materialized view, recording
          that it incorporates exactly the given update entries *)
  view_contents : unit -> Bag.t;
      (** current materialized view (read-only) — the key-based baselines
          need it for duplicate suppression *)
  fresh_qid : unit -> int;
  source_ok : int -> bool;
      (** circuit-breaker eligibility: false while source [i]'s breaker
          is open (queries to it would only time out). Always true when
          no breaker is wired. *)
  stall_cap : int;
      (** max updates an algorithm may park behind open breakers before
          it must fall back to blocking (bounds degraded-mode memory) *)
}

module type S = sig
  type t

  val name : string
  val create : ctx -> t

  (** A new update entry was just appended to [ctx.queue]. *)
  val on_update : t -> Update_queue.entry -> unit

  (** A non-update message (answer / snapshot) arrived. *)
  val on_answer : t -> Message.to_warehouse -> unit

  (** Source [i]'s circuit breaker opened: park work that needs it (up to
      [ctx.stall_cap]) and keep maintaining updates whose sweep legs
      avoid it. Algorithms without degraded-mode support may ignore
      this — they simply stay blocked until the breaker closes. *)
  val on_source_down : t -> int -> unit

  (** Source [i]'s breaker closed again: replay parked work through the
      normal compensation path. *)
  val on_source_up : t -> int -> unit

  (** No in-flight work (used by drain loops and sanity checks). *)
  val idle : t -> bool

  (** Freeze the algorithm's resumable state for a checkpoint. Must be a
      deep copy: the returned tree may outlive arbitrary further
      mutation of [t]. Binds each record of its state with a closed
      pattern naming every field ([ctx = _], and [span = _] with its
      reason for a volatile or derived field), so a field added to the
      state fails the build (warning 9, an error in this library). *)
  val snapshot : t -> Repro_durability.Snap.t

  (** Rebuild from a {!snapshot} against a fresh context (crash
      recovery). [restore ctx (snapshot t)] must behave identically to
      [t] for all future events. Builds each record literally, never
      with [{ r with … }], so every field is written. *)
  val restore : ctx -> Repro_durability.Snap.t -> t
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

(** Instantiate an algorithm on a context. *)
val instantiate : (module S) -> ctx -> packed

val packed_name : packed -> string
val packed_on_update : packed -> Update_queue.entry -> unit
val packed_on_answer : packed -> Message.to_warehouse -> unit
val packed_on_source_down : packed -> int -> unit
val packed_on_source_up : packed -> int -> unit
val packed_idle : packed -> bool
val packed_snapshot : packed -> Repro_durability.Snap.t

(** Re-instantiate an algorithm from a checkpointed snapshot. *)
val restore_packed : (module S) -> ctx -> Repro_durability.Snap.t -> packed

(** {2 The shared transaction frame} *)

(** [ctx.trace] is enabled: the guard of every {!trace} call,
    [if Algorithm.tracing ctx then Algorithm.trace ctx …], which makes a
    disabled trace cost one branch and no allocation. *)
val tracing : ctx -> bool

(** [trace ctx fmt …] records a warehouse line in [ctx.trace] at the
    current simulated time (formatted and dropped when the trace is
    disabled; see {!tracing}). *)
val trace : ctx -> ('a, Format.formatter, unit) format -> 'a

(** Transaction ids of queue entries, comma-joined. *)
val pp_txns : Format.formatter -> Update_queue.entry list -> unit

(** [txn_span ctx name ?attrs entries] opens the root span
    ["<name>.txn"] of one transaction covering [entries], with attribute
    [txn] ({!pp_txns}) first and then [attrs];
    [Tracer.none] when observability is off. *)
val txn_span :
  ctx ->
  string ->
  ?attrs:(string * Repro_observability.Tracer.attr) list ->
  Update_queue.entry list ->
  Repro_observability.Tracer.id

(** {2 Shared snapshot helpers} — queue entries serialized by value, used
    by every algorithm's [snapshot]/[restore]. *)

val snap_of_entry : Update_queue.entry -> Repro_durability.Snap.t
val entry_of_snap : Repro_durability.Snap.t -> Update_queue.entry
