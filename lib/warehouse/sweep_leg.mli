(** One sweep: the ViewChange step of paper Fig. 4 that every sweeping
    algorithm repeats, and the only sender of sweep queries.

    A leg carries a partial view delta ΔV across the sources in
    [pending], one hop at a time. Each hop is either answered locally by
    the caller's hook — the aux store (DESIGN.md §14), or C-strobe's
    pinned deltas — or sent to the source as a query; the answer is then
    corrected locally against the interfering updates the caller names
    (§4). What counts as interference, what happens when a leg finishes,
    and how legs combine stay with the caller: the batched engine,
    Nested SWEEP, the pipelined and parallel variants, Strobe and
    C-strobe. *)

open Repro_relational

type t = {
  qid : int;
  mutable dv : Partial.t;  (** ΔV so far *)
  mutable temp : Partial.t;
      (** TempView: the ΔV the outstanding query carried *)
  mutable pending : int list;  (** sources still to visit, in order *)
  mutable outstanding : int;  (** source queried now, or [-1] *)
  mutable span : Repro_observability.Tracer.id;
      (** the span this leg's queries and events hang under *)
  mutable query : Repro_observability.Tracer.id;
}

(** [create ctx ?span dv ~pending] starts a leg from [dv] with a fresh
    query id. *)
val create :
  Algorithm.ctx ->
  ?span:Repro_observability.Tracer.id ->
  Partial.t ->
  pending:int list ->
  t

(** No hop left and no query outstanding. *)
val finished : t -> bool

(** Advance the leg: answer the next hops with [hop] while it can, then
    query the next source. [hop leg j] answers hop [j] without a
    message (the new ΔV), or returns [None]; without [hop] every hop is
    remote. Returns {!finished}. *)
val step :
  Algorithm.ctx -> ?hop:(t -> int -> Partial.t option) -> t -> bool

(** The aux-store hop (DESIGN.md §14), or [None] when the store is off:
    hop [j] is answered locally whenever the store covers [j], joined
    against the installed projection plus [overlay j] (the caller's
    delivered but uninstalled delta of [j]). Each local answer counts
    in [local_answers] and emits a trace line and a
    ["<name>.local-answer"] event. *)
val aux_hop :
  Algorithm.ctx ->
  name:string ->
  overlay:(int -> Delta.t) ->
  (t -> int -> Partial.t option) option

(** Is [qid]/[source] the answer this leg waits for? *)
val awaits : t -> qid:int -> source:int -> bool

(** Take the awaited answer from [source]: close the query span, then
    apply on-line error correction (paper §4). [interfering] is L_j,
    the [count] queued updates of [source]; [extras] are further deltas
    of [source] that the answer reflects and must lose, one update each
    (the batched engine's D_j, the pipelined variant's deltas still in
    its pipeline), and are read only with [interfering]. When these are
    [n > 0] updates in all, the answer loses L_j and every extra joined
    with TempView ({!Algebra.compensate}, probing L_j's indexes),
    counting one compensation and emitting a ["compensate"] event that
    names [n]. With no interference the answer is taken as is. Nothing
    passed in is mutated. Does not advance the leg. *)
val answer :
  Algorithm.ctx ->
  t ->
  source:int ->
  ?interfering:Update_queue.interference ->
  ?extras:Delta.t list ->
  Partial.t ->
  unit

(** The updates from source [j] still in the update queue — by the FIFO
    argument of §4, exactly the updates that interfered with an answer
    from [j] arriving now — with their summed delta and its indexes
    ({!Update_queue.interference}: they are the queue's, read them in
    place before the queue next changes). *)
val queued : Algorithm.ctx -> int -> Update_queue.interference

(** Σ of the deltas from source [j] among [entries]: what a live answer
    from [j] reflects beyond the installed state when [entries] were
    delivered but not yet installed — the aux overlay of Nested SWEEP
    and Strobe. *)
val overlay : Update_queue.entry list -> int -> Delta.t

(** The leg's resumable state; span ids are volatile and restore as
    [Tracer.none]. *)
val snapshot : t -> Repro_durability.Snap.t

val restore : Repro_durability.Snap.t -> t
