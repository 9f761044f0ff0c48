(** Per-source circuit breakers: the warehouse-side fuse between query
    deadlines ({!Repro_protocol.Transport} [config.deadline]) and
    degraded-mode maintenance.

    One breaker guards each source link. State machine per source:

    {v
                 k consecutive deadline expiries
        Closed ──────────────────────────────────▶ Open
          ▲  ▲                                      │
          │  │ answer arrives (late heal evidence)  │ seeded probe timer
          │  ╰──────────────────────────────────────┤ (backoff, capped,
          │                                         │  optional budget)
          │     answer arrives (probe succeeded)    ▼
          ╰──────────────────────────────────── Half_open
                                                    │
                                                    │ another expiry
                                                    ╰───────▶ Open
    v}

    Below [k] consecutive expiries {!record_timeout} returns [Retry] and
    the caller resumes the suspended sender immediately (bounded retry).
    On the [k]-th it trips: the sender stays suspended, [on_open] fires
    (algorithms park affected work), and a probe is scheduled on the
    breaker's own seeded {!Repro_sim.Rng} stream — runs stay
    deterministic per seed. A probe moves to [Half_open] and fires
    [on_probe] (the harness resumes the sender, retransmitting the
    parked query); the next answer from the source closes the breaker
    and fires [on_close] (algorithms replay parked work). With
    [probe_limit > 0] a never-healing source is abandoned after that
    many failed probes so the simulation can drain — the run finishes
    [Degraded] instead of livelocking.

    Every transition is counted in {!Metrics} ([breaker_trips],
    [query_timeouts], [degraded_time]) and emitted as a
    ["breaker.transition"] / ["breaker.probe"] / ["breaker.abandon"]
    observability event. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type config = {
  k : int;  (** consecutive deadline expiries that trip the breaker *)
  probe_after : float;  (** initial Open → Half_open probe delay *)
  probe_backoff : float;  (** delay multiplier per failed probe *)
  max_probe_after : float;  (** probe-delay cap *)
  probe_jitter : float;  (** uniform extra fraction in [0, jitter) *)
  probe_limit : int;  (** failed probes before giving up; 0 = unlimited *)
}

val default_config : config

type t

(** What the caller should do after feeding a deadline expiry in. *)
type decision = Retry | Tripped

(** [create engine ~rng ~metrics ~n] — one breaker per source [0..n-1].
    [rng] drives probe jitter only. *)
val create :
  ?config:config ->
  ?obs:Repro_observability.Obs.t ->
  Repro_sim.Engine.t ->
  rng:Repro_sim.Rng.t ->
  metrics:Metrics.t ->
  n:int ->
  t

(** Wire the transition callbacks. The node installs [on_open]/
    [on_close] (notify the algorithm to park / replay); the harness
    installs [on_probe] (resume the suspended transport sender). *)
val set_on_open : t -> (int -> unit) -> unit

val set_on_probe : t -> (int -> unit) -> unit
val set_on_close : t -> (int -> unit) -> unit

val n_sources : t -> int
val state : t -> int -> state

(** [source_ok t i] — may a new sweep leg target source [i]?
    ([Closed] only.) *)
val source_ok : t -> int -> bool

(** At least one source is not [Closed]. *)
val degraded : t -> bool

(** Source [i] exhausted its probe budget and is written off. *)
val abandoned : t -> int -> bool

(** Feed in a query-deadline expiry on the link to source [i]. *)
val record_timeout : t -> int -> decision

(** Feed in delivery evidence (an answer/snapshot from source [i]). *)
val record_success : t -> int -> unit

(** Trip source [i]'s breaker immediately (tests). *)
val force_open : t -> int -> unit

(** Close out the current degraded interval into
    [metrics.degraded_time] without changing state (end of run). *)
val flush : t -> unit

(** The owning warehouse crashed: orphan probe timers, close the
    degraded interval. Pair with {!restore} (or {!reset}). *)
val halt : t -> unit

(** Genesis recovery (no checkpoint taken): all sources back to
    [Closed]. *)
val reset : t -> unit

(** Checkpointable state (everything but pending probe timers, which
    {!restore} re-schedules). *)
val snapshot : t -> Repro_durability.Snap.t

val restore : t -> Repro_durability.Snap.t -> unit
