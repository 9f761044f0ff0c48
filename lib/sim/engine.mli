(** The discrete-event simulation engine.

    Components (sources, the warehouse, the workload driver) schedule
    thunks at future sim times; [run] executes them in (time, insertion)
    order. All concurrency in the reproduction — updates racing sweep
    queries — comes from interleavings of these events. *)

type t

val create : ?seed:int64 -> unit -> t

(** Current simulation time. *)
val now : t -> float

(** [clock t] — {!now} as a closure: the virtual-time source handed to
    observability (span timestamps, staleness samples). *)
val clock : t -> unit -> float

(** The engine's root PRNG (split it per component). *)
val rng : t -> Rng.t

(** [schedule t ~delay f] runs [f ()] at [now t +. delay].
    Raises [Invalid_argument] when [delay < 0]. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [at t ~time f] runs [f ()] at absolute [time >= now]. *)
val at : t -> time:float -> (unit -> unit) -> unit

(** Number of events executed so far. *)
val executed : t -> int

(** [run ?until ?max_events t] executes events until the queue drains, the
    next event is past [until], or [max_events] have run. Returns the
    reason it stopped. *)
val run :
  ?until:float -> ?max_events:int -> t -> [ `Drained | `Until | `Max_events ]
