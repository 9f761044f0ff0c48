(** Seeded fault schedules for the network simulation.

    The paper assumes reliable FIFO channels (§2); this module describes
    controlled *violations* of that assumption — probabilistic frame loss,
    duplication and latency spikes on a link, plus scripted crash windows
    during which a source is unreachable in both directions — so the
    transport layer ({!Repro_protocol.Transport}) can be shown to restore
    the assumption and the harness can measure staleness under degraded
    delivery. A schedule is pure data; {!Channel} applies the link faults
    and the experiment wiring applies the crash windows as delivery gates. *)

(** Per-link fault rates. [drop] and [duplicate] are per-frame
    probabilities; with probability [spike] a frame's sampled latency is
    multiplied by [spike_factor] (a congestion burst, the reordering
    source). *)
type link = {
  drop : float;
  duplicate : float;
  spike : float;
  spike_factor : float;
}

(** No faults: the paper's reliable channel. *)
val reliable : link

(** [lossy ()] with any subset of rates overridden; validates ranges
    (probabilities in [0,1), [spike_factor >= 1]). *)
val lossy :
  ?drop:float -> ?duplicate:float -> ?spike:float -> ?spike_factor:float ->
  unit -> link

(** A crash window: source [source] is unreachable (frames in either
    direction are lost at its network boundary) for sim times in
    [[down_at, up_at)]. Windows must be finite or the retransmission
    timers never quiesce. *)
type window = { source : int; down_at : float; up_at : float }

(** A warehouse outage: the warehouse process is down for sim times in
    [[wh_down_at, wh_up_at)] — frames delivered to it during the window
    are lost (sources keep retransmitting), its own retransmission
    timers die with it, and at [wh_up_at] it restarts and runs crash
    recovery from its latest checkpoint + WAL tail. Windows must be
    finite. *)
type outage = { wh_down_at : float; wh_up_at : float }

(** A complete fault schedule for one run. *)
type t = { link : link; crashes : window list; wh_crashes : outage list }

(** The empty schedule — runs wired with it are byte-identical to runs
    without any fault plumbing. *)
val none : t

(** True when the schedule perturbs anything (used to decide whether the
    experiment wiring needs the transport layer at all). *)
val is_faulty : t -> bool

(** [crashed t ~source ~time] — is [source] inside one of its crash
    windows at [time]? *)
val crashed : t -> source:int -> time:float -> bool

(** [random rng ~n_sources ~horizon] draws a schedule for the property
    harness: moderate loss/duplication/spike rates and, with probability
    1/2, one crash window per run placed inside [horizon]. Deterministic
    per [rng] state. *)
val random : Rng.t -> n_sources:int -> horizon:float -> t

(** [random_recovery rng ~n_sources ~horizon] — a {!random} schedule
    (identical link/source-crash draws) plus one or two guaranteed
    warehouse outage windows inside [horizon], for the crash-recovery
    property harness. *)
val random_recovery : Rng.t -> n_sources:int -> horizon:float -> t

(** [chaos rng ~n_sources ~horizon] — a composed schedule for the chaos
    suite: heavier link faults than {!random}, one or two (possibly
    overlapping) source-crash windows, and, with probability 1/2, a
    warehouse outage that overlaps a source window half the time. All
    windows close by [0.7 *. horizon], so every chaos run has a healing
    tail in which it must converge. Deterministic per [rng] state. *)
val chaos : Rng.t -> n_sources:int -> horizon:float -> t

(** [last_heal t] — the sim time at which the last crash window (source
    or warehouse) heals; [0.] for a schedule with no crash windows. The
    chaos suite's convergence invariant measures from this instant. *)
val last_heal : t -> float

val pp : Format.formatter -> t -> unit
