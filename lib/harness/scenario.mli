(** A complete experiment configuration: view shape, initial data, update
    stream, network, and topology (distributed sources vs the centralized
    ECA site). Scenarios are pure descriptions; {!Experiment.run} executes
    them. *)

open Repro_sim
open Repro_workload

type topology =
  | Distributed  (** one site per source (paper Fig. 1) *)
  | Centralized  (** one site holding all base relations (ECA's model) *)

type t = {
  name : string;
  n_sources : int;
  init_size : int;  (** tuples per base relation at t=0 *)
  domain : int;  (** join-attribute domain (selectivity knob) *)
  stream : Update_gen.config;
  latency : Latency.t;
  topology : topology;
  faults : Fault.t;
      (** network fault schedule; {!Fault.none} (the default) wires plain
          reliable channels, byte-identical to runs predating the fault
          layer. Anything faulty routes all protocol traffic over
          {!Repro_protocol.Transport} links instead. *)
  checkpoint_every : int;
      (** checkpoint every N WAL records (0 = WAL only, full replay).
          Only meaningful when [faults.wh_crashes] is non-empty — runs
          without warehouse crashes attach no durability store at all. *)
  queue_capacity : int option;
      (** bound on the warehouse update queue; excess updates are held
          back (or shed when no-ops) at the workload layer. *)
  deadline : float option;
      (** per-query transport deadline (sim seconds). [None] (the
          default) keeps the legacy retransmit-forever senders; [Some d]
          arms warehouse→source links with a deadline and a per-source
          circuit breaker (Distributed topology only). *)
  breaker_k : int;
      (** consecutive deadline expiries before a source's breaker trips
          (only read when [deadline] is set). *)
  probe_limit : int;
      (** failed half-open probes before a breaker is abandoned and the
          run drains degraded; 0 = probe forever (only read when
          [deadline] is set). *)
  stall_cap : int;
      (** parked-update bound for degraded mode: once this many updates
          are stalled behind open breakers the engines fall back to
          blocking on the dead source. *)
  read_rate : float;
      (** mean serving-tier reads per sim-time unit; 0 (the default)
          attaches no serving tier at all — byte-identical to runs
          predating the read path. *)
  staleness_slo : float;
      (** reads within this view lag are [Fresh]; beyond it they are
          served [Stale] (stamped) up to a hard ceiling of 8× the SLO,
          past which they are shed. *)
  read_cap : int;  (** max reads in flight (admission-control tokens) *)
  read_burst : Repro_serving.Read_gen.burst option;
      (** optional flash-crowd window multiplying the read rate *)
  aux_mode : Repro_warehouse.Aux_store.mode;
      (** self-maintenance aux projections (DESIGN.md §14): [Off],
          [Keys_only] (keys + join columns) or [Full] (every referenced
          column — all sweep legs answered locally) *)
  seed : int64;
}

val default : t

(** [quick_presets] — a few named scenarios used by examples, tests and
    the CLI ([sequential], [concurrent], [bursty], [adversarial],
    [centralized], [degraded], [crashy], [chaos], [read-heavy],
    [flash-crowd], [self-maint]). *)
val presets : (string * t) list

val find_preset : string -> t option
val pp : Format.formatter -> t -> unit
