(** Regeneration of every table and figure in the paper, plus the
    quantitative claims its prose makes (see DESIGN.md §4 for the
    experiment index and EXPERIMENTS.md for the claims), and the P1
    preset-counter regression page.

    Each experiment runs once into typed rows — the numbers, verdicts and
    cut-off flags its page prints, plus any unprinted field a claim
    needs — and its page renders those rows with {!Report.render}.
    [bench/main.exe <id>] prints one page; [test/test_paper_claims.ml]
    checks the claims against the rows and the pages against
    [test/experiments/<id>.txt].

    Message cost is (queries + answers) per incorporated update. A run
    with [completed = false] was cut off at its event budget: its checker
    was skipped, so its [verdict] means nothing and its page reads
    "diverges". *)

open Repro_relational
open Repro_sim
open Repro_consistency

(** An experiment: [rows ()] runs it, [page rows] lays the rows out. *)
type 'r experiment = {
  id : string;
  rows : unit -> 'r;
  page : 'r -> Report.block list;
}

type any = Any : 'r experiment -> any

(** Every experiment, in presentation order; the one list of ids. *)
val registry : any list

(** Table 1 — algorithm comparison with measured consistency and message
    cost at n = 2, 4, 6, 8 (100 updates, mean gap 1.2, runs cut off at
    30k events). *)
module T1 : sig
  type cell = {
    n : int;
    msgs_per_update : float;
    verdict : Checker.verdict;
    completed : bool;
  }

  type row = {
    algorithm : string;
    architecture : string;
    comment : string;
    cells : cell list;  (** one per n, ascending *)
  }

  val experiment : row list experiment
end

(** Figure 5 / §5.2 — the worked example replayed through the simulator:
    the paper's view state after each update beside the measured one, and
    the warehouse's narration. *)
module F5 : sig
  type step = {
    event : string;
    paper : Bag.t;  (** the paper's V after [event] *)
    measured : Bag.t;  (** the warehouse's V after [event] *)
  }

  type t = {
    steps : step list;  (** the initial state, then one per install *)
    verdict : Checker.result;
    narration : Trace.line list;  (** the warehouse's trace lines *)
  }

  val experiment : t experiment
end

(** Figure 2 — on-line incremental view computation: the hop-by-hop trace
    of one sweep (n = 5, one insert at R2). *)
module F2 : sig
  type t = { trace : Trace.line list; queries : int; answers : int }

  val experiment : t experiment
end

(** E1a — messages per update vs number of sources, n = 2, 3, 4, 6, 8, 10
    (80 updates, mean gap 1.5, unchecked, cut off at 30k events). *)
module E1a : sig
  type cell = { n : int; msgs_per_update : float; completed : bool }
  type row = { algorithm : string; cells : cell list }
end

(** E1b — scripted C-strobe blow-up vs SWEEP (n = 8): one insert at R0
    with K = 0..5 concurrent deletes at K distinct sources during its
    evaluation. *)
module E1b : sig
  type cell = { k : int; queries : int; verdict : Checker.verdict }
  type row = { algorithm : string; cells : cell list }

  (** The E1b rows alone: sweep, then c-strobe. *)
  val rows : unit -> row list
end

(** E1 — message cost: E1a and E1b on one page. *)
module E1 : sig
  type t = { scaling : E1a.row list; blowup : E1b.row list }

  val experiment : t experiment
end

(** E2 — ECA's compensating-query size vs update overlap (centralized,
    n = 3, 80 updates), gaps from 10 down to 0.1. *)
module E2 : sig
  type row = {
    gap : float;
    query_tuples_per_update : float;
    queries : int;
    updates : int;  (** incorporated *)
    verdict : Checker.verdict;
    completed : bool;
  }

  val experiment : row list experiment
end

(** E3 — staleness vs update rate: Strobe's quiescence requirement vs
    SWEEP and Nested SWEEP (n = 4, 120 inserts), gaps from 5 down to
    0.25. *)
module E3 : sig
  type cell = {
    algorithm : string;  (** sweep, nested-sweep, strobe *)
    staleness : float;  (** mean, delivery to install *)
    installs : int;
  }

  type row = { gap : float; cells : cell list }

  val experiment : row list experiment
end

(** E4 — Nested SWEEP's message amortization vs SWEEP (n = 4, 120
    updates), gaps from 5 down to 0.1. *)
module E4 : sig
  type row = {
    gap : float;
    sweep_msgs_per_update : float;
    nested_msgs_per_update : float;
    nested_batch : float;  (** updates per install *)
    recursions : int;
    max_depth : int;
  }

  val experiment : row list experiment
end

(** E5 — adversarial alternating interference (n = 4, 80 updates): SWEEP,
    Nested SWEEP and Nested SWEEP with depth bound 4, per gap. *)
module E5 : sig
  type row = {
    gap : float;
    algorithm : string;  (** "sweep", "nested (d=64)", "nested (d=4)" *)
    msgs_per_update : float;
    recursions : int;
    max_depth : int;
    fallbacks : int;
    verdict : Checker.verdict;
    completed : bool;
  }

  val experiment : row list experiment
end

(** E6 — on-line error correction: SWEEP's compensations and verdict
    beside the naive baseline's (n = 4, 100 updates); the gap-50 row is a
    fixed-gap zero-interference control. *)
module E6 : sig
  type row = {
    gap : float;
    compensations_per_update : float;  (** SWEEP's *)
    sweep_verdict : Checker.verdict;
    sweep_completed : bool;
    naive_verdict : Checker.verdict;
    naive_completed : bool;
    naive_negative_installs : int;
  }

  val experiment : row list experiment
end

(** E7 — payload tuples per update vs join expansion factor, SWEEP vs
    recompute (n = 3, |R| = 30, 60 updates). *)
module E7 : sig
  type row = {
    factor : float;  (** |R| / domain *)
    sweep_payload : float;
    recompute_payload : float;
    view_tuples : int;  (** SWEEP's final view *)
  }

  val experiment : row list experiment
end

(** E8 — the analytical model (cf. §6.2's [Yur97]) vs the simulator
    (SWEEP, n = 4, 150 updates), gaps from 30 down to 1. *)
module E8 : sig
  type row = {
    gap : float;
    utilization : float;  (** the model's ρ *)
    staleness_model : float;
    staleness_sim : float;
    compensations_model : float;  (** per update *)
    compensations_sim : float;  (** per update *)
  }

  val experiment : row list experiment
end

(** E9 — latency-distribution sensitivity at mean per-hop latency 1.0
    (SWEEP, n = 4, 150 updates, mean gap 8). *)
module E9 : sig
  type row = {
    latency : string;
    variance : float;  (** per hop *)
    staleness_model : float;
    staleness_sim : float;
    compensations_sim : float;  (** per update *)
    msgs_per_update : float;  (** not printed *)
  }

  val experiment : row list experiment
end

(** One checked run of the A1/A2 ablations. *)
type ablation = {
  algorithm : string;
  msgs_per_update : float;
  staleness_mean : float;
  staleness_max : float;
  max_queue : int;  (** printed by A2 only *)
  verdict : Checker.verdict;
  completed : bool;
}

(** A1 — the §5.3 parallel-sweep optimization: SWEEP and sweep-parallel
    at n = 3, 5, 7, 9 (100 updates, mean gap 1). *)
module A1 : sig
  type row = { n : int; run : ablation }

  val experiment : row list experiment
end

(** A2 — the §5.3 pipelining optimization (n = 4, 150 updates, mean gap
    0.5): SWEEP, sweep-pipelined at W = 2, 4, 8, 16, then Nested SWEEP. *)
module A2 : sig
  type row = ablation

  val experiment : row list experiment
end

(** A3 — type-3 global transactions (n = 4, 100 updates, 30% global):
    SWEEP splitting them vs Global SWEEP's transaction-atomic installs. *)
module A3 : sig
  type row = {
    algorithm : string;
    verdict : Checker.verdict;
    completed : bool;
    installs : int;
    updates_per_install : float;
    msgs_per_update : float;
  }

  val experiment : row list experiment
end

(** P1 — preset counters, a regression page rather than a paper figure:
    every algorithm of {!Experiment.algorithms_for} on the concurrent,
    centralized, chaos, read-heavy, flash-crowd and self-maint presets at
    one fifth of their updates (at least 5), with observability attached
    and the checker on. Every value is deterministic under virtual time,
    so the page's golden file pins them exactly. *)
module P1 : sig
  type row = {
    scenario : string;  (** the preset *)
    algorithm : string;
    verdict : Checker.verdict;
    completed : bool;
    metrics : Repro_warehouse.Metrics.t;
    sim_time : float;
    events : int;
    final_view_tuples : int;
    staleness_p50 : float;  (** of the run's [staleness] histogram *)
    staleness_p99 : float;
  }

  val experiment : row list experiment
end
