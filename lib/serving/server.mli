(** Read-path front-end over the materialized view: bounded staleness,
    admission control, graceful degradation.

    The server answers point and aggregate reads directly from the
    warehouse's view while maintenance may be lagging (or parked behind
    an open circuit breaker). Every read is classified:

    - {b Fresh}: the view's staleness was within the SLO;
    - {b Stale}: over the SLO but under the hard ceiling — served
      immediately, stamped with its staleness (grace, not failure:
      during a source outage the warehouse keeps answering);
    - {b Shed}: rejected by admission control, either because staleness
      exceeded the hard ceiling (the answer would be uselessly old) or
      because all [read_cap] service tokens were busy (flash crowd).

    Staleness is virtual-time lag: the age of the oldest source update
    the warehouse has {e acknowledged} (delivered into its queue) but
    not yet {e incorporated} into the view; 0 when fully caught up.
    Admission reuses the {!Backpressure} token discipline — a read takes
    a token for a seeded service interval; a read finding none free is
    shed, never queued, so no read blocks unboundedly. *)

open Repro_relational
open Repro_sim
open Repro_observability

type config = {
  staleness_slo : float;  (** reads at or under this lag are [Fresh] *)
  staleness_ceiling : float;  (** reads over this lag are [Shed] *)
  read_cap : int;  (** service tokens: max reads in flight *)
  service_mean : float;  (** mean seeded per-read service time *)
}

val default_config : config

type outcome =
  | Fresh
  | Stale of float  (** served, stamped with its staleness *)
  | Shed

type shed_reason = Cap | Ceiling

(** One read as the server saw it, in serve order. *)
type record = {
  session : int;
  issued_at : float;
  outcome : outcome;
  staleness : float;
  answer : int;  (** tuple count (point) or view total (aggregate); 0 when shed *)
}

type t

(** [create ~engine ~rng ~obs ~n_sources ~view ()] — [view] is a
    closure (not a snapshot) so the server keeps reading the live view
    across warehouse crash/recovery. [record_history] (default true)
    keeps {!log} and {!read_log}; without it both stay empty and the
    server's memory does not grow with the reads it serves. Raises
    [Invalid_argument] on [read_cap < 1], negative SLO, or ceiling below
    SLO. *)
val create :
  ?config:config -> ?record_history:bool -> engine:Engine.t -> rng:Rng.t ->
  obs:Obs.t -> n_sources:int -> view:(unit -> Bag.t) -> unit -> t

(** {2 Feeds from the warehouse} *)

(** [note_delivery t ~source ~txn] — the warehouse acknowledged (queued)
    update [txn] of [source]; it now counts against staleness. Each
    source's txns must be noted in seq order (FIFO delivery): a txn at
    or below the highest one noted for its source is taken for a
    re-acknowledgement after a crash window and ignored. *)
val note_delivery : t -> source:int -> txn:int -> unit

(** [note_install t entries] — an install incorporated the given
    [(source, txn)] updates into the view. *)
val note_install : t -> (int * int) list -> unit

(** {2 Serving} *)

(** Serve (or shed) one read at the current sim time. Opens one obs span
    per read; served reads hold a service token until a seeded
    exponential service delay elapses. *)
val read : t -> session:int -> kind:Read_gen.kind -> outcome

(** Current virtual-time staleness. *)
val staleness : t -> float

(** {2 Counters and logs} *)

val served : t -> int
(** [fresh + stale]. *)

val fresh : t -> int
val stale : t -> int

val shed : t -> int
(** [shed_cap + shed_ceiling]. *)

val shed_cap : t -> int
val shed_ceiling : t -> int

(** Quantiles over the staleness stamps of {e served} reads. *)
val staleness_p50 : t -> float

val staleness_p99 : t -> float

(** Every read in serve order (including shed ones); [[]] without
    [record_history]. *)
val log : t -> record list

(** Served reads as {!Repro_consistency.Checker.read_view}s, ready for
    {!Repro_consistency.Checker.check_sessions}; [[]] without
    [record_history]. *)
val read_log : t -> Repro_consistency.Checker.read_view list
