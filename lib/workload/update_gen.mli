(** Update-stream generation.

    Drives a finite stream of single-update transactions (and optional
    source-local multi-update transactions) into the sources through an
    [apply] callback, via the simulation engine. The generator mirrors
    every source's contents so deletes always name live tuples and
    inserted keys are always fresh — preserving the key invariants the
    Strobe-family baselines rely on. *)

open Repro_relational
open Repro_sim

(** Which source the next update hits. *)
type placement =
  | Uniform
  | Zipf of float  (** skewed towards low-numbered sources *)
  | Alternating of int * int
      (** strictly alternate between two sources — the adversarial pattern
          that starves Nested SWEEP (paper §6.2) *)

type config = {
  n_updates : int;  (** total update transactions to emit *)
  mean_gap : float;  (** mean exponential inter-arrival time *)
  p_insert : float;  (** probability an update is an insert *)
  placement : placement;
  txn_size : int;  (** updates per transaction (>1 = source-local txn) *)
  domain : int;  (** payload domain, matching {!Chain.populate} *)
  p_global : float;
      (** probability an emission is a type-3 global transaction touching
          two distinct sources (requires n >= 2; counts as one of
          [n_updates]) *)
  fixed_gap : bool;
      (** when true, inter-arrival times are exactly [mean_gap] instead of
          exponential — guarantees a truly sequential regime in tests *)
}

val default : config

(** One source's mirror: its live tuples, so deletes always name one,
    and its next fresh key. An update costs O(log live). *)
module Mirror : sig
  type t

  (** A mirror of the relation's current contents. *)
  val of_relation : Relation.t -> t

  (** Number of live tuples. *)
  val live : t -> int

  (** [gen rng config m] draws one update for the source — an insert
      with a fresh key, or a delete of a live tuple — and applies it to
      [m]. Only [config.p_insert] and [config.domain] are read. *)
  val gen : Rng.t -> config -> t -> Delta.t
end

(** [drive engine rng config ~view ~initial ~apply ?on_done ()] schedules
    the whole stream starting at the current sim time. [initial] must be
    the sources' contents at that moment (copied internally). [apply
    ~source delta] must perform the update at the source. [on_done] fires
    after the last update has been applied. *)
val drive :
  Engine.t ->
  Rng.t ->
  config ->
  view:View_def.t ->
  initial:Relation.t array ->
  apply:(source:int -> global:(int * int) option -> Delta.t -> unit) ->
  ?on_done:(unit -> unit) ->
  unit ->
  unit

(** What [drive] needs of a per-source mirror. *)
type 'm mirror = {
  of_relation : Relation.t -> 'm;
  gen : Rng.t -> config -> 'm -> Delta.t;
}

(** [drive] with another mirror in place of {!Mirror} — the same
    placement, transactions and gaps, so two mirrors that draw the same
    updates yield the same stream. *)
val drive_with :
  'm mirror ->
  Engine.t ->
  Rng.t ->
  config ->
  view:View_def.t ->
  initial:Relation.t array ->
  apply:(source:int -> global:(int * int) option -> Delta.t -> unit) ->
  ?on_done:(unit -> unit) ->
  unit ->
  unit
