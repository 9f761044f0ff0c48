(** The update & query server at a data source (paper Fig. 3).

    Two duties: forward each local update to the warehouse as it is
    applied, and answer incremental sweep queries by joining the received
    ΔV with the local base relation. Requests are serviced sequentially
    and atomically with respect to local updates — an event in the
    simulator is indivisible, which is exactly the paper's assumption. *)

open Repro_relational
open Repro_sim
open Repro_protocol

type t

(** [create engine ~view ~id ~init ~send ~trace] builds the server for
    source [id] with initial relation [init]; its base table
    indexes each of the source's junctions in the view, so sweep-query legs probe
    ({!Base_table.extend}). [send] transmits a message to the warehouse
    (normally a FIFO channel endpoint). *)
val create :
  Engine.t ->
  view:View_def.t ->
  id:int ->
  init:Relation.t ->
  send:(Message.to_warehouse -> unit) ->
  trace:Trace.t ->
  t

val id : t -> int
val table : t -> Base_table.t

(** Apply one local update transaction and notify the warehouse
    (the [SendUpdates] process of Fig. 3). [global] tags this update as
    one part of a type-3 multi-source transaction. *)
val local_update :
  ?global:Message.global_tag -> t -> Delta.t -> Message.txn_id

(** Service one warehouse request (the [ProcessQuery] process of Fig. 3).
    Raises [Invalid_argument] on [Eca_query] — that message targets the
    centralized ECA site, not a distributed source. *)
val handle : t -> Message.to_source -> unit
