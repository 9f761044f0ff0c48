(** The centralized site used by the ECA baseline.

    ECA (Zhuge et al. 1995) assumes a *single* data source storing all the
    base relations (paper §3). This site hosts every base table, applies
    local updates to any of them, and evaluates multi-term compensating
    query expressions atomically. *)

open Repro_relational
open Repro_sim
open Repro_protocol

type t

(** [create engine ~view ~inits ~send ~trace] — every hosted base table
    indexes each of its junctions in [view], so join legs against
    unpinned relations probe ({!Base_table.extend}), both for sweep
    queries and inside query-term evaluation (terms fan out from the
    lowest pinned position so every intermediate stays delta-sized). *)
val create :
  Engine.t ->
  view:View_def.t ->
  inits:Relation.t array ->
  send:(Message.to_warehouse -> unit) ->
  trace:Trace.t ->
  t

val table : t -> int -> Base_table.t

(** Apply an update to relation [source] and notify the warehouse. *)
val local_update : t -> source:int -> Delta.t -> Message.txn_id

(** Evaluate an [Eca_query] atomically against the current relations and
    answer with the summed full-width delta. Other messages are also
    serviced (the site can answer sweep queries, making it a drop-in
    single-site source). *)
val handle : t -> Message.to_source -> unit

(** [eval_terms t terms] — exposed for tests: the summed full-width result
    of a query expression. Raises [Invalid_argument] on an empty
    expression or a term that pins no source. *)
val eval_terms : t -> Message.eca_term list -> Partial.t
