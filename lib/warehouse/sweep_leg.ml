open Repro_relational
open Repro_sim
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer
module Snap = Repro_durability.Snap

type t = {
  qid : int;
  mutable dv : Partial.t;
  mutable temp : Partial.t;
  mutable pending : int list;
  mutable outstanding : int;
  mutable span : Tracer.id; (* lint: allow L5 volatile span ids: never checkpointed, Tracer.none after a crash restore (recovery truncates the span tree) *)
  mutable query : Tracer.id;
}

let create ctx ?(span = Tracer.none) dv ~pending =
  { qid = ctx.Algorithm.fresh_qid (); dv; temp = dv; pending;
    outstanding = -1; span; query = Tracer.none }

let finished leg = leg.pending = [] && leg.outstanding < 0

let trace (ctx : Algorithm.ctx) fmt =
  Trace.emit ctx.trace ~time:(Engine.now ctx.engine) ~who:"warehouse" fmt

(* Answer hop [j] from the aux store when the caller allows it and the
   store covers [j]; counted, traced and evented like a remote answer's
   compensation. *)
let local_answer (ctx : Algorithm.ctx) ~name ?overlay leg j =
  match overlay with
  | Some overlay when Aux_store.answers ctx.aux j -> (
      match
        Aux_store.local_answer ctx.aux ~target:j ~partial:leg.dv
          ~overlay:(overlay j)
      with
      | None -> None
      | Some dv ->
          ctx.metrics.Metrics.local_answers <-
            ctx.metrics.Metrics.local_answers + 1;
          trace ctx "%s: leg %d answered locally from aux store" name j;
          if Obs.active ctx.obs then
            Obs.event ctx.obs ~span:leg.span (name ^ ".local-answer")
              [ ("source", Tracer.I j) ];
          Some dv)
  | _ -> None

let rec step (ctx : Algorithm.ctx) ~name ?overlay leg =
  match leg.pending with
  | [] -> leg.outstanding < 0
  | j :: rest -> (
      match local_answer ctx ~name ?overlay leg j with
      | Some dv ->
          leg.pending <- rest;
          leg.dv <- dv;
          step ctx ~name ?overlay leg
      | None ->
          leg.pending <- rest;
          leg.outstanding <- j;
          leg.temp <- leg.dv;
          leg.query <-
            (if Obs.active ctx.obs then
               Obs.span ctx.obs ~parent:leg.span "query"
                 [ ("source", Tracer.I j); ("qid", Tracer.I leg.qid) ]
             else Tracer.none);
          ctx.send j
            (Message.Sweep_query
               { qid = leg.qid; target = j; partial = Partial.copy leg.dv });
          false)

let awaits leg ~qid ~source = qid = leg.qid && source = leg.outstanding

let answer (ctx : Algorithm.ctx) leg ~source partial ~interfering =
  leg.outstanding <- -1;
  Obs.finish ctx.obs leg.query;
  leg.query <- Tracer.none;
  match interfering with
  | [] -> leg.dv <- partial
  | _ :: _ ->
      let n = List.length interfering in
      ctx.metrics.Metrics.compensations <- ctx.metrics.Metrics.compensations + 1;
      trace ctx "compensate answer from %d for %d interfering update(s)"
        source n;
      if Obs.active ctx.obs then
        Obs.event ctx.obs ~span:leg.span "compensate"
          [ ("source", Tracer.I source); ("interfering", Tracer.I n) ];
      leg.dv <-
        Algebra.compensate ctx.view ~answer:partial
          ~interfering:(Delta.sum interfering) ~temp:leg.temp

let queued (ctx : Algorithm.ctx) j =
  List.map
    (fun (e : Update_queue.entry) -> e.update.Message.delta)
    (Update_queue.from_source ctx.queue j)

let overlay entries j =
  Delta.sum
    (List.filter_map
       (fun (e : Update_queue.entry) ->
         if e.update.Message.txn.source = j then Some e.update.Message.delta
         else None)
       entries)

let snapshot leg =
  Snap.List
    [ Snap.Partial (Partial.copy leg.dv); Snap.Partial (Partial.copy leg.temp);
      Snap.ints leg.pending; Snap.Int leg.outstanding; Snap.Int leg.qid ]

let restore s =
  match Snap.to_list s with
  | [ dv; temp; pending; outstanding; qid ] ->
      { qid = Snap.to_int qid; dv = Snap.to_partial dv;
        temp = Snap.to_partial temp; pending = Snap.to_ints pending;
        outstanding = Snap.to_int outstanding; span = Tracer.none;
        query = Tracer.none }
  | _ -> invalid_arg "Sweep_leg: malformed snapshot"
