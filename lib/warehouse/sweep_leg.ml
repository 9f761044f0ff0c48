open Repro_relational
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
  mutable span : Tracer.id;
  mutable query : Tracer.id;
}

let create ctx ?(span = Tracer.none) dv ~pending =
  { qid = ctx.Algorithm.fresh_qid (); dv; temp = dv; pending;
    outstanding = -1; span; query = Tracer.none }

let finished leg = leg.pending = [] && leg.outstanding < 0

(* Answers from the aux store are counted, traced and evented like a
   remote answer's compensation. With the store off there is no hook, so
   a step allocates nothing for it. *)
let aux_hop (ctx : Algorithm.ctx) ~name ~overlay =
  match Aux_store.mode ctx.aux with
  | Aux_store.Off -> None
  | Aux_store.Keys_only | Aux_store.Full ->
      Some
        (fun leg j ->
          if not (Aux_store.answers ctx.aux j) then None
          else
            match
              Aux_store.local_answer ctx.aux ~target:j ~partial:leg.dv
                ~overlay:(overlay j)
            with
            | None -> None
            | Some _ as answer ->
                ctx.metrics.Metrics.local_answers <-
                  ctx.metrics.Metrics.local_answers + 1;
                if Algorithm.tracing ctx then
                  Algorithm.trace ctx
                    "%s: leg %d answered locally from aux store" name j;
                if Obs.active ctx.obs then
                  Obs.event ctx.obs ~span:leg.span (name ^ ".local-answer")
                    [ ("source", Tracer.I j) ];
                answer)

let rec step (ctx : Algorithm.ctx) ?hop leg =
  match leg.pending with
  | [] -> leg.outstanding < 0
  | j :: rest -> (
      leg.pending <- rest;
      let local = match hop with Some hop -> hop leg j | None -> None in
      match local with
      | Some dv ->
          leg.dv <- dv;
          step ctx ?hop leg
      | None ->
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

let answer (ctx : Algorithm.ctx) leg ~source ?interfering ?(extras = [])
    partial =
  leg.outstanding <- -1;
  Obs.finish ctx.obs leg.query;
  leg.query <- Tracer.none;
  match interfering with
  | None -> leg.dv <- partial
  | Some (i : Update_queue.interference) ->
      let n = i.count + List.length extras in
      if n = 0 then leg.dv <- partial
      else begin
        ctx.metrics.Metrics.compensations <-
          ctx.metrics.Metrics.compensations + 1;
        if Algorithm.tracing ctx then
          Algorithm.trace ctx
            "compensate answer from %d for %d interfering update(s)" source n;
        if Obs.active ctx.obs then
          Obs.event ctx.obs ~span:leg.span "compensate"
            [ ("source", Tracer.I source); ("interfering", Tracer.I n) ];
        leg.dv <-
          Algebra.compensate ~index:i.index ~extras ctx.view ~answer:partial
            ~interfering:i.sum ~temp:leg.temp
      end

let queued (ctx : Algorithm.ctx) j = Update_queue.interference ctx.queue j

let overlay entries j =
  Delta.sum
    (List.filter_map
       (fun (e : Update_queue.entry) ->
         if e.update.Message.txn.source = j then Some e.update.Message.delta
         else None)
       entries)

let snapshot
    { qid; dv; temp; pending; outstanding;
      (* volatile span ids: never checkpointed, [Tracer.none] after a
         crash restore (recovery truncates the span tree) *)
      span = _; query = _ } =
  Snap.List
    [ Snap.Partial (Partial.copy dv); Snap.Partial (Partial.copy temp);
      Snap.ints pending; Snap.Int outstanding; Snap.Int qid ]

let restore s =
  match Snap.to_list s with
  | [ dv; temp; pending; outstanding; qid ] ->
      { qid = Snap.to_int qid; dv = Snap.to_partial dv;
        temp = Snap.to_partial temp; pending = Snap.to_ints pending;
        outstanding = Snap.to_int outstanding; span = Tracer.none;
        query = Tracer.none }
  | _ -> invalid_arg "Sweep_leg: malformed snapshot"
