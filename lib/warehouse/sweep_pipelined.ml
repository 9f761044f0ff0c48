open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

(* One pipelined ViewChange; its leg finished means swept, awaiting
   in-order install. *)
type vc = { entry : Update_queue.entry; leg : Sweep_leg.t }

(* The pipeline is a two-list deque (cf. Update_queue): [front] holds the
   oldest view changes in delivery order, [rear] the newest in reverse,
   and [depth] caches the total so refill never re-measures a list. *)
type state = {
  ctx : Algorithm.ctx;
  window : int;
  mutable front : vc list;  (* oldest first *)
  mutable rear : vc list;  (* newest first *)
  mutable depth : int;
}

module Make (Cfg : sig
  val window : int
end) =
struct
  type t = state

  let name =
    if Cfg.window = 8 then "sweep-pipelined"
    else Printf.sprintf "sweep-pipelined(w=%d)" Cfg.window

  let create ctx =
    if Cfg.window < 1 then invalid_arg "Sweep_pipelined: window < 1";
    { ctx; window = Cfg.window; front = []; rear = []; depth = 0 }

  (* Whole pipeline in delivery order, for scans. *)
  let pipeline t = t.front @ List.rev t.rear

  let push t vc =
    t.rear <- vc :: t.rear;
    t.depth <- t.depth + 1

  let normalize t =
    if t.front = [] then begin
      t.front <- List.rev t.rear;
      t.rear <- []
    end

  (* Install completed sweeps strictly in delivery order, then top the
     pipeline back up from the queue. *)
  let rec drain_and_refill t =
    normalize t;
    match t.front with
    | vc :: rest when Sweep_leg.finished vc.leg ->
        let view_delta = Algebra.select_project t.ctx.view vc.leg.dv in
        if Algorithm.tracing t.ctx then
          Algorithm.trace t.ctx "pipelined install for %a" Message.pp_txn_id
            vc.entry.update.Message.txn;
        t.front <- rest;
        t.depth <- t.depth - 1;
        t.ctx.install view_delta ~txns:[ vc.entry ];
        Obs.finish t.ctx.obs vc.leg.span;
        drain_and_refill t
    | _ -> refill t

  and refill t =
    if t.depth < t.window then
      match Update_queue.pop t.ctx.queue with
      | None -> ()
      | Some entry ->
          let i = entry.update.Message.txn.source in
          let n = View_def.n_sources t.ctx.view in
          let span =
            Algorithm.txn_span t.ctx name
              ~attrs:[ ("depth", Tracer.I (t.depth + 1)) ]
              [ entry ]
          in
          let vc =
            { entry;
              leg =
                Sweep_leg.create t.ctx ~span
                  (Partial.of_source_delta t.ctx.view i
                     entry.update.Message.delta)
                  ~pending:(Sweep_order.order ~n ~i) }
          in
          if Algorithm.tracing t.ctx then
            Algorithm.trace t.ctx "pipelined ViewChange(%a) begins (depth %d)"
              Message.pp_txn_id entry.update.Message.txn (t.depth + 1);
          push t vc;
          ignore (Sweep_leg.step t.ctx vc.leg : bool);
          (* an n=1 view completes instantly; also keep filling *)
          drain_and_refill t

  let on_update t (_ : Update_queue.entry) = drain_and_refill t

  (* The "more elaborate mechanism to detect concurrent updates" (§5.3):
     for this sweep, the interfering updates from source [j] are those
     *delivered after* the update being swept — in the queue, or already
     being swept further down the pipeline. Earlier-delivered updates
     serialize before this one and are meant to be in the answer. The
     queued ones are L_j; the ones in the pipeline are returned here, a
     term each of the error. *)
  let in_pipeline t vc j =
    List.filter_map
      (fun other ->
        if
          other.entry.Update_queue.arrival > vc.entry.Update_queue.arrival
          && other.entry.update.Message.txn.source = j
        then Some other.entry.update.Message.delta
        else None)
      (pipeline t)

  let on_answer t msg =
    match msg with
    | Message.Answer { qid; source = j; partial } -> (
        match
          List.find_opt
            (fun vc -> Sweep_leg.awaits vc.leg ~qid ~source:j)
            (pipeline t)
        with
        | Some vc ->
            Sweep_leg.answer t.ctx vc.leg ~source:j
              ~interfering:(Sweep_leg.queued t.ctx j)
              ~extras:(in_pipeline t vc j) partial;
            ignore (Sweep_leg.step t.ctx vc.leg : bool);
            drain_and_refill t
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Sweep_pipelined.on_answer: unexpected answer qid=%d from %d"
                 qid j))
    | Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _ ->
        invalid_arg "Sweep_pipelined.on_answer: unexpected message kind"

  let on_source_down _ _ = ()
  let on_source_up _ _ = ()
  let idle t = t.depth = 0 && Update_queue.is_empty t.ctx.queue

  module Snap = Repro_durability.Snap

  let snap_of_vc { entry; leg } =
    Snap.List [ Algorithm.snap_of_entry entry; Sweep_leg.snapshot leg ]

  let vc_of_snap s =
    match Snap.to_list s with
    | [ entry; leg ] ->
        { entry = Algorithm.entry_of_snap entry; leg = Sweep_leg.restore leg }
    | _ -> invalid_arg "Sweep_pipelined: malformed snapshot"

  (* Checkpoint encoding stays in delivery order, exactly as before the
     deque refactor. *)
  let snapshot
      { ctx = _; window = _; front; rear;
        (* derived: restore recomputes it from the decoded pipeline *)
        depth = _ } =
    Snap.List (List.map snap_of_vc front @ List.rev_map snap_of_vc rear)

  let restore ctx s =
    let vcs = List.map vc_of_snap (Snap.to_list s) in
    { ctx; window = Cfg.window; front = vcs; rear = [];
      depth = List.length vcs }
end

module Default = Make (struct
  let window = 8
end)

include Default

let with_window w : (module Algorithm.S) =
  (module Make (struct
    let window = w
  end))
