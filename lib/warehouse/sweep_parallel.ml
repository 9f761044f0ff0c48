open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

let name = "sweep-parallel"

(* Two directional sweep legs, each with its own query id and TempView;
   the view change installs once both are finished. *)
type view_change = {
  entry : Update_queue.entry;
  src : int;
  left : Sweep_leg.t;
  right : Sweep_leg.t;
  span : Tracer.id;
}

type t = { ctx : Algorithm.ctx; mutable current : view_change option }

let create ctx = { ctx; current = None }

(* Step one side; its span closes when the side finishes. *)
let advance_side t side =
  if Sweep_leg.step t.ctx side then
    Obs.finish t.ctx.obs side.Sweep_leg.span

let rec maybe_finish t =
  match t.current with
  | Some vc when Sweep_leg.finished vc.left && Sweep_leg.finished vc.right ->
      (* ΔV = ΔV_left ⋈ ΔV_right (§5.3). The right sweep started from a
         unit-count copy of ΔR, so counts multiply correctly here. *)
      let merged =
        Algebra.merge_overlap t.ctx.view ~at:vc.src ~left:vc.left.dv
          ~right:vc.right.dv
      in
      let view_delta = Algebra.select_project t.ctx.view merged in
      if Algorithm.tracing t.ctx then
        Algorithm.trace t.ctx "parallel install for %a: %a" Message.pp_txn_id
          vc.entry.update.Message.txn Delta.pp view_delta;
      t.current <- None;
      t.ctx.install view_delta ~txns:[ vc.entry ];
      Obs.finish t.ctx.obs vc.span;
      start_next t
  | Some _ | None -> ()

and start_next t =
  match t.current with
  | Some _ -> ()
  | None -> (
      match Update_queue.pop t.ctx.queue with
      | None -> ()
      | Some entry ->
          let i = entry.update.Message.txn.source in
          let n = View_def.n_sources t.ctx.view in
          let delta = entry.update.Message.delta in
          let left =
            Sweep_leg.create t.ctx
              (Partial.of_source_delta t.ctx.view i delta)
              ~pending:(List.init i (fun k -> i - 1 - k))
          in
          let right =
            Sweep_leg.create t.ctx
              (Partial.of_source_delta t.ctx.view i (Delta.distinct delta))
              ~pending:(List.init (n - 1 - i) (fun k -> i + 1 + k))
          in
          if Algorithm.tracing t.ctx then
            Algorithm.trace t.ctx
              "parallel ViewChange(%a): left %d hops, right %d hops"
              Message.pp_txn_id entry.update.Message.txn i
              (n - 1 - i);
          let span = Algorithm.txn_span t.ctx name [ entry ] in
          if Obs.active t.ctx.obs then begin
            left.span <-
              Obs.span t.ctx.obs ~parent:span "left"
                [ ("hops", Tracer.I i) ];
            right.span <-
              Obs.span t.ctx.obs ~parent:span "right"
                [ ("hops", Tracer.I (n - 1 - i)) ]
          end;
          t.current <- Some { entry; src = i; left; right; span };
          advance_side t left;
          advance_side t right;
          maybe_finish t)

let on_update t (_ : Update_queue.entry) = start_next t

let on_answer t msg =
  match (msg, t.current) with
  | Message.Answer { qid; source = j; partial }, Some vc
    when Sweep_leg.awaits vc.left ~qid ~source:j
         || Sweep_leg.awaits vc.right ~qid ~source:j ->
      let side = if qid = vc.left.qid then vc.left else vc.right in
      Sweep_leg.answer t.ctx side ~source:j
        ~interfering:(Sweep_leg.queued t.ctx j) partial;
      advance_side t side;
      maybe_finish t
  | Message.Answer { qid; source; _ }, _ ->
      invalid_arg
        (Printf.sprintf
           "Sweep_parallel.on_answer: unexpected answer qid=%d from %d" qid
           source)
  | (Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _), _ ->
      invalid_arg "Sweep_parallel.on_answer: unexpected message kind"

let on_source_down _ _ = ()
let on_source_up _ _ = ()
let idle t = t.current = None && Update_queue.is_empty t.ctx.queue

module Snap = Repro_durability.Snap

let snap_of_vc
    { entry; src; left; right;
      (* volatile span id: [Tracer.none] after restore *)
      span = _ } =
  Snap.List
    [ Algorithm.snap_of_entry entry; Snap.Int src; Sweep_leg.snapshot left;
      Sweep_leg.snapshot right ]

let vc_of_snap s =
  match Snap.to_list s with
  | [ entry; src; left; right ] ->
      { entry = Algorithm.entry_of_snap entry; src = Snap.to_int src;
        left = Sweep_leg.restore left; right = Sweep_leg.restore right;
        span = Tracer.none }
  | _ -> invalid_arg "Sweep_parallel: malformed snapshot"

let snapshot { ctx = _; current } = Snap.option snap_of_vc current
let restore ctx s = { ctx; current = Snap.to_option vc_of_snap s }
