open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

(* One activation of the recursive ViewChange(ΔR, left, src, right):
   its sweep leg visits the sources of [left..right] other than [src],
   left sweep first; [entries] are the update(s) this frame incorporates
   (several when concurrent updates from one source are merged). *)
type frame = {
  entries : Update_queue.entry list;
  left : int;
  src : int;
  right : int;
  leg : Sweep_leg.t;
}

type state = {
  ctx : Algorithm.ctx;
  max_depth : int;
  mutable stack : frame list;  (* innermost first *)
  (* all entries being installed, newest first (reversed at install — the
     absorption path is hot under heavy concurrency) *)
  mutable rev_batch : Update_queue.entry list;
}

let frame_order ~left ~src ~right =
  let l = List.init (src - left) (fun k -> src - 1 - k) in
  let r = List.init (right - src) (fun k -> src + 1 + k) in
  l @ r

let make_frame ctx ~entries ~left ~src ~right =
  let merged =
    Delta.sum
      (List.map (fun e -> e.Update_queue.update.Message.delta) entries)
  in
  { entries; left; src; right;
    leg =
      Sweep_leg.create ctx
        (Partial.of_source_delta ctx.Algorithm.view src merged)
        ~pending:(frame_order ~left ~src ~right) }

module Make (Cfg : sig
  val max_depth : int
end) =
struct
  type t = state

  let name =
    if Cfg.max_depth = 64 then "nested-sweep"
    else Printf.sprintf "nested-sweep(d=%d)" Cfg.max_depth

  let create ctx =
    { ctx; max_depth = Cfg.max_depth; stack = []; rev_batch = [] }

  (* A remote answer from [j] reflects installed state + the absorbed-
     but-uninstalled batch deltas from [j] (queued interference is
     compensated away, then absorbed as child frames). The aux
     projection holds only installed state, so overlay the batch. A
     local answer does NOT absorb queued updates from [j] — they stay
     queued for their own later ViewChange, exactly the already-correct
     forced-termination (SWEEP) path. *)
  let rec advance t =
    match t.stack with
    | [] -> start_next t
    | frame :: parents -> (
        let hop =
          Sweep_leg.aux_hop t.ctx ~name
            ~overlay:(Sweep_leg.overlay t.rev_batch)
        in
        if Sweep_leg.step t.ctx ?hop frame.leg then
          match parents with
          | parent :: _ ->
              (* Recursive call returns: merge the child's view change
                 into the parent's and resume the parent. *)
              t.stack <- parents;
              parent.leg.dv <- Partial.add parent.leg.dv frame.leg.dv;
              if Algorithm.tracing t.ctx then
                Algorithm.trace t.ctx "frame for src %d returns to src %d"
                  frame.src parent.src;
              Obs.finish t.ctx.obs frame.leg.span;
              advance t
          | [] ->
              let view_delta =
                Algebra.select_project t.ctx.view frame.leg.dv
              in
              let txns = List.rev t.rev_batch in
              t.stack <- [];
              t.rev_batch <- [];
              if Algorithm.tracing t.ctx then
                Algorithm.trace t.ctx "install batch of %d update(s): %a"
                  (List.length txns) Delta.pp view_delta;
              t.ctx.install view_delta ~txns;
              Obs.finish t.ctx.obs frame.leg.span;
              start_next t)

  and start_next t =
    match t.stack with
    | _ :: _ -> ()
    | [] -> (
        match Update_queue.pop t.ctx.queue with
        | None -> ()
        | Some entry ->
            let i = entry.update.Message.txn.source in
            let n = View_def.n_sources t.ctx.view in
            let frame =
              make_frame t.ctx ~entries:[ entry ] ~left:0 ~src:i
                ~right:(n - 1)
            in
            if Algorithm.tracing t.ctx then
              Algorithm.trace t.ctx "ViewChange(%a, 0, %d, %d) begins"
                Message.pp_txn_id entry.update.Message.txn i (n - 1);
            let batch = [ entry ] in
            frame.leg.span <- Algorithm.txn_span t.ctx name batch;
            t.stack <- [ frame ];
            t.rev_batch <- batch;
            advance t)

  let on_update t (_ : Update_queue.entry) = start_next t

  let on_answer t msg =
    match (msg, t.stack) with
    | Message.Answer { qid; source = j; partial }, frame :: _
      when Sweep_leg.awaits frame.leg ~qid ~source:j ->
        let interfering = Sweep_leg.queued t.ctx j in
        Sweep_leg.answer t.ctx frame.leg ~source:j ~interfering partial;
        (match interfering.Update_queue.count with
        | 0 -> ()
        | n_interfering ->
            let depth = List.length t.stack in
            if depth >= t.max_depth then begin
              (* Forced termination (paper §6.2): behave like SWEEP — the
                 update stays queued for its own, later ViewChange. *)
              t.ctx.metrics.Metrics.fallbacks <-
                t.ctx.metrics.Metrics.fallbacks + 1;
              if Algorithm.tracing t.ctx then
                Algorithm.trace t.ctx
                  "depth limit: leaving %d update(s) from %d queued"
                  n_interfering j;
              if Obs.active t.ctx.obs then
                Obs.event t.ctx.obs ~span:frame.leg.span "fallback"
                  [ ("source", Tracer.I j); ("depth", Tracer.I depth) ]
            end
            else begin
              let absorbed = Update_queue.take_from_source t.ctx.queue j in
              t.rev_batch <- List.rev_append absorbed t.rev_batch;
              (* Bounds per Fig. 6: during the left sweep the frame covers
                 [j..src], so the child evaluates ΔRj's missing terms over
                 j+1..src; during the right sweep it covers [left..j] and
                 the child evaluates over left..j−1. *)
              let child =
                if j < frame.src then
                  make_frame t.ctx ~entries:absorbed ~left:j ~src:j
                    ~right:frame.src
                else
                  make_frame t.ctx ~entries:absorbed ~left:frame.left ~src:j
                    ~right:j
              in
              t.ctx.metrics.Metrics.recursions <-
                t.ctx.metrics.Metrics.recursions + 1;
              let new_depth = depth + 1 in
              if new_depth > t.ctx.metrics.Metrics.max_depth then
                t.ctx.metrics.Metrics.max_depth <- new_depth;
              if Algorithm.tracing t.ctx then
                Algorithm.trace t.ctx
                  "recurse: ViewChange(ΔR%d, %d, %d, %d) at depth %d" j child.left
                  child.src child.right new_depth;
              if Obs.active t.ctx.obs then
                child.leg.span <-
                  Obs.span t.ctx.obs ~parent:frame.leg.span "frame"
                    [ ("src", Tracer.I child.src);
                      ("left", Tracer.I child.left);
                      ("right", Tracer.I child.right);
                      ("depth", Tracer.I new_depth) ];
              t.stack <- child :: t.stack
            end);
        advance t
    | Message.Answer { qid; source; _ }, _ ->
        invalid_arg
          (Printf.sprintf "Nested_sweep.on_answer: unexpected answer qid=%d from %d"
             qid source)
    | (Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _), _
      ->
        invalid_arg "Nested_sweep.on_answer: unexpected message kind"

  let on_source_down _ _ = ()
  let on_source_up _ _ = ()
  let idle t = t.stack = [] && Update_queue.is_empty t.ctx.queue

  module Snap = Repro_durability.Snap

  let snap_of_frame { entries; left; src; right; leg } =
    Snap.List
      [ Snap.List (List.map Algorithm.snap_of_entry entries);
        Snap.ints [ left; src; right ]; Sweep_leg.snapshot leg ]

  let frame_of_snap s =
    match Snap.to_list s with
    | [ entries; bounds; leg ] ->
        let left, src, right =
          match Snap.to_ints bounds with
          | [ l; s; r ] -> (l, s, r)
          | _ -> invalid_arg "nested-sweep: malformed frame bounds"
        in
        { entries = List.map Algorithm.entry_of_snap (Snap.to_list entries);
          left; src; right; leg = Sweep_leg.restore leg }
    | _ -> invalid_arg "nested-sweep: malformed frame snapshot"

  (* The batch is checkpointed in delivery order, keeping the encoding
     identical to the pre-deque representation. *)
  let snapshot { ctx = _; max_depth = _; stack; rev_batch } =
    Snap.List
      [ Snap.List (List.map snap_of_frame stack);
        Snap.List (List.rev_map Algorithm.snap_of_entry rev_batch) ]

  let restore ctx s =
    match Snap.to_list s with
    | [ stack; batch ] ->
        { ctx; max_depth = Cfg.max_depth;
          stack = List.map frame_of_snap (Snap.to_list stack);
          rev_batch =
            List.rev_map Algorithm.entry_of_snap (Snap.to_list batch) }
    | _ -> invalid_arg "nested-sweep: malformed snapshot"
end

module Default = Make (struct
  let max_depth = 64
end)

include Default

let with_max_depth d : (module Algorithm.S) =
  (module Make (struct
    let max_depth = d
  end))
