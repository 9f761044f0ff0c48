open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

let name = "recompute"

type job = {
  entry : Update_queue.entry;
  snapshots : Relation.t option array;
  mutable missing : int;
  qid : int;
  mutable span : Tracer.id;
}

(* [eval] keeps the join index of each source whose snapshot did not
   change since the last recompute; it is derived, so a restore starts
   a fresh one and the checkpoint does not hold it. *)
type t = {
  ctx : Algorithm.ctx;
  mutable current : job option;
  eval : (int -> Relation.t) -> old:Bag.t -> Delta.t;
}

let create ctx = { ctx; current = None; eval = Algebra.evaluator ctx.view }

let rec start_next t =
  match t.current with
  | Some _ -> ()
  | None -> (
      match Update_queue.pop t.ctx.queue with
      | None -> ()
      | Some entry ->
          let n = View_def.n_sources t.ctx.view in
          let span =
            Algorithm.txn_span t.ctx name ~attrs:[ ("sources", Tracer.I n) ]
              [ entry ]
          in
          let job =
            { entry; snapshots = Array.make n None; missing = n;
              qid = t.ctx.fresh_qid (); span }
          in
          t.current <- Some job;
          for j = 0 to n - 1 do
            if Obs.active t.ctx.obs then
              Obs.event t.ctx.obs ~span:job.span "fetch"
                [ ("source", Tracer.I j); ("qid", Tracer.I job.qid) ];
            t.ctx.send j (Message.Fetch { qid = job.qid; target = j })
          done)

and finish t job =
  let fetch i =
    match job.snapshots.(i) with Some r -> r | None -> assert false
  in
  (* Install the difference between the recomputed view and the current
     contents, so the node's single install path applies. [eval] reads
     the current contents in place and returns the difference. *)
  let delta = t.eval fetch ~old:(t.ctx.view_contents ()) in
  t.current <- None;
  t.ctx.install delta ~txns:[ job.entry ];
  Obs.finish t.ctx.obs job.span;
  start_next t

let on_update t (_ : Update_queue.entry) = start_next t

let on_answer t msg =
  match (msg, t.current) with
  | Message.Snapshot { qid; source; relation }, Some job when qid = job.qid ->
      (match job.snapshots.(source) with
      | None ->
          job.snapshots.(source) <- Some relation;
          job.missing <- job.missing - 1;
          if Obs.active t.ctx.obs then
            Obs.event t.ctx.obs ~span:job.span "snapshot"
              [ ("source", Tracer.I source);
                ("missing", Tracer.I job.missing) ]
      | Some _ -> invalid_arg "Recompute.on_answer: duplicate snapshot");
      if job.missing = 0 then finish t job
  | Message.Snapshot { qid; _ }, _ ->
      invalid_arg
        (Printf.sprintf "Recompute.on_answer: unexpected snapshot qid=%d" qid)
  | (Message.Answer _ | Message.Eca_answer _ | Message.Update_notice _), _ ->
      invalid_arg "Recompute.on_answer: unexpected message kind"

let on_source_down _ _ = ()
let on_source_up _ _ = ()
let idle t = t.current = None && Update_queue.is_empty t.ctx.queue

module Snap = Repro_durability.Snap

(* Snapshots checkpoint as option deltas (Relation.t has no Snap
   constructor; a relation is a set, i.e. a non-negative delta). *)
let snap_of_job
    { entry; snapshots;
      (* derived: job_of_snap recounts the None snapshots at restore *)
      missing = _; qid;
      (* volatile span id: never checkpointed, [Tracer.none] after
         restore *)
      span = _ } =
  Snap.List
    [ Algorithm.snap_of_entry entry;
      Snap.List
        (Array.to_list snapshots
        |> List.map (Snap.option (fun r -> Snap.Delta (Delta.of_relation r))));
      Snap.Int qid ]

let job_of_snap s =
  match Snap.to_list s with
  | [ entry; snapshots; qid ] ->
      let snapshots =
        Snap.to_list snapshots
        |> List.map
             (Snap.to_option (fun d ->
                  Relation.of_list (Delta.to_sorted_list (Snap.to_delta d))))
        |> Array.of_list
      in
      let missing =
        Array.fold_left
          (fun acc r -> if r = None then acc + 1 else acc)
          0 snapshots
      in
      { entry = Algorithm.entry_of_snap entry; snapshots; missing;
        qid = Snap.to_int qid; span = Tracer.none }
  | _ -> invalid_arg "Recompute: malformed job snapshot"

let snapshot
    { ctx = _; current;
      (* derived: restore starts a fresh evaluator *)
      eval = _ } =
  Snap.option snap_of_job current

let restore ctx s =
  { ctx; current = Snap.to_option job_of_snap s;
    eval = Algebra.evaluator ctx.view }
