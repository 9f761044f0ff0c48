open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

let name = "eca"

type pending = {
  entry : Update_queue.entry;
  terms : Message.eca_term list;
  qid : int;
  span : Tracer.id;
}

(* Pending queries, newest first: appends are hot, and every ordered
   consumer reverses at the boundary. *)
type t = { ctx : Algorithm.ctx; mutable rev_pending : pending list }

let create ctx = { ctx; rev_pending = [] }

let on_update t (entry : Update_queue.entry) =
  (match Update_queue.pop t.ctx.queue with
  | Some e when e.arrival = entry.arrival -> ()
  | _ -> invalid_arg "Eca.on_update: queue out of sync");
  let a = entry.update.Message.txn.source in
  let delta = entry.update.Message.delta in
  let neg = Delta.negate delta in
  (* Qi = V(Ui) − Σj Qj(Ui): substituting Ui into a term that already pins
     relation a annihilates that term (it does not mention Ra). *)
  let compensations =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun term ->
            if List.mem_assoc a term then None
            else Some ((a, neg) :: term))
          p.terms)
      (List.rev t.rev_pending)
  in
  let terms = [ (a, delta) ] :: compensations in
  let qid = t.ctx.fresh_qid () in
  if Algorithm.tracing t.ctx then
    Algorithm.trace t.ctx "eca: query %d with %d terms for %a" qid
      (List.length terms) Message.pp_txn_id entry.update.Message.txn;
  let span =
    Algorithm.txn_span t.ctx name
      ~attrs:[ ("terms", Tracer.I (List.length terms)); ("qid", Tracer.I qid) ]
      [ entry ]
  in
  t.rev_pending <- { entry; terms; qid; span } :: t.rev_pending;
  (* The centralized site is addressed as source 0 by convention. *)
  t.ctx.send 0 (Message.Eca_query { qid; terms })

let on_answer t msg =
  match msg with
  | Message.Eca_answer { qid; partial } -> (
      match List.find_opt (fun p -> p.qid = qid) t.rev_pending with
      | None ->
          invalid_arg
            (Printf.sprintf "Eca.on_answer: unexpected answer qid=%d" qid)
      | Some p ->
          t.rev_pending <- List.filter (fun p' -> p'.qid <> qid) t.rev_pending;
          let view_delta = Algebra.select_project t.ctx.view partial in
          t.ctx.install view_delta ~txns:[ p.entry ];
          Obs.finish t.ctx.obs p.span)
  | Message.Answer _ | Message.Snapshot _ | Message.Update_notice _ ->
      invalid_arg "Eca.on_answer: unexpected message kind"

let on_source_down _ _ = ()
let on_source_up _ _ = ()
let idle t = t.rev_pending = [] && Update_queue.is_empty t.ctx.queue

module Snap = Repro_durability.Snap

let snap_of_term (term : Message.eca_term) =
  Snap.List
    (List.map
       (fun (src, d) -> Snap.List [ Snap.Int src; Snap.Delta (Delta.copy d) ])
       term)

let term_of_snap s : Message.eca_term =
  List.map
    (fun factor ->
      match Snap.to_list factor with
      | [ src; d ] -> (Snap.to_int src, Snap.to_delta d)
      | _ -> invalid_arg "Eca: malformed term snapshot")
    (Snap.to_list s)

let snap_of_pending
    { entry; terms; qid;
      (* volatile span id: never checkpointed, [Tracer.none] after
         restore *)
      span = _ } =
  Snap.List
    [ Algorithm.snap_of_entry entry;
      Snap.List (List.map snap_of_term terms); Snap.Int qid ]

let pending_of_snap s =
  match Snap.to_list s with
  | [ entry; terms; qid ] ->
      { entry = Algorithm.entry_of_snap entry;
        terms = List.map term_of_snap (Snap.to_list terms);
        qid = Snap.to_int qid; span = Tracer.none }
  | _ -> invalid_arg "Eca: malformed pending snapshot"

(* Checkpointed in delivery order: the encoding is unchanged by the
   reversed in-memory representation. *)
let snapshot { ctx = _; rev_pending } =
  Snap.List (List.rev_map snap_of_pending rev_pending)

let restore ctx s =
  { ctx; rev_pending = List.rev_map pending_of_snap (Snap.to_list s) }
