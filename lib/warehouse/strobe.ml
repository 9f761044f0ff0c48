open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

let name = "strobe"

(* AL entries, in append order. [Del] carries the key of a deleted source
   tuple; [Ins] a ready full-width answer to project and merge. *)
type action =
  | Del of { source : int; key : Tuple.t }
  | Ins of { full : Delta.t }

type query = {
  entry : Update_queue.entry;
  leg : Sweep_leg.t;  (* answers are taken uncompensated *)
  (* key-deletes delivered while this query was in flight *)
  mutable kill_keys : (int * Tuple.t) list;
}

type t = {
  ctx : Algorithm.ctx;
  (* unanswered query set, newest first (appends are hot; membership and
     removal never depend on order) *)
  mutable rev_uqs : query list;
  mutable rev_al : action list;
  (* entries awaiting install, newest first (reversed at flush — appends
     are hot, flushes amortize the reversal over the whole batch) *)
  mutable rev_batch : Update_queue.entry list;
}

let create ctx =
  Keys.require_keys ~algorithm:"Strobe" ctx.Algorithm.view;
  { ctx; rev_uqs = []; rev_al = []; rev_batch = [] }

(* Apply AL to the materialized view atomically: key deletes remove every
   matching view tuple; inserts are added with duplicate suppression (the
   view's keys make any duplicate an already-derived tuple). *)
let flush t =
  if t.rev_al <> [] || t.rev_batch <> [] then begin
    let working = Bag.copy (t.ctx.view_contents ()) in
    List.iter
      (function
        | Del { source; key } ->
            Bag.merge_into ~into:working
              (Keys.view_deletion t.ctx.view ~contents:working ~source ~key)
        | Ins { full } -> Keys.add_answer t.ctx.view ~working full)
      (List.rev t.rev_al);
    let txns = List.rev t.rev_batch in
    t.rev_al <- [];
    t.rev_batch <- [];
    if Algorithm.tracing t.ctx then
      Algorithm.trace t.ctx "strobe: flush AL (%d txns)" (List.length txns);
    if Obs.active t.ctx.obs then
      Obs.event t.ctx.obs "strobe.flush"
        [ ("txns", Tracer.I (List.length txns)) ];
    Keys.install t.ctx ~working ~txns
  end

let maybe_flush t = if t.rev_uqs = [] then flush t

(* A live remote answer from [j] reflects installed state + the batch
   deltas from [j] already delivered but awaiting flush (FIFO: anything
   applied at [j] before it answered reached our mailbox first). The aux
   projection holds installed state only, so overlay the batch. *)
let advance t q =
  let hop =
    Sweep_leg.aux_hop t.ctx ~name ~overlay:(Sweep_leg.overlay t.rev_batch)
  in
  if Sweep_leg.step t.ctx ?hop q.leg then begin
    (* Query finished: apply the deletes seen during evaluation, then
       append the insert action. *)
    let full = q.leg.dv.Partial.data in
    Keys.kill_full t.ctx.view ~full q.kill_keys;
    t.rev_uqs <- List.filter (fun q' -> q'.leg.qid <> q.leg.qid) t.rev_uqs;
    t.rev_al <- Ins { full } :: t.rev_al;
    Obs.finish t.ctx.obs q.leg.span;
    maybe_flush t
  end

let on_update t (entry : Update_queue.entry) =
  (* Strobe consumes updates immediately; the queue is only a mailbox. *)
  (match Update_queue.pop t.ctx.queue with
  | Some e when e.arrival = entry.arrival -> ()
  | _ -> invalid_arg "Strobe.on_update: queue out of sync");
  t.rev_batch <- entry :: t.rev_batch;
  let delta = entry.update.Message.delta in
  let deletes = Delta.negative_part delta in
  let inserts = Delta.positive_part delta in
  let i = entry.update.Message.txn.source in
  (* Deletes: local key-delete actions, registered with in-flight
     queries. *)
  Delta.iter
    (fun tup _c ->
      let key = Keys.source_tuple_key t.ctx.view i tup in
      List.iter (fun q -> q.kill_keys <- (i, key) :: q.kill_keys) t.rev_uqs;
      t.rev_al <- Del { source = i; key } :: t.rev_al)
    deletes;
  (* Inserts: launch a query over the other sources. *)
  if not (Delta.is_empty inserts) then begin
    let n = View_def.n_sources t.ctx.view in
    let q =
      { entry; kill_keys = [];
        leg =
          Sweep_leg.create t.ctx ~span:(Algorithm.txn_span t.ctx name [ entry ])
            (Partial.of_source_delta t.ctx.view i inserts)
            ~pending:(Sweep_order.order ~n ~i) }
    in
    t.rev_uqs <- q :: t.rev_uqs;
    advance t q
  end
  else maybe_flush t

let on_answer t msg =
  match msg with
  | Message.Answer { qid; source = j; partial } -> (
      match List.find_opt (fun q -> q.leg.Sweep_leg.qid = qid) t.rev_uqs with
      | Some q when Sweep_leg.awaits q.leg ~qid ~source:j ->
          Sweep_leg.answer t.ctx q.leg ~source:j partial;
          advance t q
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "Strobe.on_answer: unexpected answer qid=%d" qid))
  | Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _ ->
      invalid_arg "Strobe.on_answer: unexpected message kind"

let on_source_down _ _ = ()
let on_source_up _ _ = ()

let idle t =
  t.rev_uqs = [] && t.rev_al = [] && Update_queue.is_empty t.ctx.queue

module Snap = Repro_durability.Snap

let snap_of_action = function
  | Del { source; key } ->
      Snap.List [ Snap.Int 0; Snap.Int source; Snap.Tup (Array.copy key) ]
  | Ins { full } -> Snap.List [ Snap.Int 1; Snap.Delta (Delta.copy full) ]

let action_of_snap s =
  match Snap.to_list s with
  | [ tag; source; key ] when Snap.to_int tag = 0 ->
      Del { source = Snap.to_int source; key = Snap.to_tuple key }
  | [ tag; full ] when Snap.to_int tag = 1 ->
      Ins { full = Snap.to_delta full }
  | _ -> invalid_arg "Strobe: malformed action snapshot"

let snap_of_query { entry; leg; kill_keys } =
  Snap.List
    [ Algorithm.snap_of_entry entry; Sweep_leg.snapshot leg;
      Snap.List
        (List.map
           (fun (source, key) ->
             Snap.List [ Snap.Int source; Snap.Tup (Array.copy key) ])
           kill_keys) ]

let query_of_snap s =
  match Snap.to_list s with
  | [ entry; leg; kill_keys ] ->
      { entry = Algorithm.entry_of_snap entry; leg = Sweep_leg.restore leg;
        kill_keys =
          List.map
            (fun kk ->
              match Snap.to_list kk with
              | [ source; key ] -> (Snap.to_int source, Snap.to_tuple key)
              | _ -> invalid_arg "Strobe: malformed kill key snapshot")
            (Snap.to_list kill_keys) }
  | _ -> invalid_arg "Strobe: malformed query snapshot"

(* The batch and query set are checkpointed in delivery order, keeping
   the encoding identical to the pre-deque representation. *)
let snapshot { ctx = _; rev_uqs; rev_al; rev_batch } =
  Snap.List
    [ Snap.List (List.rev_map snap_of_query rev_uqs);
      Snap.List (List.map snap_of_action rev_al);
      Snap.List (List.rev_map Algorithm.snap_of_entry rev_batch) ]

let restore ctx s =
  match Snap.to_list s with
  | [ uqs; rev_al; batch ] ->
      Keys.require_keys ~algorithm:"Strobe" ctx.Algorithm.view;
      { ctx; rev_uqs = List.rev_map query_of_snap (Snap.to_list uqs);
        rev_al = List.map action_of_snap (Snap.to_list rev_al);
        rev_batch =
          List.rev_map Algorithm.entry_of_snap (Snap.to_list batch) }
  | _ -> invalid_arg "Strobe: malformed snapshot"
