open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

let name = "c-strobe"

(* One (possibly compensating) query: a sweep leg over the chain join
   with [pins] replacing the pinned sources' relations. [pin_ids] (sorted
   arrival numbers, the initial update itself included) identify the pin
   set so each distinct compensation is sent at most once. *)
type job = {
  pins : (int * Delta.t) list;
  pin_ids : int list;
  leg : Sweep_leg.t;
}

type current = {
  entry : Update_queue.entry;
  mutable jobs : job list;
  spawned : (int list, unit) Hashtbl.t;  (* pin-id sets already issued *)
  mutable answer : Partial.t option;  (* full-width accumulator *)
  mutable killed : (int, unit) Hashtbl.t;  (* arrivals already key-killed *)
  mutable kills : (int * Tuple.t) list;  (* (source, key) kills to apply *)
  mutable finished : bool;  (* finalize-once guard *)
  delete_view_delta : Delta.t;  (* local handling of the delete part *)
  mutable span : Tracer.id;
}

type t = { ctx : Algorithm.ctx; mutable current : current option }

let create ctx =
  Keys.require_keys ~algorithm:"C-strobe" ctx.Algorithm.view;
  { ctx; current = None }

(* A job sweeps out from its lowest pin; its span is the leg's. *)
let make_job (ctx : Algorithm.ctx) cur ~pins ~pin_ids ~compensating =
  let start, start_delta =
    match List.sort (fun (a, _) (b, _) -> Int.compare a b) pins with
    | (s, d) :: _ -> (s, d)
    | [] -> invalid_arg "C_strobe.make_job: no pins"
  in
  let leg =
    Sweep_leg.create ctx
      (Partial.of_source_delta ctx.view start start_delta)
      ~pending:(Sweep_order.order ~n:(View_def.n_sources ctx.view) ~i:start)
  in
  let job = { pins; pin_ids; leg } in
  if compensating then
    if Algorithm.tracing ctx then
      Algorithm.trace ctx "c-strobe: compensating query %d (pins %s)" leg.qid
        (String.concat "," (List.map string_of_int pin_ids));
  if Obs.active ctx.obs then
    leg.span <-
      Obs.span ctx.obs ~parent:cur.span "job"
        (("qid", Tracer.I leg.qid)
        :: ("pins", Tracer.I (List.length pins))
        :: (if compensating then [ ("compensating", Tracer.B true) ] else []));
  job

(* The hop of a pinned position: joined locally, no message. *)
let pinned (ctx : Algorithm.ctx) job (leg : Sweep_leg.t) j =
  Option.map
    (fun pin ->
      let pp = Partial.of_source_delta ctx.view j pin in
      if j < leg.dv.Partial.lo then Algebra.join ctx.view pp leg.dv
      else Algebra.join ctx.view leg.dv pp)
    (List.assoc_opt j job.pins)

let rec advance t cur job =
  if Sweep_leg.step t.ctx ~hop:(pinned t.ctx job) job.leg then
    complete t cur job

and complete t cur job =
  Obs.finish t.ctx.obs job.leg.span;
  cur.jobs <- List.filter (fun j -> j.leg.qid <> job.leg.qid) cur.jobs;
  cur.answer <-
    Some
      (match cur.answer with
      | None -> job.leg.dv
      | Some a -> Partial.add a job.leg.dv);
  (* Conservative concurrency scan: every queued update delivered after
     the one being processed. *)
  let concurrent =
    List.filter
      (fun e -> e.Update_queue.arrival > cur.entry.Update_queue.arrival)
      (Update_queue.entries t.ctx.queue)
  in
  let children = ref [] in
  List.iter
    (fun e ->
      let d = e.Update_queue.update.Message.delta in
      let src = e.Update_queue.update.Message.txn.source in
      (* Concurrent inserts: key-delete from the accumulated answer (once
         per concurrent update). *)
      if not (Hashtbl.mem cur.killed e.arrival) then begin
        Hashtbl.replace cur.killed e.arrival ();
        Delta.iter
          (fun tup c ->
            if c > 0 then
              cur.kills <-
                (src, Keys.source_tuple_key t.ctx.view src tup) :: cur.kills)
          d
      end;
      (* Concurrent deletes: compensating query with the deleted tuples
         pinned in, for every pin set not yet issued. *)
      let dels = Delta.negative_part d in
      if
        (not (Delta.is_empty dels))
        && (not (List.mem_assoc src job.pins))
        && not (List.mem e.arrival job.pin_ids)
      then begin
        let pin_ids = List.sort Int.compare (e.arrival :: job.pin_ids) in
        if not (Hashtbl.mem cur.spawned pin_ids) then begin
          Hashtbl.replace cur.spawned pin_ids ();
          children :=
            make_job t.ctx cur ~pins:((src, dels) :: job.pins) ~pin_ids
              ~compensating:true
            :: !children
        end
      end)
    concurrent;
  (* Register every child before advancing any: a fully-pinned child
     completes synchronously and must not observe an empty job set and
     finalize prematurely. *)
  let children = List.rev !children in
  cur.jobs <- children @ cur.jobs;
  List.iter (fun child -> advance t cur child) children;
  if cur.jobs = [] && not cur.finished then begin
    cur.finished <- true;
    finalize t cur
  end

and finalize t cur =
  let working = Bag.copy (t.ctx.view_contents ()) in
  Bag.merge_into ~into:working cur.delete_view_delta;
  (match cur.answer with
  | None -> ()
  | Some a ->
      let full = a.Partial.data in
      Keys.kill_full t.ctx.view ~full cur.kills;
      Keys.add_answer t.ctx.view ~working full);
  let entry = cur.entry in
  t.current <- None;
  Keys.install t.ctx ~working ~txns:[ entry ];
  Obs.finish t.ctx.obs cur.span;
  start_next t

and start_next t =
  match t.current with
  | Some _ -> ()
  | None -> (
      match Update_queue.pop t.ctx.queue with
      | None -> ()
      | Some entry ->
          let view = t.ctx.view in
          let i = entry.update.Message.txn.source in
          let delta = entry.update.Message.delta in
          let deletes = Delta.negative_part delta in
          let inserts = Delta.positive_part delta in
          (* Deletes are applied locally by key (C-strobe's optimization):
             build the view-level deletion now, against the current
             contents. *)
          let delete_view_delta = Delta.empty () in
          Delta.iter
            (fun tup _ ->
              let key = Keys.source_tuple_key view i tup in
              Bag.merge_into ~into:delete_view_delta
                (Keys.view_deletion view ~contents:(t.ctx.view_contents ())
                   ~source:i ~key))
            deletes;
          let span = Algorithm.txn_span t.ctx name [ entry ] in
          let cur =
            { entry; jobs = []; spawned = Hashtbl.create 32; answer = None;
              killed = Hashtbl.create 8; kills = []; finished = false;
              delete_view_delta; span }
          in
          t.current <- Some cur;
          if Delta.is_empty inserts then begin
            cur.finished <- true;
            finalize t cur
          end
          else begin
            let job =
              make_job t.ctx cur ~pins:[ (i, inserts) ]
                ~pin_ids:[ entry.arrival ] ~compensating:false
            in
            Hashtbl.replace cur.spawned [ entry.arrival ] ();
            cur.jobs <- [ job ];
            advance t cur job
          end)

let on_update t (_ : Update_queue.entry) = start_next t

let on_answer t msg =
  match (msg, t.current) with
  | Message.Answer { qid; source = j; partial }, Some cur -> (
      match
        List.find_opt (fun job -> Sweep_leg.awaits job.leg ~qid ~source:j)
          cur.jobs
      with
      | Some job ->
          Sweep_leg.answer t.ctx job.leg ~source:j partial;
          advance t cur job
      | None ->
          invalid_arg
            (Printf.sprintf "C_strobe.on_answer: unexpected answer qid=%d" qid))
  | Message.Answer _, None ->
      invalid_arg "C_strobe.on_answer: answer with no update in progress"
  | (Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _), _ ->
      invalid_arg "C_strobe.on_answer: unexpected message kind"

let on_source_down _ _ = ()
let on_source_up _ _ = ()
let idle t = t.current = None && Update_queue.is_empty t.ctx.queue

module Snap = Repro_durability.Snap

let snap_of_job { pins; pin_ids; leg } =
  Snap.List
    [ Snap.List
        (List.map
           (fun (src, d) ->
             Snap.List [ Snap.Int src; Snap.Delta (Delta.copy d) ])
           pins);
      Snap.ints pin_ids; Sweep_leg.snapshot leg ]

let job_of_snap s =
  match Snap.to_list s with
  | [ pins; pin_ids; leg ] ->
      { pins =
          List.map
            (fun p ->
              match Snap.to_list p with
              | [ src; d ] -> (Snap.to_int src, Snap.to_delta d)
              | _ -> invalid_arg "C_strobe: malformed pin snapshot")
            (Snap.to_list pins);
        pin_ids = Snap.to_ints pin_ids; leg = Sweep_leg.restore leg }
  | _ -> invalid_arg "C_strobe: malformed job snapshot"

(* Canonical hashtable dumps: spawned pin-id sets and killed arrivals
   sorted so equal states encode identically. *)
let snap_of_current
    { entry; jobs; spawned; answer; killed; kills; finished;
      delete_view_delta;
      (* volatile span id, like the legs': [Tracer.none] after restore *)
      span = _ } =
  let spawned =
    Hashtbl.fold (fun ids () acc -> ids :: acc) spawned []
    |> List.sort compare |> List.map Snap.ints
  in
  let killed =
    Hashtbl.fold (fun a () acc -> a :: acc) killed []
    |> List.sort Int.compare
  in
  Snap.List
    [ Algorithm.snap_of_entry entry;
      Snap.List (List.map snap_of_job jobs); Snap.List spawned;
      Snap.option (fun a -> Snap.Partial (Partial.copy a)) answer;
      Snap.ints killed;
      Snap.List
        (List.map
           (fun (src, key) ->
             Snap.List [ Snap.Int src; Snap.Tup (Array.copy key) ])
           kills);
      Snap.Bool finished; Snap.Delta (Delta.copy delete_view_delta) ]

let current_of_snap s =
  match Snap.to_list s with
  | [ entry; jobs; spawned; answer; killed; kills; finished; dvd ] ->
      let spawned_tbl = Hashtbl.create 32 in
      List.iter
        (fun ids -> Hashtbl.replace spawned_tbl (Snap.to_ints ids) ())
        (Snap.to_list spawned);
      let killed_tbl = Hashtbl.create 8 in
      List.iter (fun a -> Hashtbl.replace killed_tbl a ()) (Snap.to_ints killed);
      { entry = Algorithm.entry_of_snap entry;
        jobs = List.map job_of_snap (Snap.to_list jobs); spawned = spawned_tbl;
        answer = Snap.to_option Snap.to_partial answer; killed = killed_tbl;
        kills =
          List.map
            (fun k ->
              match Snap.to_list k with
              | [ src; key ] -> (Snap.to_int src, Snap.to_tuple key)
              | _ -> invalid_arg "C_strobe: malformed kill snapshot")
            (Snap.to_list kills);
        finished = Snap.to_bool finished;
        delete_view_delta = Snap.to_delta dvd; span = Tracer.none }
  | _ -> invalid_arg "C_strobe: malformed current snapshot"

let snapshot { ctx = _; current } = Snap.option snap_of_current current

let restore ctx s =
  Keys.require_keys ~algorithm:"C-strobe" ctx.Algorithm.view;
  { ctx; current = Snap.to_option current_of_snap s }
