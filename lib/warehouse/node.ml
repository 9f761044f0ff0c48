open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_durability
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

type install_record = { txns : Message.txn_id list; delta : Delta.t }

type t = {
  engine : Engine.t;
  view : View_def.t;
  algorithm : (module Algorithm.S);
  send : int -> Message.to_source -> unit;
  data : Bag.t;
  (* [data] in canonical order with cached encodings, for checkpoints;
     built at the first checkpoint, then kept in step by every install *)
  mutable image : Canon.t option;
  (* a copy of the view as [create] adopted it, kept only for readers:
     the checker's history and genesis recovery from a store *)
  initial : Bag.t option;
  metrics : Metrics.t;
  queue : Update_queue.t;
  record_history : bool;
  trace : Trace.t;
  obs : Obs.t;
  store : Store.t option;
  breaker : Breaker.t option;
  aux : Aux_store.t;
  stall_cap : int;
  mutable next_qid : int;
  mutable replaying : bool;
  (* Installs regenerated during replay, FIFO; each [Installed] WAL record
     pops one and must match it — the exactly-once re-application check. *)
  replay_installs : Delta.t Queue.t;
  mutable algo : Algorithm.packed option;
  mutable rev_installs : install_record list;
  mutable rev_deliveries : Message.update list;
  mutable rev_incorporate_listeners : (int -> unit) list;
  mutable rev_delivery_listeners : (Message.update -> unit) list;
  mutable rev_install_txn_listeners : (Message.txn_id list -> unit) list;
}

let algo t = Option.get t.algo

(* The capabilities handed to the algorithm. Everything observable from
   outside the node — metrics, history, WAL, listeners — is suppressed
   while [t.replaying]: replay only rebuilds internal state the crash
   destroyed; its effects already happened (and were logged) before the
   crash. Sends are NOT suppressed: replayed queries go out with their
   original transport sequence numbers (the sender counter is restored
   from the checkpoint), so peers drop them as duplicates and re-ack. *)
let wire t =
  let instrumented_send i msg =
    if not t.replaying then begin
      t.metrics.Metrics.queries_sent <- t.metrics.Metrics.queries_sent + 1;
      t.metrics.Metrics.query_weight <-
        t.metrics.Metrics.query_weight + Message.weight_to_source msg;
      if Trace.enabled t.trace then
        Trace.emit t.trace ~time:(Engine.now t.engine) ~who:"warehouse"
          "send %a" Message.pp_to_source msg;
      if Obs.active t.obs then
        Obs.observe t.obs "query_weight"
          (float_of_int (Message.weight_to_source msg))
    end;
    t.send i msg
  in
  (* The aux projections advance exactly when updates are installed —
     also during replay, which rebuilds them from the same delta stream
     the crash destroyed. *)
  let apply_aux txns =
    List.iter
      (fun (e : Update_queue.entry) ->
        Aux_store.apply t.aux ~source:e.update.Message.txn.Message.source
          e.update.Message.delta)
      txns
  in
  (* [merge delta] tells whether the install left a count negative. *)
  let merge delta =
    let negative = Bag.merge_checked ~into:t.data delta in
    (match t.image with
    | Some image -> Delta.iter (Canon.add image) delta
    | None -> ());
    negative
  in
  let install delta ~txns =
    if t.replaying then begin
      ignore (merge delta);
      apply_aux txns;
      Queue.push (Delta.copy delta) t.replay_installs
    end
    else begin
      (match t.store with
      | Some store ->
          Store.log store
            (Wal.Installed
               { delta;
                 txns =
                   List.map
                     (fun e -> e.Update_queue.update.Message.txn)
                     txns })
      | None -> ());
      let negative = merge delta in
      apply_aux txns;
      t.metrics.Metrics.installs <- t.metrics.Metrics.installs + 1;
      t.metrics.Metrics.updates_incorporated <-
        t.metrics.Metrics.updates_incorporated + List.length txns;
      if negative then
        t.metrics.Metrics.negative_installs <-
          t.metrics.Metrics.negative_installs + 1;
      let now = Engine.now t.engine in
      List.iter
        (fun e ->
          Metrics.note_staleness t.metrics (now -. e.Update_queue.arrived_at);
          if Obs.active t.obs then
            Obs.observe t.obs "staleness" (now -. e.Update_queue.arrived_at))
        txns;
      if Obs.active t.obs then
        Obs.event t.obs "install"
          [ ("txns", Tracer.I (List.length txns));
            ("weight", Tracer.I (Delta.weight delta));
            ("negative", Tracer.B negative) ];
      if t.record_history then
        t.rev_installs <-
          { txns = List.map (fun e -> e.Update_queue.update.Message.txn) txns;
            delta = Delta.copy delta }
          :: t.rev_installs;
      List.iter
        (fun f -> f (List.length txns))
        (List.rev t.rev_incorporate_listeners);
      (match t.rev_install_txn_listeners with
      | [] -> ()
      | ls ->
          let ids =
            List.map (fun e -> e.Update_queue.update.Message.txn) txns
          in
          List.iter (fun f -> f ids) (List.rev ls))
    end
  in
  { Algorithm.engine = t.engine; view = t.view; trace = t.trace; obs = t.obs;
    metrics = t.metrics; aux = t.aux; queue = t.queue;
    send = instrumented_send; install;
    view_contents = (fun () -> t.data);
    fresh_qid =
      (fun () ->
        t.next_qid <- t.next_qid + 1;
        t.next_qid);
    source_ok =
      (match t.breaker with
      | None -> fun _ -> true
      | Some b -> fun i -> Breaker.source_ok b i);
    stall_cap = t.stall_cap }

(* Breaker transitions drive the algorithm's park/replay hooks. Re-wired
   after every (re)instantiation so the closures capture the live
   algorithm. *)
let wire_breaker t =
  match t.breaker with
  | None -> ()
  | Some b ->
      Breaker.set_on_open b (fun i ->
          Algorithm.packed_on_source_down (algo t) i);
      Breaker.set_on_close b (fun i ->
          Algorithm.packed_on_source_up (algo t) i)

let create engine ~view ~algorithm ~send ~init ?durability ?metrics
    ?queue_capacity ?breaker ?(aux = Aux_store.off ()) ?(stall_cap = 256)
    ?(record_history = true) ?(trace = Trace.create ())
    ?(obs = Obs.disabled ()) () =
  let data = Relation.as_bag init in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let t =
    { engine; view; algorithm; send; data; image = None;
      initial =
        (if record_history || Option.is_some durability then
           Some (Bag.copy data)
         else None);
      metrics;
      queue = Update_queue.create ?capacity:queue_capacity ~view ();
      record_history; trace; obs; store = durability; breaker; aux; stall_cap;
      next_qid = 0; replaying = false; replay_installs = Queue.create ();
      algo = None; rev_installs = []; rev_deliveries = [];
      rev_incorporate_listeners = []; rev_delivery_listeners = [];
      rev_install_txn_listeners = [] }
  in
  t.algo <- Some (Algorithm.instantiate algorithm (wire t));
  wire_breaker t;
  t

let initial_view t =
  match t.initial with
  | Some b -> b
  | None ->
      invalid_arg
        "Node.initial_view: kept only with record_history or a durability store"

(* Restart after a crash: volatile state (view, queue, algorithm, qid
   counter) comes from the checkpoint — or from genesis when none was
   taken — while durable artifacts survive from the previous incarnation:
   the store, the metrics, the recorded histories (everything in them
   really happened and was WAL-logged) and the registered listeners. The
   caller replays the WAL tail afterwards via {!begin_replay} /
   {!replay_record} / {!end_replay}. *)
let recover ~prev ?checkpoint () =
  if Option.is_none prev.store then
    invalid_arg "Node.recover: node has no store";
  let data, image, queue, next_qid =
    match checkpoint with
    | Some (c : Checkpoint.t) ->
        let entries =
          List.map
            (fun (q : Checkpoint.queued) ->
              { Update_queue.update = q.update; arrival = q.arrival;
                arrived_at = q.arrived_at })
            c.queue
        in
        ( Canon.to_bag c.view,
          Some c.view,
          Update_queue.of_entries
            ?capacity:(Update_queue.capacity prev.queue)
            ~view:prev.view entries ~next_arrival:c.queue_next_arrival,
          c.next_qid )
    | None ->
        ( Bag.copy (initial_view prev),
          None,
          Update_queue.create ?capacity:(Update_queue.capacity prev.queue)
            ~view:prev.view (),
          0 )
  in
  let t =
    { prev with data; image; queue; next_qid; replaying = false;
      replay_installs = Queue.create (); algo = None }
  in
  (t.algo <-
     Some
       (match checkpoint with
       | Some c -> Algorithm.restore_packed t.algorithm (wire t) c.algo
       | None -> Algorithm.instantiate t.algorithm (wire t)));
  (match t.breaker with
  | None -> ()
  | Some b -> (
      match checkpoint with
      | Some (c : Checkpoint.t) when c.breaker <> Snap.Unit ->
          Breaker.restore b c.breaker
      | _ -> Breaker.reset b));
  (match checkpoint with
  | Some { Checkpoint.aux = Some images; _ } -> Aux_store.restore t.aux images
  | _ -> Aux_store.reset t.aux);
  wire_breaker t;
  t

let handle_update t update ~arrived_at =
  if not t.replaying then begin
    t.metrics.Metrics.updates_received <-
      t.metrics.Metrics.updates_received + 1;
    t.metrics.Metrics.notice_weight <-
      t.metrics.Metrics.notice_weight + Delta.weight update.Message.delta;
    if t.record_history then t.rev_deliveries <- update :: t.rev_deliveries;
    List.iter (fun f -> f update) (List.rev t.rev_delivery_listeners)
  end;
  let entry = Update_queue.append t.queue update ~arrived_at in
  if not t.replaying then begin
    Metrics.note_queue_length t.metrics (Update_queue.length t.queue);
    if Obs.active t.obs then begin
      Obs.observe t.obs "queue_length"
        (float_of_int (Update_queue.length t.queue));
      Obs.event t.obs "update.delivered"
        [ ("txn", Tracer.S (Format.asprintf "%a" Message.pp_txn_id
                              update.Message.txn));
          ("weight", Tracer.I (Delta.weight update.Message.delta)) ]
    end
  end;
  Algorithm.packed_on_update (algo t) entry

let handle_answer t msg =
  if not t.replaying then begin
    t.metrics.Metrics.answers_received <-
      t.metrics.Metrics.answers_received + 1;
    t.metrics.Metrics.answer_weight <-
      t.metrics.Metrics.answer_weight + Message.weight_to_warehouse msg;
    if Obs.active t.obs then
      Obs.observe t.obs "answer_weight"
        (float_of_int (Message.weight_to_warehouse msg));
    match msg with
    | Message.Snapshot _ ->
        t.metrics.Metrics.snapshots_fetched <-
          t.metrics.Metrics.snapshots_fetched + 1
    | _ -> ()
  end;
  (* delivery evidence for the breaker — also during replay, so a
     post-checkpoint heal the old incarnation saw is reconverged *)
  (match (t.breaker, msg) with
  | Some b, (Message.Answer { source; _ } | Message.Snapshot { source; _ }) ->
      Breaker.record_success b source
  | _ -> ());
  Algorithm.packed_on_answer (algo t) msg

let deliver t msg =
  if t.replaying then invalid_arg "Node.deliver: node is replaying";
  (* Log before processing (and the transport acks only after deliver
     returns): everything acknowledged is on the log. *)
  (match t.store with
  | Some store ->
      let record =
        match msg with
        | Message.Update_notice update ->
            Wal.Update_received { update; arrived_at = Engine.now t.engine }
        | Message.Answer { source; _ } | Message.Snapshot { source; _ } ->
            Wal.Answer_received { link = source; msg }
        | Message.Eca_answer _ -> Wal.Answer_received { link = 0; msg }
      in
      Store.log store record
  | None -> ());
  (match msg with
  | Message.Update_notice update ->
      handle_update t update ~arrived_at:(Engine.now t.engine)
  | Message.Answer _ | Message.Snapshot _ | Message.Eca_answer _ ->
      handle_answer t msg);
  (* A consistent point: the delivery is fully processed. *)
  match t.store with Some store -> Store.maybe_checkpoint store | None -> ()

(* ————— WAL replay ————— *)

let begin_replay t =
  Queue.clear t.replay_installs;
  Obs.mute t.obs;
  t.replaying <- true

let replay_record t record =
  if not t.replaying then invalid_arg "Node.replay_record: not replaying";
  match record with
  | Wal.Update_received { update; arrived_at } ->
      handle_update t update ~arrived_at
  | Wal.Answer_received { msg; _ } -> handle_answer t msg
  | Wal.Installed { delta; _ } -> (
      match Queue.take_opt t.replay_installs with
      | Some d when Delta.equal d delta -> ()
      | Some _ ->
          invalid_arg
            "Node.replay_record: replayed install diverges from logged install"
      | None ->
          invalid_arg "Node.replay_record: logged install was not regenerated")

let end_replay t =
  if not (Queue.is_empty t.replay_installs) then
    invalid_arg "Node.end_replay: replay produced unlogged installs";
  Obs.unmute t.obs;
  t.replaying <- false

(* ————— checkpoint capture ————— *)

let image t =
  match t.image with
  | Some image -> image
  | None ->
      let image = Canon.of_bag t.data in
      t.image <- Some image;
      image

let checkpoint t ~wal_pos ~recv_expected ~senders : Checkpoint.t =
  { taken_at = Engine.now t.engine; wal_pos; view = image t;
    queue =
      List.map
        (fun (e : Update_queue.entry) ->
          { Checkpoint.update = e.update; arrival = e.arrival;
            arrived_at = e.arrived_at })
        (Update_queue.entries t.queue);
    queue_next_arrival = Update_queue.last_arrival t.queue + 1;
    next_qid = t.next_qid; algo = Algorithm.packed_snapshot (algo t);
    recv_expected; senders;
    breaker =
      (match t.breaker with
      | Some b -> Breaker.snapshot b
      | None -> Snap.Unit);
    aux = Aux_store.image t.aux }

(* prepend (O(1) per registration); install reverses so listeners still
   fire in registration order *)
let add_incorporate_listener t f =
  t.rev_incorporate_listeners <- f :: t.rev_incorporate_listeners

let add_delivery_listener t f =
  t.rev_delivery_listeners <- f :: t.rev_delivery_listeners

let add_install_txns_listener t f =
  t.rev_install_txn_listeners <- f :: t.rev_install_txn_listeners

let view_contents t = t.data
let obs t = t.obs
let metrics t = t.metrics
let queue t = t.queue
let breaker t = t.breaker
let aux t = t.aux

let degraded t =
  match t.breaker with Some b -> Breaker.degraded b | None -> false
let algorithm_name t = Algorithm.packed_name (algo t)
let installs t = List.rev t.rev_installs
let deliveries t = List.rev t.rev_deliveries
let idle t = Algorithm.packed_idle (algo t)
