open Repro_relational
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer
module Snap = Repro_durability.Snap

(* The SWEEP engine: when an update reaches the head of the queue, drain
   up to [batch_max] queued updates, coalesce them into per-source
   combined deltas D_i (net effect via Delta.sum), and run one sweep leg
   per distinct source — in ascending source order — handing the summed
   view delta to the policy's install hook as one transition covering
   the whole batch. SWEEP is a batch of one.

   Correctness (DESIGN.md §10): by multilinearity of the bag join,

     V(R + D) − V(R) = Σ_i (R+D)_0 ⋈ … ⋈ (R+D)_{i−1} ⋈ D_i ⋈ R_{i+1} ⋈ …

   — term i sees the *new* state of every source left of i and the *old*
   state of every source right of i. Leg i's sweep answers reflect the
   source's live state, which (FIFO channels; every batch delta was
   applied at its source before its notice reached us) is

     R_j + D_j + L_j

   where L_j sums the interfering updates from j still queued behind the
   batch. SWEEP's local error correction subtracts L_j always, and
   additionally D_j when j > i (a right-leg source must contribute its
   old state). The single installed delta is therefore exactly the
   next-|batch| database transition: completely consistent. *)

module type POLICY = sig
  val name : string
  val batch_max : int
  val compensate : bool

  (* Whether sweep legs may be answered from the aux store (DESIGN.md
     §14). Requires the policy to install each batch before the next
     starts: the aux projections advance at install time, and a policy
     that buffers finished-but-uninstalled batches (sweep-global) would
     leave their deltas visible to neither the aux store nor the
     interference-compensation queue scan. *)
  val local_answers : bool

  type extra

  val create_extra : Algorithm.ctx -> extra

  val install :
    Algorithm.ctx -> extra -> Delta.t -> Update_queue.entry list -> unit

  val extra_idle : extra -> bool
  val extra_snapshot : extra -> Snap.t
  val extra_restore : Algorithm.ctx -> Snap.t -> extra
end

module Immediate = struct
  type extra = unit

  let create_extra _ = ()
  let install ctx () delta entries = ctx.Algorithm.install delta ~txns:entries
  let extra_idle () = true
  let extra_snapshot () = Snap.Unit
  let extra_restore _ _ = ()
end

type batch = {
  entries : Update_queue.entry list;  (* delivery order *)
  (* per-source combined deltas for the whole batch, ascending source —
     kept in full (including net-empty sources) because right-leg
     compensation needs D_j for every j *)
  combined : (int * Delta.t) list;
  mutable acc : Delta.t option;  (* Σ finished legs' view deltas *)
  mutable src : int;  (* the running leg's source *)
  mutable leg : Sweep_leg.t;
  span : Tracer.id;
}

(* A batch of one reuses the entry's delta: nothing mutates [combined]. *)
let combined_deltas = function
  | [ (e : Update_queue.entry) ] ->
      [ (e.update.Message.txn.source, e.update.Message.delta) ]
  | entries ->
      List.map (fun (e : Update_queue.entry) -> e.update.Message.txn.source)
        entries
      |> List.sort_uniq Int.compare
      |> List.map (fun i -> (i, Sweep_leg.overlay entries i))

(* The next leg to run after source [after]: legs go in ascending source
   order and skip net-empty sources. *)
let next_leg combined ~after =
  List.find_opt (fun (i, d) -> i > after && not (Delta.is_empty d)) combined

(* An update from source [i] sweeps every other source, so it is eligible
   only while all of them have closed breakers — or can be answered
   locally ([local], DESIGN.md §14): a leg that never leaves the
   warehouse does not care about breakers. *)
let sweep_eligible ~local (ctx : Algorithm.ctx) (e : Update_queue.entry) =
  let i = e.update.Message.txn.source in
  let n = View_def.n_sources ctx.view in
  List.for_all (fun j -> ctx.source_ok j || local j) (Sweep_order.order ~n ~i)

(* Count queued entries currently parked behind open breakers; each is
   counted in [stalled_updates] once (monotone arrival mark). Returns
   (parked now, new mark). With every breaker closed every entry is
   eligible, so the answer is known without walking the queue. *)
let note_parked ~local (ctx : Algorithm.ctx) ~stall_mark ~event =
  let rec all_ok j = j < 0 || (ctx.source_ok j && all_ok (j - 1)) in
  if all_ok (View_def.n_sources ctx.view - 1) then (0, stall_mark)
  else begin
    let parked = ref 0 in
    let mark = ref stall_mark in
    List.iter
      (fun (e : Update_queue.entry) ->
        if not (sweep_eligible ~local ctx e) then begin
          incr parked;
          if e.arrival > !mark then begin
            mark := e.arrival;
            ctx.metrics.Metrics.stalled_updates <-
              ctx.metrics.Metrics.stalled_updates + 1;
            if Obs.active ctx.obs then
              Obs.event ctx.obs event
                [ ("txn",
                   Tracer.S
                     (Format.asprintf "%a" Message.pp_txn_id
                        e.update.Message.txn)) ]
          end
        end)
      (Update_queue.entries ctx.queue);
    (!parked, !mark)
  end

module Make (P : POLICY) = struct
  type t = {
    ctx : Algorithm.ctx;
    extra : P.extra;
    mutable batch : batch option;
    mutable aborted : int list;
        (* qids of legs aborted by a breaker trip: late answers dropped *)
    mutable stall_mark : int;
        (* highest arrival number already counted in [stalled_updates] *)
  }

  let name = P.name
  let park_event = name ^ ".park"

  let create ctx =
    if P.batch_max < 1 then
      invalid_arg "Sweep_batched: batch_max must be >= 1";
    { ctx; extra = P.create_extra ctx; batch = None; aborted = [];
      stall_mark = -1 }

  (* Legs answerable from the aux store need no remote round trip and no
     compensation: the projections advance at install time, so they
     equal exactly what a compensated remote answer reflects. *)
  let local t j = P.local_answers && Aux_store.answers t.ctx.Algorithm.aux j

  (* What hop [j] of the leg for source [b.src] must reflect beyond the
     installed state the aux projection holds: a left-leg source
     (j < src) contributes its new state R_j + D_j — overlay the batch's
     combined delta; a right-leg source (j > src) its old state R_j — no
     overlay. (The remote path reaches the same states by subtracting
     L_j, and additionally D_j when j > src, from the live answer.) *)
  let overlay b j =
    match List.assoc_opt j b.combined with
    | Some d when j < b.src -> d
    | _ -> Delta.empty ()

  let start_leg t ~span (src, delta) =
    let n = View_def.n_sources t.ctx.view in
    Sweep_leg.create t.ctx ~span
      (Partial.of_source_delta t.ctx.view src delta)
      ~pending:(Sweep_order.order ~n ~i:src)

  let rec advance t b =
    let hop =
      if P.local_answers then
        Sweep_leg.aux_hop t.ctx ~name ~overlay:(overlay b)
      else None
    in
    if Sweep_leg.step t.ctx ?hop b.leg then begin
      let view_delta = Algebra.select_project t.ctx.view b.leg.dv in
      (match b.acc with
      | None -> b.acc <- Some view_delta
      | Some acc -> Bag.merge_into ~into:acc view_delta);
      match next_leg b.combined ~after:b.src with
      | Some ((src, _) as next) ->
          b.src <- src;
          b.leg <- start_leg t ~span:b.span next;
          advance t b
      | None -> install t b.entries b.acc b.span
    end

  and install t entries acc span =
    let delta = match acc with Some d -> d | None -> Delta.empty () in
    if Algorithm.tracing t.ctx then
      Algorithm.trace t.ctx "%s: ViewChange(%a) yields %a" name
        Algorithm.pp_txns entries Delta.pp delta;
    t.batch <- None;
    P.install t.ctx t.extra delta entries;
    Obs.finish t.ctx.obs span;
    start_next t

  (* The UpdateView process of Fig. 4: drain up to [batch_max] queued
     updates and sweep them — only breaker-eligible ones while degraded
     (parked entries stay in the queue, visible to the L_j interference
     term; at the stall cap the engine falls back to blocking on the
     dead source). *)
  and start_next t =
    match t.batch with
    | Some _ -> ()
    | None -> (
        let parked, mark =
          note_parked ~local:(local t) t.ctx ~stall_mark:t.stall_mark
            ~event:park_event
        in
        t.stall_mark <- mark;
        let drained =
          if parked = 0 || parked >= t.ctx.Algorithm.stall_cap then
            Update_queue.take t.ctx.queue ~max:P.batch_max
          else
            Update_queue.take_eligible t.ctx.queue ~max:P.batch_max
              ~eligible:(sweep_eligible ~local:(local t) t.ctx)
        in
        match drained with
        | [] -> ()
        | entries -> (
            let size = List.length entries in
            Metrics.note_batch t.ctx.metrics size;
            Obs.observe t.ctx.obs "batch_size" (float_of_int size);
            let span = Algorithm.txn_span t.ctx name entries in
            let combined = combined_deltas entries in
            match next_leg combined ~after:(-1) with
            | None -> install t entries None span
            | Some ((src, _) as first) ->
                let b =
                  { entries; combined; acc = None; src;
                    leg = start_leg t ~span first; span }
                in
                t.batch <- Some b;
                advance t b))

  let on_update t (_ : Update_queue.entry) = start_next t

  (* On-line error correction against the combined deltas (§4): the
     answer from [j] reflects R_j + D_j + L_j. A left-leg source
     (j < src) must contribute its new state R_j + D_j — subtract L_j; a
     right-leg source (j > src) its old state R_j — subtract D_j + L_j,
     D_j as its own term of the error. L_j is, by the FIFO argument of
     §4, exactly the queued updates from j. *)
  let right_leg_delta b j =
    match List.assoc_opt j b.combined with
    | Some d when j > b.src && not (Delta.is_empty d) -> [ d ]
    | _ -> []

  let on_answer t msg =
    match (msg, t.batch) with
    | Message.Answer { qid; source; _ }, _ when List.mem qid t.aborted ->
        (* late answer for a breaker-aborted leg (the stale query doubled
           as the recovery probe); the batch was pushed back and re-runs
           with fresh qids *)
        t.aborted <- List.filter (fun q -> q <> qid) t.aborted;
        if Algorithm.tracing t.ctx then
          Algorithm.trace t.ctx "%s: dropped answer for aborted qid=%d from %d"
            name qid source;
        start_next t
    | Message.Answer { qid; source = j; partial }, Some b
      when Sweep_leg.awaits b.leg ~qid ~source:j ->
        (if P.compensate then
           Sweep_leg.answer t.ctx b.leg ~source:j
             ~interfering:(Sweep_leg.queued t.ctx j)
             ~extras:(right_leg_delta b j) partial
         else Sweep_leg.answer t.ctx b.leg ~source:j partial);
        advance t b
    | Message.Answer { qid; source; _ }, _ ->
        invalid_arg
          (Printf.sprintf "%s: unexpected answer qid=%d from %d" name qid
             source)
    | (Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _), _
      ->
        invalid_arg (name ^ ": unexpected message kind")

  (* Does any not-yet-finished work of batch [b] query source [j]? Every
     leg for a source ≠ [j] sweeps [j]; the [j]-leg itself does not —
     and no leg does when [j] is locally answerable. *)
  let batch_needs t b j =
    b.leg.outstanding = j
    || (not (local t j))
       && (List.mem j b.leg.pending
          || List.exists
               (fun (i, d) -> i > b.src && i <> j && not (Delta.is_empty d))
               b.combined)

  (* Source [j]'s breaker opened. If the batch still has a leg through
     [j], abort the whole batch: discard the accumulated view delta,
     return every batch entry to the head of the queue (delivery order,
     arrival numbers intact) and remember the in-flight qid so its late
     answer is dropped. Nothing was installed, so the re-run (as one or
     more smaller eligible batches) recomputes from scratch. *)
  let on_source_down t j =
    (match t.batch with
    | Some b when batch_needs t b j ->
        if b.leg.outstanding >= 0 then t.aborted <- b.leg.qid :: t.aborted;
        List.iter
          (fun e -> Update_queue.push_front t.ctx.queue e)
          (List.rev b.entries);
        t.batch <- None;
        if Algorithm.tracing t.ctx then
          Algorithm.trace t.ctx "%s: abort ViewChange(%a) — source %d tripped"
            name Algorithm.pp_txns b.entries j;
        if Obs.active t.ctx.obs then
          Obs.event t.ctx.obs ~span:b.span (name ^ ".abort")
            [ ("source", Tracer.I j); ("qid", Tracer.I b.leg.qid) ];
        Obs.finish t.ctx.obs b.leg.query;
        Obs.finish t.ctx.obs b.span
    | _ -> ());
    (* other queued updates may still be eligible *)
    start_next t

  (* Source [j] healed: parked entries are eligible again; replay them
     (oldest first) through the normal path. *)
  let on_source_up t _j = start_next t

  let idle t =
    t.batch = None
    && Update_queue.is_empty t.ctx.queue
    && P.extra_idle t.extra

  let snap_of_batch
      { entries;
        (* derived: a function of [entries]; restore recomputes it *)
        combined = _; acc; src; leg;
        (* volatile span id: [Tracer.none] after restore *)
        span = _ } =
    Snap.List
      [ Snap.List (List.map Algorithm.snap_of_entry entries);
        Snap.option (fun d -> Snap.Delta (Delta.copy d)) acc;
        Snap.Int src; Sweep_leg.snapshot leg ]

  let batch_of_snap s =
    match Snap.to_list s with
    | [ entries; acc; src; leg ] ->
        let entries = List.map Algorithm.entry_of_snap (Snap.to_list entries) in
        { entries; combined = combined_deltas entries;
          acc = Snap.to_option Snap.to_delta acc; src = Snap.to_int src;
          leg = Sweep_leg.restore leg; span = Tracer.none }
    | _ -> invalid_arg (name ^ ": malformed batch snapshot")

  let snapshot { ctx = _; extra; batch; aborted; stall_mark } =
    Snap.List
      [ Snap.option snap_of_batch batch; P.extra_snapshot extra;
        Snap.ints aborted; Snap.Int stall_mark ]

  let restore ctx s =
    match Snap.to_list s with
    | [ batch; extra; aborted; stall_mark ] ->
        { ctx; extra = P.extra_restore ctx extra;
          batch = Snap.to_option batch_of_snap batch;
          aborted = Snap.to_ints aborted; stall_mark = Snap.to_int stall_mark }
    | _ -> invalid_arg (name ^ ": malformed snapshot")
end

let with_batch_max k : (module Algorithm.S) =
  (module Make (struct
    let name =
      if k = 16 then "sweep-batched" else Printf.sprintf "sweep-batched(k=%d)" k

    let batch_max = k
    let compensate = true
    let local_answers = true

    include Immediate
  end))

include (val with_batch_max 16)
