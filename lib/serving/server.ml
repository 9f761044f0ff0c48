open Repro_relational
open Repro_sim
open Repro_observability

type config = {
  staleness_slo : float;
  staleness_ceiling : float;
  read_cap : int;
  service_mean : float;
}

let default_config =
  { staleness_slo = 2.0; staleness_ceiling = 16.0; read_cap = 16;
    service_mean = 0.05 }

type outcome = Fresh | Stale of float | Shed

type shed_reason = Cap | Ceiling

type record = {
  session : int;
  issued_at : float;
  outcome : outcome;
  staleness : float;
  answer : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  obs : Obs.t;
  cfg : config;
  view : unit -> Bag.t;
  n_sources : int;
  bp : Backpressure.t;
  (* Staleness bookkeeping: FIFO of acknowledged-but-unincorporated
     updates keyed by (source, txn), pruned lazily against [installed]
     so both feeds stay O(1) amortized. *)
  pending : ((int * int) * float) Queue.t;
  installed : (int * int, unit) Hashtbl.t;
  high_water : int array;
      (* per source, the highest txn seq acknowledged so far (-1 before
         the first): a source's updates arrive in seq order (FIFO
         links), so a seq at or below it is a re-acknowledgement *)
  acked : int array;  (* per-source deliveries acknowledged *)
  incorporated : int array;  (* per-source updates reflected in the view *)
  mutable version : int;  (* installs observed *)
  record_history : bool;  (* keep [log] and [session_log] *)
  mutable fresh : int;
  mutable stale : int;
  mutable shed_cap : int;
  mutable shed_ceiling : int;
  mutable log : record list;  (* reverse serve order *)
  mutable session_log : Repro_consistency.Checker.read_view list;
      (* reverse serve order; served reads only *)
  h_staleness : Histogram.t;
}

let create ?(config = default_config) ?(record_history = true) ~engine ~rng
    ~obs ~n_sources ~view () =
  if config.read_cap < 1 then invalid_arg "Server.create: read_cap < 1";
  if config.staleness_slo < 0. then
    invalid_arg "Server.create: staleness_slo < 0";
  if config.staleness_ceiling < config.staleness_slo then
    invalid_arg "Server.create: ceiling < slo";
  { engine; rng; obs; cfg = config; view; n_sources;
    bp = Backpressure.create ~n_sources:1 ~capacity:config.read_cap;
    pending = Queue.create (); installed = Hashtbl.create 64;
    high_water = Array.make n_sources (-1);
    acked = Array.make n_sources 0; incorporated = Array.make n_sources 0;
    version = 0; record_history; fresh = 0; stale = 0; shed_cap = 0;
    shed_ceiling = 0;
    log = []; session_log = [];
    h_staleness = Histogram.create () }

let note_delivery t ~source ~txn =
  if source < 0 || source >= t.n_sources then
    invalid_arg "Server.note_delivery: source out of range";
  (* A txn re-acknowledged after a crash window must not enter the
     pending FIFO twice — its single install would only cancel one
     entry, pinning staleness forever. *)
  if txn > t.high_water.(source) then begin
    t.high_water.(source) <- txn;
    Queue.push ((source, txn), Engine.now t.engine) t.pending;
    t.acked.(source) <- t.acked.(source) + 1
  end

let note_install t entries =
  t.version <- t.version + 1;
  List.iter
    (fun (source, txn) ->
      Hashtbl.replace t.installed (source, txn) ();
      if source >= 0 && source < t.n_sources then
        t.incorporated.(source) <- t.incorporated.(source) + 1)
    entries

(* Drop the pending prefix already reflected in the view. *)
let rec prune t =
  match Queue.peek_opt t.pending with
  | Some (key, _) when Hashtbl.mem t.installed key ->
      ignore (Queue.pop t.pending);
      Hashtbl.remove t.installed key;
      prune t
  | _ -> ()

(* Staleness = age of the oldest acknowledged-but-unincorporated source
   update; 0 when the view is fully caught up. *)
let staleness t =
  prune t;
  match Queue.peek_opt t.pending with
  | None -> 0.
  | Some (_, arrived) -> Engine.now t.engine -. arrived

(* Both reads are O(1): the view bag keeps its own total. *)
let answer t kind =
  let bag = t.view () in
  match (kind : Read_gen.kind) with
  | Point tup -> Bag.count bag tup
  | Aggregate -> Bag.total bag

let record t r = t.log <- r :: t.log

let read t ~session ~kind =
  let issued_at = Engine.now t.engine in
  let st = staleness t in
  (* guarded, as every hot-path emission is: the attribute list is
     built before [Obs.span] can see the handle is disabled *)
  let span =
    if Obs.active t.obs then
      Obs.span t.obs "read"
        [ ("session", Tracer.I session); ("staleness", Tracer.F st) ]
    else Tracer.none
  in
  let shed reason =
    (match reason with
    | Ceiling -> t.shed_ceiling <- t.shed_ceiling + 1
    | Cap -> t.shed_cap <- t.shed_cap + 1);
    if Obs.active t.obs then
      Obs.event t.obs ~span "read.shed"
        [ ("reason",
           Tracer.S (match reason with Ceiling -> "ceiling" | Cap -> "cap")) ];
    Obs.finish t.obs span;
    if t.record_history then
      record t
        { session; issued_at; outcome = Shed; staleness = st; answer = 0 };
    Shed
  in
  if st > t.cfg.staleness_ceiling then shed Ceiling
  else begin
    let admitted = ref false in
    (* [submit ~noop:true] is try-acquire: runs now taking a token, or
       sheds — serving source 0 only, so its wait queue is always empty. *)
    Backpressure.submit t.bp ~source:0 ~noop:true (fun () -> admitted := true);
    if not !admitted then shed Cap
    else begin
      let ans = answer t kind in
      let outcome = if st <= t.cfg.staleness_slo then Fresh else Stale st in
      (match outcome with
      | Fresh -> t.fresh <- t.fresh + 1
      | Stale _ -> t.stale <- t.stale + 1
      | Shed -> ());
      Histogram.record t.h_staleness st;
      if t.record_history then begin
        record t { session; issued_at; outcome; staleness = st; answer = ans };
        t.session_log <-
          { Repro_consistency.Checker.session; issued_at; version = t.version;
            incorporated = Array.copy t.incorporated;
            acked = Array.copy t.acked }
          :: t.session_log
      end;
      (* The token is held for a seeded service interval — this is what
         makes the cap bite under a flash crowd. *)
      Engine.schedule t.engine
        ~delay:(Rng.exponential t.rng ~mean:t.cfg.service_mean)
        (fun () ->
          Obs.finish t.obs span;
          Backpressure.release t.bp 1);
      outcome
    end
  end

let served t = t.fresh + t.stale
let fresh t = t.fresh
let stale t = t.stale
let shed t = t.shed_cap + t.shed_ceiling
let shed_cap t = t.shed_cap
let shed_ceiling t = t.shed_ceiling
let staleness_p50 t = Histogram.p50 t.h_staleness
let staleness_p99 t = Histogram.p99 t.h_staleness

let log t = List.rev t.log
let read_log t = List.rev t.session_log
