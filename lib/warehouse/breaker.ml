open Repro_sim
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer
module Snap = Repro_durability.Snap

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  k : int;
  probe_after : float;
  probe_backoff : float;
  max_probe_after : float;
  probe_jitter : float;
  probe_limit : int;
}

let default_config =
  { k = 3; probe_after = 32.0; probe_backoff = 2.0; max_probe_after = 256.0;
    probe_jitter = 0.1; probe_limit = 0 }

type source = {
  mutable state : state;
  mutable failures : int;  (* consecutive timeouts while Closed *)
  mutable probes : int;  (* probes issued since this breaker opened *)
  mutable cur_delay : float;  (* next open → half-open delay *)
  mutable abandoned : bool;  (* probe budget exhausted: open for good *)
  mutable probe_epoch : int;  (* stamps pending probe timers *)
}

type decision = Retry | Tripped

type t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  obs : Obs.t;
  metrics : Metrics.t;
  sources : source array;
  mutable not_closed : int;
  mutable degraded_since : float;  (* < 0. ⇒ not currently degraded *)
  mutable on_open : int -> unit;
  mutable on_probe : int -> unit;
  mutable on_close : int -> unit;
}

let fresh_source () =
  { state = Closed; failures = 0; probes = 0; cur_delay = 0.;
    abandoned = false; probe_epoch = 0 }

let create ?(config = default_config) ?(obs = Obs.disabled ()) engine ~rng
    ~metrics ~n =
  if config.k < 1 then invalid_arg "Breaker.create: k < 1";
  if config.probe_after <= 0. || config.probe_backoff < 1.
     || config.max_probe_after < config.probe_after
  then invalid_arg "Breaker.create: bad probe schedule";
  if config.probe_jitter < 0. then invalid_arg "Breaker.create: jitter < 0";
  if config.probe_limit < 0 then invalid_arg "Breaker.create: probe_limit < 0";
  if n < 1 then invalid_arg "Breaker.create: n < 1";
  { engine; rng; config; obs; metrics;
    sources = Array.init n (fun _ -> fresh_source ());
    not_closed = 0; degraded_since = -1.;
    on_open = (fun _ -> ()); on_probe = (fun _ -> ());
    on_close = (fun _ -> ()) }

let set_on_open t f = t.on_open <- f
let set_on_probe t f = t.on_probe <- f
let set_on_close t f = t.on_close <- f

let n_sources t = Array.length t.sources
let state t i = t.sources.(i).state
let source_ok t i = t.sources.(i).state = Closed
let degraded t = t.not_closed > 0
let abandoned t i = t.sources.(i).abandoned

(* degraded_time accounting: one interval per contiguous stretch with at
   least one non-Closed source. *)
let begin_degraded t =
  if t.degraded_since < 0. then t.degraded_since <- Engine.now t.engine

let end_degraded t =
  if t.degraded_since >= 0. then begin
    t.metrics.Metrics.degraded_time <-
      t.metrics.Metrics.degraded_time
      +. (Engine.now t.engine -. t.degraded_since);
    t.degraded_since <- -1.
  end

(* Close out a still-open degraded interval (end of run / crash halt)
   without changing breaker state. *)
let flush t = if t.not_closed > 0 then begin end_degraded t; begin_degraded t end

let transition t i next =
  let s = t.sources.(i) in
  let prev = s.state in
  if prev <> next then begin
    if prev = Closed then begin
      t.not_closed <- t.not_closed + 1;
      if t.not_closed = 1 then begin_degraded t
    end;
    if next = Closed then begin
      t.not_closed <- t.not_closed - 1;
      if t.not_closed = 0 then end_degraded t
    end;
    s.state <- next;
    if Obs.active t.obs then
      Obs.event t.obs "breaker.transition"
        [ ("source", Tracer.I i); ("from", Tracer.S (state_name prev));
          ("to", Tracer.S (state_name next)) ]
  end

let rec schedule_probe t i =
  let s = t.sources.(i) in
  s.probe_epoch <- s.probe_epoch + 1;
  let epoch = s.probe_epoch in
  let delay =
    s.cur_delay *. (1. +. (t.config.probe_jitter *. Rng.float t.rng))
  in
  Engine.schedule t.engine ~delay (fun () ->
      if epoch = s.probe_epoch && s.state = Open && not s.abandoned then
        if t.config.probe_limit > 0 && s.probes >= t.config.probe_limit then begin
          (* probe budget spent: this source is written off; the run can
             drain with the breaker permanently open (Degraded verdict) *)
          s.abandoned <- true;
          if Obs.active t.obs then
            Obs.event t.obs "breaker.abandon"
              [ ("source", Tracer.I i); ("probes", Tracer.I s.probes) ]
        end
        else begin
          s.probes <- s.probes + 1;
          transition t i Half_open;
          if Obs.active t.obs then
            Obs.event t.obs "breaker.probe"
              [ ("source", Tracer.I i); ("attempt", Tracer.I s.probes) ];
          t.on_probe i
        end)

and trip t i =
  let s = t.sources.(i) in
  s.failures <- 0;
  t.metrics.Metrics.breaker_trips <- t.metrics.Metrics.breaker_trips + 1;
  transition t i Open;
  s.cur_delay <-
    (if s.cur_delay <= 0. then t.config.probe_after
     else
       Float.min (s.cur_delay *. t.config.probe_backoff)
         t.config.max_probe_after);
  schedule_probe t i;
  t.on_open i

(* A query deadline expired on the link to source [i]. Below [k]
   consecutive expiries the caller should resume the sender immediately
   (bounded retry); at [k] the breaker opens. A Half_open expiry is a
   failed probe: re-open with backoff. *)
let record_timeout t i =
  let s = t.sources.(i) in
  t.metrics.Metrics.query_timeouts <- t.metrics.Metrics.query_timeouts + 1;
  match s.state with
  | Closed ->
      s.failures <- s.failures + 1;
      if s.failures >= t.config.k then begin trip t i; Tripped end
      else Retry
  | Half_open -> trip t i; Tripped
  | Open ->
      (* a late expiry from an orphaned sender epoch; the breaker is
         already open *)
      Tripped

(* Evidence source [i] is answering (an answer or snapshot arrived).
   Closes a Half_open (successful probe) — or an Open breaker outright,
   when a late answer from before the trip proves the source lives. *)
let record_success t i =
  let s = t.sources.(i) in
  s.failures <- 0;
  match s.state with
  | Closed -> ()
  | Half_open | Open ->
      s.probes <- 0;
      s.cur_delay <- 0.;
      s.abandoned <- false;
      s.probe_epoch <- s.probe_epoch + 1;
      transition t i Closed;
      t.on_close i

(* Force an immediate open (used by tests). *)
let force_open t i = if t.sources.(i).state = Closed then trip t i

(* ————— crash-recovery hooks ————— *)

(* The owning warehouse crashed: orphan probe timers and close the
   degraded interval (the restored incarnation re-opens it). Breaker
   state itself is checkpointed/restored like any other warehouse
   state. *)
let halt t =
  Array.iter (fun s -> s.probe_epoch <- s.probe_epoch + 1) t.sources;
  if t.degraded_since >= 0. then end_degraded t

(* Genesis recovery (no checkpoint): everything back to Closed. *)
let reset t =
  if t.degraded_since >= 0. then end_degraded t;
  t.not_closed <- 0;
  Array.iter
    (fun s ->
      s.state <- Closed;
      s.failures <- 0;
      s.probes <- 0;
      s.cur_delay <- 0.;
      s.abandoned <- false;
      s.probe_epoch <- s.probe_epoch + 1)
    t.sources

let snapshot
    { sources; engine = _; rng = _; config = _; obs = _; metrics = _;
      (* derived: restore recounts and re-opens them from the sources *)
      not_closed = _; degraded_since = _;
      (* volatile: harness callbacks, rewired after create/restore *)
      on_open = _; on_probe = _; on_close = _ } =
  Snap.List
    (Array.to_list sources
    |> List.map
         (fun
           { state; failures; probes; cur_delay; abandoned;
             (* volatile: restore orphans the old timers and schedules
                fresh probes *)
             probe_epoch = _ }
         ->
           Snap.List
             [ Snap.Int
                 (match state with Closed -> 0 | Open -> 1 | Half_open -> 2);
               Snap.Int failures; Snap.Int probes; Snap.Float cur_delay;
               Snap.Bool abandoned ]))

(* In place: the node and the harness hold [t]. Each source is written
   back whole, as a fresh record; [halt] already orphaned the old one's
   probe timers. *)
let restore
    ({ sources; config; engine = _; rng = _; obs = _; metrics = _;
       (* derived: rewound here and rebuilt from the restored sources *)
       not_closed = _; degraded_since = _;
       (* volatile: harness callbacks, rewired after create/restore *)
       on_open = _; on_probe = _; on_close = _ } as t) snap =
  let snaps =
    match snap with
    | Snap.List l -> l
    | _ -> invalid_arg "Breaker.restore: malformed snapshot"
  in
  if List.length snaps <> Array.length sources then
    invalid_arg "Breaker.restore: source count mismatch";
  (* rewind accounting, then replay transitions from the snapshot *)
  if t.degraded_since >= 0. then end_degraded t;
  t.not_closed <- 0;
  List.iteri
    (fun i snap_s ->
      match Snap.to_list snap_s with
      | [ st; failures; probes; cur_delay; abandoned ] ->
          let state =
            match Snap.to_int st with
            | 0 -> Closed
            (* a checkpointed Half_open probe was answered (or not) by
               the old incarnation; the new one re-probes from Open *)
            | 1 | 2 -> Open
            | _ -> invalid_arg "Breaker.restore: bad state"
          in
          let abandoned = Snap.to_bool abandoned in
          let cur_delay = Snap.to_float cur_delay in
          sources.(i) <-
            { state; failures = Snap.to_int failures;
              probes = Snap.to_int probes;
              cur_delay =
                (if state = Open && (not abandoned) && cur_delay <= 0. then
                   config.probe_after
                 else cur_delay);
              abandoned; probe_epoch = 0 };
          if state <> Closed then begin
            t.not_closed <- t.not_closed + 1;
            if t.not_closed = 1 then begin_degraded t;
            if not abandoned then schedule_probe t i
          end
      | _ -> invalid_arg "Breaker.restore: malformed source")
    snaps
