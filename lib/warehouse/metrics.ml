type t = {
  mutable updates_received : int;
  mutable updates_incorporated : int;
  mutable queries_sent : int;
  mutable answers_received : int;
  mutable query_weight : int;
  mutable answer_weight : int;
  mutable notice_weight : int;
  mutable installs : int;
  mutable compensations : int;
  mutable recursions : int;
  mutable fallbacks : int;
  mutable max_depth : int;
  mutable max_queue : int;
  mutable negative_installs : int;
  mutable staleness_sum : float;
  mutable staleness_max : float;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable duplicates_suppressed : int;
  mutable recoveries : int;
  mutable frames_lost : int;
  mutable wh_crashes : int;
  mutable wal_records : int;
  mutable wal_bytes : int;
  mutable wal_live_bytes_max : int;
  mutable checkpoints : int;
  mutable checkpoint_bytes : int;
  mutable replayed_records : int;
  mutable recovery_seconds : float;
  mutable snapshots_fetched : int;
  mutable queue_deferred : int;
  mutable queue_shed : int;
  mutable batches : int;
  mutable max_batch : int;
  mutable query_timeouts : int;
  mutable breaker_trips : int;
  mutable stalled_updates : int;
  mutable degraded_time : float;
  mutable reads_served : int;
  mutable reads_stale : int;
  mutable reads_shed : int;
  mutable read_staleness_p50 : float;
  mutable read_staleness_p99 : float;
  mutable local_answers : int;
  mutable aux_bytes : int;
}

let create () =
  { updates_received = 0; updates_incorporated = 0; queries_sent = 0;
    answers_received = 0; query_weight = 0; answer_weight = 0;
    notice_weight = 0; installs = 0; compensations = 0; recursions = 0;
    fallbacks = 0; max_depth = 0; max_queue = 0; negative_installs = 0;
    staleness_sum = 0.; staleness_max = 0.; retransmissions = 0;
    timeouts = 0; duplicates_suppressed = 0; recoveries = 0; frames_lost = 0;
    wh_crashes = 0; wal_records = 0; wal_bytes = 0; wal_live_bytes_max = 0;
    checkpoints = 0;
    checkpoint_bytes = 0; replayed_records = 0; recovery_seconds = 0.;
    snapshots_fetched = 0; queue_deferred = 0; queue_shed = 0; batches = 0;
    max_batch = 0; query_timeouts = 0; breaker_trips = 0; stalled_updates = 0;
    degraded_time = 0.; reads_served = 0; reads_stale = 0; reads_shed = 0;
    read_staleness_p50 = 0.; read_staleness_p99 = 0.; local_answers = 0;
    aux_bytes = 0 }

let note_queue_length t len = if len > t.max_queue then t.max_queue <- len

let note_batch t size =
  t.batches <- t.batches + 1;
  if size > t.max_batch then t.max_batch <- size


let note_staleness t s =
  t.staleness_sum <- t.staleness_sum +. s;
  if s > t.staleness_max then t.staleness_max <- s

let mean_staleness t =
  if t.updates_incorporated = 0 then 0.
  else t.staleness_sum /. float_of_int t.updates_incorporated

let queries_per_update t =
  if t.updates_incorporated = 0 then 0.
  else float_of_int t.queries_sent /. float_of_int t.updates_incorporated

(* Total protocol messages (queries out + answers back) per incorporated
   txn — the quantity batching amortizes toward O(n/k). *)
let messages_per_update t =
  if t.updates_incorporated = 0 then 0.
  else
    float_of_int (t.queries_sent + t.answers_received)
    /. float_of_int t.updates_incorporated

(* Fraction of sweep legs answered from the aux store instead of a
   remote round trip (self-maintenance hit rate, DESIGN.md §14). *)
let aux_hit_rate t =
  let legs = t.local_answers + t.queries_sent in
  if legs = 0 then 0. else float_of_int t.local_answers /. float_of_int legs

(* Canonical flat export for a run's JSON export and the P1 page.
   Order is the declaration order above; derived means go last. *)
let fields t : (string * [ `Int of int | `Float of float ]) list =
  [ ("updates_received", `Int t.updates_received);
    ("updates_incorporated", `Int t.updates_incorporated);
    ("queries_sent", `Int t.queries_sent);
    ("answers_received", `Int t.answers_received);
    ("query_weight", `Int t.query_weight);
    ("answer_weight", `Int t.answer_weight);
    ("notice_weight", `Int t.notice_weight);
    ("installs", `Int t.installs);
    ("compensations", `Int t.compensations);
    ("recursions", `Int t.recursions);
    ("fallbacks", `Int t.fallbacks);
    ("max_depth", `Int t.max_depth);
    ("max_queue", `Int t.max_queue);
    ("negative_installs", `Int t.negative_installs);
    ("staleness_sum", `Float t.staleness_sum);
    ("staleness_max", `Float t.staleness_max);
    ("retransmissions", `Int t.retransmissions);
    ("timeouts", `Int t.timeouts);
    ("duplicates_suppressed", `Int t.duplicates_suppressed);
    ("recoveries", `Int t.recoveries);
    ("frames_lost", `Int t.frames_lost);
    ("wh_crashes", `Int t.wh_crashes);
    ("wal_records", `Int t.wal_records);
    ("wal_bytes", `Int t.wal_bytes);
    ("wal_live_bytes_max", `Int t.wal_live_bytes_max);
    ("checkpoints", `Int t.checkpoints);
    ("checkpoint_bytes", `Int t.checkpoint_bytes);
    ("replayed_records", `Int t.replayed_records);
    ("recovery_seconds", `Float t.recovery_seconds);
    ("snapshots_fetched", `Int t.snapshots_fetched);
    ("queue_deferred", `Int t.queue_deferred);
    ("queue_shed", `Int t.queue_shed);
    ("batches", `Int t.batches);
    ("max_batch", `Int t.max_batch);
    ("query_timeouts", `Int t.query_timeouts);
    ("breaker_trips", `Int t.breaker_trips);
    ("stalled_updates", `Int t.stalled_updates);
    ("degraded_time", `Float t.degraded_time);
    ("reads_served", `Int t.reads_served);
    ("reads_stale", `Int t.reads_stale);
    ("reads_shed", `Int t.reads_shed);
    ("read_staleness_p50", `Float t.read_staleness_p50);
    ("read_staleness_p99", `Float t.read_staleness_p99);
    ("local_answers", `Int t.local_answers);
    ("aux_bytes", `Int t.aux_bytes);
    ("mean_staleness", `Float (mean_staleness t));
    ("queries_per_update", `Float (queries_per_update t));
    ("messages_per_update", `Float (messages_per_update t));
    ("aux_hit_rate", `Float (aux_hit_rate t)) ]

let pp ppf t =
  Format.fprintf ppf
    "@[<v>updates: %d received, %d incorporated in %d installs@,\
     messages: %d queries (%d tuples), %d answers (%d tuples)@,\
     compensations: %d; recursions: %d (max depth %d, %d fallbacks)@,\
     max queue: %d; negative installs: %d@,\
     staleness: mean %.3f, max %.3f"
    t.updates_received t.updates_incorporated t.installs t.queries_sent
    t.query_weight t.answers_received t.answer_weight t.compensations
    t.recursions t.max_depth t.fallbacks t.max_queue t.negative_installs
    (mean_staleness t) t.staleness_max;
  if
    t.retransmissions > 0 || t.timeouts > 0 || t.duplicates_suppressed > 0
    || t.recoveries > 0 || t.frames_lost > 0
  then
    Format.fprintf ppf
      "@,transport: %d frames lost, %d timeouts, %d retransmissions, %d \
       dups suppressed, %d recoveries"
      t.frames_lost t.timeouts t.retransmissions t.duplicates_suppressed
      t.recoveries;
  if t.wal_records > 0 || t.wh_crashes > 0 then
    Format.fprintf ppf
      "@,durability: %d crashes, %d WAL records (%d B, at most %d B live), \
       %d checkpoints (%d B), %d replayed (%.3fs recovery)"
      t.wh_crashes t.wal_records t.wal_bytes t.wal_live_bytes_max
      t.checkpoints t.checkpoint_bytes t.replayed_records t.recovery_seconds;
  if t.queue_deferred > 0 || t.queue_shed > 0 then
    Format.fprintf ppf "@,backpressure: %d deferred, %d shed" t.queue_deferred
      t.queue_shed;
  if t.batches > 0 then
    Format.fprintf ppf
      "@,batching: %d batches (max size %d), %.2f messages/update" t.batches
      t.max_batch (messages_per_update t);
  if t.query_timeouts > 0 || t.breaker_trips > 0 || t.stalled_updates > 0 then
    Format.fprintf ppf
      "@,resilience: %d query timeouts, %d breaker trips, %d stalled \
       updates, %.3fs degraded"
      t.query_timeouts t.breaker_trips t.stalled_updates t.degraded_time;
  if t.reads_served > 0 || t.reads_shed > 0 then
    Format.fprintf ppf
      "@,serving: %d served (%d stale), %d shed; read staleness p50 %.3f, \
       p99 %.3f"
      t.reads_served t.reads_stale t.reads_shed t.read_staleness_p50
      t.read_staleness_p99;
  if t.local_answers > 0 || t.aux_bytes > 0 then
    Format.fprintf ppf
      "@,self-maint: %d local answers (%.0f%% of legs), aux store %d B"
      t.local_answers (100. *. aux_hit_rate t) t.aux_bytes;
  Format.fprintf ppf "@]"
