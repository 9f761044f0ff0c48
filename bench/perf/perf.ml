(* perf.exe — the wall-clock benchmark (README.md describes workloads,
   metrics and bounds).

   Whole suite, every workload, repeats round-robin across workloads:
     dune exec bench/perf/perf.exe -- --seed S [--repeats R] [--scale F]
       [--json-out FILE]
   One workload, timed for T seconds, printing one JSON result line:
     dune exec bench/perf/perf.exe -- --workload W --seed S --seconds T
       --trace 0|1

   Every timed repeat runs in a fresh child process ([--child W]), one
   at a time, so allocation and peak heap belong to that run alone. The
   program exits non-zero when any correctness check fails. *)

open Repro_relational
open Repro_harness
module Jsonw = Repro_observability.Jsonw
module Jsonr = Repro_observability.Jsonr
module Obs = Repro_observability.Obs
module Histogram = Repro_observability.Histogram
module Metrics = Repro_warehouse.Metrics
module Checker = Repro_consistency.Checker
module Codec = Repro_durability.Codec

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                     *)
(* ------------------------------------------------------------------ *)

(* [listed] metrics are the ones BENCHMARK.json names; the one-workload
   mode prints exactly those. The others are structurally zero on some
   workload and are printed by the suite only. *)
type spec = { name : string; unit_ : string; better : string; listed : bool }

let spec ?(listed = true) name unit_ better = { name; unit_; better; listed }

let end_to_end =
  [ spec "updates_per_s" "upd/s" "higher";
    spec "setup_s" "s" "lower";
    spec "alloc_words_per_update" "words" "lower";
    spec "peak_heap_mb" "MB" "lower";
    spec "messages_per_update" "msgs" "lower";
    spec "tuples_per_update" "tuples" "lower";
    spec "staleness_p50_sim" "sim" "lower";
    spec "staleness_p99_sim" "sim" "lower";
    spec ~listed:false "read_staleness_p99_sim" "sim" "lower";
    spec ~listed:false "error_rate" "ratio" "lower" ]

let layer_call_metrics prefix ~quantiles =
  [ spec (prefix ^ "_s") "s" "lower";
    spec (prefix ^ "_calls") "count" "lower";
    spec (prefix ^ "_words_per_update") "words" "lower" ]
  @
  if quantiles then
    [ spec (prefix ^ "_us_p50") "us" "lower";
      spec (prefix ^ "_us_p99") "us" "lower" ]
  else []

let per_layer =
  [ spec "workload.populate_s" "s" "lower";
    spec "relational.initial_eval_s" "s" "lower";
    spec "source.index_build_s" "s" "lower" ]
  @ layer_call_metrics "warehouse.deliver" ~quantiles:true
  @ layer_call_metrics "source.query" ~quantiles:true
  @ layer_call_metrics "source.apply" ~quantiles:false
  @ [ spec ~listed:false "serving.backpressure_s" "s" "lower";
      spec "serving.backpressure_calls" "count" "lower";
      spec "sim.engine_self_s" "s" "lower";
      spec "sim.events" "count" "lower";
      spec "workload.gen_s" "s" "lower";
      spec "ocaml_gc.minor_collections" "count" "lower";
      spec "ocaml_gc.major_collections" "count" "lower";
      spec "bench.trace_overhead" "ratio" "lower";
      spec "consistency.check_s" "s" "lower";
      spec "warehouse.max_queue" "count" "lower";
      spec "warehouse.compensations_per_update" "count" "lower";
      spec "warehouse.mean_batch" "updates" "higher";
      spec "protocol.answer_tuples_per_query" "tuples" "lower";
      spec "protocol.retransmissions" "count" "lower";
      spec "durability.wal_bytes_per_update" "bytes" "lower";
      spec "durability.checkpoint_bytes_per_update" "bytes" "lower";
      spec "durability.checkpoints" "count" "lower";
      spec "durability.replayed_records" "count" "lower";
      spec ~listed:false "durability.recovery_s" "s" "lower";
      spec "serving.reads_fresh" "count" "higher";
      spec "serving.reads_stale" "count" "lower";
      spec "serving.reads_shed" "count" "lower";
      spec "serving.read_staleness_p99_sim" "sim" "lower";
      spec "harness.faulty_residual_s" "s" "lower" ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted l = Array.of_list (List.sort Float.compare l)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of nothing"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles as Python's [statistics.quantiles(l, n=4)]
   computes them (the "exclusive" method). *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Child processes: one run each                                        *)
(* ------------------------------------------------------------------ *)

let digest bag = Digest.to_hex (Digest.string (Codec.encode Codec.put_bag bag))

(* Words allocated so far by this process. *)
let allocated () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let metrics_json m =
  Jsonw.obj
    (List.map
       (fun (k, v) ->
         (k, match v with `Int i -> Jsonw.Int i | `Float f -> Jsonw.Float f))
       (Metrics.fields m))

let zero_updates (s : Scenario.t) =
  { s with stream = { s.stream with n_updates = 0 } }

(* One timed repeat: the zero-update run (set-up), then the full run,
   both through [Experiment.run] with observability off. *)
let child_timed w sc =
  let alg = Workloads.algorithm w in
  let a0 = allocated () in
  let _, setup_s =
    Layers.time (fun () -> Experiment.run ~check:false (zero_updates sc) alg)
  in
  let a1 = allocated () in
  let r, run_s = Layers.time (fun () -> Experiment.run ~check:false sc alg) in
  let a2 = allocated () in
  let top = (Gc.quick_stat ()).top_heap_words in
  Jsonw.obj
    [ ("setup_s", Jsonw.Float setup_s); ("run_s", Jsonw.Float run_s);
      ("alloc_words", Jsonw.Float (a2 -. a1 -. (a1 -. a0)));
      ("top_heap_words", Jsonw.Int top); ("events", Jsonw.Int r.events);
      ("completed", Jsonw.Bool r.completed);
      ("degraded", Jsonw.Bool r.degraded);
      ("digest", Jsonw.String (digest r.final_view));
      ("metrics", metrics_json r.metrics) ]

(* Virtual-time staleness from one observability-enabled run, and the
   reference view's digest. Fine buckets keep the quantiles exact to
   0.02%, far inside any bound. *)
let child_obs w sc =
  let obs = Obs.create ~buckets_per_decade:10_000 () in
  let r = Experiment.run ~check:false ~obs sc (Workloads.algorithm w) in
  let h = Obs.histogram obs "staleness" in
  let _, reference = Rig.reference sc in
  Jsonw.obj
    [ ("staleness_p50", Jsonw.Float (Histogram.p50 h));
      ("staleness_p99", Jsonw.Float (Histogram.p99 h));
      ("staleness_samples", Jsonw.Int (Histogram.count h));
      ("digest", Jsonw.String (digest r.final_view));
      ("reference_digest", Jsonw.String (digest reference));
      ("metrics", metrics_json r.metrics) ]

let check_json (name, ok, detail) =
  Jsonw.obj
    [ ("name", Jsonw.String name); ("ok", Jsonw.Bool ok);
      ("detail", Jsonw.String detail) ]

(* The rig's correctness checks: against [Experiment.run] on the same
   fault-free scenario [plain], against [Algebra.eval] over its own final
   sources, and its final sources against [tables], the ones the
   replayed update stream gives. *)
let rig_checks w (rig : Rig.result) (plain : Scenario.t) ~tables =
  let exp = Experiment.run ~check:false plain (Workloads.algorithm w) in
  let rm = rig.metrics and em = exp.metrics in
  let same_view = Bag.equal rig.view exp.final_view in
  let same_counts =
    rm.queries_sent = em.queries_sent
    && rm.answers_received = em.answers_received
    && rig.events = exp.events
  in
  let view = Repro_workload.Chain.view ~n:plain.n_sources () in
  [ ( "rig matches Experiment.run (view, queries, answers, events)",
      same_view && same_counts,
      Printf.sprintf "views %s; queries %d/%d, answers %d/%d, events %d/%d"
        (if same_view then "bag-equal" else "DIFFER")
        rm.queries_sent em.queries_sent rm.answers_received
        em.answers_received rig.events exp.events );
    ( "rig view equals Algebra.eval over its final sources",
      Bag.equal rig.view
        (Relation.as_bag (Algebra.eval view (fun i -> rig.sources.(i)))),
      Printf.sprintf "%d view tuples" (Bag.total rig.view) );
    ( "rig final sources equal the replayed update stream",
      Array.for_all2 Relation.equal rig.sources tables,
      Printf.sprintf "%d sources" (Array.length tables) ) ]

(* The per-layer run: the traced rig (first, so its collections and
   heap are its own), its correctness checks, the standalone generator
   and the Table 1 check on a short prefix. Faults and reads do not
   touch the update stream, so [sc] and its fault-free copy share one
   reference. *)
let child_traced w sc ~prefix =
  let plain = Rig.no_faults sc in
  let rig = Rig.run plain (Workloads.algorithm w) in
  let tables, reference = Rig.reference sc in
  let reference = digest reference in
  let checks = rig_checks w rig plain ~tables in
  let updates = float_of_int (max 1 rig.metrics.updates_incorporated) in
  let layer_metrics (l : Layers.layer) =
    let prefix = if l.name = "sim.engine" then "sim.engine_self" else l.name in
    [ (prefix ^ "_s", Layers.self_s l);
      (prefix ^ "_calls", float_of_int l.calls);
      (prefix ^ "_words_per_update", l.self_words /. updates);
      (prefix ^ "_us_p50", Layers.quantile_us l 0.50);
      (prefix ^ "_us_p99", Layers.quantile_us l 0.99) ]
  in
  let gen_s = Rig.gen_seconds sc in
  let alg = Workloads.algorithm w in
  let _, plain_s = Layers.time (fun () -> Experiment.run ~check:false prefix alg) in
  let checked, checked_s =
    Layers.time (fun () -> Experiment.run ~check:true prefix alg)
  in
  let v = checked.verdict.verdict in
  let table1 =
    ( Printf.sprintf "Table 1: %s is at least %s on a %d-update prefix"
        w.Workloads.algorithm
        (Checker.verdict_to_string w.floor)
        prefix.stream.n_updates,
      checked.completed && Checker.compare_verdict v w.floor <= 0,
      Printf.sprintf "%s (%s)" (Checker.verdict_to_string v)
        checked.verdict.detail )
  in
  let values =
    rig.phases
    @ List.concat_map layer_metrics rig.layers
    @ [ ("sim.events", float_of_int rig.events);
        ("workload.gen_s", gen_s);
        ("ocaml_gc.minor_collections", float_of_int rig.minor_collections);
        ("ocaml_gc.major_collections", float_of_int rig.major_collections);
        ("consistency.check_s", checked_s -. plain_s) ]
  in
  Jsonw.obj
    [ ("layers", Jsonw.obj (List.map (fun (k, v) -> (k, Jsonw.Float v)) values));
      ("rig_maint_s", Jsonw.Float rig.maint_s);
      ("reference_digest", Jsonw.String reference);
      ("checks", Jsonw.List (List.map check_json (checks @ [ table1 ]))) ]

let run_child name ~seed ~scale ~mode =
  let w =
    match Workloads.find name with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ name)
  in
  let sc = Workloads.instance w ~seed ~scale in
  let doc =
    match mode with
    | "timed" -> child_timed w sc
    | "obs" -> child_obs w sc
    | "traced" ->
        child_traced w sc ~prefix:(Workloads.check_instance w ~seed ~scale)
    | m -> invalid_arg ("unknown child mode " ^ m)
  in
  print_endline (Jsonw.to_string doc)

(* ------------------------------------------------------------------ *)
(* Parent: spawning children and reading their results                  *)
(* ------------------------------------------------------------------ *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Run one child to completion and parse its result line; returns the
   result and the child's wall time. *)
let spawn (w : Workloads.t) ~seed ~scale ~mode =
  let argv =
    [| Sys.executable_name; "--child"; w.name; "--seed"; Int64.to_string seed;
       "--scale"; Printf.sprintf "%.17g" scale; "--mode"; mode |]
  in
  let t0 = Layers.now_ns () in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let wall = (Layers.now_ns () -. t0) /. 1e9 in
  match status with
  | Unix.WEXITED 0 -> (Jsonr.parse_exn (last_line out), wall)
  | Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c ->
      failwith (Printf.sprintf "perf: %s child for %s failed (%d)" mode w.name c)

let get k j =
  match Jsonw.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "perf: child result lacks %S" k)

let num k j =
  match get k j with
  | Jsonw.Int i -> float_of_int i
  | Jsonw.Float f -> f
  | _ -> failwith (Printf.sprintf "perf: %S is not a number" k)

let str k j =
  match get k j with
  | Jsonw.String s -> s
  | _ -> failwith (Printf.sprintf "perf: %S is not a string" k)

let flag k j =
  match get k j with
  | Jsonw.Bool b -> b
  | _ -> failwith (Printf.sprintf "perf: %S is not a boolean" k)

let metric k j = num k (get "metrics" j)

(* Everything one child reports that a seeded run must reproduce
   exactly: final view, allocation, events and every counter except the
   wall-clock [recovery_seconds]. *)
let fingerprint c =
  let counters =
    match get "metrics" c with
    | Jsonw.Obj fields ->
        List.filter (fun (k, _) -> k <> "recovery_seconds") fields
    | _ -> []
  in
  Jsonw.to_string
    (Jsonw.obj
       [ ("digest", get "digest" c); ("alloc_words", get "alloc_words" c);
         ("events", get "events" c); ("metrics", Jsonw.obj counters) ])

(* ------------------------------------------------------------------ *)
(* Assembling one workload's metrics and checks                         *)
(* ------------------------------------------------------------------ *)

type value = { v : float; spread : (float * float * int) option }

type outcome = {
  workload : Workloads.t;
  scenario : Scenario.t;
  e2e : (spec * value) list;
  layers : (spec * value) list;
  checks : (string * bool * string) list;
  attempted : int;
  failed : int;
}

let timed_value samples =
  let q1, q3 = quartiles samples in
  { v = median samples; spread = Some (q1, q3, List.length samples) }

let exact v = { v; spread = None }

let assemble (w : Workloads.t) (sc : Scenario.t) ~scale ~timed ~obs ~traced =
  let first = List.hd timed in
  let incorporated c = metric "updates_incorporated" c in
  let maint c = num "run_s" c -. num "setup_s" c in
  let per_update k c = metric k c /. Float.max 1. (incorporated c) in
  let n_updates = sc.stream.n_updates in
  let reads c = int_of_float (metric "reads_served" c +. metric "reads_shed" c) in
  let failed c =
    n_updates - int_of_float (incorporated c) + int_of_float (metric "reads_shed" c)
  in
  let staleness k = Option.map (fun o -> num k o) obs in
  let e2e =
    [ ("updates_per_s",
       timed_value (List.map (fun c -> incorporated c /. maint c) timed));
      ("setup_s", timed_value (List.map (num "setup_s") timed));
      ("alloc_words_per_update",
       exact (num "alloc_words" first /. Float.max 1. (incorporated first)));
      ("peak_heap_mb",
       timed_value
         (List.map (fun c -> num "top_heap_words" c *. 8. /. 1e6) timed));
      ("messages_per_update", exact (metric "messages_per_update" first));
      ("tuples_per_update",
       exact
         (per_update "query_weight" first
         +. per_update "answer_weight" first
         +. per_update "notice_weight" first));
      ("read_staleness_p99_sim", exact (metric "read_staleness_p99" first));
      ("error_rate",
       exact
         (float_of_int (failed first)
         /. float_of_int (max 1 (n_updates + reads first)))) ]
    @ (match (staleness "staleness_p50", staleness "staleness_p99") with
      | Some p50, Some p99 ->
          [ ("staleness_p50_sim", exact p50); ("staleness_p99_sim", exact p99) ]
      | _ -> [])
  in
  let maint_median = median (List.map maint timed) in
  let from_counters =
    [ ("warehouse.max_queue", metric "max_queue" first);
      ("warehouse.compensations_per_update", per_update "compensations" first);
      ("warehouse.mean_batch",
       incorporated first /. Float.max 1. (metric "installs" first));
      ("protocol.answer_tuples_per_query",
       metric "answer_weight" first
       /. Float.max 1. (metric "answers_received" first));
      ("protocol.retransmissions", metric "retransmissions" first);
      ("durability.wal_bytes_per_update", per_update "wal_bytes" first);
      ("durability.checkpoint_bytes_per_update",
       per_update "checkpoint_bytes" first);
      ("durability.checkpoints", metric "checkpoints" first);
      ("durability.replayed_records", metric "replayed_records" first);
      ("durability.recovery_s",
       median (List.map (metric "recovery_seconds") timed));
      ("serving.reads_fresh",
       metric "reads_served" first -. metric "reads_stale" first);
      ("serving.reads_stale", metric "reads_stale" first);
      ("serving.reads_shed", metric "reads_shed" first);
      ("serving.read_staleness_p99_sim", metric "read_staleness_p99" first) ]
  in
  let from_rig =
    match traced with
    | None -> []
    | Some t ->
        let rig_maint = num "rig_maint_s" t in
        let layers = get "layers" t in
        (match layers with
        | Jsonw.Obj l -> List.map (fun (k, _) -> (k, num k layers)) l
        | _ -> [])
        @ [ ("bench.trace_overhead", rig_maint /. maint_median);
            ("harness.faulty_residual_s", maint_median -. rig_maint) ]
  in
  let layer_values = from_rig @ from_counters in
  let pick specs values =
    List.filter_map
      (fun s -> Option.map (fun v -> (s, v)) (List.assoc_opt s.name values))
      specs
  in
  let reference =
    match (traced, obs) with
    | Some t, _ -> str "reference_digest" t
    | None, Some o -> str "reference_digest" o
    | None, None -> ""
  in
  let fp = fingerprint first in
  let checks =
    [ ( "every timed run's final view equals Algebra.eval over the final \
         sources",
        List.for_all (fun c -> str "digest" c = reference) timed,
        Printf.sprintf "%d runs" (List.length timed) );
      ( "deterministic metrics identical across repeats",
        List.for_all (fun c -> fingerprint c = fp) timed
        && Option.fold ~none:true
             ~some:(fun o ->
               str "digest" o = str "digest" first
               && metric "staleness_sum" o = metric "staleness_sum" first)
             obs,
        "view, allocation, events, counters, staleness" );
      ( "every run completed without degrading",
        List.for_all (fun c -> flag "completed" c && not (flag "degraded" c)) timed,
        Printf.sprintf "%d of %d updates incorporated"
          (int_of_float (incorporated first)) n_updates ) ]
    @ (match traced with
      | None -> []
      | Some t -> (
          match get "checks" t with
          | Jsonw.List l ->
              List.map (fun c -> (str "name" c, flag "ok" c, str "detail" c)) l
          | _ -> []))
    @ (if scale < 1. then []
       else
         let max_queue = int_of_float (metric "max_queue" first) in
         (match sc.queue_capacity with
         | Some cap ->
             [ ( "the queue saturates at queue_capacity",
                 max_queue <= cap && 10 * max_queue >= 9 * cap,
                 Printf.sprintf "max queue %d, capacity %d" max_queue cap ) ]
         | None ->
             [ ( "the queue stays bounded",
                 max_queue <= 64,
                 Printf.sprintf "max queue %d" max_queue ) ])
         @ (match obs with
           | None -> []
           | Some o ->
               let samples = int_of_float (num "staleness_samples" o) in
               let beyond =
                 samples
                 - int_of_float (Float.ceil (0.99 *. float_of_int samples))
               in
               [ ( "staleness p99 has at least 10 samples beyond it",
                   beyond >= 10,
                   Printf.sprintf "%d samples, %d beyond p99" samples beyond )
               ])
         @
         if sc.faults.wh_crashes = [] then []
         else
           [ ( "both warehouse crashes recovered",
               metric "wh_crashes" first
               = float_of_int (List.length sc.faults.wh_crashes),
               Printf.sprintf "%.0f crashes, %.0f records replayed"
                 (metric "wh_crashes" first)
                 (metric "replayed_records" first) ) ])
  in
  { workload = w; scenario = sc;
    e2e = pick end_to_end e2e;
    layers = pick per_layer (List.map (fun (k, v) -> (k, exact v)) layer_values);
    checks;
    attempted = List.fold_left (fun acc c -> acc + n_updates + reads c) 0 timed;
    failed = List.fold_left (fun acc c -> acc + failed c) 0 timed }

let correct o = List.for_all (fun (_, ok, _) -> ok) o.checks

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let describe (w : Workloads.t) (s : Scenario.t) =
  Printf.sprintf "%s, n=%d, %d tuples/source, domain %d, %d updates, gap %g%s%s"
    w.algorithm s.n_sources s.init_size s.domain s.stream.n_updates
    s.stream.mean_gap
    (match s.queue_capacity with
    | Some c -> Printf.sprintf ", queue capacity %d" c
    | None -> "")
    (if s.faults.wh_crashes = [] then ""
     else
       Printf.sprintf ", 1%% drop/duplicate, %d warehouse crashes, reads %g/unit SLO %g"
         (List.length s.faults.wh_crashes) s.read_rate s.staleness_slo)

let print_value (s, { v; spread }) =
  Printf.printf "  %-40s %14.6g %-7s%s\n" s.name v s.unit_
    (match spread with
    | Some (q1, q3, n) -> Printf.sprintf "  [q1 %.6g, q3 %.6g, n=%d]" q1 q3 n
    | None -> "")

let print_outcome o =
  Printf.printf "== %s (%s)\n" o.workload.name (describe o.workload o.scenario);
  List.iter print_value o.e2e;
  List.iter print_value o.layers;
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "  %s %s: %s\n" (if ok then "ok  " else "FAIL") name detail)
    o.checks

(* Counts render as JSON integers, measurements with all their digits. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Jsonw.Int (int_of_float v)
  else Jsonw.Float v

let value_json (s, { v; spread }) =
  ( s.name,
    Jsonw.obj
      ([ ("value", number v); ("unit", Jsonw.String s.unit_);
         ("better", Jsonw.String s.better) ]
      @
      match spread with
      | Some (q1, q3, n) ->
          [ ("q1", Jsonw.Float q1); ("q3", Jsonw.Float q3); ("n", Jsonw.Int n) ]
      | None -> []) )

let outcome_json o =
  Jsonw.obj
    [ ("name", Jsonw.String o.workload.name);
      ("algorithm", Jsonw.String o.workload.algorithm);
      ("scenario", Jsonw.String (describe o.workload o.scenario));
      ("correct", Jsonw.Bool (correct o));
      ("attempted", Jsonw.Int o.attempted); ("failed", Jsonw.Int o.failed);
      ("end_to_end", Jsonw.obj (List.map value_json o.e2e));
      ("per_layer", Jsonw.obj (List.map value_json o.layers));
      ("checks", Jsonw.List (List.map check_json o.checks)) ]

(* ------------------------------------------------------------------ *)
(* The two ways to run                                                  *)
(* ------------------------------------------------------------------ *)

(* Every workload: its observability and traced runs, then [repeats]
   rounds of one timed repeat per workload. *)
let suite ~seed ~repeats ~scale ~json_out =
  let fixed =
    List.map
      (fun w ->
        ( w,
          fst (spawn w ~seed ~scale ~mode:"obs"),
          fst (spawn w ~seed ~scale ~mode:"traced") ))
      Workloads.all
  in
  let rounds =
    List.init repeats (fun _ ->
        List.map (fun w -> fst (spawn w ~seed ~scale ~mode:"timed")) Workloads.all)
  in
  let outcomes =
    List.mapi
      (fun i (w, obs, traced) ->
        let timed = List.map (fun round -> List.nth round i) rounds in
        assemble w
          (Workloads.instance w ~seed ~scale)
          ~scale ~timed ~obs:(Some obs) ~traced:(Some traced))
      fixed
  in
  List.iter print_outcome outcomes;
  let ok = List.for_all correct outcomes in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Jsonw.to_channel ~indent:2 oc
        (Jsonw.obj
           [ ("schema", Jsonw.String "repro-perf/1");
             ("seed", Jsonw.String (Int64.to_string seed));
             ("repeats", Jsonw.Int repeats); ("scale", Jsonw.Float scale);
             ("correct", Jsonw.Bool ok);
             ("workloads", Jsonw.List (List.map outcome_json outcomes)) ]);
      close_out oc)
    json_out;
  Printf.printf "%s\n" (if ok then "all checks passed" else "CHECKS FAILED");
  if not ok then exit 1

(* One workload for [seconds]: its fixed run (observability with
   [trace = false], the traced rig with [trace = true]), then timed
   repeats until the next would overrun, at least three. *)
let single (w : Workloads.t) ~seed ~seconds ~trace ~scale =
  let deadline = Layers.now_ns () +. (seconds *. 1e9) in
  let fixed = fst (spawn w ~seed ~scale ~mode:(if trace then "traced" else "obs")) in
  let rec loop acc walls =
    let n = List.length acc in
    let next = if walls = [] then 0. else median walls *. 1e9 in
    if n >= 3 && Layers.now_ns () +. next > deadline then acc
    else
      let c, wall = spawn w ~seed ~scale ~mode:"timed" in
      loop (c :: acc) (wall :: walls)
  in
  let timed = List.rev (loop [] []) in
  let o =
    assemble w
      (Workloads.instance w ~seed ~scale)
      ~scale ~timed
      ~obs:(if trace then None else Some fixed)
      ~traced:(if trace then Some fixed else None)
  in
  print_outcome o;
  let shown = List.filter (fun (s, _) -> s.listed) (if trace then o.layers else o.e2e) in
  print_endline
    (Jsonw.to_string
       (Jsonw.obj
          [ ("correct", Jsonw.Bool (correct o));
            ("attempted", Jsonw.Int o.attempted); ("failed", Jsonw.Int o.failed);
            ( "metrics",
              Jsonw.obj
                (List.map
                   (fun (s, { v; _ }) ->
                     ( s.name,
                       Jsonw.obj
                         [ ("value", number v);
                           ("unit", Jsonw.String s.unit_) ] ))
                   shown) ) ]));
  if not (correct o) then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe [--seed S] [--repeats R] [--scale F] [--json-out FILE]\n\
    \       perf.exe --workload W --seed S --seconds T --trace 0|1 [--scale F]";
  exit 2

let () =
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        parse ((key, value) :: acc) rest
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let known =
    [ "--seed"; "--repeats"; "--scale"; "--json-out"; "--workload";
      "--seconds"; "--trace"; "--child"; "--mode" ]
  in
  List.iter (fun (k, _) -> if not (List.mem k known) then usage ()) args;
  let arg k = List.assoc_opt k args in
  let convert k f default =
    match arg k with
    | None -> default
    | Some s -> ( match f s with Some v -> v | None -> usage ())
  in
  let seed = convert "--seed" Int64.of_string_opt 42L in
  let positive_float s =
    match float_of_string_opt s with
    | Some f when f > 0. && Float.is_finite f -> Some f
    | _ -> None
  in
  let scale = convert "--scale" positive_float 1.0 in
  let workload () =
    match Option.bind (arg "--workload") Workloads.find with
    | Some w -> w
    | None ->
        Printf.eprintf "perf: --workload must be one of %s\n"
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  match (arg "--child", arg "--workload") with
  | Some name, _ ->
      run_child name ~seed ~scale ~mode:(Option.value ~default:"timed" (arg "--mode"))
  | None, Some _ ->
      let w = workload () in
      let seconds = convert "--seconds" positive_float 20. in
      let trace =
        match arg "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some _ -> usage ()
      in
      single w ~seed ~seconds ~trace ~scale
  | None, None ->
      let repeats =
        convert "--repeats"
          (fun s -> Option.bind (int_of_string_opt s) (fun r -> if r >= 1 then Some r else None))
          5
      in
      suite ~seed ~repeats ~scale ~json_out:(arg "--json-out")
