(* warehouse_sim — run any maintenance algorithm over a configurable
   scenario and report metrics and the verified consistency level.

   Examples:
     dune exec bin/warehouse_sim.exe -- --preset concurrent
     dune exec bin/warehouse_sim.exe -- -a nested-sweep -n 6 -u 200 --gap 0.4
     dune exec bin/warehouse_sim.exe -- -a eca --centralized --trace *)

open Cmdliner
open Repro_sim
open Repro_workload
open Repro_harness

let run_cmd algorithm preset n updates gap p_insert txn_size placement init
    domain seed latency centralized drop duplicate spike spike_factor crashes
    wh_crashes chaos checkpoint_every queue_capacity batch_max deadline
    breaker_k probe_limit stall_cap read_rate staleness_slo read_cap aux
    no_check show_trace trace_spans json_out explain_sql =
  (match explain_sql with
  | Some query ->
      (match Repro_relational.View_parser.parse query with
      | Ok view ->
          Format.printf "%a@." Repro_relational.View_def.pp view;
          exit 0
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1)
  | None -> ());
  let base =
    match preset with
    | Some p -> (
        match Scenario.find_preset p with
        | Some s -> s
        | None ->
            Printf.eprintf "unknown preset %S; have: %s\n" p
              (String.concat ", " (List.map fst Scenario.presets));
            exit 2)
    | None -> Scenario.default
  in
  let placement =
    match placement with
    | "uniform" -> Update_gen.Uniform
    | "zipf" -> Update_gen.Zipf 1.1
    | "alternating" -> Update_gen.Alternating (0, n - 1)
    | other ->
        Printf.eprintf "unknown placement %S (uniform|zipf|alternating)\n"
          other;
        exit 2
  in
  let crashes =
    List.map
      (fun spec ->
        match String.split_on_char ':' spec with
        | [ src; from_; until ] -> (
            match
              (int_of_string_opt src, float_of_string_opt from_,
               float_of_string_opt until)
            with
            | Some source, Some down_at, Some up_at when down_at < up_at ->
                if source < 0 || source >= n then begin
                  Printf.eprintf "--crash source %d out of range [0,%d)\n"
                    source n;
                  exit 2
                end;
                { Fault.source; down_at; up_at }
            | _ ->
                Printf.eprintf "bad --crash %S (want SRC:FROM:UNTIL)\n" spec;
                exit 2)
        | _ ->
            Printf.eprintf "bad --crash %S (want SRC:FROM:UNTIL)\n" spec;
            exit 2)
      crashes
  in
  let wh_crashes =
    List.map
      (fun spec ->
        match String.split_on_char ':' spec with
        | [ from_; until ] -> (
            match (float_of_string_opt from_, float_of_string_opt until) with
            | Some wh_down_at, Some wh_up_at when wh_down_at < wh_up_at ->
                { Fault.wh_down_at; wh_up_at }
            | _ ->
                Printf.eprintf "bad --warehouse-crash %S (want FROM:UNTIL)\n"
                  spec;
                exit 2)
        | _ ->
            Printf.eprintf "bad --warehouse-crash %S (want FROM:UNTIL)\n" spec;
            exit 2)
      wh_crashes
  in
  if checkpoint_every < 0 then begin
    Printf.eprintf "--checkpoint-every must be >= 0, got %d\n" checkpoint_every;
    exit 2
  end;
  (match queue_capacity with
  | Some c when c < 1 ->
      Printf.eprintf "--queue-capacity must be >= 1, got %d\n" c;
      exit 2
  | _ -> ());
  if batch_max < 1 then begin
    Printf.eprintf "--batch-max must be >= 1, got %d\n" batch_max;
    exit 2
  end;
  List.iter
    (fun (name, p) ->
      if p < 0. || p >= 1. then begin
        Printf.eprintf "--%s must be in [0,1), got %g\n" name p;
        exit 2
      end)
    [ ("drop", drop); ("duplicate", duplicate); ("spike", spike) ];
  if spike_factor < 1. then begin
    Printf.eprintf "--spike-factor must be >= 1, got %g\n" spike_factor;
    exit 2
  end;
  let faults =
    if chaos then
      let rng = Rng.create (Int64.of_int seed) in
      Fault.chaos rng ~n_sources:n ~horizon:(float_of_int updates *. gap)
    else if
      drop = 0. && duplicate = 0. && spike = 0. && crashes = []
      && wh_crashes = []
    then base.Scenario.faults
    else
      { Fault.link = Fault.lossy ~drop ~duplicate ~spike ~spike_factor ();
        crashes; wh_crashes }
  in
  (match deadline with
  | Some d when d <= 0. ->
      Printf.eprintf "--deadline must be > 0, got %g\n" d;
      exit 2
  | _ -> ());
  if breaker_k < 1 then begin
    Printf.eprintf "--breaker-k must be >= 1, got %d\n" breaker_k;
    exit 2
  end;
  if probe_limit < 0 then begin
    Printf.eprintf "--probe-limit must be >= 0, got %d\n" probe_limit;
    exit 2
  end;
  if stall_cap < 1 then begin
    Printf.eprintf "--stall-cap must be >= 1, got %d\n" stall_cap;
    exit 2
  end;
  (match read_rate with
  | Some r when r < 0. ->
      Printf.eprintf "--read-rate must be >= 0, got %g\n" r;
      exit 2
  | _ -> ());
  if staleness_slo <= 0. then begin
    Printf.eprintf "--staleness-slo must be > 0, got %g\n" staleness_slo;
    exit 2
  end;
  if read_cap < 1 then begin
    Printf.eprintf "--read-cap must be >= 1, got %d\n" read_cap;
    exit 2
  end;
  let aux_mode =
    match aux with
    | None -> base.Scenario.aux_mode
    | Some s -> (
        match Repro_warehouse.Aux_store.mode_of_string s with
        | Some m -> m
        | None ->
            Printf.eprintf "unknown --aux %S (off|keys-only|full)\n" s;
            exit 2)
  in
  let deadline =
    match deadline with
    | Some _ as d -> d
    | None -> if chaos then Some 16. else base.Scenario.deadline
  in
  (* One resolved domain for the initial data and the inserts, so the
     join fan-out holds for the whole run. *)
  let domain = if domain = 0 then init else domain in
  let scenario =
    { Scenario.name = Option.value preset ~default:"cli";
      n_sources = n;
      init_size = init;
      domain;
      stream =
        { base.Scenario.stream with
          Update_gen.n_updates = updates; mean_gap = gap; p_insert;
          txn_size; placement; domain };
      latency = Latency.Uniform (latency /. 2., latency *. 1.5);
      topology =
        (if centralized then Scenario.Centralized else base.Scenario.topology);
      faults;
      checkpoint_every;
      queue_capacity;
      deadline;
      breaker_k;
      probe_limit;
      stall_cap;
      read_rate = Option.value read_rate ~default:base.Scenario.read_rate;
      staleness_slo;
      read_cap;
      read_burst = base.Scenario.read_burst;
      aux_mode;
      seed = Int64.of_int seed }
  in
  let alg =
    match Experiment.algorithm_by_name ~batch_max algorithm with
    | Some a -> a
    | None ->
        Printf.eprintf
          "unknown algorithm %S \
           (sweep|sweep-batched|nested-sweep|strobe|c-strobe|eca|naive|\
           recompute)\n"
          algorithm;
        exit 2
  in
  if algorithm = "eca" && scenario.Scenario.topology <> Scenario.Centralized
  then begin
    Printf.eprintf "eca requires --centralized (single-site architecture)\n";
    exit 2
  end;
  let trace = Trace.create ~enabled:show_trace () in
  let module Obs = Repro_observability.Obs in
  let want_obs = trace_spans || json_out <> None in
  let obs = if want_obs then Obs.create () else Obs.disabled () in
  let result =
    Experiment.run ~check:(not no_check) ~trace ~obs ~max_events:2_000_000
      scenario alg
  in
  if show_trace then
    List.iter
      (fun l ->
        Format.printf "[%8.3f] %-10s %s@." l.Trace.time l.Trace.who
          l.Trace.text)
      (Trace.lines trace);
  if trace_spans then
    print_string (Repro_observability.Tracer.render (Obs.tracer obs));
  (match json_out with
  | None -> ()
  | Some path ->
      Report.write_json path
        (Experiment.to_json ~spans:trace_spans ~obs result);
      Format.printf "wrote %s@." path);
  Format.printf "%a@." Experiment.pp_result result;
  if not result.Experiment.completed then
    Format.printf
      "NOTE: run was cut off at 2M events with work still queued (the \
       algorithm diverges on this workload).@."

let algorithm =
  Arg.(
    value & opt string "sweep"
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:
          "Maintenance algorithm: sweep, sweep-batched, nested-sweep, \
           strobe, c-strobe, eca, naive or recompute.")

let preset =
  Arg.(
    value & opt (some string) None
    & info [ "preset" ] ~docv:"NAME"
        ~doc:
          "Start from a named scenario (sequential, concurrent, bursty, \
           adversarial, centralized, degraded, crashy, chaos, read-heavy, \
           flash-crowd, self-maint); other flags override it.")

let n = Arg.(value & opt int 4 & info [ "n"; "sources" ] ~doc:"Number of data sources.")
let updates = Arg.(value & opt int 100 & info [ "u"; "updates" ] ~doc:"Update transactions to generate.")
let gap = Arg.(value & opt float 1.0 & info [ "gap" ] ~doc:"Mean inter-update gap (sim time units).")
let p_insert = Arg.(value & opt float 0.6 & info [ "p-insert" ] ~doc:"Probability an update is an insert.")
let txn_size = Arg.(value & opt int 1 & info [ "txn-size" ] ~doc:"Updates per source-local transaction.")
let placement = Arg.(value & opt string "uniform" & info [ "placement" ] ~doc:"Source placement: uniform, zipf or alternating.")
let init = Arg.(value & opt int 40 & info [ "init" ] ~doc:"Initial tuples per base relation.")
let domain = Arg.(value & opt int 0 & info [ "domain" ] ~doc:"Join-attribute domain (0 = same as --init).")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (runs are deterministic per seed).")
let latency = Arg.(value & opt float 1.0 & info [ "latency" ] ~doc:"Mean channel latency.")
let centralized = Arg.(value & flag & info [ "centralized" ] ~doc:"Host all base relations at one site (ECA's architecture).")
let drop = Arg.(value & opt float 0.0 & info [ "drop" ] ~doc:"Per-frame loss probability; nonzero routes traffic over the reliable transport.")
let duplicate = Arg.(value & opt float 0.0 & info [ "duplicate" ] ~doc:"Per-frame duplication probability (suppressed by the transport receiver).")
let spike = Arg.(value & opt float 0.0 & info [ "spike" ] ~doc:"Latency-spike probability per frame.")
let spike_factor = Arg.(value & opt float 4.0 & info [ "spike-factor" ] ~doc:"Latency multiplier during a spike.")

let crashes =
  Arg.(
    value & opt_all string []
    & info [ "crash" ] ~docv:"SRC:FROM:UNTIL"
        ~doc:
          "Crash window: source $(i,SRC) is unreachable for sim times in \
           [FROM, UNTIL). Repeatable. The warehouse's in-flight queries are \
           retransmitted with backoff and answered after recovery.")

let wh_crashes =
  Arg.(
    value & opt_all string []
    & info [ "warehouse-crash" ] ~docv:"FROM:UNTIL"
        ~doc:
          "Crash the warehouse for sim times in [FROM, UNTIL). Repeatable. \
           On restart the warehouse reloads its latest checkpoint, replays \
           the write-ahead log tail and resumes in-flight work — no source \
           refetch. Implies the durable (WAL + checkpoint) code path.")

let chaos =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "Replace the fault schedule with a composed chaos schedule drawn \
           from the seed (heavy link faults, overlapping source-crash \
           windows, a warehouse outage) and arm query deadlines + circuit \
           breakers (default deadline 16 unless $(b,--deadline) is given).")

let checkpoint_every =
  Arg.(
    value & opt int 8
    & info [ "checkpoint-every" ] ~docv:"K"
        ~doc:
          "Take a warehouse checkpoint every $(docv) write-ahead-log \
           records (0 disables checkpoints; recovery then replays the \
           whole log). Only meaningful with $(b,--warehouse-crash).")

let queue_capacity =
  Arg.(
    value & opt (some int) None
    & info [ "queue-capacity" ] ~docv:"CAP"
        ~doc:
          "Bound the warehouse update queue to $(docv) in-flight updates; \
           further updates wait at their source (backpressure) and no-op \
           updates are shed under load. Unset = unbounded.")

let batch_max =
  Arg.(
    value & opt int 16
    & info [ "batch-max" ] ~docv:"K"
        ~doc:
          "Cap on the queued updates sweep-batched coalesces into one \
           batched sweep (default 16; 1 degenerates to plain SWEEP). Only \
           $(b,-a sweep-batched) reads it.")

let deadline =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"D"
        ~doc:
          "Per-query transport deadline in sim time units. After $(docv) \
           without an answer the sender suspends and reports a timeout to \
           the source's circuit breaker instead of retransmitting forever \
           (distributed topology only). Unset = legacy infinite retry.")

let breaker_k =
  Arg.(
    value & opt int 3
    & info [ "breaker-k" ] ~docv:"K"
        ~doc:
          "Consecutive query deadline expiries before a source's circuit \
           breaker trips open (only with $(b,--deadline)).")

let probe_limit =
  Arg.(
    value & opt int 0
    & info [ "probe-limit" ] ~docv:"P"
        ~doc:
          "Failed half-open probes before a breaker is abandoned and the \
           run drains in degraded mode (0 = probe forever; only with \
           $(b,--deadline)).")

let stall_cap =
  Arg.(
    value & opt int 256
    & info [ "stall-cap" ] ~docv:"CAP"
        ~doc:
          "Parked-update bound for degraded mode: once $(docv) updates are \
           stalled behind open breakers, maintenance falls back to \
           blocking on the dead source.")

let read_rate =
  Arg.(
    value & opt (some float) None
    & info [ "read-rate" ] ~docv:"R"
        ~doc:
          "Attach the serving tier and issue $(docv) reads per sim time \
           unit against the materialized view (0 or unset = no read path; \
           presets read-heavy and flash-crowd set their own rate).")

let staleness_slo =
  Arg.(
    value & opt float 2.0
    & info [ "staleness-slo" ] ~docv:"S"
        ~doc:
          "Staleness SLO in sim time units: reads within $(docv) of view \
           lag are fresh; beyond it they are served stale (stamped) up to \
           a hard ceiling of 8x the SLO, past which they are shed.")

let read_cap =
  Arg.(
    value & opt int 16
    & info [ "read-cap" ] ~docv:"CAP"
        ~doc:
          "Admission-control token count: max reads in flight; further \
           reads are shed, never queued (only with $(b,--read-rate)).")

let aux =
  Arg.(
    value & opt (some string) None
    & info [ "aux" ] ~docv:"MODE"
        ~doc:
          "Self-maintenance auxiliary projections (DESIGN.md \\u{00A7}14): \
           $(b,off), $(b,keys-only) (keys + join columns) or $(b,full) \
           (every referenced column — sweep legs answered locally from the \
           aux store, no source queries). The self-maint preset sets \
           $(b,full).")

let no_check = Arg.(value & flag & info [ "no-check" ] ~doc:"Skip the consistency checker (faster for huge runs).")
let show_trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full simulation trace.")

let trace_spans =
  Arg.(
    value & flag
    & info [ "trace-spans" ]
        ~doc:
          "Record structured spans (one tree per update transaction: \
           notice, sweep legs, compensations, install) and print the \
           rendered tree. With $(b,--json-out), spans are embedded in the \
           JSON document.")

let json_out =
  Arg.(
    value & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's counters and latency histograms (staleness, \
           queue length, message weights) to $(docv) as JSON.")

let explain_sql =
  Arg.(
    value & opt (some string) None
    & info [ "explain-sql" ] ~docv:"QUERY"
        ~doc:
          "Parse a SQL-like view definition (see Repro_relational.View_parser), \
           print the compiled view and exit.")

let cmd =
  let doc =
    "simulate incremental view maintenance at a data warehouse (SWEEP, \
     SIGMOD'97 reproduction)"
  in
  Cmd.v
    (Cmd.info "warehouse_sim" ~version:"1.0" ~doc)
    Term.(
      const run_cmd $ algorithm $ preset $ n $ updates $ gap $ p_insert
      $ txn_size $ placement $ init $ domain $ seed $ latency $ centralized
      $ drop $ duplicate $ spike $ spike_factor $ crashes
      $ wh_crashes $ chaos $ checkpoint_every $ queue_capacity $ batch_max
      $ deadline $ breaker_k $ probe_limit $ stall_cap
      $ read_rate $ staleness_slo $ read_cap $ aux
      $ no_check $ show_trace $ trace_spans $ json_out $ explain_sql)

let () = exit (Cmd.eval cmd)
