(* The observability layer: histogram quantile accuracy and merge
   algebra, the pinned Figure 5 span tree, the zero-overhead contract
   (enabling observability cannot change a run; disabling it reproduces
   the pre-instrumentation goldens), the JSON writer and reader, and a
   run's JSON export. *)

open Repro_observability
open Repro_warehouse
open Repro_harness

(* ------------------------------------------------------------------ *)
(* Histogram: quantiles vs exact sorted order, merge equality           *)
(* ------------------------------------------------------------------ *)

(* The exact quantile under the histogram's own rank convention:
   rank ⌈p·n⌉, 1-based. *)
let exact_quantile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  sorted.(rank - 1)

(* One full bucket of relative error: the estimate is the geometric
   midpoint of the bucket holding the exact ranked sample, so the ratio
   between them is < 10^(1/bpd). *)
let bucket_ratio = Float.pow 10. (1. /. float_of_int Histogram.default_buckets_per_decade)

let test_quantile_accuracy () =
  for seed = 1 to 50 do
    let st = Random.State.make [| seed |] in (* lint: allow L1 test-local PRNG with a literal seed: deterministic across runs *)
    let samples =
      (* three decades of strictly positive spread *)
      Array.init 1000 (fun _ -> Float.pow 10. (Random.State.float st 3.)) (* lint: allow L1 drawn from the literal-seeded state above *)
    in
    let h = Histogram.create () in
    Array.iter (Histogram.record h) samples;
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    List.iter
      (fun p ->
        let exact = exact_quantile sorted p in
        let est = Histogram.quantile h p in
        let lo = exact /. bucket_ratio *. (1. -. 1e-9)
        and hi = exact *. bucket_ratio *. (1. +. 1e-9) in
        if not (est >= lo && est <= hi) then
          Alcotest.failf
            "seed %d p%.0f: estimate %.6f outside [%.6f, %.6f] (exact %.6f)"
            seed (100. *. p) est lo hi exact)
      [ 0.50; 0.90; 0.99 ]
  done

let test_quantile_extremes () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1.0; 10.0; 100.0 ];
  Alcotest.(check (float 0.)) "p=1 is the exact max" 100.0
    (Histogram.quantile h 1.0);
  Alcotest.(check (float 0.)) "empty answers 0" 0.0
    (Histogram.quantile (Histogram.create ()) 0.5)

let test_zero_bucket () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 0.0; 0.0; 0.0; 5.0 ];
  Alcotest.(check (float 0.)) "median of mostly-zero samples" 0.0
    (Histogram.p50 h);
  Alcotest.(check int) "count includes zeros" 4 (Histogram.count h)

let test_merge_equals_union () =
  for seed = 1 to 10 do
    let st = Random.State.make [| 0xbeef + seed |] in (* lint: allow L1 test-local PRNG with a literal seed: deterministic across runs *)
    let samples =
      Array.init 1000 (fun _ -> Float.pow 10. (Random.State.float st 3.)) (* lint: allow L1 drawn from the literal-seeded state above *)
    in
    let all = Histogram.create () in
    let h1 = Histogram.create () in
    let h2 = Histogram.create () in
    Array.iteri
      (fun i v ->
        Histogram.record all v;
        Histogram.record (if i < 500 then h1 else h2) v)
      samples;
    let m = Histogram.merge h1 h2 in
    Alcotest.(check int) "count" (Histogram.count all) (Histogram.count m);
    Alcotest.(check (float 0.)) "min" (Histogram.min_value all)
      (Histogram.min_value m);
    Alcotest.(check (float 0.)) "max" (Histogram.max_value all)
      (Histogram.max_value m);
    (* bucket populations are integers, so every quantile is identical *)
    List.iter
      (fun p ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "p%.0f" (100. *. p))
          (Histogram.quantile all p) (Histogram.quantile m p))
      [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ];
    (* the sum is float arithmetic in a different association order *)
    Alcotest.(check bool) "mean within 1e-9 relative" true
      (Float.abs (Histogram.mean all -. Histogram.mean m)
      <= 1e-9 *. Float.abs (Histogram.mean all))
  done

let test_merge_precision_mismatch () =
  let a = Histogram.create ~buckets_per_decade:10 () in
  let b = Histogram.create ~buckets_per_decade:20 () in
  Alcotest.check_raises "precision mismatch raises"
    (Invalid_argument "Histogram.merge: precision mismatch") (fun () ->
      ignore (Histogram.merge a b))

(* ------------------------------------------------------------------ *)
(* Figure 5: the pinned span tree                                       *)
(* ------------------------------------------------------------------ *)

(* The §5.2 schedule (same as test_figure5.ml): ΔR2 at t=0, ΔR3 at 1.4,
   ΔR1 at 1.5; unit per-hop latency. The rendered tree is pinned byte
   for byte — Tracer.render is deterministic (events in emission order,
   children in creation order), so any drift in span structure, naming,
   timestamps or attributes fails here. *)
let figure5_expected =
  String.concat "\n"
    [ "@1.000 update.delivered txn=u1.0 weight=1";
      "@2.400 update.delivered txn=u2.0 weight=1";
      "@2.500 update.delivered txn=u0.0 weight=1";
      "@5.000 install txns=1 weight=2 negative=false";
      "@9.000 install txns=1 weight=2 negative=false";
      "@13.000 install txns=1 weight=1 negative=false";
      "[1.000..5.000] sweep.txn txn=u1.0";
      "  @3.000 compensate source=0 interfering=1";
      "  @5.000 compensate source=2 interfering=1";
      "  [1.000..3.000] query source=0 qid=1";
      "  [3.000..5.000] query source=2 qid=1";
      "[5.000..9.000] sweep.txn txn=u2.0";
      "  @9.000 compensate source=0 interfering=1";
      "  [5.000..7.000] query source=1 qid=2";
      "  [7.000..9.000] query source=0 qid=2";
      "[9.000..13.000] sweep.txn txn=u0.0";
      "  [9.000..11.000] query source=1 qid=3";
      "  [11.000..13.000] query source=2 qid=3"; "" ]

let figure5_updates () =
  let s2, d2 = Repro_workload.(Paper_example.d_r2 ()) in
  let s3, d3 = Repro_workload.(Paper_example.d_r3 ()) in
  let s1, d1 = Repro_workload.(Paper_example.d_r1 ()) in
  [ (0.0, s2, d2); (1.4, s3, d3); (1.5, s1, d1) ]

let run_figure5 obs =
  Experiment.run_scripted ~obs ~algorithm:(module Sweep : Algorithm.S)
    ~view:Repro_workload.(Paper_example.view ())
    ~initial:(Repro_workload.Paper_example.initial ())
    ~updates:(figure5_updates ()) ()

let test_figure5_span_tree () =
  let obs = Obs.create () in
  let _outcome = run_figure5 obs in
  Alcotest.(check string) "pinned span tree" figure5_expected
    (Tracer.render (Obs.tracer obs))

let test_figure5_span_tree_stable () =
  (* two runs, same schedule → same bytes (determinism of the tracer,
     not just of the simulation) *)
  let render () =
    let obs = Obs.create () in
    let _ = run_figure5 obs in
    Tracer.render (Obs.tracer obs)
  in
  Alcotest.(check string) "identical across runs" (render ()) (render ())

(* ------------------------------------------------------------------ *)
(* Zero overhead: observability cannot change a run                     *)
(* ------------------------------------------------------------------ *)

(* Goldens for Sweep on Scenario.default, pinned before the
   instrumentation landed. The disabled-obs run must still produce
   exactly these, and the enabled-obs run must match it field for
   field — recording draws no randomness and schedules no events. *)
let test_zero_overhead () =
  let run obs = Experiment.run ~obs Scenario.default (module Sweep : Algorithm.S) in
  let off = run (Obs.disabled ()) in
  let on_ = run (Obs.create ()) in
  let m = off.Experiment.metrics in
  Alcotest.(check int) "golden installs" 100 m.Metrics.installs;
  Alcotest.(check int) "golden incorporated" 100 m.Metrics.updates_incorporated;
  Alcotest.(check int) "golden queries" 200 m.Metrics.queries_sent;
  Alcotest.(check int) "golden view size" 346 off.Experiment.final_view_tuples;
  Alcotest.(check int) "golden events" 601 off.Experiment.events;
  Alcotest.(check (float 0.)) "golden sim time" 423.0719946358177
    off.Experiment.sim_time;
  Alcotest.check Rig.verdict "golden verdict"
    Repro_consistency.Checker.Complete
    off.Experiment.verdict.Repro_consistency.Checker.verdict;
  (* enabled vs disabled: byte-identical run *)
  Alcotest.(check (list (pair string (float 0.))))
    "identical metrics"
    (List.map
       (fun (k, v) ->
         (k, match v with `Int i -> float_of_int i | `Float f -> f))
       (Metrics.fields off.Experiment.metrics))
    (List.map
       (fun (k, v) ->
         (k, match v with `Int i -> float_of_int i | `Float f -> f))
       (Metrics.fields on_.Experiment.metrics));
  Alcotest.(check (float 0.)) "identical sim time" off.Experiment.sim_time
    on_.Experiment.sim_time;
  Alcotest.(check int) "identical events" off.Experiment.events
    on_.Experiment.events;
  Alcotest.check Rig.bag "identical final view" off.Experiment.final_view
    on_.Experiment.final_view;
  (* and the enabled run actually recorded something *)
  let obs = Obs.create () in
  let r = Experiment.run ~obs Scenario.default (module Sweep : Algorithm.S) in
  ignore r;
  Alcotest.(check bool) "staleness histogram populated" true
    (Histogram.count (Obs.histogram obs "staleness") > 0)

let test_disabled_records_nothing () =
  let obs = Obs.disabled () in
  let _ = run_figure5 obs in
  Alcotest.(check int) "no histograms" 0 (List.length (Obs.histograms obs));
  Alcotest.(check string) "no spans" "" (Tracer.render (Obs.tracer obs))

let test_mute_suspends () =
  let obs = Obs.create () in
  Obs.observe obs "x" 1.0;
  Obs.mute obs;
  Obs.observe obs "x" 2.0;
  Alcotest.(check bool) "inactive while muted" false (Obs.active obs);
  Obs.unmute obs;
  Obs.observe obs "x" 3.0;
  Alcotest.(check int) "muted sample dropped" 2
    (Histogram.count (Obs.histogram obs "x"))

(* ------------------------------------------------------------------ *)
(* Jsonw: escaping, non-finite rejection, round-trip through Jsonr      *)
(* ------------------------------------------------------------------ *)

let test_jsonw_escaping () =
  Alcotest.(check string) "RFC 8259 escapes"
    {|"a\"b\\c\nd\te\u0001f"|}
    (Jsonw.to_string (Jsonw.str "a\"b\\c\nd\te\x01f"));
  Alcotest.(check string) "UTF-8 passes through" {|"Δ⋈"|}
    (Jsonw.to_string (Jsonw.str "Δ⋈"))

let test_jsonw_non_finite () =
  List.iter
    (fun f ->
      match Jsonw.to_string (Jsonw.obj [ ("x", Jsonw.float f) ]) with
      | _ -> Alcotest.failf "%.1f rendered instead of raising" f
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_jsonw_float_round_trip () =
  List.iter
    (fun f ->
      let s = Jsonw.to_string (Jsonw.float f) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s round-trips" s)
        f (float_of_string s))
    [ 0.1; 423.0719946358177; 1e-300; -1.5; 0.0 ]

(* Numeric-aware structural equality: Jsonw.float 2. renders as "2",
   which the reader hands back as Int 2 — same JSON value. *)
let rec json_equiv a b =
  match (a, b) with
  | Jsonw.Int x, Jsonw.Float y | Jsonw.Float y, Jsonw.Int x ->
      float_of_int x = y
  | Jsonw.List xs, Jsonw.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equiv xs ys (* lint: allow L3 length guard protecting for_all2; one-shot comparison *)
  | Jsonw.Obj xs, Jsonw.Obj ys ->
      List.length xs = List.length ys (* lint: allow L3 length guard protecting for_all2; one-shot comparison *)
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equiv v1 v2)
           xs ys
  | a, b -> a = b

let test_registry_round_trip () =
  (* A registry entry with live histograms and spans, rendered by the
     writer and re-read by the independent decoder. *)
  let t = ref 0.0 in
  let obs = Obs.create ~clock:(fun () -> !t) () in
  let s = Obs.span obs "txn" [ ("txn", Tracer.S "u0.0") ] in
  t := 1.0;
  Obs.event obs ~span:s "compensate" [ ("source", Tracer.I 2) ];
  t := 2.5;
  Obs.finish obs s;
  List.iter (Obs.observe obs "staleness") [ 0.5; 1.5; 2.5 ];
  let doc =
    Registry.entry_json ~spans:true ~obs ~algorithm:"sweep"
      ~scenario:"golden \"quoted\""
      [ ("installs", `Int 3); ("sim_time", `Float 2.5);
        ("verdict", `Str "complete") ]
  in
  let reread = Jsonr.parse_exn (Jsonw.to_string ~indent:2 doc) in
  Alcotest.(check bool) "writer → reader round-trip" true
    (json_equiv doc reread);
  (* spot-check through the decoder's eyes *)
  Alcotest.(check (option string)) "scenario survives escaping"
    (Some "golden \"quoted\"")
    (match Jsonw.member "scenario" reread with
    | Some (Jsonw.String s) -> Some s
    | _ -> None);
  let hist =
    Option.bind (Jsonw.member "histograms" reread) (Jsonw.member "staleness")
  in
  Alcotest.(check (option int)) "histogram count survives" (Some 3)
    (match Option.bind hist (Jsonw.member "count") with
    | Some (Jsonw.Int n) -> Some n
    | _ -> None)

let test_jsonr_rejects_garbage () =
  List.iter
    (fun s ->
      match Jsonr.parse s with
      | Ok _ -> Alcotest.failf "%S parsed" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2" ]

let test_run_export () =
  (* A real run's export (what warehouse_sim --json-out writes), re-read
     by the independent decoder: every Metrics counter and the verdict. *)
  let obs = Obs.create () in
  let r =
    Experiment.run ~obs
      { Scenario.default with
        Scenario.stream =
          { Scenario.default.Scenario.stream with
            Repro_workload.Update_gen.n_updates = 10 } }
      (module Sweep : Algorithm.S)
  in
  let doc = Experiment.to_json ~obs r in
  let reread = Jsonr.parse_exn (Jsonw.to_string ~indent:2 doc) in
  Alcotest.(check bool) "writer → reader round-trip" true
    (json_equiv doc reread);
  let counters = Option.get (Jsonw.member "counters" reread) in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " exported") true
        (Jsonw.member key counters <> None))
    ("verdict" :: List.map fst (Metrics.fields r.Experiment.metrics));
  Alcotest.(check (option string)) "verdict" (Some "complete")
    (match Jsonw.member "verdict" counters with
    | Some (Jsonw.String s) -> Some s
    | _ -> None)

let suite =
  [ Alcotest.test_case "histogram: p50/p90/p99 within one bucket of exact (50 seeds)"
      `Quick test_quantile_accuracy;
    Alcotest.test_case "histogram: p=1 exact max, empty answers 0" `Quick
      test_quantile_extremes;
    Alcotest.test_case "histogram: zero bucket" `Quick test_zero_bucket;
    Alcotest.test_case "histogram: merge equals observing the union" `Quick
      test_merge_equals_union;
    Alcotest.test_case "histogram: merge precision mismatch raises" `Quick
      test_merge_precision_mismatch;
    Alcotest.test_case "figure 5: pinned span tree (byte-identical)" `Quick
      test_figure5_span_tree;
    Alcotest.test_case "figure 5: span tree stable across runs" `Quick
      test_figure5_span_tree_stable;
    Alcotest.test_case "zero overhead: goldens hold, enabled ≡ disabled"
      `Quick test_zero_overhead;
    Alcotest.test_case "disabled handle records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "mute suspends recording (WAL-replay bracket)" `Quick
      test_mute_suspends;
    Alcotest.test_case "jsonw: RFC 8259 escaping" `Quick test_jsonw_escaping;
    Alcotest.test_case "jsonw: NaN/∞ rejected" `Quick test_jsonw_non_finite;
    Alcotest.test_case "jsonw: shortest float form round-trips" `Quick
      test_jsonw_float_round_trip;
    Alcotest.test_case "registry: writer → independent reader round-trip"
      `Quick test_registry_round_trip;
    Alcotest.test_case "jsonr: malformed documents rejected" `Quick
      test_jsonr_rejects_garbage;
    Alcotest.test_case "run export: every counter and the verdict round-trip"
      `Quick test_run_export ]
