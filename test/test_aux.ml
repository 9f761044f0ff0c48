(* Self-maintenance suite (DESIGN.md §14): auxiliary projections must be
   invisible in results and visible only in the message counters.

   Unit layers first (mode parsing, checkpoint/WAL byte identity of the
   aux snapshot, the forced open-breaker composition), then a property over random join specs —
   a leg is locally answerable iff the tracked projection functionally
   determines its result, proved by executing both paths and comparing
   bags — and finally the seeded differential storms: for each seed and
   each aux-capable algorithm (sweep, sweep-batched, nested-sweep,
   strobe), aux full and keys-only runs must end
   bit-identical to the aux-off run, replay bit-identically, earn a
   verdict no weaker, and (full mode) send zero sweep queries, including
   under warehouse crashes and a mid-run source outage.

   Seed count comes from AUX_SEEDS (default 5 so `dune runtest` stays
   fast; `make aux` raises it to 100). *)

open Repro_sim
open Repro_relational
open Repro_protocol
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
module Snap = Repro_durability.Snap
module Canon = Repro_durability.Canon
module Codec = Repro_durability.Codec
module Base_table = Repro_source.Base_table

let aux_seeds = Rig.seeds_env ~var:"AUX_SEEDS" ~default:5

(* ————— mode parsing ————— *)

let test_mode_strings () =
  List.iter
    (fun (s, m) ->
      Alcotest.(check bool) (Printf.sprintf "parse %S" s) true
        (Aux_store.mode_of_string s = Some m))
    [ ("off", Aux_store.Off); ("keys", Aux_store.Keys_only);
      ("keys-only", Aux_store.Keys_only); ("full", Aux_store.Full) ];
  Alcotest.(check bool) "garbage rejected" true
    (Aux_store.mode_of_string "bogus" = None);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "round trip %s" (Aux_store.mode_to_string m))
        true
        (Aux_store.mode_of_string (Aux_store.mode_to_string m) = Some m))
    [ Aux_store.Off; Aux_store.Keys_only; Aux_store.Full ]

(* ————— checkpoint + WAL replay byte identity ————— *)

(* The aux store rides the §8 checkpoint; recovery either restores the
   snapshot and re-applies the WAL tail, or (no checkpoint) resets to
   genesis and re-applies everything. Both recovery paths, and any
   install order of the same deltas, must land on byte-identical
   encodings — the canonical-encoding guarantee checkpoints rely on. *)
(* The projections' bytes exactly as the checkpoint writes them, and
   their decoding as the checkpoint reads them. *)
let aux_encoding a =
  String.concat "" (Snap.image_list_pieces (Aux_store.image a))

let aux_decode s = Option.get (Codec.decode Snap.get_image_list s)

let test_snapshot_byte_identity () =
  let view = (Paper_example.view ()) in
  let mk () =
    Aux_store.create ~view ~mode:Aux_store.Full
      ~initial:(Paper_example.initial ()) ()
  in
  let all = [ (Paper_example.d_r2 ()); (Paper_example.d_r3 ()); (Paper_example.d_r1 ()) ] in
  let apply aux l =
    List.iter (fun (s, d) -> Aux_store.apply aux ~source:s d) l
  in
  let a = mk () in
  apply a all;
  let golden = aux_encoding a in
  (* crash after two installs with a checkpoint taken: restore, then
     replay the one-record WAL tail *)
  let c = mk () in
  apply c [ List.nth all 0; List.nth all 1 ];
  let ck = aux_encoding c in
  let r = mk () in
  Aux_store.restore r (aux_decode ck);
  apply r [ List.nth all 2 ];
  Alcotest.(check string) "checkpoint + WAL tail: byte-identical" golden
    (aux_encoding r);
  (* crash with no checkpoint: reset to genesis, replay the whole log *)
  let g = mk () in
  apply g [ List.nth all 2 ];
  ignore (aux_encoding g);  (* reset must also drop built images *)
  Aux_store.reset g;
  apply g all;
  Alcotest.(check string) "reset + full WAL replay: byte-identical" golden
    (aux_encoding g);
  (* canonical encoding: same installed set, different order *)
  let o = mk () in
  apply o (List.rev all);
  Alcotest.(check string) "install order does not change the bytes" golden
    (aux_encoding o);
  Alcotest.(check int) "bytes reports the encoded size"
    (String.length golden) (Aux_store.bytes a);
  Alcotest.(check bool) "off store has no image" true
    (Option.is_none (Aux_store.image (Aux_store.off ())))

(* With [--aux full], random applies before and after the images are
   first built leave the checkpoint's aux bytes equal to [Snap.encode] of
   [Snap.List] of [Snap.Delta] over shadow projections, and those bytes
   restore to a store that re-encodes them unchanged. *)
let qcheck_aux_image_bytes =
  let view = Chain.view ~n:3 () in
  let op =
    QCheck.(
      triple (int_range 0 2) (int_range 0 40) (make Gen.(oneofl [ -1; 1; 2 ])))
  in
  QCheck.Test.make ~count:40
    ~name:"aux images encode as Snap.List of Snap.Delta"
    QCheck.(pair (int_range 0 30) (list_of_size Gen.(int_range 0 60) op))
    (fun (cut, ops) ->
      let initial () = Chain.populate view ~size:25 ~domain:6 (Rng.create 3L) in
      let mk () =
        Aux_store.create ~view ~mode:Aux_store.Full ~initial:(initial ()) ()
      in
      let a = mk () in
      let shadow =
        Array.mapi
          (fun j rel ->
            let b = Bag.create () in
            Relation.iter
              (fun tup c ->
                Bag.add b (Tuple.project tup (Aux_store.tracked a j)) c)
              rel;
            b)
          (initial ())
      in
      let old_bytes () =
        Snap.encode
          (Snap.List (Array.to_list (Array.map (fun b -> Snap.Delta b) shadow)))
      in
      let same = ref true in
      List.iteri
        (fun i (j, k, c) ->
          if i = cut then
            same := !same && String.equal (aux_encoding a) (old_bytes ());
          let tup = Chain.tuple ~key:k ~a:(k mod 6) ~b:(k * 5 mod 6) in
          Aux_store.apply a ~source:j (Delta.of_list [ (tup, c) ]);
          Bag.add shadow.(j) (Tuple.project tup (Aux_store.tracked a j)) c)
        ops;
      let bytes = aux_encoding a in
      let r = mk () in
      Aux_store.restore r (aux_decode bytes);
      !same && String.equal bytes (old_bytes ())
      && String.equal bytes (aux_encoding r))

(* ————— aux × open breaker (node level) ————— *)

(* With full aux every sweep leg is local, so an open breaker on some
   source must not park locally-answerable updates: they install with
   zero outbound messages while the source is down. *)
let test_aux_with_open_breaker () =
  let engine = Engine.create ~seed:5L () in
  let view = Chain.view ~n:3 () in
  let inits = Chain.populate view ~size:8 ~domain:4 (Rng.create 9L) in
  let mirror = Array.map Relation.copy inits in
  let aux =
    Aux_store.create ~view ~mode:Aux_store.Full
      ~initial:(Array.map Relation.copy inits) ()
  in
  let metrics = Metrics.create () in
  let breaker = Breaker.create engine ~rng:(Rng.create 1L) ~metrics ~n:3 in
  let sent = ref 0 in
  let node =
    Node.create engine ~view ~algorithm:(module Sweep : Algorithm.S)
      ~send:(fun _ _ -> incr sent)
      ~init:(Algebra.eval view (fun i -> inits.(i)))
      ~metrics ~breaker ~aux ()
  in
  Breaker.force_open breaker 1;
  Alcotest.(check bool) "source 1 is down" false (Breaker.source_ok breaker 1);
  let update seq source delta occurred_at =
    Message.Update_notice
      { Message.txn = { Message.source; seq }; delta; occurred_at;
        global = None }
  in
  let d0 = Delta.insertion (Chain.tuple ~key:100 ~a:1 ~b:2)
  and d2 = Delta.insertion (Chain.tuple ~key:101 ~a:2 ~b:3) in
  Node.deliver node (update 0 0 d0 1.0);
  Node.deliver node (update 0 2 d2 2.0);
  Alcotest.(check int) "both updates install while the breaker is open" 2
    metrics.Metrics.installs;
  Alcotest.(check int) "every leg answered locally (2 legs each)" 4
    metrics.Metrics.local_answers;
  Alcotest.(check int) "zero outbound messages" 0 !sent;
  Alcotest.(check int) "nothing parked" 0 metrics.Metrics.stalled_updates;
  Alcotest.(check bool) "node is idle" true (Node.idle node);
  (match Relation.apply mirror.(0) d0 with Ok () -> () | Error _ -> assert false);
  (match Relation.apply mirror.(2) d2 with Ok () -> () | Error _ -> assert false);
  Alcotest.check Rig.bag "view exact despite the outage"
    (Relation.as_bag (Algebra.eval view (fun i -> mirror.(i))))
    (Node.view_contents node)

(* ————— property: answerable ⟺ projections determine the leg ————— *)

(* Random join specs: 2–4 sources of arity 2–3 (first column key),
   single-equality joins on random columns with occasional residuals, a
   random projection and an occasional selection. The test recomputes
   the referenced-column set from the View_def spec — independently of
   Aux_store's planner — and demands [answers] agree with
   "required ⊆ tracked"; then it executes every sweep leg both ways
   (local answer vs Nested_loop.extend over the mirror relations) and
   compares the resulting ΔV bags. *)

let random_view rng =
  let n = 2 + Rng.int rng 3 in
  let arities = Array.init n (fun _ -> 2 + Rng.int rng 2) in
  let offsets = Array.make n 0 in
  for j = 1 to n - 1 do
    offsets.(j) <- offsets.(j - 1) + arities.(j - 1)
  done;
  let total = offsets.(n - 1) + arities.(n - 1) in
  let schemas =
    Array.init n (fun j ->
        Schema.make
          (Printf.sprintf "S%d" j)
          (List.init arities.(j) (fun k ->
               Schema.attr ~key:(k = 0) (Printf.sprintf "c%d" k) Value.T_int)))
  in
  let joins =
    Array.init (n - 1) (fun j ->
        let l = offsets.(j) + Rng.int rng arities.(j)
        and r = offsets.(j + 1) + Rng.int rng arities.(j + 1) in
        let residual =
          if Rng.bool rng 0.3 then
            Some
              (Predicate.cmp_const Predicate.Le
                 (offsets.(j) + Rng.int rng arities.(j))
                 (Value.int 2))
          else None
        in
        Join_spec.make ?residual [ (l, r) ])
  in
  let projection =
    let chosen =
      List.filter (fun _ -> Rng.bool rng 0.4) (List.init total Fun.id)
    in
    Array.of_list (if chosen = [] then [ Rng.int rng total ] else chosen)
  in
  let selection =
    if Rng.bool rng 0.3 then
      Some (Predicate.cmp_const Predicate.Ge (Rng.int rng total) (Value.int 1))
    else None
  in
  View_def.make ~name:"rand" ~schemas ~joins ?selection ~projection ()

(* The spec's referenced set, recomputed from the view definition. *)
let referenced_locals view j =
  let ofs = View_def.offset view j and w = View_def.width view j in
  let local g = if g >= ofs && g < ofs + w then Some (g - ofs) else None in
  let of_joins =
    Array.to_list (View_def.joins view)
    |> List.concat_map (fun (js : Join_spec.t) ->
           List.concat_map (fun (l, r) -> [ l; r ]) js.Join_spec.equalities
           @
           match js.Join_spec.residual with
           | Some p -> Predicate.attrs_used p
           | None -> [])
  in
  let globals =
    of_joins
    @ Predicate.attrs_used (View_def.selection view)
    @ Array.to_list (View_def.projection view)
  in
  List.sort_uniq compare (List.filter_map local globals)

let expected_answerable view mode j =
  match mode with
  | Aux_store.Off -> false
  | Aux_store.Full -> true
  | Aux_store.Keys_only ->
      let keys = Schema.key_indices (View_def.schema view j) in
      let ofs = View_def.offset view j and w = View_def.width view j in
      let join_cols =
        Array.to_list (View_def.joins view)
        |> List.concat_map (fun (js : Join_spec.t) ->
               List.concat_map (fun (l, r) -> [ l; r ]) js.Join_spec.equalities)
        |> List.filter_map (fun g ->
               if g >= ofs && g < ofs + w then Some (g - ofs) else None)
      in
      let tracked = List.sort_uniq compare (keys @ join_cols) in
      List.for_all (fun c -> List.mem c tracked) (referenced_locals view j)

let random_tuple rng arity ~key ~domain =
  Array.init arity (fun c ->
      Value.Int (if c = 0 then key else Rng.int rng domain))

(* Installed update: mostly inserts of fresh keys, sometimes a deletion
   of a present tuple. *)
let random_installed_delta rng rel arity ~key ~domain =
  if Rng.bool rng 0.75 || Relation.is_empty rel then
    Delta.insertion (random_tuple rng arity ~key ~domain)
  else
    let tuples = Relation.to_sorted_list rel in
    let t, _ = List.nth tuples (Rng.int rng (List.length tuples)) in
    Delta.deletion t

(* One sweep of [d] at source [s] over the mirror relations, taking the
   local-answer path wherever the aux store offers one. *)
let sweep_delta view mirror aux ~use_aux s d =
  let p = ref (Partial.of_source_delta view s d) in
  let leg j =
    let local =
      if use_aux then
        Aux_store.local_answer aux ~target:j ~partial:!p
          ~overlay:(Delta.empty ())
      else None
    in
    match local with
    | Some p' -> p := p'
    | None -> p := Nested_loop.extend view !p ~with_relation:(j, mirror.(j))
  in
  for j = s - 1 downto 0 do leg j done;
  for j = s + 1 to View_def.n_sources view - 1 do leg j done;
  Algebra.select_project view !p

let check_property seed =
  let rng = Rng.create (Int64.of_int (1000 + seed)) in
  let view = random_view rng in
  let n = View_def.n_sources view in
  let base =
    Array.init n (fun j ->
        let rel = Relation.create () in
        for k = 0 to 3 do
          Relation.insert rel
            (random_tuple rng (View_def.width view j) ~key:k ~domain:3)
            1
        done;
        rel)
  in
  List.iter
    (fun mode ->
      let mname = Aux_store.mode_to_string mode in
      let mirror = Array.map Relation.copy base in
      let aux =
        Aux_store.create ~view ~mode ~initial:(Array.map Relation.copy base) ()
      in
      (* answerability matches the spec *)
      for j = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf
             "seed %d %s: source %d answerable iff tracked determines it"
             seed mname j)
          (expected_answerable view mode j)
          (Aux_store.answers aux j)
      done;
      (* advance aux and mirrors through some installed history *)
      for i = 0 to 5 do
        let s = Rng.int rng n in
        let d =
          random_installed_delta rng mirror.(s) (View_def.width view s)
            ~key:(100 + i) ~domain:3
        in
        (match Relation.apply mirror.(s) d with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "mirror apply");
        Aux_store.apply aux ~source:s d
      done;
      (* both paths agree on every leg of every sweep *)
      for s = 0 to n - 1 do
        let d =
          random_installed_delta rng mirror.(s) (View_def.width view s)
            ~key:(900 + s) ~domain:3
        in
        Alcotest.check Rig.delta
          (Printf.sprintf "seed %d %s: ΔV at source %d identical both paths"
             seed mname s)
          (sweep_delta view mirror aux ~use_aux:false s d)
          (sweep_delta view mirror aux ~use_aux:true s d)
      done;
      (* end to end on the engine: scripted run, aux on ≡ off *)
      let updates =
        List.init 6 (fun i ->
            let s = Rng.int rng n in
            ( (float_of_int i *. 1.3) +. 1.0, s,
              Delta.insertion
                (random_tuple rng (View_def.width view s) ~key:(500 + i)
                   ~domain:3) ))
      in
      let scripted aux_mode =
        Experiment.run_scripted ~aux_mode
          ~algorithm:(module Sweep : Algorithm.S)
          ~view
          ~initial:(Array.map Relation.copy base)
          ~updates ()
      in
      let off = scripted Aux_store.Off and on = scripted mode in
      Alcotest.check Rig.bag
        (Printf.sprintf "seed %d %s: scripted final view identical" seed mname)
        (Rig.final_view off) (Rig.final_view on);
      let vo = (Experiment.check_scripted off).Checker.verdict
      and vn = (Experiment.check_scripted on).Checker.verdict in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d %s: scripted verdict no weaker (off %s, on %s)"
           seed mname
           (Checker.verdict_to_string vo)
           (Checker.verdict_to_string vn))
        true
        (Checker.compare_verdict vn vo <= 0))
    [ Aux_store.Keys_only; Aux_store.Full ]

let property_case () = Rig.for_seeds aux_seeds check_property

(* ————— seeded differential storms × algorithms ————— *)

let skew_scenario ?(aux_mode = Aux_store.Off) seed =
  { Scenario.default with
    Scenario.name = "aux-diff";
    n_sources = 4;
    init_size = 12;
    domain = 8;
    stream =
      { Update_gen.default with
        Update_gen.n_updates = 40; mean_gap = 0.7;
        placement = Update_gen.Zipf 1.1 };
    aux_mode;
    seed = Int64.of_int seed }

(* Two warehouse crashes mid-run: the aux snapshot rides the checkpoint
   and the WAL tail re-applies installed deltas through the same
   Aux_store.apply path — results must not move. *)
let crashy sc =
  { sc with
    Scenario.name = "aux-crash";
    faults =
      { Fault.link = Fault.reliable;
        crashes = [];
        wh_crashes =
          [ { Fault.wh_down_at = 6.; wh_up_at = 14. };
            { Fault.wh_down_at = 22.; wh_up_at = 30. } ] } }

(* A mid-run source outage with deadlines and breakers armed. Under full
   aux no queries are sent, so no deadline can expire — updates from
   live sources keep installing locally while source 1 is down. *)
let outage sc =
  { sc with
    Scenario.name = "aux-outage";
    deadline = Some 8.;
    breaker_k = 3;
    probe_limit = 0;
    stall_cap = 64;
    faults =
      { Fault.link = Fault.reliable;
        crashes = [ { Fault.source = 1; down_at = 8.; up_at = 20. } ];
        wh_crashes = [] } }

let check_differential ~tag algo seed =
  let ctx fmt = Printf.sprintf ("%s seed %d: " ^^ fmt) tag seed in
  let sc = skew_scenario seed in
  let full = { sc with Scenario.aux_mode = Aux_store.Full } in
  let off = Experiment.run sc algo in
  let on = Experiment.run full algo in
  let on2 = Experiment.run full algo in
  Alcotest.(check bool) (ctx "aux-off run drains") true
    off.Experiment.completed;
  Alcotest.(check bool) (ctx "aux-on run drains") true on.Experiment.completed;
  Alcotest.check Rig.bag (ctx "full aux: final view bit-identical to off")
    off.Experiment.final_view on.Experiment.final_view;
  Rig.check_replay ~ctx:(Printf.sprintf "%s seed %d full-aux" tag seed) on on2;
  Alcotest.(check int) (ctx "replay: same local answers")
    on.Experiment.metrics.Metrics.local_answers
    on2.Experiment.metrics.Metrics.local_answers;
  let vo = off.Experiment.verdict.Checker.verdict
  and vn = on.Experiment.verdict.Checker.verdict in
  Alcotest.(check bool)
    (ctx "verdict no weaker with aux (off %s, on %s)"
       (Checker.verdict_to_string vo)
       (Checker.verdict_to_string vn))
    true
    (Checker.compare_verdict vn vo <= 0);
  Alcotest.(check int) (ctx "full aux: zero sweep queries") 0
    on.Experiment.metrics.Metrics.queries_sent;
  Alcotest.(check bool) (ctx "full aux: local answers accrued") true
    (on.Experiment.metrics.Metrics.local_answers > 0);
  Alcotest.(check bool) (ctx "full aux: messages/update < 1") true
    (Metrics.messages_per_update on.Experiment.metrics < 1.0);
  Alcotest.(check bool) (ctx "full aux: storage cost is accounted") true
    (on.Experiment.metrics.Metrics.aux_bytes > 0);
  (* keys-only: the chain's middle sources are answerable, its ends are
     not (payload columns are projected but untracked) — a genuine
     storage-vs-messages trade-off, still bit-identical *)
  let keys =
    Experiment.run { sc with Scenario.aux_mode = Aux_store.Keys_only } algo
  in
  Alcotest.check Rig.bag (ctx "keys-only aux: final view bit-identical to off")
    off.Experiment.final_view keys.Experiment.final_view;
  Alcotest.(check bool) (ctx "keys-only aux: some legs local") true
    (keys.Experiment.metrics.Metrics.local_answers > 0);
  Alcotest.(check bool) (ctx "keys-only aux: some legs still remote") true
    (keys.Experiment.metrics.Metrics.queries_sent > 0);
  (* note: keys-only can send MORE queries than off for the batching
     engines — faster ViewChanges mean fewer updates coalesce per
     frame — so only the per-leg hit rate is a sound invariant *)
  let hit = Metrics.aux_hit_rate keys.Experiment.metrics in
  Alcotest.(check bool) (ctx "keys-only aux: hit rate strictly in (0,1)")
    true
    (hit > 0. && hit < 1.);
  (* × warehouse crashes: checkpoint + WAL replay with aux state *)
  let coff = Experiment.run (crashy sc) algo in
  let con = Experiment.run (crashy full) algo in
  Alcotest.(check bool) (ctx "crash: aux-on run drains") true
    con.Experiment.completed;
  Alcotest.(check int) (ctx "crash: both crashes happened") 2
    con.Experiment.metrics.Metrics.wh_crashes;
  Alcotest.check Rig.bag (ctx "crash: aux-on ≡ aux-off")
    coff.Experiment.final_view con.Experiment.final_view;
  Alcotest.check Rig.bag (ctx "crash: aux-on ≡ crash-free aux-on")
    on.Experiment.final_view con.Experiment.final_view;
  Alcotest.(check bool) (ctx "crash: local answers survive recovery") true
    (con.Experiment.metrics.Metrics.local_answers > 0);
  (* × source outage with breakers armed *)
  let boff = Experiment.run (outage sc) algo in
  let bon = Experiment.run (outage full) algo in
  Alcotest.(check bool) (ctx "outage: aux-on run drains") true
    bon.Experiment.completed;
  Alcotest.check Rig.bag (ctx "outage: aux-on ≡ aux-off")
    boff.Experiment.final_view bon.Experiment.final_view;
  Alcotest.(check int) (ctx "outage: full aux never queries the dead source")
    0 bon.Experiment.metrics.Metrics.queries_sent;
  Alcotest.(check int) (ctx "outage: every update incorporated") 40
    bon.Experiment.metrics.Metrics.updates_incorporated

let diff_case ~tag algo () =
  Rig.for_seeds aux_seeds (check_differential ~tag algo)

let suite =
  [ Alcotest.test_case "aux mode: parse and print" `Quick test_mode_strings;
    Alcotest.test_case "aux snapshot: checkpoint + WAL replay byte identity"
      `Quick test_snapshot_byte_identity;
    QCheck_alcotest.to_alcotest qcheck_aux_image_bytes;
    Alcotest.test_case "aux x open breaker: local installs, zero messages"
      `Quick test_aux_with_open_breaker;
    Alcotest.test_case "property: answerable iff projections determine leg"
      `Slow property_case;
    Alcotest.test_case "differential: sweep" `Slow
      (diff_case ~tag:"sweep" (module Sweep : Algorithm.S));
    Alcotest.test_case "differential: sweep-batched" `Slow
      (diff_case ~tag:"sweep-batched" (module Sweep_batched : Algorithm.S));
    Alcotest.test_case "differential: nested-sweep" `Slow
      (diff_case ~tag:"nested-sweep" (module Nested_sweep : Algorithm.S));
    Alcotest.test_case "differential: strobe" `Slow
      (diff_case ~tag:"strobe" (module Strobe : Algorithm.S)) ]
