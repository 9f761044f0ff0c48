(* Benchmark / experiment driver.

   With no arguments it prints every page of Paper_experiments.registry
   (T1, F5, F2, E1–E9, A1–A3 regenerate the paper's tables, figures and
   claims, see DESIGN.md §4; P1 is the preset-counter regression page)
   and then runs the Bechamel micro-benchmarks of the hot paths. A single
   argument selects one of them: a registry id ("t1", "f5", "f2",
   "e1".."e9", "a1".."a3", "p1") or "micro". *)

open Repro_relational
open Repro_sim
open Repro_workload
open Repro_harness

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let rng = Rng.create 2024L in
  let view3 = Chain.view ~n:3 () in
  let rels = Chain.populate view3 ~size:1000 ~domain:64 rng in
  let delta = Delta.insertion (Chain.tuple ~key:10_000 ~a:7 ~b:9) in
  (* source 0's relation as a partial, sharing its bag *)
  let r0 = { Partial.lo = 0; hi = 0; data = Relation.as_bag rels.(0) } in
  let bench_hash_join =
    Test.make ~name:"hash join 1k x 1k"
      (Staged.stage (fun () ->
           let left = Partial.of_relation view3 0 rels.(0) in
           let right = Partial.of_relation view3 1 rels.(1) in
           ignore (Algebra.join view3 left right)))
  in
  let bench_sweep_step =
    Test.make ~name:"sweep step (dR join R, 1k tuples)"
      (Staged.stage (fun () ->
           let p = Partial.of_source_delta view3 1 delta in
           ignore (Algebra.join view3 r0 p)))
  in
  let bench_compensate =
    let temp = Partial.of_source_delta view3 1 delta in
    let answer = Algebra.join view3 r0 temp in
    Test.make ~name:"local compensation"
      (Staged.stage (fun () ->
           ignore
             (Algebra.compensate view3 ~answer
                ~interfering:(Delta.deletion (Chain.tuple ~key:0 ~a:1 ~b:1))
                ~temp)))
  in
  let bench_full_eval =
    Test.make ~name:"full view recompute (3 x 1k)"
      (Staged.stage (fun () -> ignore (Algebra.eval view3 (fun i -> rels.(i)))))
  in
  let bench_one_key_build =
    (* the worst build for the join index: all 4000 tuples of source 1
       under one join value, probed by the one tuple of source 0 *)
    let view2 = Chain.view ~n:2 () in
    let rels2 =
      [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:7 ];
         Relation.of_tuples
           (List.init 4000 (fun k -> Chain.tuple ~key:k ~a:7 ~b:k)) |]
    in
    Test.make ~name:"eval, 4k-tuple build under one join value, 1 probe"
      (Staged.stage (fun () -> ignore (Algebra.eval view2 (Array.get rels2))))
  in
  let bench_cross_product =
    (* a junction without equalities: the 8 tuples are one key *)
    let view =
      View_def.make ~name:"cross" ~schemas:(Chain.schemas ~n:2)
        ~joins:[| Join_spec.make [] |] ~projection:[| 0; 3 |] ()
    in
    let left = Partial.of_relation view 0 rels.(0) in
    let right =
      { Partial.lo = 1; hi = 1;
        data =
          Delta.of_list
            (List.init 8 (fun k -> (Chain.tuple ~key:k ~a:k ~b:k, 1))) }
    in
    Test.make ~name:"hash join 1k x 8, cross-product junction"
      (Staged.stage (fun () -> ignore (Algebra.join view left right)))
  in
  let bench_delta_apply =
    Test.make ~name:"delta apply to 1k-tuple bag"
      (Staged.stage (fun () ->
           let b = Bag.copy (Relation.as_bag rels.(2)) in
           Bag.merge_into ~into:b delta))
  in
  let bench_sim_round =
    Test.make ~name:"simulated SWEEP run (3 sources, 10 updates)"
      (Staged.stage (fun () ->
           let sc =
             { Scenario.default with
               init_size = 30;
               stream =
                 { Update_gen.default with n_updates = 10; mean_gap = 0.5 } }
           in
           ignore
             (Experiment.run ~check:false sc
                (module Repro_warehouse.Sweep : Repro_warehouse.Algorithm.S))))
  in
  let bench_indexed_probe =
    (* the source-side fast path: probe a persistent index instead of
       building a hash table over the whole relation per query *)
    let tbl = Repro_source.Base_table.create ~source:0 ~view:view3 rels.(0) in
    (* the table builds its index at its first leg: before the runs *)
    ignore (Repro_source.Base_table.indexes tbl);
    Test.make ~name:"sweep step via persistent index (1k tuples)"
      (Staged.stage (fun () ->
           let p = Partial.of_source_delta view3 1 delta in
           ignore (Repro_source.Base_table.extend tbl p)))
  in
  let bench_sim_round_batched =
    (* tight gaps so the queue actually builds up and sweeps amortize *)
    Test.make ~name:"simulated batched-SWEEP run (3 sources, 10 updates)"
      (Staged.stage (fun () ->
           let sc =
             { Scenario.default with
               init_size = 30;
               stream =
                 { Update_gen.default with n_updates = 10; mean_gap = 0.1 } }
           in
           ignore
             (Experiment.run ~check:false sc
                (module Repro_warehouse.Sweep_batched
                : Repro_warehouse.Algorithm.S))))
  in
  let bench_queue_churn =
    (* the former O(n²) hot spot: append/drain a deep update queue *)
    let upd seq =
      { Repro_protocol.Message.txn = { Repro_protocol.Message.source = 0; seq };
        delta; occurred_at = 0.; global = None }
    in
    Test.make ~name:"update queue churn (1k append + batch drain)"
      (Staged.stage (fun () ->
           let q = Repro_warehouse.Update_queue.create ~view:view3 () in
           for seq = 0 to 999 do
             ignore
               (Repro_warehouse.Update_queue.append q (upd seq) ~arrived_at:0.)
           done;
           while
             Repro_warehouse.Update_queue.take q ~max:16 <> []
           do
             ()
           done))
  in
  let bench_stream_step =
    (* one generated update against four 3000-tuple source mirrors. At
       p_insert 0.4 a step removes 0.2 tuples on average, so a mirror
       that falls below 3000 gets one insert back, which keeps the size,
       and with it the cost measured, fixed for the whole run *)
    let view4 = Chain.view ~n:4 () in
    let mirrors =
      Array.map Update_gen.Mirror.of_relation
        (Chain.populate view4 ~size:3000 ~domain:3000 (Rng.create 7L))
    in
    let srng = Rng.create 11L in
    let cfg = { Update_gen.default with p_insert = 0.4; domain = 3000 } in
    let refill = { cfg with p_insert = 1.0 } in
    Test.make ~name:"update-stream step, 4 x 3000 live, p_insert 0.4"
      (Staged.stage (fun () ->
           let m = mirrors.(Rng.int srng 4) in
           ignore (Update_gen.Mirror.gen srng cfg m);
           if Update_gen.Mirror.live m < 3000 then
             ignore (Update_gen.Mirror.gen srng refill m)))
  in
  let bench_checkpoint =
    (* the durability cost per checkpoint: 16 view tuples change between
       two checkpoints of a 4000-tuple view, each alternating between
       count 1 and 2 so the view keeps its size. The store encodes the
       checkpoint and keeps it, as a warehouse crash run does *)
    let module Durable = Repro_durability in
    let tuple k = Tuple.ints [ k; k * 7 mod 13; k mod 97 ] in
    let counts = Array.make 4000 1 in
    let view = Durable.Canon.create () in
    Array.iteri (fun k c -> Durable.Canon.add view (tuple k) c) counts;
    let store = Durable.Store.create () in
    Durable.Store.set_capture store (fun () ->
        { Durable.Checkpoint.taken_at = 0.; wal_pos = 0; view; queue = [];
          queue_next_arrival = 0; next_qid = 0; algo = Durable.Snap.Unit;
          recv_expected = [||]; senders = [||]; breaker = Durable.Snap.Unit;
          aux = None });
    let crng = Rng.create 5L in
    Test.make ~name:"store checkpoint, 4k-tuple view, 16 tuples changed"
      (Staged.stage (fun () ->
           for _ = 1 to 16 do
             let k = Rng.int crng 4000 in
             let d = if counts.(k) = 1 then 1 else -1 in
             counts.(k) <- counts.(k) + d;
             Durable.Canon.add view (tuple k) d
           done;
           Durable.Store.checkpoint_now store))
  in
  let bench_bag_add =
    let fresh =
      Array.init 1000 (fun k -> Chain.tuple ~key:k ~a:(k mod 64) ~b:k)
    in
    Test.make ~name:"Bag.add, 1k fresh tuples"
      (Staged.stage (fun () ->
           let b = Bag.create () in
           Array.iter (fun tup -> Bag.add b tup 1) fresh))
  in
  let bench_recompute =
    (* one Recompute.finish on recompute-full's data: eval a 4-chain of
       500-tuple relations over domain 500, then diff the view into it *)
    let view4 = Chain.view ~n:4 () in
    let rels4 = Chain.populate view4 ~size:500 ~domain:500 (Rng.create 42L) in
    let current = Relation.as_bag (Algebra.eval view4 (fun i -> rels4.(i))) in
    Test.make ~name:"recompute 4 × 500, recompute-full's shape"
      (Staged.stage (fun () ->
           let fresh = Algebra.eval view4 (fun i -> rels4.(i)) in
           Bag.diff_into ~into:(Relation.as_bag fresh) current))
  in
  let bench_recompute_one_changed =
    (* the same recompute through one evaluator, as Recompute keeps it:
       each run toggles one tuple of the next source in turn, then every
       source answers with a Relation.copy of its table, as Source_node
       does, so at most one of the three join indexes is rebuilt; the
       evaluator's change is installed into the view it read *)
    let view4 = Chain.view ~n:4 () in
    let tables = Chain.populate view4 ~size:500 ~domain:500 (Rng.create 42L) in
    let eval = Algebra.evaluator view4 in
    let current = Bag.create () in
    Bag.merge_into ~into:current (eval (Array.get tables) ~old:current);
    let run = ref 0 in
    Test.make ~name:"recompute 4 × 500, one source changed per run"
      (Staged.stage (fun () ->
           let j = !run land 3 in
           incr run;
           let tup = Chain.tuple ~key:(100_000 + j) ~a:7 ~b:7 in
           if Relation.count tables.(j) tup = 0 then
             Relation.insert tables.(j) tup 1
           else Relation.delete tables.(j) tup 1;
           let snapshots = Array.map Relation.copy tables in
           Bag.merge_into ~into:current
             (eval (Array.get snapshots) ~old:current)))
  in
  let bench_aggregate_read =
    (* the serving tier's aggregate read right after an install moved
       the view: one of 3000 view tuples changes (count 1 <-> 2, so the
       view keeps its size), then the read takes the view's total *)
    let view = Bag.create () in
    for k = 0 to 2999 do
      Bag.add view (Chain.tuple ~key:k ~a:(k mod 64) ~b:k) 1
    done;
    let arng = Rng.create 3L in
    Test.make ~name:"aggregate read, 3k-tuple view, after one install"
      (Staged.stage (fun () ->
           let k = Rng.int arng 3000 in
           let tup = Chain.tuple ~key:k ~a:(k mod 64) ~b:k in
           Bag.add view tup (if Bag.count view tup = 1 then 1 else -1);
           ignore (Bag.total view)))
  in
  let queued_compensation ~name ~b ~extras =
    (* an answer from source 0 compensated against the 64 updates from
       source 0 still queued, probing the queue's index of their
       junction with source 1, keyed on [b] (TempView's [a] is 7): each
       run, one more update arrives and the oldest leaves, so the queue
       holds 64 *)
    let module Q = Repro_warehouse.Update_queue in
    let temp = Partial.of_source_delta view3 1 delta in
    let answer = Algebra.join view3 r0 temp in
    let upd seq =
      { Repro_protocol.Message.txn = { Repro_protocol.Message.source = 0; seq };
        delta =
          Delta.insertion (Chain.tuple ~key:(20_000 + seq) ~a:seq ~b:(b seq));
        occurred_at = 0.; global = None }
    in
    let q = Q.create ~view:view3 () in
    for seq = 0 to 63 do
      ignore (Q.append q (upd seq) ~arrived_at:0.)
    done;
    let next = ref 64 in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Q.append q (upd !next) ~arrived_at:0.);
           incr next;
           ignore (Q.pop q);
           let lj = Q.interference q 0 in
           ignore
             (Algebra.compensate ~index:lj.Q.index ~extras view3 ~answer
                ~interfering:lj.Q.sum ~temp)))
  in
  let bench_queued_compensation =
    queued_compensation ~b:(fun _ -> 7) ~extras:[]
      ~name:"compensation against 64 queued updates from one source"
  in
  let bench_right_leg_compensation =
    (* the batched engine's right leg: the batch's own delta D_j of the
       source is a further term of the error, beside L_j *)
    queued_compensation ~b:(fun _ -> 7)
      ~extras:[ Delta.insertion (Chain.tuple ~key:30_000 ~a:1 ~b:7) ]
      ~name:"right-leg compensation, D_j + 64 queued updates"
  in
  let bench_unjoined_compensation =
    (* at fan-out 1, as on batched-backlog, the queued updates rarely
       join TempView: here none does, and the error term is empty *)
    queued_compensation ~b:(fun seq -> 100 + seq) ~extras:[]
      ~name:"compensation against 64 queued updates, none joining"
  in
  let bench_view_probe =
    (* a view of sweep-fanout's size: each run looks up one tuple it
       holds and one it does not, both fresh arrays, so every probe
       compares tuples rather than pointers *)
    let n = 1 lsl 17 in
    let tup k = Chain.tuple ~key:k ~a:(k mod 250) ~b:(k * 7 mod 250) in
    let view = Bag.create () in
    for k = 0 to n - 1 do
      Bag.add view (tup k) 1
    done;
    let hits = Array.init 1024 (fun i -> tup (i * 127 mod n)) in
    let misses = Array.init 1024 (fun i -> tup (n + i)) in
    let i = ref 0 in
    Test.make ~name:"probe a 128k-tuple view (hit and miss)"
      (Staged.stage (fun () ->
           i := (!i + 1) land 1023;
           ignore (Bag.count view hits.(!i) + Bag.count view misses.(!i))))
  in
  let bench_install =
    (* a SWEEP install on sweep-fanout: 75 view tuples merge into a view
       of 2^17. Runs alternate between inserting 75 tuples the view
       lacks and deleting them again, from one of 1,024 deltas in turn,
       each built from fresh arrays as a sweep's ΔV is, so the view
       keeps its size and the slots a run touches (about 20 MB of cache
       lines over the 1,024) are rarely in L2 *)
    let n = 1 lsl 17 in
    let tup k = Chain.tuple ~key:k ~a:(k mod 250) ~b:(k * 7 mod 250) in
    let view = Bag.create () in
    for k = 0 to n - 1 do
      Bag.add view (tup k) 1
    done;
    let delta i sign =
      Delta.of_list (List.init 75 (fun j -> (tup (n + (i * 75) + j), sign)))
    in
    let inserts = Array.init 1024 (fun i -> delta i 1) in
    let deletes = Array.init 1024 (fun i -> delta i (-1)) in
    let run = ref 0 in
    Test.make ~name:"install 75 tuples into a 128k-tuple view"
      (Staged.stage (fun () ->
           let i = (!run lsr 1) land 1023 in
           let d = if !run land 1 = 0 then inserts.(i) else deletes.(i) in
           incr run;
           ignore (Bag.merge_checked ~into:view d)))
  in
  let bench_copy_add =
    (* a snapshot that then changes: the copy, then the first add *)
    let rel =
      Relation.of_tuples
        (List.init 4000 (fun k -> Chain.tuple ~key:k ~a:(k mod 64) ~b:k))
    in
    let fresh = Chain.tuple ~key:4000 ~a:1 ~b:1 in
    Test.make ~name:"Relation.copy of a 4k-tuple relation, then one add"
      (Staged.stage (fun () -> Relation.insert (Relation.copy rel) fresh 1))
  in
  let bench_trace_off =
    (* a source's apply line with tracing off: the call sites' guard is
       the whole cost, where an unguarded emit built a closure per
       argument before it could drop the line *)
    let off = Trace.create () in
    Test.make ~name:"guarded Trace.emit, tracing off (2 arguments)"
      (Staged.stage (fun () ->
           if Trace.enabled off then
             Trace.emit off ~time:1.5 ~who:"source0" "apply %d = %a" 7
               Delta.pp delta))
  in
  let bench_parser =
    Test.make ~name:"parse SQL view definition"
      (Staged.stage (fun () ->
           ignore
             (View_parser.parse_exn
                "SELECT R2.D, R3.F FROM R1(A int, B int), R2(C int, D int), \
                 R3(E int, F int) WHERE R1.B = R2.C AND R2.D = R3.E")))
  in
  [ bench_hash_join; bench_sweep_step; bench_indexed_probe; bench_compensate;
    bench_full_eval; bench_one_key_build; bench_cross_product;
    bench_delta_apply; bench_queue_churn; bench_stream_step;
    bench_checkpoint; bench_parser; bench_sim_round;
    bench_sim_round_batched; bench_bag_add; bench_recompute;
    bench_recompute_one_changed;
    bench_aggregate_read; bench_queued_compensation;
    bench_right_leg_compensation; bench_unjoined_compensation;
    bench_view_probe; bench_install; bench_copy_add; bench_trace_off ]

(* Words allocated on either heap: [Gc.minor_words], plus the words
   allocated directly on the major heap, which is where an array of
   more than 256 words goes. [Gc.counters] counts those at once, and
   the words promoted out of the minor heap are subtracted, because
   the major count includes them and the minor count already has them.
   Bechamel's own [minor_allocated] reads [Gc.quick_stat], which OCaml
   5 brings up to date only at a minor collection, so short runs would
   read 0. *)
module Words = struct
  type witness = unit

  let label () = "words"
  let unit () = "words"
  let make () = ()
  let load () = ()
  let unload () = ()

  let get () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
end

let words =
  Bechamel.Measure.(instance (module Words) (register (module Words)))

(* Run the micro-benchmarks and return (name, ns/run, r², words/run)
   estimates; tests whose time fit fails are dropped. r² is None when
   the fit has no spread to explain (e.g. a single sample); words/run,
   the allocation on both heaps, is None when its fit fails. *)
let micro_estimates () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = words in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let finite = function
    | Some r when Float.is_finite r -> Some r
    | _ -> None
  in
  let estimate ols =
    match Analyze.OLS.estimates ols with
    | Some [ est ] -> finite (Some est)
    | _ -> None
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ clock; alloc ] test in
      let times = Analyze.all ols clock results in
      let words = Analyze.all ols alloc results in
      Hashtbl.fold
        (fun name ols acc ->
          match estimate ols with
          | Some est ->
              let r2 = finite (Analyze.OLS.r_square ols) in
              let w = Option.bind (Hashtbl.find_opt words name) estimate in
              (name, est, r2, w) :: acc
          | None -> acc)
        times []
      |> List.sort compare)
    (micro_tests ())

let run_micro () =
  print_endline
    "MICRO. Bechamel micro-benchmarks of the hot paths (monotonic clock, \
     words allocated on both heaps).";
  let rows =
    List.map
      (fun (name, ns, r2, words) ->
        [ name; Printf.sprintf "%.0f" ns;
          Option.fold ~none:"-" ~some:(Printf.sprintf "%.4f") r2;
          Option.fold ~none:"-" ~some:(Printf.sprintf "%.0f") words ])
      (micro_estimates ())
  in
  print_string
    (Report.table ~title:""
       ~headers:[ "benchmark"; "ns/run"; "r²"; "words/run" ]
       ~rows ())

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

let known =
  List.map (fun (Paper_experiments.Any e) -> e.id) Paper_experiments.registry
  @ [ "micro" ]

let run_one id =
  match
    List.find_opt
      (fun (Paper_experiments.Any e) -> e.id = id)
      Paper_experiments.registry
  with
  | Some (Any e) -> print_string (Report.render (e.page (e.rows ())))
  | None when id = "micro" -> run_micro ()
  | None ->
      Printf.eprintf "unknown experiment %S; known: %s\n" id
        (String.concat ", " known);
      exit 2

let usage () =
  Printf.eprintf "usage: main.exe [%s]\n" (String.concat "|" known);
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      print_endline
        "Reproduction benchmarks: Efficient View Maintenance at Data \
         Warehouses (SIGMOD'97)";
      print_endline
        "===========================================================================";
      List.iter
        (fun id ->
          print_newline ();
          run_one id;
          print_newline ())
        known
  | [ id ] when not (String.starts_with ~prefix:"--" id) -> run_one id
  | _ -> usage ()
