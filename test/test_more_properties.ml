(* A grab bag of deeper properties and less-travelled paths: latency
   models, engine caps, merge_overlap vs direct join, parser round trips
   through the algebra, and distribution sanity for the generators. *)

open Repro_relational
open Repro_sim
open Repro_workload

let test_latency_models () =
  let rng = Rng.create 12L in
  Alcotest.(check (float 0.)) "fixed" 2.5 (Latency.sample (Latency.Fixed 2.5) rng);
  for _ = 1 to 500 do
    let u = Latency.sample (Latency.Uniform (1., 2.)) rng in
    Alcotest.(check bool) "uniform in range" true (u >= 1. && u < 2.);
    let e = Latency.sample (Latency.Exponential 3.) rng in
    Alcotest.(check bool) "exponential nonnegative" true (e >= 0.)
  done;
  Alcotest.(check (float 1e-9)) "mean fixed" 2.5 (Latency.mean (Latency.Fixed 2.5));
  Alcotest.(check (float 1e-9)) "mean uniform" 1.5
    (Latency.mean (Latency.Uniform (1., 2.)));
  Alcotest.(check (float 1e-9)) "mean exp" 3. (Latency.mean (Latency.Exponential 3.))

let test_exponential_mean_converges () =
  let rng = Rng.create 5L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.3f within 5%% of 2.0" mean)
    true
    (mean > 1.9 && mean < 2.1)

let test_engine_max_events () =
  let e = Engine.create () in
  let rec tick () = Engine.schedule e ~delay:1.0 tick in
  tick ();
  (match Engine.run ~max_events:25 e with
  | `Max_events -> ()
  | _ -> Alcotest.fail "expected max_events stop");
  Alcotest.(check int) "exactly 25 ran" 25 (Engine.executed e)

let test_channel_counts () =
  let e = Engine.create () in
  let got = ref 0 in
  let ch =
    Channel.create e ~latency:(Latency.Fixed 1.) ~rng:(Rng.create 1L)
      ~deliver:(fun () -> incr got)
  in
  for _ = 1 to 7 do
    Channel.send ch ()
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "sent" 7 (Channel.sent ch);
  Alcotest.(check int) "delivered" 7 !got

(* merge_overlap must agree with computing the chain join directly. *)
let qcheck_merge_overlap_vs_direct =
  let view = Chain.view ~n:3 () in
  let gen_rel =
    QCheck.map
      (fun entries ->
        Relation.of_list
          (List.map
             (fun ((k : int), a, b) -> (Chain.tuple ~key:k ~a ~b, 1))
             (List.sort_uniq compare entries)))
      QCheck.(
        small_list (triple (int_range 0 9) (int_range 0 2) (int_range 0 2)))
  in
  QCheck.Test.make ~name:"merge_overlap = direct chain join" ~count:200
    (QCheck.triple gen_rel gen_rel gen_rel)
    (fun (r0, r1, r2) ->
      QCheck.assume (not (Relation.is_empty r1));
      (* direct: R0 ⋈ R1 ⋈ R2 *)
      let p0 = Partial.of_relation view 0 r0
      and p1 = Partial.of_relation view 1 r1
      and p2 = Partial.of_relation view 2 r2 in
      let direct = Algebra.join view (Algebra.join view p0 p1) p2 in
      (* split at 1: left = R0 ⋈ R1, right = distinct(R1) ⋈ R2, merged *)
      let left = Algebra.join view p0 p1 in
      let right =
        Algebra.join view
          { Partial.lo = 1; hi = 1;
            data = Delta.distinct (Delta.of_relation r1) }
          p2
      in
      let merged = Algebra.merge_overlap view ~at:1 ~left ~right in
      Partial.equal direct merged)

(* The parser's compiled views evaluate exactly like hand-built ones on
   random data. *)
let qcheck_parser_eval_equivalence =
  let hand = Chain.view ~n:2 ~projection:[| 0; 3 |] ~name:"hand" () in
  let parsed =
    View_parser.parse_exn
      "SELECT R0.k, R1.k FROM R0(k int key, a int, b int), R1(k int key, a \
       int, b int) WHERE R0.b = R1.a"
  in
  QCheck.Test.make ~name:"parsed view ≡ hand-built view" ~count:100
    (QCheck.pair
       (QCheck.small_list
          QCheck.(triple (int_range 0 5) (int_range 0 3) (int_range 0 3)))
       (QCheck.small_list
          QCheck.(triple (int_range 0 5) (int_range 0 3) (int_range 0 3))))
    (fun (l0, l1) ->
      let mk l =
        Relation.of_list
          (List.map
             (fun ((k : int), a, b) -> (Chain.tuple ~key:k ~a ~b, 1))
             (List.sort_uniq compare l))
      in
      let rels = [| mk l0; mk l1 |] in
      Relation.equal
        (Algebra.eval hand (fun i -> rels.(i)))
        (Algebra.eval parsed (fun i -> rels.(i))))

(* Compensation algebra: compensate(answer, Δ, temp) + error = answer. *)
let qcheck_compensate_inverse =
  let view = Chain.view ~n:2 () in
  QCheck.Test.make ~name:"compensation subtracts exactly the error term"
    ~count:200
    (QCheck.pair
       (QCheck.small_list
          QCheck.(triple (int_range 0 4) (int_range 0 2) (int_range 0 2)))
       (QCheck.small_list
          QCheck.(pair (triple (int_range 0 4) (int_range 0 2) (int_range 0 2))
             (int_range (-2) 2))))
    (fun (temp_l, delta_l) ->
      let temp =
        { Partial.lo = 1; hi = 1;
          data =
            Delta.of_list
              (List.map
                 (fun ((k : int), a, b) -> (Chain.tuple ~key:k ~a ~b, 1))
                 (List.sort_uniq compare temp_l)) }
      in
      let interfering =
        Delta.of_list
          (List.map
             (fun (((k : int), a, b), c) -> (Chain.tuple ~key:k ~a ~b, c))
             delta_l)
      in
      (* pretend the source answered with (R + Δ) ⋈ temp where R = ∅ *)
      let answer =
        Algebra.join view
          (Partial.of_source_delta view 0 interfering)
          temp
      in
      let fixed = Algebra.compensate view ~answer ~interfering ~temp in
      (* with R = ∅ the corrected answer must be empty *)
      Partial.is_empty fixed)

(* Update_queue: take_from_source leaves relative order of the rest. *)
let qcheck_queue_take_preserves_order =
  QCheck.Test.make ~name:"queue extraction preserves residual order"
    (QCheck.small_list (QCheck.int_range 0 3))
    (fun sources ->
      let open Repro_warehouse in
      let q = Update_queue.create ~view:(Chain.view ~n:4 ()) () in
      List.iteri
        (fun i s ->
          ignore
            (Update_queue.append q
               { Repro_protocol.Message.txn =
                   { Repro_protocol.Message.source = s; seq = i };
                 delta = Delta.insertion (Tuple.ints [ i ]);
                 occurred_at = 0.; global = None }
               ~arrived_at:0.))
        sources;
      ignore (Update_queue.take_from_source q 0);
      let rest =
        List.map
          (fun e -> e.Update_queue.arrival)
          (Update_queue.entries q)
      in
      rest = List.sort compare rest)

let test_zipf_most_popular_first () =
  let rng = Rng.create 4L in
  let counts = Array.make 6 0 in
  for _ = 1 to 6000 do
    let k = Rng.zipf rng ~n:6 ~theta:1.0 in
    counts.(k) <- counts.(k) + 1
  done;
  for i = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d ≥ rank %d (%d vs %d)" i (i + 1) counts.(i)
         counts.(i + 1))
      true
      (counts.(i) + 80 >= counts.(i + 1))
  done

let suite =
  [ Alcotest.test_case "latency models" `Quick test_latency_models;
    Alcotest.test_case "exponential mean converges" `Quick
      test_exponential_mean_converges;
    Alcotest.test_case "engine max_events" `Quick test_engine_max_events;
    Alcotest.test_case "channel send/deliver counts" `Quick
      test_channel_counts;
    QCheck_alcotest.to_alcotest qcheck_merge_overlap_vs_direct;
    QCheck_alcotest.to_alcotest qcheck_parser_eval_equivalence;
    QCheck_alcotest.to_alcotest qcheck_compensate_inverse;
    QCheck_alcotest.to_alcotest qcheck_queue_take_preserves_order;
    Alcotest.test_case "zipf rank ordering" `Quick
      test_zipf_most_popular_first ]
