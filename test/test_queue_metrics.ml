open Repro_relational
open Repro_protocol
open Repro_warehouse

let view = Repro_workload.Chain.view ~n:5 ()

let upd ~source ~seq =
  { Message.txn = { Message.source; seq };
    delta = Delta.insertion (Tuple.ints [ seq ]); occurred_at = 0.; global = None }

let test_fifo () =
  let q = Update_queue.create ~view () in
  let _ = Update_queue.append q (upd ~source:0 ~seq:0) ~arrived_at:1. in
  let _ = Update_queue.append q (upd ~source:1 ~seq:0) ~arrived_at:2. in
  Alcotest.(check int) "length" 2 (Update_queue.length q);
  (match Update_queue.peek q with
  | Some e -> Alcotest.(check int) "peek is oldest" 0 e.Update_queue.arrival
  | None -> Alcotest.fail "expected entry");
  (match Update_queue.pop q with
  | Some e -> Alcotest.(check int) "pop oldest" 0 e.Update_queue.arrival
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check int) "one left" 1 (Update_queue.length q)

let test_arrival_numbers_monotonic () =
  let q = Update_queue.create ~view () in
  Alcotest.(check int) "initially -1" (-1) (Update_queue.last_arrival q);
  let e1 = Update_queue.append q (upd ~source:0 ~seq:0) ~arrived_at:0. in
  ignore (Update_queue.pop q);
  let e2 = Update_queue.append q (upd ~source:0 ~seq:1) ~arrived_at:0. in
  Alcotest.(check bool) "arrival grows across pops" true
    (e2.Update_queue.arrival > e1.Update_queue.arrival);
  Alcotest.(check int) "watermark" e2.Update_queue.arrival
    (Update_queue.last_arrival q)

let test_from_source () =
  let q = Update_queue.create ~view () in
  let _ = Update_queue.append q (upd ~source:0 ~seq:0) ~arrived_at:0. in
  let _ = Update_queue.append q (upd ~source:1 ~seq:0) ~arrived_at:0. in
  let _ = Update_queue.append q (upd ~source:0 ~seq:1) ~arrived_at:0. in
  Alcotest.(check int) "two from 0" 2
    (List.length (Update_queue.from_source q 0));
  Alcotest.(check int) "non-destructive" 3 (Update_queue.length q);
  let taken = Update_queue.take_from_source q 0 in
  Alcotest.(check (list int)) "taken oldest-first"
    [ 0; 1 ]
    (List.map (fun e -> e.Update_queue.update.Message.txn.Message.seq) taken);
  Alcotest.(check int) "only source 1 remains" 1 (Update_queue.length q);
  (match Update_queue.peek q with
  | Some e ->
      Alcotest.(check int) "remaining is source 1" 1
        e.Update_queue.update.Message.txn.Message.source
  | None -> Alcotest.fail "expected entry")

let test_capacity () =
  let q = Update_queue.create ~capacity:2 ~view () in
  let _ = Update_queue.append q (upd ~source:0 ~seq:0) ~arrived_at:0. in
  let _ = Update_queue.append q (upd ~source:0 ~seq:1) ~arrived_at:0. in
  Alcotest.(check bool) "third append raises" true
    (match Update_queue.append q (upd ~source:0 ~seq:2) ~arrived_at:0. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  ignore (Update_queue.pop q);
  (* a pop must free a slot even while entries sit in the rear list *)
  let _ = Update_queue.append q (upd ~source:0 ~seq:3) ~arrived_at:0. in
  Alcotest.(check int) "back at capacity" 2 (Update_queue.length q)

let test_take () =
  let q = Update_queue.create ~view () in
  for seq = 0 to 4 do
    ignore (Update_queue.append q (upd ~source:0 ~seq) ~arrived_at:0.)
  done;
  let seqs es =
    List.map (fun e -> e.Update_queue.update.Message.txn.Message.seq) es
  in
  Alcotest.(check (list int)) "drains oldest-first" [ 0; 1; 2 ]
    (seqs (Update_queue.take q ~max:3));
  Alcotest.(check int) "two left" 2 (Update_queue.length q);
  Alcotest.(check (list int)) "max may exceed length" [ 3; 4 ]
    (seqs (Update_queue.take q ~max:10));
  Alcotest.(check (list int)) "empty queue yields nothing" []
    (seqs (Update_queue.take q ~max:1));
  Alcotest.(check bool) "negative max raises" true
    (match Update_queue.take q ~max:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_from_source_after_wraparound () =
  (* exercise the rear→front normalization: pop past the initial front,
     then interrogate per-source views that span both internal lists *)
  let q = Update_queue.create ~view () in
  let _ = Update_queue.append q (upd ~source:0 ~seq:0) ~arrived_at:0. in
  let _ = Update_queue.append q (upd ~source:1 ~seq:0) ~arrived_at:0. in
  ignore (Update_queue.pop q);
  let _ = Update_queue.append q (upd ~source:0 ~seq:1) ~arrived_at:0. in
  let _ = Update_queue.append q (upd ~source:1 ~seq:1) ~arrived_at:0. in
  let seqs es =
    List.map (fun e -> e.Update_queue.update.Message.txn.Message.seq) es
  in
  Alcotest.(check (list int)) "source 1 in order" [ 0; 1 ]
    (seqs (Update_queue.from_source q 1));
  Alcotest.(check (list int)) "take_from_source in order" [ 1 ]
    (seqs (Update_queue.take_from_source q 0));
  Alcotest.(check (list int)) "others preserved in order" [ 0; 1 ]
    (seqs (Update_queue.entries q))

(* Property: under any interleaving of appends and pops the queue behaves
   as a FIFO — pops come back in append order, length tracks the model. *)
let qcheck_fifo_model =
  QCheck.Test.make ~name:"queue ≡ FIFO model under interleaved ops"
    ~count:300
    QCheck.(small_list (option (int_range 0 3)))
    (fun ops ->
      (* Some src = append from that source, None = pop *)
      let q = Update_queue.create ~view () in
      let model = ref [] (* newest-first *) and popped_ok = ref true in
      let seq = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Some source ->
              incr seq;
              let u = upd ~source ~seq:!seq in
              ignore (Update_queue.append q u ~arrived_at:0.);
              model := u :: !model
          | None -> (
              match (Update_queue.pop q, List.rev !model) with
              | None, [] -> ()
              | Some e, oldest :: rest ->
                  if e.Update_queue.update != oldest then popped_ok := false;
                  model := List.rev rest
              | Some _, [] | None, _ :: _ -> popped_ok := false))
        ops;
      !popped_ok
      && Update_queue.length q = List.length !model
      && List.map (fun e -> e.Update_queue.update) (Update_queue.entries q)
         = List.rev !model)

(* Model test for the per-source index: random sequences of every
   mutating operation. After each step [from_source j] must equal the
   filter of [entries] for every source (and one never used), [length]
   must agree, and [entries] must hold exactly the modelled arrivals in
   increasing order — a push_front only ever returns the most recently
   popped entry, which is older than everything still queued.

   The running L_j sums are checked at the same points: [interference j]
   must count the entries of [from_source j] and sum their deltas
   exactly as [Delta.sum] does, while every queued delta stays as it was
   appended and is never the sum bag itself. Each lane also indexes its
   sum on each of the source's junctions in the 5-chain [view], and
   every index must equal a fresh [Algebra.indexes] build over that
   [Delta.sum]. Deltas insert and delete four shared tuples, two under
   each value of either join column, so sums cancel to zero and lose
   entries, and keys go from one entry to two and back. *)
let qcheck_per_source_index =
  QCheck.Test.make ~name:"from_source ≡ filter over entries under every op"
    ~count:300
    QCheck.(small_list (pair (int_range 0 7) (int_range 0 3)))
    (fun ops ->
      let q = ref (Update_queue.create ~view ()) in
      let model = ref [] (* arrival numbers queued, any order *) in
      let popped = ref [] (* most recent first, for push_front *) in
      let seq = ref 0 in
      let appended = Hashtbl.create 16 (* arrival -> copy of its delta *) in
      let source_of e = e.Update_queue.update.Message.txn.Message.source in
      let delta_of e = e.Update_queue.update.Message.delta in
      let arrivals es = List.map (fun e -> e.Update_queue.arrival) es in
      let remove taken =
        let gone = arrivals taken in
        model := List.filter (fun a -> not (List.mem a gone)) !model
      in
      let consistent () =
        let all = Update_queue.entries !q in
        arrivals all = List.sort compare !model
        && Update_queue.length !q = List.length all
        && List.for_all
             (fun j ->
               arrivals (Update_queue.from_source !q j)
               = arrivals (List.filter (fun e -> source_of e = j) all))
             [ 0; 1; 2; 3; 4 ]
        && List.for_all
             (fun j ->
               let mine = Update_queue.from_source !q j in
               let lj = Update_queue.interference !q j in
               let sum = lj.Update_queue.sum in
               let expected = Delta.sum (List.map delta_of mine) in
               lj.Update_queue.count = List.length mine
               && Delta.equal sum expected
               && Rig.indexes_equal lj.Update_queue.index
                    (Algebra.indexes view j expected)
               && List.for_all
                    (fun e ->
                      delta_of e != sum
                      && Delta.equal (delta_of e)
                           (Hashtbl.find appended e.Update_queue.arrival))
                    mine)
             [ 0; 1; 2; 3; 4 ]
      in
      List.for_all
        (fun (op, k) ->
          (match op with
          | 0 | 1 ->
              incr seq;
              let tup =
                Repro_workload.Chain.tuple ~key:(!seq mod 4) ~a:(!seq mod 2)
                  ~b:(!seq mod 4 / 2)
              in
              let u =
                { (upd ~source:k ~seq:!seq) with
                  Message.delta =
                    (if !seq mod 3 = 0 then Delta.deletion tup
                     else Delta.insertion tup) }
              in
              let e = Update_queue.append !q u ~arrived_at:0. in
              Hashtbl.replace appended e.Update_queue.arrival
                (Delta.copy u.Message.delta);
              model := e.Update_queue.arrival :: !model
          | 2 ->
              Option.iter
                (fun e ->
                  popped := e :: !popped;
                  remove [ e ])
                (Update_queue.pop !q)
          | 3 -> (
              match !popped with
              | e :: rest ->
                  popped := rest;
                  Update_queue.push_front !q e;
                  model := e.Update_queue.arrival :: !model
              | [] -> ())
          | 4 ->
              remove
                (Update_queue.take_eligible !q ~max:1 ~eligible:(fun e ->
                     source_of e <> k))
          | 5 -> remove (Update_queue.take !q ~max:k)
          | 6 ->
              if k mod 2 = 0 then
                remove
                  (Update_queue.take_eligible !q ~max:(k + 1) ~eligible:(fun e ->
                       source_of e <> k))
              else remove (Update_queue.take_from_source !q k)
          | _ ->
              q :=
                Update_queue.of_entries ~view (Update_queue.entries !q)
                  ~next_arrival:(Update_queue.last_arrival !q + 1));
          consistent ())
        ops)

let test_metrics_batches () =
  let m = Metrics.create () in
  Alcotest.(check (float 1e-9)) "0/0 guarded" 0.
    (Metrics.messages_per_update m);
  Metrics.note_batch m 3;
  Metrics.note_batch m 5;
  Metrics.note_batch m 1;
  Alcotest.(check int) "batch count" 3 m.Metrics.batches;
  Alcotest.(check int) "max batch" 5 m.Metrics.max_batch;
  m.Metrics.queries_sent <- 12;
  m.Metrics.answers_received <- 12;
  m.Metrics.updates_incorporated <- 9;
  Alcotest.(check (float 1e-9)) "messages per update" (24. /. 9.)
    (Metrics.messages_per_update m)

let test_metrics_staleness () =
  let m = Metrics.create () in
  Metrics.note_staleness m 2.0;
  Metrics.note_staleness m 4.0;
  m.Metrics.updates_incorporated <- 2;
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Metrics.mean_staleness m);
  Alcotest.(check (float 1e-9)) "max" 4.0 m.Metrics.staleness_max;
  m.Metrics.queries_sent <- 10;
  Alcotest.(check (float 1e-9)) "queries per update" 5.0
    (Metrics.queries_per_update m)

let test_metrics_queue_watermark () =
  let m = Metrics.create () in
  Metrics.note_queue_length m 3;
  Metrics.note_queue_length m 1;
  Alcotest.(check int) "max retained" 3 m.Metrics.max_queue

let suite =
  [ Alcotest.test_case "queue is FIFO" `Quick test_fifo;
    Alcotest.test_case "arrival numbering" `Quick
      test_arrival_numbers_monotonic;
    Alcotest.test_case "per-source extraction" `Quick test_from_source;
    Alcotest.test_case "capacity bound survives pops" `Quick test_capacity;
    Alcotest.test_case "batch drain (take)" `Quick test_take;
    Alcotest.test_case "per-source views span the deque halves" `Quick
      test_from_source_after_wraparound;
    QCheck_alcotest.to_alcotest qcheck_fifo_model;
    QCheck_alcotest.to_alcotest qcheck_per_source_index;
    Alcotest.test_case "batch accounting" `Quick test_metrics_batches;
    Alcotest.test_case "staleness accounting" `Quick test_metrics_staleness;
    Alcotest.test_case "queue watermark" `Quick test_metrics_queue_watermark ]
