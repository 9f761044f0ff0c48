open Repro_sim

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, x) ->
        order := x :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_event_queue_stable_ties () =
  let q = Event_queue.create () in
  for i = 0 to 99 do
    Event_queue.push q ~time:1.0 i
  done;
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, x) ->
        out := x :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order preserved on ties"
    (List.init 100 (fun i -> i))
    (List.rev !out)

let test_event_queue_interleaved () =
  (* pushes interleaved with pops must still respect (time, seq) *)
  let q = Event_queue.create () in
  Event_queue.push q ~time:5.0 "late";
  Event_queue.push q ~time:1.0 "early";
  (match Event_queue.pop q with
  | Some (t, "early") -> Alcotest.(check (float 0.0)) "t" 1.0 t
  | _ -> Alcotest.fail "expected early");
  Event_queue.push q ~time:2.0 "mid";
  Alcotest.(check (option (float 0.))) "peek mid" (Some 2.0)
    (Event_queue.peek_time q);
  Alcotest.(check int) "length" 2 (Event_queue.length q)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~delay:1.0 (fun () ->
      log := ("a", Engine.now e) :: !log;
      (* events scheduled from events run too *)
      Engine.schedule e ~delay:0.5 (fun () ->
          log := ("a2", Engine.now e) :: !log));
  (match Engine.run e with `Drained -> () | _ -> Alcotest.fail "drain");
  Alcotest.(check (list string)) "execution order" [ "a"; "a2"; "b" ]
    (List.map fst (List.rev !log));
  Alcotest.(check int) "executed" 3 (Engine.executed e)

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr hits)
  done;
  (match Engine.run ~until:5.5 e with
  | `Until -> ()
  | _ -> Alcotest.fail "expected until");
  Alcotest.(check int) "only first five" 5 !hits;
  Alcotest.(check (float 0.)) "clock clamped" 5.5 (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () ->
      Alcotest.(check bool) "scheduling in the past raises" true
        (match Engine.at e ~time:0.5 (fun () -> ()) with
        | exception Invalid_argument _ -> true
        | () -> false));
  ignore (Engine.run e)

let test_channel_fifo_under_random_latency () =
  (* FIFO must hold even when sampled latencies would reorder: that is the
     property SWEEP's correctness rests on (paper §2). *)
  let e = Engine.create ~seed:99L () in
  let received = ref [] in
  let ch =
    Channel.create e
      ~latency:(Latency.Uniform (0.1, 5.0))
      ~rng:(Rng.create 3L)
      ~deliver:(fun m -> received := m :: !received)
  in
  for i = 0 to 199 do
    Engine.schedule e ~delay:(0.01 *. float_of_int i) (fun () ->
        Channel.send ch i)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "delivered in send order"
    (List.init 200 (fun i -> i))
    (List.rev !received);
  Alcotest.(check int) "sent count" 200 (Channel.sent ch)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  let seq r = List.init 50 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Rng.create 43L in
  Alcotest.(check bool) "different seed differs" true (seq a <> seq c)

let test_rng_ranges () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.);
    let x = Rng.exponential r ~mean:2.0 in
    Alcotest.(check bool) "exponential nonnegative" true (x >= 0.);
    let u = Rng.uniform r ~lo:3. ~hi:4. in
    Alcotest.(check bool) "uniform in range" true (u >= 3. && u < 4.)
  done

let test_rng_zipf_skew () =
  let r = Rng.create 11L in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let k = Rng.zipf r ~n:4 ~theta:1.2 in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(3));
  (* theta = 0 degenerates to uniform-ish *)
  let u = Array.make 4 0 in
  for _ = 1 to 4000 do
    let k = Rng.zipf r ~n:4 ~theta:0. in
    u.(k) <- u.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800))
    u

let test_rng_split_independent () =
  let r = Rng.create 5L in
  let a = Rng.split r in
  let b = Rng.split r in
  let seq r = List.init 20 (fun _ -> Rng.int r 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (seq a <> seq b)

(* The first draws of each kind at two seeds, as the boxed-int64
   SplitMix64 produced them: the stream every seeded run, golden page
   and checkpoint rests on must not move. *)
let test_rng_stream_pinned () =
  let draws r f = List.init 3 (fun _ -> f r) in
  let check seed ~int64 ~ints ~floats ~exps ~split ~after_split =
    let r = Rng.create seed in
    let name what = Printf.sprintf "seed %Ld %s" seed what in
    Alcotest.(check (list int64)) (name "int64") int64 (draws r Rng.int64);
    Alcotest.(check (list int)) (name "int 1000") ints
      (draws r (fun r -> Rng.int r 1000));
    Alcotest.(check (list (float 0.))) (name "float") floats
      (draws r Rng.float);
    Alcotest.(check (list (float 0.))) (name "exponential 2.5") exps
      (draws r (fun r -> Rng.exponential r ~mean:2.5));
    let s = Rng.split r in
    Alcotest.(check (list int64)) (name "split") split (draws s Rng.int64);
    Alcotest.(check int64) (name "parent after split") after_split
      (Rng.int64 r)
  in
  check 42L
    ~int64:[ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L ]
    ~ints:[ 860; 250; 350 ]
    ~floats:[ 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ]
    ~exps:[ 0x1.338300f09316dp+0; 0x1.fb4592c5bfe93p+1; 0x1.c4a6cbb8a6584p+0 ]
    ~split:[ 0xE1433D99B12E9D88L; 0x5A8F2AC9050E7160L; 0x30026E3A89EC35DAL ]
    ~after_split:0x851F977347ED6DB7L;
  check 7L
    ~int64:[ 0x63CBE1E459320DD7L; 0x44C3CD7F43C661CL; 0xE6984080BAB12A02L ]
    ~ints:[ 395; 770; 305 ]
    ~floats:[ 0x1.df2f1284cf0b4p-2; 0x1.4ff35944f40aep-2; 0x1.12f603d4ca83p-3 ]
    ~exps:[ 0x1.1ade719a8f03ap+1; 0x1.6ad115f3a84c1p+2; 0x1.a35c4969fa07ap-4 ]
    ~split:[ 0x9B2DC44AF257A06L; 0x68FB1B6AA3485313L; 0xF0BB596BABDECABEL ]
    ~after_split:0xDF0F9924A3016430L

(* Minor words a thousand calls of [f] allocate. *)
let words_of_1000 f =
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor_words () -. w0

let test_rng_int_allocates_nothing () =
  let r = Rng.create 3L in
  let sink = ref 0 in
  let words =
    words_of_1000 (fun () ->
        sink := !sink + Rng.int r 97 + if Rng.bool r 0.5 then 1 else 0)
  in
  (* the one boxed float of the second [Gc.minor_words] reading *)
  Alcotest.(check bool) "no words per draw" true (words < 10.)

let test_trace () =
  let tr = Trace.create ~enabled:true () in
  Trace.emit tr ~time:1.5 ~who:"x" "hello %d" 42;
  Trace.emit tr ~time:2.5 ~who:"y" "world";
  (match Trace.lines tr with
  | [ l1; l2 ] ->
      Alcotest.(check string) "text" "hello 42" l1.Trace.text;
      Alcotest.(check string) "who" "y" l2.Trace.who
  | _ -> Alcotest.fail "expected two lines");
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.lines tr));
  let off = Trace.create () in
  Trace.emit off ~time:0. ~who:"x" "invisible %s" "arg";
  Alcotest.(check int) "disabled trace records nothing" 0
    (List.length (Trace.lines off));
  let open Repro_relational in
  let d = Delta.insertion (Tuple.ints [ 1 ]) in
  let words =
    words_of_1000 (fun () ->
        if Trace.enabled off then
          Trace.emit off ~time:1.5 ~who:"x" "apply %d = %a" 7 Delta.pp d)
  in
  Alcotest.(check bool) "a guarded emit on a disabled trace allocates nothing"
    true (words < 10.)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"event queue sorts any float multiset"
    QCheck.(small_list (float_bound_inclusive 100.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

let suite =
  [ Alcotest.test_case "event queue: time order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue: stable on ties" `Quick
      test_event_queue_stable_ties;
    Alcotest.test_case "event queue: interleaved push/pop" `Quick
      test_event_queue_interleaved;
    Alcotest.test_case "engine: causal execution" `Quick
      test_engine_runs_in_order;
    Alcotest.test_case "engine: until bound" `Quick test_engine_until;
    Alcotest.test_case "engine: rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "channel: FIFO under random latency" `Quick
      test_channel_fifo_under_random_latency;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng: zipf skew" `Quick test_rng_zipf_skew;
    Alcotest.test_case "rng: split independence" `Quick
      test_rng_split_independent;
    Alcotest.test_case "rng: stream pinned at two seeds" `Quick
      test_rng_stream_pinned;
    Alcotest.test_case "rng: int and bool allocate nothing" `Quick
      test_rng_int_allocates_nothing;
    Alcotest.test_case "trace log" `Quick test_trace;
    QCheck_alcotest.to_alcotest qcheck_heap_sorts ]
