(* Warehouse crash-recovery suite: durability-layer unit tests (codec /
   Snap / WAL / checkpoint round trips, the store's checkpoint cadence,
   backpressure admission), then the seeded warehouse-crash property
   harness — kill the warehouse mid-run, restart it from its latest
   checkpoint plus the WAL tail, and demand the same consistency verdict
   the algorithm earns without crashes, with a bit-identical final view
   and zero source refetch. Everything is deterministic per seed. *)

open Repro_sim
open Repro_relational
open Repro_protocol
open Repro_durability
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
module Backpressure = Repro_serving.Backpressure

(* ————— codec round trips ————— *)

let roundtrip put get x = Codec.decode get (Codec.encode put x)

let test_codec_primitives () =
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "int %d" i) i
        (roundtrip Codec.put_int Codec.get_int i))
    [ 0; 1; -1; 255; -256; 1 lsl 40; min_int; max_int ];
  List.iter
    (fun f ->
      Alcotest.(check (float 0.)) (Printf.sprintf "float %g" f) f
        (roundtrip Codec.put_float Codec.get_float f))
    [ 0.; -1.5; 3.141592653589793; 1e300; -1e-300 ];
  List.iter
    (fun s ->
      Alcotest.(check string) "string" s
        (roundtrip Codec.put_string Codec.get_string s))
    [ ""; "x"; String.make 300 'q'; "emb\000edded" ];
  Alcotest.(check (list int)) "int list" [ 3; 1; 2 ]
    (roundtrip
       (fun b -> Codec.put_list b Codec.put_int)
       (fun r -> Codec.get_list r Codec.get_int)
       [ 3; 1; 2 ])

let test_codec_corrupt_raises () =
  let raises f =
    match f () with exception Codec.Corrupt _ -> true | _ -> false
  in
  Alcotest.(check bool) "truncated int" true
    (raises (fun () -> Codec.decode Codec.get_int "ab"));
  Alcotest.(check bool) "trailing garbage" true
    (raises (fun () ->
         Codec.decode Codec.get_bool (Codec.encode Codec.put_bool true ^ "z")));
  Alcotest.(check bool) "bad bool tag" true
    (raises (fun () -> Codec.decode Codec.get_bool "\007"))

let test_codec_bag_canonical () =
  (* same bag content built in different insertion orders encodes to the
     same bytes — checkpoints of equal states are bit-identical *)
  let a = Bag.create () and b = Bag.create () in
  Bag.add a (Tuple.ints [ 1; 2 ]) 2;
  Bag.add a (Tuple.ints [ 3; 4 ]) 1;
  Bag.add b (Tuple.ints [ 3; 4 ]) 1;
  Bag.add b (Tuple.ints [ 1; 2 ]) 1;
  Bag.add b (Tuple.ints [ 1; 2 ]) 1;
  Alcotest.(check string) "equal bags, equal bytes"
    (Codec.encode Codec.put_bag a)
    (Codec.encode Codec.put_bag b);
  Alcotest.(check bool) "round trip preserves content" true
    (Bag.equal a (roundtrip Codec.put_bag Codec.get_bag a))

let test_snap_roundtrip () =
  let d = Delta.of_list [ (Tuple.ints [ 1; 2 ], 1); (Tuple.ints [ 5; 6 ], -2) ] in
  let u =
    { Message.txn = { Message.source = 2; seq = 7 }; delta = Delta.copy d;
      occurred_at = 4.25; global = Some { Message.gid = 3; parts = 2 } }
  in
  let s =
    Snap.List
      [ Snap.Unit; Snap.Bool true; Snap.Int (-42); Snap.Float 1.5;
        Snap.Str "state"; Snap.ints [ 1; 2; 3 ];
        Snap.Tup (Tuple.ints [ 9; 9 ]); Snap.Delta d; Snap.Update u;
        Snap.option (fun i -> Snap.Int i) None;
        Snap.option (fun i -> Snap.Int i) (Some 5) ]
  in
  Alcotest.(check bool) "snap round trip equal" true
    (Snap.equal s (Snap.decode (Snap.encode s)));
  Alcotest.(check bool) "distinct snaps differ" false
    (Snap.equal s (Snap.Int 0))

(* One record of each kind, answers carrying a real partial. *)
let sample_records () =
  let u =
    { Message.txn = { Message.source = 0; seq = 3 };
      delta = Delta.insertion (Tuple.ints [ 1; 2 ]); occurred_at = 2.0;
      global = None }
  in
  [ Wal.Update_received { update = u; arrived_at = 2.5 };
    Wal.Answer_received
      { link = 1;
        msg =
          Message.Answer
            { qid = 4; source = 1;
              partial =
                Partial.of_source_delta (Paper_example.view ()) 1
                  (snd (Paper_example.d_r2 ())) } };
    Wal.Installed
      { delta = Delta.insertion (Tuple.ints [ 7; 8 ]);
        txns = [ { Message.source = 0; seq = 3 } ] } ]

let test_wal_roundtrip_and_tail () =
  let records = sample_records () in
  List.iter
    (fun r ->
      let r' = Wal.decode_record (Wal.encode_record r) in
      Alcotest.(check string) "record round trip"
        (Wal.encode_record r) (Wal.encode_record r'))
    records;
  Alcotest.(check (list (option int))) "link_of"
    [ Some 0; Some 1; None ]
    (List.map Wal.link_of records);
  let w = Wal.create () in
  List.iter (Wal.append w) records;
  Alcotest.(check int) "length" 3 (Wal.length w);
  Alcotest.(check bool) "bytes counted" true (Wal.bytes w > 0);
  Alcotest.(check int) "tail from 1" 2 (List.length (Wal.records_from w 1));
  Alcotest.(check (list string)) "tail decodes in order"
    (List.map Wal.encode_record (List.tl records))
    (List.map Wal.encode_record (Wal.records_from w 1))

(* Every field populated, aux included. *)
let sample_checkpoint () =
  let view = Bag.of_list [ (Tuple.ints [ 1; 2; 3 ], 2) ] in
  let u =
    { Message.txn = { Message.source = 1; seq = 0 };
      delta = Delta.deletion (Tuple.ints [ 4; 5 ]); occurred_at = 1.0;
      global = None }
  in
  { Checkpoint.taken_at = 12.5; wal_pos = 9; view = Canon.of_bag view;
    queue = [ { Checkpoint.update = u; arrival = 4; arrived_at = 1.75 } ];
    queue_next_arrival = 5; next_qid = 17;
    algo = Snap.List [ Snap.Int 1; Snap.Str "x" ];
    recv_expected = [| 3; 0; 8 |];
    senders =
      [| { Checkpoint.next_seq = 2; acked_upto = 1; window = [] };
         { Checkpoint.next_seq = 5; acked_upto = 2;
           window = [ (3, Message.Fetch { qid = 1; target = 0 }) ] };
         { Checkpoint.next_seq = 0; acked_upto = -1; window = [] } |];
    breaker = Snap.List [ Snap.Int 0; Snap.Int 2 ];
    aux = Some [ Canon.of_bag (Delta.insertion (Tuple.ints [ 7 ])) ] }

let test_checkpoint_roundtrip () =
  let c = sample_checkpoint () in
  let c' = Checkpoint.decode (Checkpoint.encode c) in
  Alcotest.(check string) "checkpoint bytes stable"
    (Checkpoint.encode c) (Checkpoint.encode c');
  Alcotest.(check bool) "view preserved" true
    (Bag.equal (Canon.to_bag c.Checkpoint.view) (Canon.to_bag c'.Checkpoint.view));
  Alcotest.(check int) "wal_pos" 9 c'.Checkpoint.wal_pos;
  Alcotest.(check int) "queue length" 1 (List.length c'.Checkpoint.queue);
  Alcotest.(check int) "sender next_seq" 5 c'.Checkpoint.senders.(1).Checkpoint.next_seq;
  Alcotest.(check int) "sender window" 1
    (List.length c'.Checkpoint.senders.(1).Checkpoint.window)

(* ————— the checkpoint view image (Canon) ————— *)

(* Keys map to tuples monotonically, so a run of keys is a run of
   adjacent entries: wide runs split pages, cancelled runs empty them. *)
let canon_tuple k = Tuple.ints [ k / 7; k mod 7 ]

type canon_op =
  | Add of int * int * int  (* first key, run width, count *)
  | Cancel of int * int  (* first key, run width: every entry to zero *)

let canon_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map3 (fun k w c -> Add (k, w, c)) (int_range 0 5200)
              (int_range 1 80) (int_range (-3) 3));
        (1, map2 (fun k w -> Cancel (k, w)) (int_range 0 5200)
              (int_range 1 100)) ])

let pp_canon_op = function
  | Add (k, w, c) -> Printf.sprintf "add [%d,+%d) %+d" k w c
  | Cancel (k, w) -> Printf.sprintf "cancel [%d,+%d)" k w

let canon_bytes img = String.concat "" (Canon.pieces img)

(* After every step the image encodes exactly as [Codec.put_bag] of a
   shadow bag given the same adds, and the final bytes decode back to an
   image that re-encodes identically. *)
let qcheck_canon_matches_bag =
  QCheck.Test.make ~count:60 ~name:"canon image encodes as Codec.put_bag"
    QCheck.(
      pair (make ~print:string_of_int (Gen.oneofl [ 0; 1; 5000 ]))
        (list_of_size Gen.(int_range 1 15)
           (make ~print:pp_canon_op canon_op_gen)))
    (fun (initial, ops) ->
      let shadow = Bag.create () in
      for k = 0 to initial - 1 do
        Bag.add shadow (canon_tuple k) 1
      done;
      let img = Canon.of_bag shadow in
      let same () =
        String.equal (canon_bytes img) (Codec.encode Codec.put_bag shadow)
      in
      let step = function
        | Add (k, w, c) ->
            for j = k to k + w - 1 do
              Bag.add shadow (canon_tuple j) c;
              Canon.add img (canon_tuple j) c
            done
        | Cancel (k, w) ->
            for j = k to k + w - 1 do
              let c = Bag.count shadow (canon_tuple j) in
              Bag.add shadow (canon_tuple j) (-c);
              Canon.add img (canon_tuple j) (-c)
            done
      in
      same ()
      && List.for_all (fun op -> step op; same ()) ops
      &&
      let bytes = canon_bytes img in
      String.equal bytes (canon_bytes (Codec.decode Canon.get bytes)))

(* A listing [put] cannot produce — keys out of order, a duplicate key,
   a zero count — raises [Codec.Corrupt] and nothing else; every other
   listing round-trips. *)
let qcheck_canon_rejects_unsorted =
  QCheck.Test.make ~count:300 ~name:"canon decode: unsorted listing is Corrupt"
    QCheck.(small_list (pair (int_range 0 40) (int_range (-2) 2)))
    (fun entries ->
      let entries = List.map (fun (k, c) -> (canon_tuple k, c)) entries in
      let bytes =
        Codec.encode (fun b l -> Codec.put_list b Codec.put_counted l) entries
      in
      let rec canonical = function
        | (a, c) :: ((b, _) :: _ as rest) ->
            c <> 0 && Tuple.compare a b < 0 && canonical rest
        | [ (_, c) ] -> c <> 0
        | [] -> true
      in
      match Codec.decode Canon.get bytes with
      | img -> canonical entries && String.equal bytes (canon_bytes img)
      | exception Codec.Corrupt _ -> not (canonical entries))

(* ————— decoders under damaged bytes ————— *)

(* Real encodings to damage: the sample checkpoint (every field, aux
   included), a warehouse node's checkpoint after a scripted nested-sweep
   run, and one WAL record of each kind. *)
let damage_samples =
  lazy
    (let view = Chain.view ~n:3 () in
     let initial = Chain.populate view ~size:12 ~domain:8 (Rng.create 12L) in
     let updates =
       List.init 6 (fun i ->
           ( 0.4 *. float_of_int i, i mod 3,
             Delta.insertion
               (Chain.tuple ~key:(100 + i) ~a:(i mod 8) ~b:(i * 3 mod 8)) ))
     in
     let outcome =
       Rig.scripted ~algorithm:(module Nested_sweep : Algorithm.S) ~view
         ~initial ~updates ()
     in
     let node =
       Node.checkpoint outcome.Rig.node ~wal_pos:6 ~recv_expected:[| 6; 0; 0 |]
         ~senders:[||]
     in
     let checkpoint s = (s, fun s -> ignore (Checkpoint.decode s)) in
     checkpoint (Checkpoint.encode (sample_checkpoint ()))
     :: checkpoint (Checkpoint.encode node)
     :: List.map
          (fun r ->
            (Wal.encode_record r, fun s -> ignore (Wal.decode_record s)))
          (sample_records ()))

let flip s bit =
  let b = Bytes.of_string s in
  Bytes.set b (bit / 8)
    (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

(* A decoder given a flipped bit either decodes or raises
   [Codec.Corrupt]; any other exception (an [Out_of_memory] from a huge
   arity, an out-of-bounds access) escapes and fails the property. *)
let qcheck_decoders_reject_flips =
  QCheck.Test.make ~count:3000
    ~name:"decoders: a flipped bit decodes or raises Corrupt"
    QCheck.(pair (int_range 0 4) (int_range 0 max_int))
    (fun (which, r) ->
      let bytes, decode = List.nth (Lazy.force damage_samples) which in
      match decode (flip bytes (r mod (8 * String.length bytes))) with
      | () | (exception Codec.Corrupt _) -> true)

(* The format is self-delimiting, so every strict prefix runs out of
   bytes: Corrupt, and nothing else. *)
let test_decoders_reject_prefixes () =
  List.iter
    (fun (bytes, decode) ->
      for n = 0 to String.length bytes - 1 do
        match decode (String.sub bytes 0 n) with
        | () -> Alcotest.failf "prefix of %d bytes decoded" n
        | exception Codec.Corrupt _ -> ()
      done)
    (Lazy.force damage_samples)

let dummy_capture () =
  { Checkpoint.taken_at = 0.; wal_pos = 0; view = Canon.create (); queue = [];
    queue_next_arrival = 0; next_qid = 0; algo = Snap.Unit;
    recv_expected = [||]; senders = [||]; breaker = Snap.Unit;
    aux = None }

let test_store_checkpoint_cadence () =
  let s = Store.create ~checkpoint_every:3 () in
  let wal_pos = ref 0 in
  Store.set_capture s (fun () -> { (dummy_capture ()) with wal_pos = !wal_pos });
  let record =
    Wal.Installed { delta = Delta.empty (); txns = [] }
  in
  for i = 1 to 10 do
    Store.log s record;
    wal_pos := i;
    Store.maybe_checkpoint s
  done;
  Alcotest.(check int) "10 records" 10 (Store.wal_length s);
  Alcotest.(check int) "checkpoints every 3 records" 3 (Store.checkpoints s);
  (match Store.latest_checkpoint s with
  | Some c -> Alcotest.(check int) "latest covers 9 records" 9 c.Checkpoint.wal_pos
  | None -> Alcotest.fail "no checkpoint");
  Alcotest.(check int) "tail after latest checkpoint" 1
    (List.length (Store.tail s));
  let off = Store.create ~checkpoint_every:0 () in
  Store.set_capture off dummy_capture;
  for _ = 1 to 10 do
    Store.log off record;
    Store.maybe_checkpoint off
  done;
  Alcotest.(check int) "0 disables checkpoints" 0 (Store.checkpoints off);
  Alcotest.(check int) "recovery would replay the whole log" 10
    (List.length (Store.tail off))

(* A stored checkpoint keeps the bytes it was taken with, even as the
   live image it shares pages with moves on; they equal a fresh encoding
   of the same state (an image with no cached page), and
   [checkpoint_bytes] sums those lengths. Consecutive checkpoints share
   every page neither touched. *)
let test_store_checkpoint_pieces () =
  let view = Canon.create () in
  for k = 0 to 999 do
    Canon.add view (canon_tuple k) 1
  done;
  let s = Store.create ~checkpoint_every:1 () in
  let capture () =
    { (dummy_capture ()) with view; wal_pos = Store.wal_length s }
  in
  Store.set_capture s capture;
  let fresh () =
    Checkpoint.encode
      { (capture ()) with view = Canon.of_bag (Canon.to_bag view) }
  in
  let rng = Rng.create 9L and total = ref 0 in
  for _ = 1 to 20 do
    for _ = 1 to 5 do
      Canon.add view (canon_tuple (Rng.int rng 1200)) (Rng.int rng 3 - 1)
    done;
    Store.log s (Wal.Installed { delta = Delta.empty (); txns = [] });
    let expected = fresh () in
    Store.maybe_checkpoint s;
    total := !total + String.length expected;
    Canon.add view (canon_tuple (Rng.int rng 1200)) 1;
    match Store.latest_checkpoint s with
    | Some c ->
        Alcotest.(check string) "stored checkpoint = fresh encoding" expected
          (Checkpoint.encode c)
    | None -> Alcotest.fail "no checkpoint"
  done;
  Alcotest.(check int) "checkpoint_bytes sums the encodings" !total
    (Store.checkpoint_bytes s);
  (* bump one existing tuple's count: only its page is re-encoded; the
     head, cardinal, rest and aux pieces are rebuilt every time *)
  let before = Checkpoint.pieces (capture ()) in
  Canon.add view (canon_tuple 500) 1;
  let after = Checkpoint.pieces (capture ()) in
  Alcotest.(check int) "untouched pages are shared, not copied"
    (List.length after - 5)
    (List.length (List.filter Fun.id (List.map2 ( == ) before after)))

(* Truncating at each checkpoint changes what the log holds, not what it
   reports: the store's tail is record-for-record the untruncated log's
   tail from the same position, and the counters stay cumulative. *)
let test_wal_truncation () =
  let record i =
    Wal.Update_received
      { update =
          { Message.txn = { Message.source = i mod 3; seq = i };
            delta = Delta.insertion (Tuple.ints [ i ]);
            occurred_at = float_of_int i; global = None };
        arrived_at = float_of_int i }
  in
  let s = Store.create ~checkpoint_every:3 () in
  Store.set_capture s (fun () ->
      { (dummy_capture ()) with wal_pos = Store.wal_length s });
  let full = Wal.create () in
  let enc = List.map Wal.encode_record in
  for i = 0 to 19 do
    Store.log s (record i);
    Wal.append full (record i);
    Store.maybe_checkpoint s;
    let pos =
      match Store.latest_checkpoint s with
      | Some c -> c.Checkpoint.wal_pos
      | None -> 0
    in
    Alcotest.(check (list string))
      (Printf.sprintf "tail after record %d" i)
      (enc (Wal.records_from full pos))
      (enc (Store.tail s))
  done;
  Alcotest.(check int) "length cumulative" (Wal.length full)
    (Store.wal_length s);
  Alcotest.(check int) "bytes cumulative" (Wal.bytes full) (Store.wal_bytes s);
  Alcotest.(check int) "at most checkpoint_every records held"
    (3 * String.length (Wal.encode_record (record 0)))
    (Store.wal_live_bytes_max s);
  Alcotest.(check int) "untruncated log holds everything" (Wal.bytes full)
    (Wal.live_bytes_max full);
  let w = Wal.create () in
  for i = 0 to 4 do
    Wal.append w (record i)
  done;
  Wal.truncate w 3;
  let rejects f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "records_from below the base" true
    (rejects (fun () -> Wal.records_from w 2));
  Alcotest.(check bool) "truncate below the base" true
    (rejects (fun () -> Wal.truncate w 2));
  Alcotest.(check bool) "truncate past the end" true
    (rejects (fun () -> Wal.truncate w 6));
  Alcotest.(check (list string)) "records_from the base"
    (enc [ record 3; record 4 ])
    (enc (Wal.records_from w 3))

(* ————— backpressure + bounded queue units ————— *)

let test_update_queue_capacity () =
  let q = Update_queue.create ~capacity:2 ~view:(Chain.view ~n:2 ()) () in
  let u seq =
    { Message.txn = { Message.source = 0; seq }; delta = Delta.empty ();
      occurred_at = 0.; global = None }
  in
  ignore (Update_queue.append q (u 0) ~arrived_at:0.);
  ignore (Update_queue.append q (u 1) ~arrived_at:0.);
  Alcotest.(check bool) "over-capacity append raises" true
    (match Update_queue.append q (u 2) ~arrived_at:0. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "capacity <= 0 rejected" true
    (match Update_queue.create ~capacity:0 ~view:(Chain.view ~n:2 ()) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_backpressure_fifo_and_shed () =
  let bp = Backpressure.create ~n_sources:2 ~capacity:2 in
  let ran = ref [] in
  let submit source ~noop tag =
    Backpressure.submit bp ~source ~noop (fun () -> ran := tag :: !ran)
  in
  submit 0 ~noop:false "a0";
  submit 1 ~noop:false "b0";
  (* capacity exhausted: these wait *)
  submit 0 ~noop:false "a1";
  submit 1 ~noop:false "b1";
  (* a no-op at capacity is shed, not queued *)
  submit 0 ~noop:true "a-noop";
  (* a no-op with a token free must still wait behind its source's
     earlier waiters — shed again *)
  Alcotest.(check (list string)) "only first two ran" [ "b0"; "a0" ] !ran;
  Alcotest.(check int) "two deferred" 2 (Backpressure.deferred bp);
  Alcotest.(check int) "one shed" 1 (Backpressure.shed bp);
  Alcotest.(check int) "two waiting" 2 (Backpressure.waiting_count bp);
  Backpressure.release bp 1;
  Alcotest.(check (list string)) "cursor admits source 0 first"
    [ "a1"; "b0"; "a0" ] !ran;
  Backpressure.release bp 1;
  Alcotest.(check (list string)) "then the next source" [ "b1"; "a1"; "b0"; "a0" ]
    !ran;
  Alcotest.(check int) "queues drained" 0 (Backpressure.waiting_count bp)

let test_backpressure_round_robin_no_starvation () =
  let bp = Backpressure.create ~n_sources:3 ~capacity:1 in
  let ran = ref [] in
  let submit source tag =
    Backpressure.submit bp ~source ~noop:false (fun () -> ran := tag :: !ran)
  in
  submit 0 "a0";  (* takes the only token *)
  submit 1 "b";
  submit 2 "c";
  (* Sustained source-0 pressure: a fresh source-0 update arrives before
     every release. The old lowest-source-first policy admitted only
     source 0's queue here and starved source 2 (the highest index)
     forever; the round-robin cursor must admit every source within
     n releases. *)
  for i = 1 to 4 do
    submit 0 (Printf.sprintf "a%d" i);
    Backpressure.release bp 1
  done;
  Alcotest.(check (list string))
    "round-robin admits sources 1 and 2 despite sustained source-0 load"
    [ "a0"; "a1"; "b"; "c"; "a2" ]
    (List.rev !ran);
  Alcotest.(check int) "the rest still waits" 2
    (Backpressure.waiting_count bp)

(* ————— breaker probe schedule across checkpoint/restore mid-Open ————— *)

(* Capture a breaker snapshot while source 0 is Open with a probe timer
   pending (exactly what a warehouse checkpoint taken mid-outage holds),
   then restore it into two fresh incarnations on identically seeded
   engines. Restore re-schedules the probe from its own seeded rng
   stream, so both incarnations must replay a bit-identical probe
   schedule — crash recovery cannot fork the simulation. Each probe is
   answered with another deadline expiry (k = 1 re-trips immediately),
   walking the backoff ladder a few rungs. *)
let test_breaker_probe_schedule_deterministic_across_restore () =
  let mk () =
    let engine = Engine.create ~seed:77L () in
    let metrics = Metrics.create () in
    let b =
      Breaker.create engine
        ~rng:(Rng.split (Engine.rng engine))
        ~config:{ Breaker.default_config with Breaker.k = 1 }
        ~metrics ~n:2
    in
    (engine, b)
  in
  let snap =
    let engine, b = mk () in
    let s = ref Repro_durability.Snap.Unit in
    Engine.at engine ~time:0. (fun () ->
        Breaker.force_open b 0;
        (* mid-Open: the probe timer is pending, not yet fired *)
        s := Breaker.snapshot b;
        Breaker.halt b);
    ignore (Engine.run engine);
    !s
  in
  let probes_after_restore () =
    let engine, b = mk () in
    let times = ref [] in
    Breaker.set_on_probe b (fun i ->
        times := (Engine.now engine, i) :: !times;
        if List.length !times < 4 then ignore (Breaker.record_timeout b i));
    Engine.at engine ~time:0. (fun () -> Breaker.restore b snap);
    ignore (Engine.run engine);
    List.rev !times
  in
  let a = probes_after_restore () in
  let b = probes_after_restore () in
  Alcotest.(check int) "restored breaker probes down the backoff ladder" 4
    (List.length a);
  Alcotest.(check bool) "probe schedule bit-identical across restores" true
    (a = b);
  List.iter
    (fun (_, i) -> Alcotest.(check int) "probes target the open source" 0 i)
    a

(* ————— seeded warehouse-crash property harness ————— *)

let n_updates = 20

(* Base scenario: lossy links + one or two scripted warehouse outages
   (or none, for the crash-free twin). *)
let crashy_scenario ?(wh_crashes = [ { Fault.wh_down_at = 8.; wh_up_at = 20. } ])
    ?(crashes = []) ?(link = Fault.lossy ~drop:0.1 ~duplicate:0.05 ())
    ?(checkpoint_every = 4) seed =
  { Scenario.default with
    Scenario.name = "crashy-prop";
    init_size = 12;
    domain = 8;
    stream = { Update_gen.default with Update_gen.n_updates; mean_gap = 1.5 };
    faults = { Fault.link; crashes; wh_crashes };
    checkpoint_every;
    seed }

let run_one scenario algo =
  let r = Experiment.run scenario algo in
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld quiesces" scenario.Scenario.seed)
    true r.Experiment.completed;
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld installs every update" scenario.Scenario.seed)
    n_updates r.Experiment.metrics.Metrics.updates_incorporated;
  (* Recovery must come from the checkpoint + WAL tail alone: no
     Snapshot-style refetch of base relations, ever. *)
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld never refetches a base relation"
       scenario.Scenario.seed)
    0 r.Experiment.metrics.Metrics.snapshots_fetched;
  r

let random_recovery_schedule seed =
  let rng = Rng.create (Int64.add 104729L (Int64.mul 31L seed)) in
  Fault.random_recovery rng ~n_sources:Scenario.default.Scenario.n_sources
    ~horizon:(float_of_int n_updates *. 1.5)

(* Acceptance criterion: SWEEP stays *complete* across 50 random
   warehouse-crash schedules (each with guaranteed outages plus random
   link faults / source crashes), and the aggregate metrics show recovery
   actually ran — records replayed, checkpoints taken, crashes counted. *)
let test_sweep_complete_across_crashes () =
  let crashes = ref 0 and replayed = ref 0 and ckpts = ref 0 in
  for seed = 0 to 49 do
    let f = random_recovery_schedule (Int64.of_int seed) in
    let scenario =
      crashy_scenario ~wh_crashes:f.Fault.wh_crashes ~crashes:f.Fault.crashes
        ~link:f.Fault.link (Int64.of_int seed)
    in
    let r = run_one scenario (module Sweep : Algorithm.S) in
    Alcotest.check Rig.verdict
      (Printf.sprintf "seed %d complete" seed)
      Checker.Complete r.Experiment.verdict.Checker.verdict;
    crashes := !crashes + r.Experiment.metrics.Metrics.wh_crashes;
    replayed := !replayed + r.Experiment.metrics.Metrics.replayed_records;
    ckpts := !ckpts + r.Experiment.metrics.Metrics.checkpoints
  done;
  Alcotest.(check bool) "warehouse actually crashed" true (!crashes >= 50);
  Alcotest.(check bool) "WAL records were replayed" true (!replayed > 0);
  Alcotest.(check bool) "checkpoints were taken" true (!ckpts > 0)

let at_least_strong ~tag algo seeds =
  List.iter
    (fun seed ->
      let f = random_recovery_schedule seed in
      let scenario =
        crashy_scenario ~wh_crashes:f.Fault.wh_crashes ~crashes:f.Fault.crashes
          ~link:f.Fault.link seed
      in
      let r = run_one scenario algo in
      let v = r.Experiment.verdict.Checker.verdict in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %Ld at least strong (got %s)" tag seed
           (Checker.verdict_to_string v))
        true
        (Checker.compare_verdict v Checker.Strong <= 0))
    seeds

let seeds n = List.init n Int64.of_int

let test_nested_sweep_strong_across_crashes () =
  at_least_strong ~tag:"nested-sweep" (module Nested_sweep : Algorithm.S)
    (seeds 25)

let test_strobe_strong_across_crashes () =
  at_least_strong ~tag:"strobe" (module Strobe : Algorithm.S) (seeds 25)

(* Exactly-once across the crash: for each seed, the run with mid-run
   crash-restarts must end with a final view bit-identical to its
   crash-free twin (same seed, same link faults, no outages). A lost or
   double-applied update would leave a different bag. *)
let test_final_view_identical_with_and_without_crash () =
  Rig.for_seeds ~from:0 12 @@ fun seed ->
    let seed = Int64.of_int seed in
    let crashed =
      Experiment.run
        (crashy_scenario
           ~wh_crashes:
             [ { Fault.wh_down_at = 6.; wh_up_at = 14. };
               { Fault.wh_down_at = 22.; wh_up_at = 30. } ]
           seed)
        (module Sweep : Algorithm.S)
    in
    let clean =
      Experiment.run (crashy_scenario ~wh_crashes:[] seed)
        (module Sweep : Algorithm.S)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld crashed run quiesces" seed)
      true crashed.Experiment.completed;
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld final views bit-identical" seed)
      true
      (Bag.equal crashed.Experiment.final_view clean.Experiment.final_view);
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld crash path exercised" seed)
      true
      (crashed.Experiment.metrics.Metrics.wh_crashes = 2
      && clean.Experiment.metrics.Metrics.wh_crashes = 0)

(* Crash-recovery runs replay bit-identically per seed. *)
let test_crashy_run_deterministic () =
  let run () =
    Experiment.run (crashy_scenario 17L) (module Sweep : Algorithm.S)
  in
  let a = run () and b = run () in
  Rig.check_replay ~ctx:"crashy" a b;
  Alcotest.(check int) "same installs"
    a.Experiment.metrics.Metrics.installs b.Experiment.metrics.Metrics.installs;
  Alcotest.(check int) "same WAL records"
    a.Experiment.metrics.Metrics.wal_records
    b.Experiment.metrics.Metrics.wal_records;
  Alcotest.(check int) "same replayed records"
    a.Experiment.metrics.Metrics.replayed_records
    b.Experiment.metrics.Metrics.replayed_records;
  Alcotest.(check int) "same checkpoint bytes"
    a.Experiment.metrics.Metrics.checkpoint_bytes
    b.Experiment.metrics.Metrics.checkpoint_bytes

(* WAL-only recovery: checkpointing disabled, the whole log replays. *)
let test_recovery_without_checkpoints () =
  let r =
    run_one (crashy_scenario ~checkpoint_every:0 3L) (module Sweep : Algorithm.S)
  in
  Alcotest.check Rig.verdict "still complete" Checker.Complete
    r.Experiment.verdict.Checker.verdict;
  Alcotest.(check int) "no checkpoints taken" 0
    r.Experiment.metrics.Metrics.checkpoints;
  Alcotest.(check bool) "replay happened from the log alone" true
    (r.Experiment.metrics.Metrics.replayed_records > 0)

(* The live-log gauge: with a checkpoint every 4 records the log holds
   about 4 records at a time, while the cumulative counters match the
   same run with checkpoints off, whose log is never truncated. Records
   differ in size (an answer carries a partial, a notice one tuple), so
   the bound allows each held record 4 times the mean record's bytes. *)
let test_wal_live_bytes_bounded () =
  let run checkpoint_every =
    let r =
      run_one (crashy_scenario ~checkpoint_every 17L)
        (module Sweep : Algorithm.S)
    in
    r.Experiment.metrics
  in
  let on = run 4 and off = run 0 in
  Alcotest.(check int) "same WAL records" off.Metrics.wal_records
    on.Metrics.wal_records;
  Alcotest.(check int) "wal_bytes stays cumulative" off.Metrics.wal_bytes
    on.Metrics.wal_bytes;
  Alcotest.(check int) "an untruncated log holds every byte at the end"
    off.Metrics.wal_bytes off.Metrics.wal_live_bytes_max;
  Alcotest.(check bool)
    (Printf.sprintf "live max %d B <= 4 x 4 mean records (%d B / %d)"
       on.Metrics.wal_live_bytes_max on.Metrics.wal_bytes
       on.Metrics.wal_records)
    true
    (on.Metrics.wal_live_bytes_max * on.Metrics.wal_records
    <= 16 * on.Metrics.wal_bytes)

(* The remaining algorithms survive a crash window too (smoke level):
   C-strobe on the distributed topology, ECA on the centralized one. *)
let test_c_strobe_crashy_smoke () =
  let scenario = crashy_scenario ~link:Fault.reliable 5L in
  let r = Experiment.run scenario (module C_strobe : Algorithm.S) in
  Alcotest.(check bool) "quiesces" true r.Experiment.completed;
  Alcotest.(check int) "all updates incorporated" n_updates
    r.Experiment.metrics.Metrics.updates_incorporated;
  Alcotest.(check bool) "not inconsistent" true
    (r.Experiment.verdict.Checker.verdict <> Checker.Inconsistent);
  Alcotest.(check bool) "crashed and recovered" true
    (r.Experiment.metrics.Metrics.wh_crashes = 1
    && r.Experiment.metrics.Metrics.replayed_records >= 0)

(* Recompute restarts with no join index kept: its first recompute after
   the restore builds all of them, and the view still converges to the
   crash-free run's. *)
let test_recompute_crashy_smoke () =
  let run wh_crashes =
    Experiment.run
      (crashy_scenario ?wh_crashes ~link:Fault.reliable 5L)
      (module Recompute : Algorithm.S)
  in
  let r = run None and clean = run (Some []) in
  Alcotest.(check bool) "quiesces" true r.Experiment.completed;
  Alcotest.(check int) "all updates incorporated" n_updates
    r.Experiment.metrics.Metrics.updates_incorporated;
  let v = r.Experiment.verdict.Checker.verdict in
  Alcotest.(check bool)
    (Printf.sprintf "at least convergent (got %s)" (Checker.verdict_to_string v))
    true
    (Checker.compare_verdict v Checker.Convergent <= 0);
  Alcotest.(check int) "crashed once" 1 r.Experiment.metrics.Metrics.wh_crashes;
  Alcotest.(check bool) "final view as without the crash" true
    (Bag.equal r.Experiment.final_view clean.Experiment.final_view)

let test_eca_crashy_smoke () =
  let scenario =
    { (crashy_scenario ~link:Fault.reliable 7L) with
      Scenario.topology = Scenario.Centralized }
  in
  let r = Experiment.run scenario (module Eca : Algorithm.S) in
  Alcotest.(check bool) "quiesces" true r.Experiment.completed;
  Alcotest.(check int) "all updates incorporated" n_updates
    r.Experiment.metrics.Metrics.updates_incorporated;
  Alcotest.(check bool) "not inconsistent" true
    (r.Experiment.verdict.Checker.verdict <> Checker.Inconsistent);
  Alcotest.(check int) "crashed once" 1 r.Experiment.metrics.Metrics.wh_crashes

(* ————— crash grid: one warehouse crash at every point in time ————— *)

(* The seeded properties above crash where their schedules happen to
   land. The grid crashes the warehouse once, for one time unit, at
   every grid point of a 20-update [concurrent] run up to the crash-free
   run's drain time, so DESIGN.md §8's recovery (checkpoint, WAL tail,
   transport replay) is exercised wherever a crash can fall. The step is
   CRASH_GRID tenths of a unit: 20 for `dune runtest`, 1 for `make
   recover`. *)
let grid_tenths = Rig.seeds_env ~var:"CRASH_GRID" ~default:20

let grid_scenario topology =
  let s = Option.get (Scenario.find_preset "concurrent") in
  { s with
    Scenario.stream = { s.Scenario.stream with Update_gen.n_updates };
    checkpoint_every = 4;
    topology }

(* The same grid over the [chaos] preset (lossy links, two source
   outages, query deadlines, circuit breakers) with global
   transactions and its own warehouse outage removed, so breaker trips
   and heals, Sweep_batched's aborted qids and stall mark and
   sweep-global's ledger of open global transactions are live at some
   crash point. Breaker probes back off, so its runs drain only after
   300-500 units, and the step is five grid steps: 10 units for `dune
   runtest`, 0.5 for `make recover`. *)
let chaos_grid_scenario =
  let s = Option.get (Scenario.find_preset "chaos") in
  { s with
    Scenario.stream =
      { s.Scenario.stream with Update_gen.n_updates = 12; p_global = 0.3 };
    checkpoint_every = 4;
    faults = { s.Scenario.faults with Fault.wh_crashes = [] } }

(* Each crash point must drain, crash once, reach the crash-free run's
   final view and grade no lower than the crash-free verdict capped at
   [cap]: breakers park updates by design, and a crash moves the
   parking, so under breakers the floor is the chaos suite's Strong. *)
let test_crash_grid ?(cap = Checker.Complete) ?(tenths = grid_tenths)
    scenario algo () =
  let clean = Experiment.run scenario algo in
  let floor =
    let v = clean.Experiment.verdict.Checker.verdict in
    if Checker.compare_verdict v cap < 0 then cap else v
  in
  let rec go k =
    let at = float_of_int (k * tenths) /. 10. in
    if at <= clean.Experiment.sim_time then begin
      let fail what =
        Alcotest.failf "%s, crash at %.1f: %s" clean.Experiment.algorithm at
          what
      in
      let crash = { Fault.wh_down_at = at; wh_up_at = at +. 1. } in
      let r =
        match
          Experiment.run
            { scenario with
              Scenario.faults =
                { scenario.Scenario.faults with Fault.wh_crashes = [ crash ] } }
            algo
        with
        | r -> r
        | exception e -> fail (Printexc.to_string e)
      in
      let v = r.Experiment.verdict.Checker.verdict in
      if not r.Experiment.completed then fail "did not drain";
      let crashes = r.Experiment.metrics.Metrics.wh_crashes in
      if crashes <> 1 then fail (Printf.sprintf "%d crashes, not 1" crashes);
      if not (Bag.equal r.Experiment.final_view clean.Experiment.final_view)
      then fail "final view differs from the crash-free run's";
      if Checker.compare_verdict v floor > 0 then
        fail
          (Printf.sprintf "verdict %s below the crash-free %s"
             (Checker.verdict_to_string v)
             (Checker.verdict_to_string floor));
      go (k + 1)
    end
  in
  go 0

let crash_grid_cases =
  let distributed name algo = (name, Scenario.Distributed, algo) in
  List.map
    (fun (name, topology, algo) ->
      Alcotest.test_case ("crash grid: " ^ name) `Quick
        (test_crash_grid (grid_scenario topology) algo))
    [ distributed "sweep" (module Sweep : Algorithm.S);
      distributed "sweep-batched" (module Sweep_batched : Algorithm.S);
      distributed "nested-sweep" (module Nested_sweep : Algorithm.S);
      distributed "strobe" (module Strobe : Algorithm.S);
      distributed "c-strobe" (module C_strobe : Algorithm.S);
      distributed "recompute" (module Recompute : Algorithm.S);
      distributed "sweep-pipelined" (module Sweep_pipelined : Algorithm.S);
      distributed "sweep-parallel" (module Sweep_parallel : Algorithm.S);
      distributed "sweep-global" (module Sweep_global : Algorithm.S);
      ("eca (centralized)", Scenario.Centralized, (module Eca : Algorithm.S)) ]
  @ List.map
      (fun (name, algo) ->
        Alcotest.test_case ("crash grid, chaos with global txns: " ^ name)
          `Quick
          (test_crash_grid ~cap:Checker.Strong ~tenths:(5 * grid_tenths)
             chaos_grid_scenario algo))
      [ ("sweep-global", (module Sweep_global : Algorithm.S));
        ("sweep-batched", (module Sweep_batched : Algorithm.S)) ]

(* ————— bounded queue under load ————— *)

let test_bounded_queue_backpressure () =
  let n = 60 in
  let scenario =
    { Scenario.default with
      Scenario.name = "bounded-queue";
      stream =
        { Update_gen.default with Update_gen.n_updates = n; mean_gap = 0.2 };
      queue_capacity = Some 4 }
  in
  let r = Experiment.run scenario (module Sweep : Algorithm.S) in
  Alcotest.(check bool) "quiesces" true r.Experiment.completed;
  Alcotest.check Rig.verdict "still complete" Checker.Complete
    r.Experiment.verdict.Checker.verdict;
  Alcotest.(check bool) "queue bounded by capacity" true
    (r.Experiment.metrics.Metrics.max_queue <= 4);
  Alcotest.(check bool) "high-watermark recorded" true
    (r.Experiment.metrics.Metrics.max_queue >= 1);
  Alcotest.(check bool) "backpressure engaged" true
    (r.Experiment.metrics.Metrics.queue_deferred > 0);
  Alcotest.(check int) "every admitted update incorporated" n
    (r.Experiment.metrics.Metrics.updates_incorporated
    + r.Experiment.metrics.Metrics.queue_shed)

(* An unbounded twin of the same workload incorporates everything and
   defers nothing — the knob defaults to off. *)
let test_unbounded_queue_untouched () =
  let scenario =
    { Scenario.default with
      Scenario.name = "unbounded-queue";
      stream =
        { Update_gen.default with Update_gen.n_updates = 60; mean_gap = 0.2 } }
  in
  let r = Experiment.run scenario (module Sweep : Algorithm.S) in
  Alcotest.(check int) "nothing deferred" 0
    r.Experiment.metrics.Metrics.queue_deferred;
  Alcotest.(check int) "nothing shed" 0 r.Experiment.metrics.Metrics.queue_shed;
  Alcotest.(check int) "all incorporated" 60
    r.Experiment.metrics.Metrics.updates_incorporated

let suite =
  [ Alcotest.test_case "codec: primitive round trips" `Quick
      test_codec_primitives;
    Alcotest.test_case "codec: malformed bytes raise Corrupt" `Quick
      test_codec_corrupt_raises;
    Alcotest.test_case "codec: equal bags encode identically" `Quick
      test_codec_bag_canonical;
    Alcotest.test_case "snap: tree round trip" `Quick test_snap_roundtrip;
    Alcotest.test_case "wal: record round trip and tail" `Quick
      test_wal_roundtrip_and_tail;
    Alcotest.test_case "checkpoint: full round trip" `Quick
      test_checkpoint_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_canon_matches_bag;
    QCheck_alcotest.to_alcotest qcheck_canon_rejects_unsorted;
    QCheck_alcotest.to_alcotest qcheck_decoders_reject_flips;
    Alcotest.test_case "decoders: every strict prefix is Corrupt" `Quick
      test_decoders_reject_prefixes;
    Alcotest.test_case "store: checkpoint cadence and tail" `Quick
      test_store_checkpoint_cadence;
    Alcotest.test_case "store: checkpoints share page pieces, bytes intact"
      `Quick test_store_checkpoint_pieces;
    Alcotest.test_case "store: WAL truncated at each checkpoint" `Quick
      test_wal_truncation;
    Alcotest.test_case "queue: capacity enforced" `Quick
      test_update_queue_capacity;
    Alcotest.test_case "backpressure: per-source FIFO, shed, release" `Quick
      test_backpressure_fifo_and_shed;
    Alcotest.test_case "backpressure: round-robin admission, no starvation"
      `Quick test_backpressure_round_robin_no_starvation;
    Alcotest.test_case "breaker: probe schedule deterministic across restore"
      `Quick test_breaker_probe_schedule_deterministic_across_restore;
    Alcotest.test_case "property: sweep complete on 50 crashy seeds" `Quick
      test_sweep_complete_across_crashes;
    Alcotest.test_case "property: nested sweep strong on 25 crashy seeds"
      `Quick test_nested_sweep_strong_across_crashes;
    Alcotest.test_case "property: strobe strong on 25 crashy seeds" `Quick
      test_strobe_strong_across_crashes;
    Alcotest.test_case "property: final view identical with/without crash"
      `Quick test_final_view_identical_with_and_without_crash;
    Alcotest.test_case "property: crashy runs deterministic per seed" `Quick
      test_crashy_run_deterministic;
    Alcotest.test_case "recovery works with checkpoints disabled" `Quick
      test_recovery_without_checkpoints;
    Alcotest.test_case "wal: live bytes bounded by the checkpoint cadence"
      `Quick test_wal_live_bytes_bounded;
    Alcotest.test_case "smoke: c-strobe across a crash window" `Quick
      test_c_strobe_crashy_smoke;
    Alcotest.test_case "smoke: recompute across a crash window" `Quick
      test_recompute_crashy_smoke;
    Alcotest.test_case "smoke: eca (centralized) across a crash window" `Quick
      test_eca_crashy_smoke;
    Alcotest.test_case "bounded queue: backpressure keeps run complete" `Quick
      test_bounded_queue_backpressure;
    Alcotest.test_case "unbounded queue: knob off changes nothing" `Quick
      test_unbounded_queue_untouched ]
  @ crash_grid_cases
