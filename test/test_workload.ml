open Repro_relational
open Repro_sim
open Repro_workload

let test_populate_shape () =
  let view = Chain.view ~n:3 () in
  let rels = Chain.populate view ~size:20 ~domain:5 (Rng.create 1L) in
  Alcotest.(check int) "three relations" 3 (Array.length rels);
  Array.iter
    (fun r ->
      Alcotest.(check int) "twenty tuples" 20 (Relation.total r);
      (* keys are unique: distinct tuples = total *)
      Alcotest.(check int) "unique keys" 20 (Relation.cardinal r);
      Relation.iter
        (fun tup _ ->
          match (Tuple.get tup 1, Tuple.get tup 2) with
          | Value.Int a, Value.Int b ->
              Alcotest.(check bool) "payload in domain" true
                (a >= 0 && a < 5 && b >= 0 && b < 5)
          | _ -> Alcotest.fail "int payloads expected")
        r)
    rels

let run_stream ?(placement = Update_gen.Uniform) ?(p_insert = 0.5) n_updates =
  let view = Chain.view ~n:3 () in
  let engine = Engine.create ~seed:3L () in
  let rng = Engine.rng engine in
  let initial = Chain.populate view ~size:10 ~domain:4 (Rng.split rng) in
  let live = Array.map Relation.copy initial in
  let log = ref [] in
  let apply ~source ~global:_ delta =
    log := (source, Delta.copy delta) :: !log;
    match Relation.apply live.(source) delta with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "generator produced an invalid delete"
  in
  let cfg =
    { Update_gen.default with n_updates; mean_gap = 0.5; p_insert; placement }
  in
  Update_gen.drive engine (Rng.split rng) cfg ~view ~initial ~apply ();
  ignore (Engine.run engine);
  (List.rev !log, live)

let test_stream_counts_and_validity () =
  let log, _ = run_stream 200 in
  Alcotest.(check int) "exactly n updates applied" 200 (List.length log)

let test_stream_deletes_valid () =
  (* heavily delete-biased stream must stay valid (mirrors work) *)
  let log, live = run_stream ~p_insert:0.1 150 in
  Alcotest.(check int) "applied all" 150 (List.length log);
  Array.iter
    (fun r -> Alcotest.(check bool) "no negative counts" false
        (Bag.has_negative (Relation.as_bag r)))
    live

let test_alternating_placement () =
  let log, _ = run_stream ~placement:(Update_gen.Alternating (0, 2)) 20 in
  List.iteri
    (fun i (source, _) ->
      Alcotest.(check int) "alternates 0,2,0,2,…"
        (if i mod 2 = 0 then 0 else 2)
        source)
    log

let test_fresh_keys () =
  (* inserted keys never collide with existing ones *)
  let log, live = run_stream ~p_insert:1.0 50 in
  ignore log;
  Array.iter
    (fun r ->
      Alcotest.(check int) "all keys distinct" (Relation.total r)
        (Relation.cardinal r))
    live

let test_txn_size () =
  let view = Chain.view ~n:2 () in
  let engine = Engine.create ~seed:9L () in
  let rng = Engine.rng engine in
  let initial = Chain.populate view ~size:10 ~domain:4 (Rng.split rng) in
  let sizes = ref [] in
  let apply ~source:_ ~global:_ delta = sizes := Delta.weight delta :: !sizes in
  Update_gen.drive engine (Rng.split rng)
    { Update_gen.default with n_updates = 10; txn_size = 3; p_insert = 1.0 }
    ~view ~initial ~apply ();
  ignore (Engine.run engine);
  List.iter
    (fun w -> Alcotest.(check int) "three tuples per txn" 3 w)
    !sizes

let test_on_done_fires_after_last () =
  let view = Chain.view ~n:2 () in
  let engine = Engine.create ~seed:9L () in
  let rng = Engine.rng engine in
  let initial = Chain.populate view ~size:5 ~domain:4 (Rng.split rng) in
  let count = ref 0 in
  let done_at = ref (-1) in
  Update_gen.drive engine (Rng.split rng)
    { Update_gen.default with n_updates = 7 }
    ~view ~initial
    ~apply:(fun ~source:_ ~global:_ _ -> incr count)
    ~on_done:(fun () -> done_at := !count)
    ();
  ignore (Engine.run engine);
  Alcotest.(check int) "on_done sees all updates" 7 !done_at

(* The mirror as it was: a newest-first [Tuple.t list] that a delete
   copied and filtered whole. Kept verbatim as the oracle
   [Update_gen.Mirror] must reproduce update for update. *)
module List_mirror = struct
  type mirror = { mutable live : Tuple.t list; mutable next_key : int }

  let mirror_of_relation rel =
    let live = List.map fst (Relation.to_sorted_list rel) in
    let next_key =
      List.fold_left (fun acc tup ->
          match Tuple.get tup 0 with
          | Value.Int k -> max acc (k + 1)
          | _ -> acc)
        0 live
    in
    { live; next_key }

  let gen_one rng (cfg : Update_gen.config) mirror =
    let insert () =
      let tup =
        Chain.tuple ~key:mirror.next_key ~a:(Rng.int rng cfg.domain)
          ~b:(Rng.int rng cfg.domain)
      in
      mirror.next_key <- mirror.next_key + 1;
      mirror.live <- tup :: mirror.live;
      Delta.insertion tup
    in
    if mirror.live = [] || Rng.bool rng cfg.p_insert then insert ()
    else begin
      let arr = Array.of_list mirror.live in
      let victim = Rng.pick rng arr in
      mirror.live <- List.filter (fun t -> not (Tuple.equal t victim)) mirror.live;
      Delta.deletion victim
    end
end

(* Config [i] of the differential sweep: every p_insert from
   delete-heavy to insert-heavy, transaction sizes 1-3, global
   transactions on and off, all three placements, and initial sizes 0,
   1 and 500. Small initial sizes with a high p_insert outgrow the
   mirror's first 16 slots and compact several times; with a low one
   the sources drain to empty and refill. *)
let differential_config i =
  let p_inserts = [| 0.05; 0.2; 0.4; 0.5; 0.6; 0.8; 0.95 |] in
  let n = 2 + (i / 2 mod 3) in
  let placement =
    match i mod 3 with
    | 0 -> Update_gen.Uniform
    | 1 -> Update_gen.Zipf 1.1
    | _ -> Update_gen.Alternating (0, n - 1)
  in
  let size = [| 0; 1; 500 |].(i / 3 mod 3) in
  ( n, size,
    { Update_gen.default with
      n_updates = 250;
      mean_gap = 0.5;
      p_insert = p_inserts.(i mod Array.length p_inserts);
      placement;
      txn_size = 1 + (i / 9 mod 3);
      domain = 2 + (i mod 13);
      p_global = (if i / 27 mod 2 = 0 then 0. else 0.3) } )

let stream_of ~seed ~n ~size cfg mirror =
  let view = Chain.view ~n () in
  let engine = Engine.create ~seed () in
  let rng = Engine.rng engine in
  let initial =
    Chain.populate view ~size ~domain:cfg.Update_gen.domain (Rng.split rng)
  in
  let log = ref [] in
  let apply ~source ~global delta =
    log := (source, global, Delta.copy delta) :: !log
  in
  Update_gen.drive_with mirror engine (Rng.split rng) cfg ~view ~initial
    ~apply ();
  ignore (Engine.run engine);
  List.rev !log

let test_mirror_matches_list_oracle () =
  for i = 0 to 119 do
    let n, size, cfg = differential_config i in
    let seed = Int64.of_int (1000 + i) in
    let fenwick =
      stream_of ~seed ~n ~size cfg
        { Update_gen.of_relation = Update_gen.Mirror.of_relation;
          gen = Update_gen.Mirror.gen }
    in
    let oracle =
      stream_of ~seed ~n ~size cfg
        { Update_gen.of_relation = List_mirror.mirror_of_relation;
          gen = List_mirror.gen_one }
    in
    let name = Printf.sprintf "config %d" i in
    Alcotest.(check int) (name ^ ": stream length") (List.length oracle)
      (List.length fenwick);
    List.iteri
      (fun k ((s1, g1, d1), (s2, g2, d2)) ->
        if s1 <> s2 || g1 <> g2 || not (Delta.equal d1 d2) then
          Alcotest.failf "%s: update %d differs (source %d vs %d): %a vs %a"
            name k s1 s2 Delta.pp d1 Delta.pp d2)
      (List.combine fenwick oracle)
  done

(* One mirror driven to empty and back, against the list oracle: the
   r-th live tuple must agree at every step, across compactions. *)
let test_mirror_drain_and_refill () =
  let view = Chain.view ~n:1 () in
  let rel = (Chain.populate view ~size:40 ~domain:8 (Rng.create 5L)).(0) in
  let m = Update_gen.Mirror.of_relation rel in
  let o = List_mirror.mirror_of_relation rel in
  let rng_new = Rng.create 77L and rng_old = Rng.create 77L in
  let phases = [ (0.05, 200); (0.95, 400); (0.3, 600); (0.9, 200) ] in
  let emptied = ref false in
  List.iter
    (fun (p_insert, steps) ->
      let cfg = { Update_gen.default with p_insert; domain = 8 } in
      for _ = 1 to steps do
        let d_new = Update_gen.Mirror.gen rng_new cfg m in
        let d_old = List_mirror.gen_one rng_old cfg o in
        if not (Delta.equal d_new d_old) then
          Alcotest.failf "p_insert %g: %a vs %a" p_insert Delta.pp d_new
            Delta.pp d_old;
        Alcotest.(check int) "live count" (List.length o.live)
          (Update_gen.Mirror.live m);
        if Update_gen.Mirror.live m = 0 then emptied := true
      done)
    phases;
  Alcotest.(check bool) "the mirror drained to empty" true !emptied

let suite =
  [ Alcotest.test_case "populate shape and domains" `Quick test_populate_shape;
    Alcotest.test_case "mirror stream = list-mirror oracle (120 configs)" `Quick
      test_mirror_matches_list_oracle;
    Alcotest.test_case "mirror drains, refills and compacts like the list"
      `Quick test_mirror_drain_and_refill;
    Alcotest.test_case "stream emits exactly n updates" `Quick
      test_stream_counts_and_validity;
    Alcotest.test_case "delete-heavy streams stay valid" `Quick
      test_stream_deletes_valid;
    Alcotest.test_case "alternating placement" `Quick
      test_alternating_placement;
    Alcotest.test_case "fresh keys on insert" `Quick test_fresh_keys;
    Alcotest.test_case "source-local txn size" `Quick test_txn_size;
    Alcotest.test_case "on_done ordering" `Quick test_on_done_fires_after_last ]
