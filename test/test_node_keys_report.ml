(* Unit suites for the warehouse node's accounting, the key helpers the
   Strobe family uses, and the report renderer. *)

open Repro_relational
open Repro_warehouse
open Repro_workload
open Repro_harness

(* --- keys ---------------------------------------------------------- *)

let view3 = Chain.view ~n:3 ()

let test_key_extraction () =
  let tup = Chain.tuple ~key:42 ~a:1 ~b:2 in
  Alcotest.check Rig.tuple "source key" (Tuple.ints [ 42 ])
    (Keys.source_tuple_key view3 1 tup);
  let full = Tuple.ints [ 0; 0; 1; 42; 1; 2; 9; 2; 3 ] in
  Alcotest.check Rig.tuple "key of middle slice" (Tuple.ints [ 42 ])
    (Keys.full_tuple_key view3 1 full);
  (* chain view projects keys at positions 0..n-1 *)
  let vtup = Tuple.ints [ 7; 8; 9; 1; 3 ] in
  Alcotest.check Rig.tuple "key inside view tuple" (Tuple.ints [ 8 ])
    (Keys.view_tuple_key view3 1 vtup)

let test_kill_full () =
  let full =
    Delta.of_list
      [ (Tuple.ints [ 0; 0; 1; 5; 1; 2; 9; 2; 3 ], 1);
        (Tuple.ints [ 0; 0; 1; 6; 1; 2; 9; 2; 3 ], 2) ]
  in
  Keys.kill_full view3 ~full [ (1, Tuple.ints [ 5 ]) ];
  Alcotest.(check int) "killed tuple gone" 0
    (Delta.count full (Tuple.ints [ 0; 0; 1; 5; 1; 2; 9; 2; 3 ]));
  Alcotest.(check int) "other survives" 2
    (Delta.count full (Tuple.ints [ 0; 0; 1; 6; 1; 2; 9; 2; 3 ]))

let test_view_deletion () =
  let contents =
    Bag.of_list
      [ (Tuple.ints [ 1; 5; 2; 0; 3 ], 1); (Tuple.ints [ 1; 6; 2; 0; 3 ], 1) ]
  in
  let d = Keys.view_deletion view3 ~contents ~source:1 ~key:(Tuple.ints [ 5 ]) in
  Alcotest.check Rig.delta "only matching key removed"
    (Delta.of_list [ (Tuple.ints [ 1; 5; 2; 0; 3 ], -1) ])
    d

let test_require_keys () =
  Alcotest.(check bool) "chain view passes" true
    (match Keys.require_keys ~algorithm:"X" view3 with
    | () -> true
    | exception Invalid_argument _ -> false);
  let keyless = Chain.view ~n:2 ~projection:[| 1 |] ~name:"nk" () in
  Alcotest.(check bool) "keyless fails with algorithm name" true
    (match Keys.require_keys ~algorithm:"Strobe" keyless with
    | exception Invalid_argument m ->
        String.length m > 6 && String.sub m 0 6 = "Strobe"
    | () -> false)

(* --- node accounting ------------------------------------------------ *)

let test_node_accounting () =
  let outcome =
    Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S)
      ~view:view3
      ~initial:
        [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
           Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
           Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]
      ~updates:
        [ (0.0, 1, Delta.insertion (Chain.tuple ~key:1 ~a:1 ~b:2));
          (30.0, 1, Delta.deletion (Chain.tuple ~key:1 ~a:1 ~b:2)) ]
      ()
  in
  let node = outcome.Experiment.node in
  let m = Node.metrics node in
  Alcotest.(check int) "updates received" 2 m.Metrics.updates_received;
  Alcotest.(check int) "queries = 2 per update" 4 m.Metrics.queries_sent;
  Alcotest.(check int) "answers mirror queries" 4 m.Metrics.answers_received;
  Alcotest.(check int) "notice weight" 2 m.Metrics.notice_weight;
  Alcotest.(check int) "deliveries recorded" 2
    (List.length (Node.deliveries node));
  Alcotest.(check int) "installs recorded" 2 (List.length (Node.installs node));
  Alcotest.(check string) "algorithm name" "sweep" (Node.algorithm_name node);
  Alcotest.(check bool) "idle after drain" true (Node.idle node);
  (* initial view snapshot is intact even after installs *)
  Alcotest.(check bool) "initial view preserved" true
    (Bag.equal (Node.initial_view node)
       (Bag.of_list [ (Tuple.ints [ 0; 0; 0; 0; 3 ], 1) ]))

(* Without [record_history] the node keeps no per-update history: the
   same two notices are counted but neither delivered update nor install
   is retained. *)
let test_node_without_history () =
  let module Message = Repro_protocol.Message in
  let node record_history =
    let engine = Repro_sim.Engine.create () in
    let n =
      Node.create engine ~view:view3 ~algorithm:(module Sweep : Algorithm.S)
        ~send:(fun _ _ -> ())
        ~init:(Relation.create ()) ~record_history ()
    in
    List.iteri
      (fun seq k ->
        Node.deliver n
          (Message.Update_notice
             { txn = { Message.source = 1; seq };
               delta = Delta.insertion (Chain.tuple ~key:k ~a:1 ~b:2);
               occurred_at = 0.; global = None }))
      [ 1; 2 ];
    n
  in
  let kept = node true and dropped = node false in
  Alcotest.(check int) "recorded run keeps both deliveries" 2
    (List.length (Node.deliveries kept));
  Alcotest.(check int) "both notices counted" 2
    (Node.metrics dropped).Metrics.updates_received;
  Alcotest.(check int) "no deliveries kept" 0
    (List.length (Node.deliveries dropped));
  Alcotest.(check int) "no installs kept" 0
    (List.length (Node.installs dropped));
  Alcotest.(check bool) "no initial view kept" true
    (match Node.initial_view dropped with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_table_render () =
  let s =
    Report.table ~title:"T" ~headers:[ "x"; "count" ]
      ~rows:[ [ "alpha"; "1" ]; [ "b"; "23" ] ]
      ()
  in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* all body lines the same display width *)
  let lines =
    List.filter (fun l -> String.length l > 0) (String.split_on_char '\n' s)
  in
  (match lines with
  | _title :: rest ->
      let widths = List.map String.length rest in
      Alcotest.(check bool) "uniform width" true
        (List.for_all (fun w -> w = List.hd widths) widths)
  | [] -> Alcotest.fail "empty table");
  (* short rows are padded, alignment defaults left/right *)
  let padded =
    Report.table ~title:"" ~headers:[ "a"; "b" ] ~rows:[ [ "only" ] ] ()
  in
  Alcotest.(check bool) "short row padded" true
    (String.length padded > 0)

let test_table_utf8_width () =
  (* headers with multibyte glyphs must not skew column widths *)
  let s =
    Report.table ~title:"" ~headers:[ "Δmsgs"; "n" ]
      ~rows:[ [ "1"; "2" ] ]
      ()
  in
  let lines =
    List.filter (fun l -> String.length l > 0) (String.split_on_char '\n' s)
  in
  let display_len l =
    (* count non-continuation bytes *)
    let n = ref 0 in
    String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) l;
    !n
  in
  let widths = List.map display_len lines in
  Alcotest.(check bool) "uniform display width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_scenario_presets () =
  Alcotest.(check bool) "all presets resolvable" true
    (List.for_all
       (fun (name, _) -> Scenario.find_preset name <> None)
       Scenario.presets);
  Alcotest.(check bool) "unknown preset absent" true
    (Scenario.find_preset "nope" = None);
  (* centralized preset really is centralized *)
  (match Scenario.find_preset "centralized" with
  | Some s ->
      Alcotest.(check bool) "topology" true
        (s.Scenario.topology = Scenario.Centralized)
  | None -> Alcotest.fail "centralized preset missing")

let suite =
  [ Alcotest.test_case "key extraction" `Quick test_key_extraction;
    Alcotest.test_case "kill_full" `Quick test_kill_full;
    Alcotest.test_case "view_deletion" `Quick test_view_deletion;
    Alcotest.test_case "require_keys" `Quick test_require_keys;
    Alcotest.test_case "node accounting" `Quick test_node_accounting;
    Alcotest.test_case "node without history keeps none" `Quick
      test_node_without_history;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table utf8 widths" `Quick test_table_utf8_width;
    Alcotest.test_case "scenario presets" `Quick test_scenario_presets ]
