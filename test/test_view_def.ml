open Repro_relational
open Repro_workload

let view3 = Chain.view ~n:3 ()

let test_offsets () =
  Alcotest.(check int) "n" 3 (View_def.n_sources view3);
  Alcotest.(check int) "offset 0" 0 (View_def.offset view3 0);
  Alcotest.(check int) "offset 1" 3 (View_def.offset view3 1);
  Alcotest.(check int) "offset 2" 6 (View_def.offset view3 2);
  Alcotest.(check int) "total width" 9 (View_def.total_width view3);
  Alcotest.(check int) "width" 3 (View_def.width view3 1)

let test_global_resolution () =
  Alcotest.(check int) "global (1, 'b')" 5 (View_def.global_by_name view3 1 "b");
  Alcotest.(check int) "source of 5" 1 (View_def.source_of_global view3 5);
  Alcotest.(check int) "source of 0" 0 (View_def.source_of_global view3 0);
  Alcotest.(check int) "source of 8" 2 (View_def.source_of_global view3 8)

let test_keys_in_projection () =
  Alcotest.(check bool) "chain view keeps all keys" true
    (View_def.includes_all_keys view3);
  Alcotest.(check (list int)) "key of source 1 in view" [ 1 ]
    (View_def.view_key_positions view3 1);
  (* a projection dropping R1's key makes Strobe inapplicable *)
  let v =
    Chain.view ~n:2 ~projection:[| 0; 5 |] ~name:"no-keys" ()
  in
  Alcotest.(check bool) "keyless view detected" false
    (View_def.includes_all_keys v)

let test_validation () =
  let schemas = Chain.schemas ~n:2 in
  let bad_join () =
    ignore
      (View_def.make ~name:"bad" ~schemas
         ~joins:[| Join_spec.natural ~left_attr:4 ~right_attr:2 |]
         ~projection:[| 0 |] ())
  in
  Alcotest.(check bool) "join not connecting adjacent sources rejected" true
    (match bad_join () with
    | exception Invalid_argument _ -> true
    | () -> false);
  let bad_proj () =
    ignore
      (View_def.make ~name:"bad" ~schemas
         ~joins:[| Join_spec.natural ~left_attr:2 ~right_attr:4 |]
         ~projection:[| 99 |] ())
  in
  Alcotest.(check bool) "projection out of range rejected" true
    (match bad_proj () with
    | exception Invalid_argument _ -> true
    | () -> false);
  let wrong_join_count () =
    ignore
      (View_def.make ~name:"bad" ~schemas ~joins:[||] ~projection:[| 0 |] ())
  in
  let far_residual () =
    ignore
      (View_def.make ~name:"bad" ~schemas:(Chain.schemas ~n:3)
         ~joins:
           [| Join_spec.make
                ~residual:(Predicate.eq_attr 0 6)
                [ (2, 4) ];
              Join_spec.natural ~left_attr:5 ~right_attr:7 |]
         ~projection:[| 0 |] ())
  in
  Alcotest.(check bool) "residual reading a non-adjacent source rejected"
    true
    (match far_residual () with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "join count enforced" true
    (match wrong_join_count () with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_partial_lookup () =
  let p =
    { Partial.lo = 1; hi = 2;
      data = Delta.of_list [ (Tuple.ints [ 10; 11; 12; 13; 14; 15 ], 1) ] }
  in
  let tup = Tuple.ints [ 10; 11; 12; 13; 14; 15 ] in
  Alcotest.check Rig.value "global 3 inside partial" (Value.int 10)
    (Partial.lookup view3 p tup 3);
  Alcotest.check Rig.value "global 8" (Value.int 15)
    (Partial.lookup view3 p tup 8);
  Alcotest.(check bool) "out of range raises" true
    (match Partial.lookup view3 p tup 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_partial_arith () =
  let d1 =
    { Partial.lo = 0; hi = 0; data = Delta.of_list [ (Tuple.ints [ 1; 2; 3 ], 2) ] }
  in
  let d2 =
    { Partial.lo = 0; hi = 0; data = Delta.of_list [ (Tuple.ints [ 1; 2; 3 ], -2) ] }
  in
  Alcotest.(check bool) "add cancels" true
    (Partial.is_empty (Partial.add d1 d2));
  Alcotest.(check int) "sub doubles weight" 4
    (Partial.weight (Partial.sub d1 d2));
  let other = { d1 with Partial.lo = 1; hi = 1 } in
  Alcotest.(check bool) "range mismatch raises" true
    (match Partial.add d1 other with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [ Alcotest.test_case "offsets and widths" `Quick test_offsets;
    Alcotest.test_case "global attribute resolution" `Quick
      test_global_resolution;
    Alcotest.test_case "key projection checks" `Quick test_keys_in_projection;
    Alcotest.test_case "constructor validation" `Quick test_validation;
    Alcotest.test_case "partial lookup" `Quick test_partial_lookup;
    Alcotest.test_case "partial add/sub" `Quick test_partial_arith ]
