(* Golden tests for the repro_lint static-analysis pass: every rule has a
   positive fixture (must fire, with the expected rule ids and lines) and
   a negative fixture (must stay silent), so deleting any rule's
   implementation fails at least one case here. Plus pragma suppression,
   the JSON report shape, and the checkpoint-determinism invariant the
   L2 rule exists to protect. *)

open Repro_relational
open Repro_warehouse
open Repro_workload
module Driver = Repro_lint.Driver
module Finding = Repro_lint.Finding
module Jsonw = Repro_observability.Jsonw
module Jsonr = Repro_observability.Jsonr

let read_fixture name =
  let path = Filename.concat "lint_fixtures" name in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Fixtures are linted from source with an explicit [has_mli] so the
   result does not depend on sibling files. *)
let lint ?(has_mli = false) name =
  Driver.lint_source ~has_mli ~file:name (read_fixture name)

(* Lint a fixture as if it lived at [file] — for the path-scoped rules. *)
let lint_as ~file name =
  Driver.lint_source ~has_mli:false ~file (read_fixture name)

let rule_lines (r : Driver.file_report) =
  List.map (fun (f : Finding.t) -> (f.rule, f.line)) r.findings

let rule_line = Alcotest.(pair string int)

let check_findings name expected actual =
  Alcotest.(check (list rule_line)) name expected (rule_lines actual)

(* ————— rule golden tests ————— *)

let test_l1 () =
  check_findings "l1_pos fires per call"
    [ ("L1", 2); ("L1", 3); ("L1", 4); ("L1", 5); ("L1", 6) ]
    (lint "l1_pos.ml");
  check_findings "l1_neg silent" [] (lint "l1_neg.ml")

let test_l2 () =
  check_findings "l2_pos flags the fold" [ ("L2", 3) ] (lint "l2_pos.ml");
  check_findings "l2_neg silent" [] (lint "l2_neg.ml")

let test_l3 () =
  let r = lint "l3_pos.ml" in
  check_findings "l3_pos flags append and length" [ ("L3", 5); ("L3", 6) ] r;
  (match r.findings with
  | [ append; length ] ->
      Alcotest.(check string) "append is an error" "error"
        (Finding.severity_label append.Finding.severity);
      Alcotest.(check string) "length is a warning" "warning"
        (Finding.severity_label length.Finding.severity)
  | _ -> Alcotest.fail "expected two findings");
  check_findings "l3_neg silent" [] (lint "l3_neg.ml")

let test_l4 () =
  check_findings "l4_pos flags swallow and bare raise"
    [ ("L4", 3); ("L4", 4) ]
    (lint ~has_mli:true "l4_pos.ml");
  (* without an interface the bare raise is a local matter *)
  check_findings "l4_pos without mli keeps only the swallow" [ ("L4", 3) ]
    (lint ~has_mli:false "l4_pos.ml");
  check_findings "l4_neg silent" [] (lint ~has_mli:true "l4_neg.ml")

(* ————— L7–L9: the cross-module rules ————— *)

let test_l7 () =
  let r = lint_as ~file:"lib/workload/l7_pos.ml" "l7_pos.ml" in
  check_findings "l7_pos flags every mutable toplevel"
    [ ("L7", 3); ("L7", 4); ("L7", 5); ("L7", 6); ("L7", 8) ]
    r;
  (match r.findings with
  | f :: _ ->
      Alcotest.(check string) "mutable toplevels are errors" "error"
        (Finding.severity_label f.Finding.severity)
  | [] -> Alcotest.fail "expected findings");
  check_findings "same source is silent outside lib/" []
    (lint_as ~file:"test/l7_pos.ml" "l7_pos.ml");
  let neg = lint_as ~file:"lib/workload/l7_neg.ml" "l7_neg.ml" in
  check_findings "l7_neg: factories and partials silent" [] neg;
  match neg.Driver.suppressed with
  | [ (f, p) ] ->
      Alcotest.(check string) "write-once registry rode its pragma" "L7"
        f.Finding.rule;
      Alcotest.(check bool) "with a reason" true
        (String.length p.Repro_lint.Pragma.reason > 0)
  | _ -> Alcotest.fail "expected exactly one L7 suppression"

(* Cross-module L7: the mutability fixpoint sees through a constructor
   defined in another unit. *)
let test_l7_cross_module () =
  let r =
    Driver.lint_sources
      [ ("lib/warehouse/reg.ml", "let table = Mk.fresh ()\n");
        ("lib/warehouse/mk.ml", "let fresh () = Hashtbl.create 16\n") ]
  in
  let reg =
    List.find (fun (fr : Driver.file_report) ->
        fr.file = "lib/warehouse/reg.ml")
      r.Driver.reports
  in
  check_findings "the alias of the foreign constructor is flagged"
    [ ("L7", 1) ] reg;
  let mk =
    List.find (fun (fr : Driver.file_report) ->
        fr.file = "lib/warehouse/mk.ml")
      r.Driver.reports
  in
  check_findings "the factory itself is fine" [] mk

let test_l8 () =
  check_findings "l8_pos flags each effect site"
    [ ("L8", 3); ("L8", 10) ]
    (lint_as ~file:"lib/warehouse/l8_pos.ml" "l8_pos.ml");
  check_findings "l8_neg: I/O off the handler paths is silent" []
    (lint_as ~file:"lib/warehouse/l8_neg.ml" "l8_neg.ml")

(* Cross-module L8: the reachability walk follows calls into other
   units but never enters lib/observability. *)
let test_l8_cross_module () =
  let io = ("lib/sim/helper_io.ml", "let emit x = print_endline x\n") in
  let r =
    Driver.lint_sources
      [ ("lib/warehouse/wh.ml", "let on_update x = Helper_io.emit x\n"); io ]
  in
  let helper =
    List.find (fun (fr : Driver.file_report) ->
        fr.file = "lib/sim/helper_io.ml")
      r.Driver.reports
  in
  check_findings "the effect site in the callee unit is flagged"
    [ ("L8", 1) ] helper;
  (match helper.findings with
  | [ f ] ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message carries the call chain" true
        (contains f.Finding.message "Wh.on_update")
  | _ -> Alcotest.fail "expected one finding");
  let obs =
    Driver.lint_sources
      [ ("lib/warehouse/wh.ml", "let on_update x = Obs.emit x\n");
        ("lib/observability/obs.ml", "let emit x = print_endline x\n") ]
  in
  Alcotest.(check int) "effects behind Obs are exempt" 0
    (List.length
       (List.concat_map
          (fun (fr : Driver.file_report) -> fr.findings)
          obs.Driver.reports))

let test_l9 () =
  let r = lint_as ~file:"lib/warehouse/l9_pos.ml" "l9_pos.ml" in
  check_findings "l9_pos flags each mutation-after-send"
    [ ("L9", 5); ("L9", 10) ]
    r;
  (match r.findings with
  | f :: _ ->
      Alcotest.(check string) "send-aliasing is an error" "error"
        (Finding.severity_label f.Finding.severity)
  | [] -> Alcotest.fail "expected findings");
  check_findings "l9_neg: copy-on-send and disjoint fields silent" []
    (lint_as ~file:"lib/warehouse/l9_neg.ml" "l9_neg.ml")

(* ————— pragmas ————— *)

let test_pragma_suppression () =
  let r = lint "pragma_ok.ml" in
  check_findings "no active findings" [] r;
  (match r.suppressed with
  | [ (f, p) ] ->
      Alcotest.(check string) "suppressed rule" "L1" f.Finding.rule;
      Alcotest.(check bool) "reason recorded" true
        (String.length p.Repro_lint.Pragma.reason > 0)
  | _ -> Alcotest.fail "expected exactly one suppression");
  let scope = lint "pragma_scope.ml" in
  check_findings "a trailing pragma does not cover the next line"
    [ ("L1", 3) ] scope;
  Alcotest.(check (list int)) "trailing and standalone pragmas suppress"
    [ 2; 5 ]
    (List.map (fun ((f : Finding.t), _) -> f.line) scope.suppressed);
  let unused = lint "pragma_unused.ml" in
  check_findings "unused pragma warns" [ ("pragma", 1) ] unused;
  let bad = lint "pragma_bad.ml" in
  check_findings "malformed pragmas are errors"
    [ ("pragma", 1); ("pragma", 2) ]
    bad;
  Alcotest.(check bool) "malformed pragmas are error severity" true
    (List.for_all
       (fun (f : Finding.t) -> f.severity = Finding.Error)
       bad.findings);
  (* an unused pragma for a path-scoped rule warns even where the rule
     applies *)
  check_findings "unused L7 pragma warns inside lib/"
    [ ("pragma", 1) ]
    (lint_as ~file:"lib/workload/pragma_unused_l7.ml" "pragma_unused_l7.ml")

(* Suppression audit: the pragma count the driver reports per file must
   equal the raw occurrences of the marker in the source — so a pragma
   the scanner silently dropped (neither honored nor reported malformed)
   cannot hide. *)
let test_suppression_audit () =
  let marker = "(* " ^ "lint: allow" in
  let occurrences hay =
    let n = String.length marker and h = String.length hay in
    let count = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = marker then incr count
    done;
    !count
  in
  let fixtures =
    Sys.readdir "lint_fixtures" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "fixture directory is populated" true
    (List.length fixtures > 10);
  List.iter
    (fun name ->
      let source = read_fixture name in
      let r = Driver.lint_source ~has_mli:false ~file:name source in
      Alcotest.(check int)
        (Printf.sprintf "%s: pragma_count matches raw markers" name)
        (occurrences source) r.Driver.pragma_count)
    fixtures

(* ————— JSON report ————— *)

let test_json_report () =
  let report =
    { Driver.files = 2;
      reports = [ lint "l3_pos.ml"; lint "pragma_ok.ml" ] }
  in
  let doc = Jsonr.parse_exn (Driver.render_json report) in
  let field k = function
    | Jsonw.Obj kvs -> List.assoc k kvs
    | _ -> Alcotest.fail "expected an object"
  in
  Alcotest.(check string) "version" "repro-lint/1"
    (match field "version" doc with
    | Jsonw.String s -> s
    | _ -> "?");
  Alcotest.(check bool) "error count" true
    (field "errors" doc = Jsonw.Int 1);
  Alcotest.(check bool) "warning count" true
    (field "warnings" doc = Jsonw.Int 1);
  (match field "findings" doc with
  | Jsonw.List fs ->
      Alcotest.(check int) "findings listed" 2 (List.length fs);
      List.iter
        (fun f ->
          List.iter
            (fun k ->
              match field k f with
              | (exception Not_found) ->
                  Alcotest.fail (Printf.sprintf "finding lacks %S" k)
              | _ -> ())
            [ "file"; "line"; "col"; "rule"; "severity"; "message"; "hint" ])
        fs
  | _ -> Alcotest.fail "findings is not a list");
  match field "suppressions" doc with
  | Jsonw.List [ s ] ->
      Alcotest.(check bool) "suppression carries its reason" true
        (match field "reason" s with
        | Jsonw.String r -> String.length r > 0
        | _ -> false)
  | _ -> Alcotest.fail "expected one suppression in the report"

(* ————— SARIF round trip ————— *)

(* The SARIF document must survive the repo's own JSON reader with the
   2.1.0 shape intact: schema/version header, the full rule table, one
   result per active finding, and the invocation verdict. *)
let test_sarif_round_trip () =
  let reports =
    [ lint "l3_pos.ml"; lint_as ~file:"lib/workload/l7_pos.ml" "l7_pos.ml";
      lint "pragma_ok.ml" ]
  in
  let report = { Driver.files = 3; reports } in
  let n_findings =
    List.length
      (List.concat_map (fun (r : Driver.file_report) -> r.findings) reports)
  in
  let doc = Jsonr.parse_exn (Driver.render_sarif report) in
  let field k = function
    | Jsonw.Obj kvs -> List.assoc k kvs
    | _ -> Alcotest.fail "expected an object"
  in
  Alcotest.(check bool) "schema" true
    (field "$schema" doc
    = Jsonw.String "https://json.schemastore.org/sarif-2.1.0.json");
  Alcotest.(check bool) "version" true
    (field "version" doc = Jsonw.String "2.1.0");
  let run =
    match field "runs" doc with
    | Jsonw.List [ r ] -> r
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let driver = field "driver" (field "tool" run) in
  Alcotest.(check bool) "tool name" true
    (field "name" driver = Jsonw.String "repro-lint");
  (match field "rules" driver with
  | Jsonw.List rules ->
      Alcotest.(check int) "rule table covers L1–L4 and L7–L9" 7
        (List.length rules);
      List.iter
        (fun r ->
          match (field "id" r, field "shortDescription" r) with
          | Jsonw.String _, Jsonw.Obj _ -> ()
          | _ -> Alcotest.fail "rule lacks id or shortDescription")
        rules
  | _ -> Alcotest.fail "rules is not a list");
  (match field "results" run with
  | Jsonw.List results ->
      Alcotest.(check int) "one result per active finding" n_findings
        (List.length results);
      List.iter
        (fun r ->
          match (field "ruleId" r, field "level" r, field "locations" r) with
          | Jsonw.String _, Jsonw.String _, Jsonw.List [ loc ] -> (
              let region =
                field "region" (field "physicalLocation" loc)
              in
              match field "startLine" region with
              | Jsonw.Int l when l >= 1 -> ()
              | _ -> Alcotest.fail "startLine missing or < 1")
          | _ -> Alcotest.fail "result lacks ruleId/level/locations")
        results
  | _ -> Alcotest.fail "results is not a list");
  (match field "invocations" run with
  | Jsonw.List [ inv ] ->
      Alcotest.(check bool) "errors make the invocation unsuccessful" true
        (field "executionSuccessful" inv = Jsonw.Bool false)
  | _ -> Alcotest.fail "expected one invocation");
  match field "properties" run with
  | Jsonw.Obj _ as props ->
      Alcotest.(check bool) "properties count suppressions" true
        (field "suppressions" props = Jsonw.Int 1)
  | _ -> Alcotest.fail "properties is not an object"

(* ————— checkpoint determinism (the invariant behind L2) ————— *)

module Checkpoint = Repro_durability.Checkpoint

let view = Chain.view ~n:3 ()

let initial () =
  [| Relation.of_tuples [ Chain.tuple ~key:0 ~a:0 ~b:1 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:1 ~b:2 ];
     Relation.of_tuples [ Chain.tuple ~key:0 ~a:2 ~b:3 ] |]

let updates =
  [ (0.0, 2, Delta.insertion (Chain.tuple ~key:1 ~a:2 ~b:9));
    (0.5, 0, Delta.insertion (Chain.tuple ~key:1 ~a:7 ~b:1));
    (3.5, 0, Delta.deletion (Chain.tuple ~key:0 ~a:0 ~b:1)) ]

let checkpoint_bytes algorithm =
  let outcome = Rig.scripted ~algorithm ~view ~initial:(initial ()) ~updates () in
  Checkpoint.encode
    (Node.checkpoint outcome.Rig.node ~wal_pos:0 ~recv_expected:[| 0; 0; 0 |]
       ~senders:[||])

let test_checkpoints_byte_identical () =
  List.iter
    (fun (name, algorithm) ->
      let a = checkpoint_bytes algorithm in
      let b = checkpoint_bytes algorithm in
      Alcotest.(check bool)
        (name ^ ": identical runs checkpoint to identical bytes")
        true (String.equal a b);
      (* decode → re-encode is also stable, so any Hashtbl-order
         dependence in the encoding path would show up twice over *)
      Alcotest.(check string)
        (name ^ ": re-encoding a decoded checkpoint is stable")
        a
        (Checkpoint.encode (Checkpoint.decode a)))
    [ ("sweep", (module Sweep : Algorithm.S));
      ("sweep-global", (module Sweep_global : Algorithm.S));
      ("sweep-batched", (module Sweep_batched : Algorithm.S));
      ("sweep-pipelined", (module Sweep_pipelined : Algorithm.S));
      ("strobe", (module Strobe : Algorithm.S));
      ("c-strobe", (module C_strobe : Algorithm.S)) ]

let suite =
  [ Alcotest.test_case "L1: determinism fixtures" `Quick test_l1;
    Alcotest.test_case "L2: iteration-order fixtures" `Quick test_l2;
    Alcotest.test_case "L3: quadratic fixtures" `Quick test_l3;
    Alcotest.test_case "L4: exception-hygiene fixtures" `Quick test_l4;
    Alcotest.test_case "L7: toplevel-mutable-state fixtures" `Quick test_l7;
    Alcotest.test_case "L7: cross-module mutability fixpoint" `Quick
      test_l7_cross_module;
    Alcotest.test_case "L8: hot-path-effects fixtures" `Quick test_l8;
    Alcotest.test_case "L8: cross-module reachability and Obs exemption"
      `Quick test_l8_cross_module;
    Alcotest.test_case "L9: send-aliasing fixtures" `Quick test_l9;
    Alcotest.test_case "pragmas: suppression, unused, malformed" `Quick
      test_pragma_suppression;
    Alcotest.test_case "pragma audit: driver count equals raw markers"
      `Quick test_suppression_audit;
    Alcotest.test_case "JSON report decodes with expected shape" `Quick
      test_json_report;
    Alcotest.test_case "SARIF 2.1.0 document round-trips through Jsonr"
      `Quick test_sarif_round_trip;
    Alcotest.test_case "checkpoints are byte-identical across runs" `Quick
      test_checkpoints_byte_identical ]
