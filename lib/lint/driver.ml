(* Orchestration, in two phases: phase 1 discovers and parses every
   unit once and builds the Modgraph (the cross-module rules' repo
   model); phase 2 runs the rules over every unit, applies pragmas,
   renders text / JSON / SARIF and decides the exit status. *)

module Jsonw = Repro_observability.Jsonw

type file_report = {
  file : string;
  findings : Finding.t list;  (* active (unsuppressed), sorted *)
  suppressed : (Finding.t * Pragma.t) list;  (* the audit trail *)
  pragma_count : int;  (* pragma occurrences scanned, valid or not *)
}

type report = { files : int; reports : file_report list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_impl ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Parse.implementation lexbuf

(* Directories never descended into: build artifacts, hidden dirs, and
   the lint fixtures (which violate the rules on purpose). *)
let skip_dir name =
  name = "_build" || name = "lint_fixtures"
  || (String.length name > 0 && name.[0] = '.')

let rec discover path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if skip_dir entry then []
           else discover (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let parse_error_finding ~file msg =
  { Finding.file; line = 1; col = 0; rule = "parse";
    severity = Finding.Error; message = msg; hint = "" }

(* ————— phase 1: parse once ————— *)

type parsed = {
  p_file : string;
  p_has_mli : bool;
  p_source : string;
  p_ast : Parsetree.structure option;
  p_parse_error : Finding.t option;
}

let parse_unit ?has_mli ~file source =
  let has_mli =
    match has_mli with
    | Some b -> b
    | None -> Sys.file_exists (file ^ "i")
  in
  let ast, err =
    match parse_impl ~file source with
    | ast -> (Some ast, None)
    | exception Syntaxerr.Error _ ->
        (None, Some (parse_error_finding ~file "syntax error: unit skipped"))
    | exception Lexer.Error (_, _) ->
        (None, Some (parse_error_finding ~file "lexing error: unit skipped"))
  in
  { p_file = file; p_has_mli = has_mli; p_source = source; p_ast = ast;
    p_parse_error = err }

let build_graph parsed =
  Modgraph.build
    (List.filter_map
       (fun p ->
         match p.p_ast with Some ast -> Some (p.p_file, ast) | None -> None)
       parsed)

(* ————— phase 2: rules + pragmas on one unit ————— *)

let lint_parsed graph p =
  let pragmas, pragma_errors = Pragma.scan p.p_source in
  let raw =
    match p.p_ast with
    | Some ast ->
        Rules.run { Rules.file = p.p_file; has_mli = p.p_has_mli; graph } ast
    | None -> (
        match p.p_parse_error with Some f -> [ f ] | None -> [])
  in
  let active, suppressed =
    List.fold_left
      (fun (active, suppressed) f ->
        match List.find_opt (fun pr -> Pragma.covers pr f) pragmas with
        | Some pr ->
            pr.Pragma.used <- true;
            (active, (f, pr) :: suppressed)
        | None -> (f :: active, suppressed))
      ([], []) raw
  in
  let pragma_findings =
    List.map
      (fun (line, msg) ->
        { Finding.file = p.p_file; line; col = 0; rule = "pragma";
          severity = Finding.Error; message = msg; hint = "" })
      pragma_errors
    @ List.filter_map
        (fun (pr : Pragma.t) ->
          if pr.used then None
          else
            Some
              { Finding.file = p.p_file; line = pr.line; col = 0;
                rule = "pragma"; severity = Finding.Warning;
                message =
                  Printf.sprintf
                    "pragma `allow %s` (%s) suppresses nothing; drop it"
                    pr.rule pr.reason;
                hint = "" })
        pragmas
  in
  { file = p.p_file;
    findings = List.sort Finding.compare (pragma_findings @ active);
    suppressed = List.rev suppressed;
    pragma_count = List.length pragmas + List.length pragma_errors }

(* Lint one unit from source text, with a single-unit graph — the
   fixture entry point. [has_mli] defaults to a sibling-file probe;
   tests override it. *)
let lint_source ?has_mli ~file source =
  let p = parse_unit ?has_mli ~file source in
  lint_parsed (build_graph [ p ]) p

let lint_file path = lint_source ~file:path (read_file path)

(* Lint several units from source against one shared graph — the
   cross-module fixture entry point. *)
let lint_sources units =
  let parsed =
    List.map (fun (file, src) -> parse_unit ~has_mli:false ~file src) units
  in
  let graph = build_graph parsed in
  { files = List.length parsed;
    reports = List.map (lint_parsed graph) parsed }

let lint_paths paths =
  let files = List.concat_map discover paths in
  let parsed = List.map (fun f -> parse_unit ~file:f (read_file f)) files in
  let graph = build_graph parsed in
  { files = List.length files;
    reports = List.map (lint_parsed graph) parsed }

(* ————— aggregation & rendering ————— *)

let all_findings r = List.concat_map (fun fr -> fr.findings) r.reports
let all_suppressed r = List.concat_map (fun fr -> fr.suppressed) r.reports

let count sev r =
  List.length
    (List.filter (fun (f : Finding.t) -> f.severity = sev) (all_findings r))

let errors r = count Finding.Error r
let warnings r = count Finding.Warning r

let pragmas r =
  List.fold_left (fun acc fr -> acc + fr.pragma_count) 0 r.reports

(* (id, slug, active findings, suppressed findings) per rule, in rule
   order — the per-rule accounting CI prints and the JSON embeds. *)
let rule_stats r =
  let active = all_findings r in
  let supp = all_suppressed r in
  List.map
    (fun (id, slug, _) ->
      ( id, slug,
        List.length (List.filter (fun (f : Finding.t) -> f.rule = id) active),
        List.length
          (List.filter (fun ((f : Finding.t), _) -> f.rule = id) supp) ))
    Rules.meta

let render_text ?(show_suppressed = false) r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun fr ->
      List.iter
        (fun f ->
          Buffer.add_string buf (Finding.to_string f);
          Buffer.add_char buf '\n')
        fr.findings)
    r.reports;
  if show_suppressed then
    List.iter
      (fun (f, (p : Pragma.t)) ->
        Buffer.add_string buf
          (Printf.sprintf "%s:%d: [%s][suppressed] %s — allowed: %s\n"
             f.Finding.file f.Finding.line f.Finding.rule f.Finding.message
             p.reason))
      (all_suppressed r);
  List.iter
    (fun (id, slug, active, suppressed) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s %-24s %d finding(s), %d suppressed\n" id slug
           active suppressed))
    (rule_stats r);
  Buffer.add_string buf
    (Printf.sprintf
       "repro-lint: %d file(s), %d error(s), %d warning(s), %d suppressed, \
        %d pragma(s)\n"
       r.files (errors r) (warnings r)
       (List.length (all_suppressed r))
       (pragmas r));
  Buffer.contents buf

let finding_json (f : Finding.t) =
  Jsonw.obj
    [ ("file", Jsonw.str f.file); ("line", Jsonw.int f.line);
      ("col", Jsonw.int f.col); ("rule", Jsonw.str f.rule);
      ("severity", Jsonw.str (Finding.severity_label f.severity));
      ("message", Jsonw.str f.message); ("hint", Jsonw.str f.hint) ]

let suppression_json (f, (p : Pragma.t)) =
  Jsonw.obj
    [ ("file", Jsonw.str f.Finding.file); ("line", Jsonw.int f.Finding.line);
      ("rule", Jsonw.str f.Finding.rule);
      ("message", Jsonw.str f.Finding.message);
      ("pragma_line", Jsonw.int p.line); ("reason", Jsonw.str p.reason) ]

let to_json r =
  Jsonw.obj
    [ ("version", Jsonw.str "repro-lint/1"); ("files", Jsonw.int r.files);
      ("errors", Jsonw.int (errors r));
      ("warnings", Jsonw.int (warnings r));
      ("pragmas", Jsonw.int (pragmas r));
      ("rules",
       Jsonw.list
         (List.map
            (fun (id, slug, active, suppressed) ->
              Jsonw.obj
                [ ("id", Jsonw.str id); ("slug", Jsonw.str slug);
                  ("findings", Jsonw.int active);
                  ("suppressed", Jsonw.int suppressed) ])
            (rule_stats r)));
      ("findings", Jsonw.list (List.map finding_json (all_findings r)));
      ("suppressions",
       Jsonw.list (List.map suppression_json (all_suppressed r))) ]

let render_json r = Jsonw.to_string ~indent:2 (to_json r)

(* ————— SARIF 2.1.0 ————— *)

(* The minimal static-analysis interchange shape: one run, the rule
   table from Rules.meta, one result per active finding. Suppressed
   findings are by definition resolved, so they stay out of [results]
   and are accounted in the run properties instead. *)
let to_sarif r =
  let rule_json (id, slug, _, _) =
    let (_, _, desc) =
      List.find (fun (i, _, _) -> i = id) Rules.meta
    in
    Jsonw.obj
      [ ("id", Jsonw.str id); ("name", Jsonw.str slug);
        ("shortDescription", Jsonw.obj [ ("text", Jsonw.str desc) ]) ]
  in
  let result_json (f : Finding.t) =
    Jsonw.obj
      [ ("ruleId", Jsonw.str f.rule);
        ("level",
         Jsonw.str
           (match f.severity with
           | Finding.Error -> "error"
           | Finding.Warning -> "warning"));
        ("message", Jsonw.obj [ ("text", Jsonw.str f.message) ]);
        ("locations",
         Jsonw.list
           [ Jsonw.obj
               [ ( "physicalLocation",
                   Jsonw.obj
                     [ ( "artifactLocation",
                         Jsonw.obj [ ("uri", Jsonw.str f.file) ] );
                       ( "region",
                         Jsonw.obj
                           [ ("startLine", Jsonw.int f.line);
                             ("startColumn", Jsonw.int (f.col + 1)) ] ) ] )
               ] ]) ]
  in
  Jsonw.obj
    [ ("$schema",
       Jsonw.str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Jsonw.str "2.1.0");
      ("runs",
       Jsonw.list
         [ Jsonw.obj
             [ ( "tool",
                 Jsonw.obj
                   [ ( "driver",
                       Jsonw.obj
                         [ ("name", Jsonw.str "repro-lint");
                           ("version", Jsonw.str "1");
                           ("rules",
                            Jsonw.list (List.map rule_json (rule_stats r)))
                         ] ) ] );
               ("results",
                Jsonw.list (List.map result_json (all_findings r)));
               ( "invocations",
                 Jsonw.list
                   [ Jsonw.obj
                       [ ("executionSuccessful", Jsonw.bool (errors r = 0))
                       ] ] );
               ( "properties",
                 Jsonw.obj
                   [ ("files", Jsonw.int r.files);
                     ("suppressions",
                      Jsonw.int (List.length (all_suppressed r)));
                     ("pragmas", Jsonw.int (pragmas r)) ] ) ] ]) ]

let render_sarif r = Jsonw.to_string ~indent:2 (to_sarif r)

(* ————— CLI ————— *)

let usage =
  "usage: repro_lint [--json] [--show-suppressed] [--sarif OUT.sarif] \
   [path ...]\n\
   Lints every .ml under the given files/directories (default: lib bin \
   bench test).\n\
   --sarif writes a SARIF 2.1.0 report alongside the chosen output.\n\
   Exit status 1 when any error-severity finding survives pragmas."

let main argv =
  let json = ref false in
  let show_suppressed = ref false in
  let sarif_out = ref None in
  let paths = ref [] in
  let bad = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--show-suppressed" :: rest ->
        show_suppressed := true;
        parse rest
    | "--sarif" :: out :: rest ->
        sarif_out := Some out;
        parse rest
    | [ "--sarif" ] -> bad := Some 2
    | ("--help" | "-h") :: _ -> bad := Some 0
    | arg :: rest
      when String.starts_with ~prefix:"--sarif=" arg && String.length arg > 8
      ->
        sarif_out := Some (String.sub arg 8 (String.length arg - 8));
        parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> bad := Some 2
    | path :: rest ->
        paths := path :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list argv));
  match !bad with
  | Some code ->
      print_endline usage;
      code
  | None -> (
      let paths =
        match List.rev !paths with
        | [] -> [ "lib"; "bin"; "bench"; "test" ]
        | ps -> ps
      in
      match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
      | Some missing ->
          Printf.eprintf "repro_lint: no such path: %s\n" missing;
          2
      | None ->
          let r = lint_paths paths in
          (match !sarif_out with
          | Some out ->
              let oc = open_out_bin out in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc (render_sarif r))
          | None -> ());
          if !json then print_string (render_json r)
          else print_string (render_text ~show_suppressed:!show_suppressed r);
          if errors r > 0 then 1 else 0)
