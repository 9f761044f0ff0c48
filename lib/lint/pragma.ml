(* Suppression pragmas, scanned from raw source text (the compiler's
   parser discards comments, so pragmas live outside the AST).

   Syntax — an ordinary OCaml comment whose body reads, with the comment
   opener directly before it (shown here without the opener so the
   scanner does not match its own documentation):

     lint: allow <rule> <reason...>        after code: covers its own line;
                                           alone on its line: also the next
     lint: allow-file <rule> <reason...>   covers the whole file

   The reason is mandatory: every suppression carries its own audit
   trail. A pragma that suppresses nothing is reported as a warning so
   stale exemptions cannot linger silently. *)

type t = {
  line : int;
  rule : string;  (* canonical id, e.g. "L3" *)
  reason : string;
  file_wide : bool;
  alone : bool;  (* nothing but blanks before it on its line *)
  mutable used : bool;
}

(* Accept both the short id and the rule's slug name. *)
let canonical_rule r =
  match String.lowercase_ascii r with
  | "l1" | "determinism" -> Some "L1"
  | "l2" | "iteration-order" -> Some "L2"
  | "l3" | "quadratic" -> Some "L3"
  | "l4" | "exception-hygiene" -> Some "L4"
  | "l7" | "toplevel-mutable-state" -> Some "L7"
  | "l8" | "hot-path-effects" -> Some "L8"
  | "l9" | "send-aliasing" -> Some "L9"
  | _ -> None

(* The comment opener is part of the marker so that prose, hint strings
   and this module's own documentation cannot accidentally form a
   pragma; the marker is assembled so this very line does not match. *)
let marker = "(* " ^ "lint: allow"

(* [scan source] returns the pragmas plus malformed-pragma diagnostics as
   (line, message) pairs. *)
let scan source =
  let pragmas = ref [] in
  let errors = ref [] in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun idx line_text ->
      let line = idx + 1 in
      match
        let rec find from =
          if from + String.length marker > String.length line_text then None
          else if String.sub line_text from (String.length marker) = marker
          then Some from
          else find (from + 1)
        in
        find 0
      with
      | None -> ()
      | Some at ->
          let rest_start = at + String.length marker in
          let rest =
            String.sub line_text rest_start
              (String.length line_text - rest_start)
          in
          let file_wide = String.length rest >= 5 && String.sub rest 0 5 = "-file" in
          let rest = if file_wide then String.sub rest 5 (String.length rest - 5) else rest in
          (* trim to the closing comment if present *)
          let rest =
            match String.index_opt rest '*' with
            | Some i when i + 1 < String.length rest && rest.[i + 1] = ')' ->
                String.sub rest 0 i
            | _ -> rest
          in
          let words =
            List.filter (fun w -> w <> "")
              (String.split_on_char ' ' (String.trim rest))
          in
          (match words with
          | [] ->
              errors :=
                (line, "pragma names no rule: `lint: allow <rule> <reason>`")
                :: !errors
          | rule :: reason_words -> (
              match canonical_rule rule with
              | None ->
                  errors :=
                    (line, Printf.sprintf "pragma names unknown rule %S" rule)
                    :: !errors
              | Some rule ->
                  let reason = String.concat " " reason_words in
                  if reason = "" then
                    errors :=
                      ( line,
                        Printf.sprintf
                          "pragma for %s carries no reason; suppressions must \
                           explain themselves"
                          rule )
                      :: !errors
                  else
                    let alone = String.trim (String.sub line_text 0 at) = "" in
                    pragmas :=
                      { line; rule; reason; file_wide; alone; used = false }
                      :: !pragmas)))
    lines;
  (List.rev !pragmas, List.rev !errors)

(* A pragma covers findings of its rule on its own line and, when it
   stands alone on its line just above the code, on the next line; or
   anywhere in the file when [file_wide]. A pragma at the end of a line
   of code covers that line only, so it cannot also silence the next. *)
let covers p (f : Finding.t) =
  p.rule = f.rule
  && (p.file_wide || f.line = p.line || (p.alone && f.line = p.line + 1))
