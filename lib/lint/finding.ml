type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;  (* "L1".."L9", or "parse"/"pragma" for tool diagnostics *)
  severity : severity;
  message : string;
  hint : string;
}

let severity_label = function Error -> "error" | Warning -> "warning"

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s][%s] %s" f.file f.line f.col f.rule
    (severity_label f.severity) f.message;
  if f.hint <> "" then Format.fprintf ppf "@,    hint: %s" f.hint

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s][%s] %s%s" f.file f.line f.col f.rule
    (severity_label f.severity) f.message
    (if f.hint = "" then "" else "\n    hint: " ^ f.hint)
