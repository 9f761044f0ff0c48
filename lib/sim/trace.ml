type line = { time : float; who : string; text : string }
type t = { enabled : bool; mutable rev_lines : line list }

let create ?(enabled = false) () = { enabled; rev_lines = [] }
let enabled t = t.enabled

let emit t ~time ~who fmt =
  if t.enabled then
    Format.kasprintf
      (fun text -> t.rev_lines <- { time; who; text } :: t.rev_lines)
      fmt
  else
    (* lint: allow L8 ikfprintf ignores its formatter argument and never writes; std_formatter is only a type witness *)
    Format.ikfprintf (fun _ -> ()) Format.std_formatter fmt

let lines t = List.rev t.rev_lines
let clear t = t.rev_lines <- []

let pp ppf t =
  List.iter
    (fun l -> Format.fprintf ppf "[%8.3f] %-12s %s@." l.time l.who l.text)
    (lines t)
