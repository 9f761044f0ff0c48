type line = { time : float; who : string; text : string }
type t = { enabled : bool; mutable rev_lines : line list }

let create ?(enabled = false) () = { enabled; rev_lines = [] }
let enabled t = t.enabled

let emit t ~time ~who fmt =
  Format.kasprintf
    (fun text ->
      if t.enabled then t.rev_lines <- { time; who; text } :: t.rev_lines)
    fmt

let lines t = List.rev t.rev_lines
let clear t = t.rev_lines <- []

let pp ppf t =
  List.iter
    (fun l -> Format.fprintf ppf "[%8.3f] %-12s %s@." l.time l.who l.text)
    (lines t)
