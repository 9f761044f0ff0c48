open Repro_relational
open Repro_protocol

type t = {
  src : int;
  view : View_def.t;
  rel : Relation.t;
  mutable index : Algebra.indexes option;
      (* one per junction, built at the first leg that probes them, so a
         source that only answers snapshots (the recompute baseline)
         never pays for them; then kept in step by [apply] *)
  mutable next_seq : int;
}

let create ~source ~view rel =
  { src = source; view; rel; index = None; next_seq = 0 }

let source t = t.src
let relation t = t.rel

let indexes t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix = Algebra.indexes t.view t.src (Relation.as_bag t.rel) in
      t.index <- Some ix;
      ix

let extend t (partial : Partial.t) =
  { Partial.lo = min t.src partial.lo; hi = max t.src partial.hi;
    data = Algebra.answer t.view (indexes t) partial ~source:t.src }

let apply t delta =
  (match Relation.apply t.rel delta with
  | Ok () -> ()
  | Error tuples ->
      invalid_arg
        (Printf.sprintf "Base_table.apply: delete of absent tuple(s) %s at source %d"
           (String.concat ", " (List.map Tuple.to_string tuples))
           t.src));
  Option.iter (fun ix -> Delta.iter (Algebra.add_all ix) delta) t.index;
  let txn = { Message.source = t.src; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  txn

let applied t = t.next_seq
