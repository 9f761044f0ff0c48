open Repro_relational
open Repro_protocol

type t = {
  src : int;
  rel : Relation.t;
  indexes : Column_index.t list;
      (* one per indexed column, kept exactly in sync with [rel] by
         [apply] *)
  mutable next_seq : int;
  mutable rev_log : (Message.txn_id * Delta.t) list;
  mutable scans : int;
      (* probes that found no index and degraded to an O(n) relation
         scan — per table, so concurrent runs (and, eventually, domains)
         never share a counter; the harness sums its own tables into
         Metrics.unindexed_scans and the indexed-leg suites assert the
         sum stays 0 *)
}

let create ~source ?(indexes = []) ?view rel =
  let indexes =
    match view with
    | None -> indexes
    | Some v -> indexes @ View_def.join_columns v source
  in
  let indexes =
    List.map
      (fun col -> Column_index.of_bag ~col (Relation.as_bag rel))
      (List.sort_uniq Int.compare indexes)
  in
  { src = source; rel; indexes; next_seq = 0; rev_log = []; scans = 0 }

let source t = t.src
let relation t = t.rel
let indexed_columns t = List.map Column_index.col t.indexes

let rec find_index col = function
  | [] -> None
  | idx :: rest ->
      if Column_index.col idx = col then Some idx else find_index col rest

let index t ~col = find_index col t.indexes

let probe t ~col ~value f =
  match index t ~col with
  | Some idx -> Column_index.iter idx value f
  | None ->
      (* No index: degrade to a counted O(n) scan rather than fail the
         query — the indexed-leg suites assert the counter stays 0,
         so a call-site regression surfaces in tests, not in latency. *)
      t.scans <- t.scans + 1;
      Relation.iter
        (fun tup c -> if Value.equal (Tuple.get tup col) value then f tup c)
        t.rel

(* The one way a delta join leg runs: probe the persistent indexes.
   Only a cross-product junction (no equality to probe on) scans, via
   the generic hash join over the whole relation. *)
let extend t view partial =
  match
    Algebra.extend_with_probe view partial ~source:t.src ~probe:(probe t)
  with
  | Some answer -> answer
  | None -> Algebra.extend view partial ~with_relation:(t.src, t.rel)

let apply t delta =
  (match Relation.apply t.rel delta with
  | Ok () -> ()
  | Error tuples ->
      invalid_arg
        (Printf.sprintf "Base_table.apply: delete of absent tuple(s) %s at source %d"
           (String.concat ", " (List.map Tuple.to_string tuples))
           t.src));
  List.iter (fun idx -> Delta.iter (Column_index.add idx) delta) t.indexes;
  let txn = { Message.source = t.src; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  t.rev_log <- (txn, Delta.copy delta) :: t.rev_log;
  txn

let log t = List.rev t.rev_log
let applied t = t.next_seq
let scan_count t = t.scans
