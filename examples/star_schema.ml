(* A star-schema analytics warehouse: a sales fact feed joined with two
   dimension sources, maintained by pipelined SWEEP under a fast update
   stream, with incremental group-by aggregates (revenue per store)
   derived from the very deltas the warehouse installs.

   The view is written in the SQL-like surface syntax and compiled by
   View_parser — the same definition the paper writes out in §5.2 style.

   Run with: dune exec examples/star_schema.exe *)

open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_harness

let view =
  View_parser.parse_exn
    "SELECT sales.id, stores.name, products.label, sales.amount \
     FROM stores(store_id int key, name int), \
          sales(id int key, store int, product int, amount int), \
          products(product_id int key, label int) \
     WHERE stores.store_id = sales.store AND sales.product = \
           products.product_id"

let () =
  let rng = Rng.create 2027L in
  let stores =
    Relation.of_tuples (List.init 4 (fun s -> Tuple.ints [ s; 100 + s ]))
  in
  let products =
    Relation.of_tuples (List.init 6 (fun p -> Tuple.ints [ p; 200 + p ]))
  in
  let sales =
    Relation.of_tuples
      (List.init 25 (fun i ->
           Tuple.ints [ i; Rng.int rng 4; Rng.int rng 6; 5 + Rng.int rng 95 ]))
  in
  let initial = [| stores; sales; products |] in
  (* A brisk afternoon: 40 new sales plus one store rename and one
     delisted product, all overlapping in flight. *)
  let next_sale = ref 25 in
  let updates =
    List.concat
      [ List.init 40 (fun k ->
            let id = !next_sale in
            incr next_sale;
            ( 0.3 *. float_of_int k, 1,
              Delta.insertion
                (Tuple.ints
                   [ id; Rng.int rng 4; Rng.int rng 6; 5 + Rng.int rng 95 ])
            ));
        [ (3.1, 0,
           Delta.sum
             [ Delta.deletion (Tuple.ints [ 2; 102 ]);
               Delta.insertion (Tuple.ints [ 2; 150 ]) ]);
          (6.4, 2, Delta.deletion (Tuple.ints [ 5; 205 ])) ] ]
  in
  let outcome =
    Experiment.run_scripted ~latency:0.7
      ~algorithm:(module Sweep_pipelined : Algorithm.S)
      ~view ~initial ~updates ()
  in
  let node = outcome.Experiment.node in
  (* Revenue per store, maintained incrementally: seed from the initial
     view, then replay every installed delta. View tuple layout is
     [sale id; store name; product label; amount]. *)
  let revenue =
    Aggregate.create ~group_by:[| 1 |]
      ~aggregates:[ Aggregate.Count; Aggregate.Sum 3; Aggregate.Avg 3 ]
  in
  Aggregate.seed revenue (Node.initial_view node);
  List.iter
    (fun (r : Node.install_record) -> Aggregate.apply revenue r.Node.delta)
    (Node.installs node);
  Format.printf "star-schema warehouse (pipelined SWEEP, W=8)@.@.%a@.@."
    View_def.pp view;
  let m = Node.metrics node in
  Format.printf
    "%d updates in %d installs; staleness mean %.2f; %d compensations@.@."
    m.Metrics.updates_incorporated m.Metrics.installs
    (Metrics.mean_staleness m) m.Metrics.compensations;
  Format.printf "revenue per store (count, sum, avg):@.%a@." Aggregate.pp
    revenue;
  let verdict = Experiment.check_scripted outcome in
  Format.printf "@.consistency: %a@." Checker.pp_verdict
    verdict.Checker.verdict;
  (* cross-check the incremental aggregate against a recomputation *)
  let recomputed =
    let a =
      Aggregate.create ~group_by:[| 1 |]
        ~aggregates:[ Aggregate.Count; Aggregate.Sum 3; Aggregate.Avg 3 ]
    in
    Aggregate.seed a (Node.view_contents node);
    a
  in
  let agree =
    List.for_all
      (fun key -> Aggregate.get revenue key = Aggregate.get recomputed key)
      (Aggregate.groups recomputed)
  in
  Format.printf "incremental aggregates match recomputation: %b@.@." agree;
  (* the view is an ordinary relation: dump it as CSV for inspection *)
  let view_schema =
    Schema.make "premium_view"
      [ Schema.attr "sale_id" Value.T_int; Schema.attr "store" Value.T_int;
        Schema.attr "product" Value.T_int; Schema.attr "amount" Value.T_int ]
  in
  let as_relation =
    Relation.of_list (Bag.to_sorted_list (Node.view_contents node))
  in
  Format.printf "view as CSV (first lines):@.";
  String.split_on_char '\n' (Csv.render view_schema as_relation)
  |> List.filteri (fun i _ -> i < 6)
  |> List.iter (Format.printf "  %s@.")
