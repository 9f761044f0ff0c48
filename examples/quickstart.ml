(* Quickstart: build a two-source warehouse, run SWEEP over a handful of
   concurrent updates, and watch the materialized view stay exact.

   Run with: dune exec examples/quickstart.exe *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
open Repro_harness

let () =
  (* 1. Describe the distributed schema: two base relations at two
        autonomous sources. *)
  let schemas =
    [| Schema.make "orders"
         [ Schema.attr ~key:true "order_id" Value.T_int;
           Schema.attr "product" Value.T_int ];
       Schema.make "products"
         [ Schema.attr ~key:true "product_id" Value.T_int;
           Schema.attr "price" Value.T_int ] |]
  in
  (* 2. The warehouse view: orders joined with their products, keeping
        order id, product id and price. *)
  let view =
    View_def.make ~name:"order_prices" ~schemas
      ~joins:[| Join_spec.natural ~left_attr:1 ~right_attr:2 |]
      ~projection:[| 0; 2; 3 |] ()
  in
  (* 3. Initial contents of each source. *)
  let orders =
    Relation.of_tuples [ Tuple.ints [ 100; 7 ]; Tuple.ints [ 101; 8 ] ]
  in
  let products =
    Relation.of_tuples [ Tuple.ints [ 7; 1999 ]; Tuple.ints [ 8; 2499 ] ]
  in
  (* 4. A burst of updates, deliberately close together so they interfere
        with the sweep in flight: a new order, a price change (delete +
        insert), and a cancelled order. *)
  let updates =
    [ (0.0, 0, Delta.insertion (Tuple.ints [ 102; 8 ]));
      (0.6, 1,
       Delta.sum
         [ Delta.deletion (Tuple.ints [ 8; 2499 ]);
           Delta.insertion (Tuple.ints [ 8; 2199 ]) ]);
      (1.1, 0, Delta.deletion (Tuple.ints [ 100; 7 ])) ]
  in
  (* 5. Run it through the simulated warehouse under SWEEP. *)
  let outcome =
    Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S) ~view
      ~initial:[| orders; products |] ~updates ()
  in
  Format.printf "view definition:@.%a@.@." View_def.pp view;
  (* the sources mutate their relations during the run; the outcome keeps
     pristine copies of the initial state *)
  let pristine = outcome.Experiment.initial_sources in
  Format.printf "initial view: %a@.@." Relation.pp
    (Algebra.eval view (fun i -> pristine.(i)));
  Format.printf "view after each update:@.";
  let v = Bag.copy (Node.initial_view outcome.Experiment.node) in
  List.iteri
    (fun k (r : Node.install_record) ->
      Bag.merge_into ~into:v r.Node.delta;
      Format.printf "  %d. incorporates %s -> %a@." (k + 1)
        (String.concat ", "
           (List.map
              (fun t -> Format.asprintf "%a" Repro_protocol.Message.pp_txn_id t)
              r.Node.txns))
        Bag.pp v)
    (Node.installs outcome.Experiment.node);
  let verdict = Experiment.check_scripted outcome in
  Format.printf "@.metrics:@.%a@." Metrics.pp
    (Node.metrics outcome.Experiment.node);
  Format.printf "@.consistency checker: %a (%s)@." Checker.pp_verdict
    verdict.Checker.verdict verdict.Checker.detail
