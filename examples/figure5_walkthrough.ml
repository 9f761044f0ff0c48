(* The paper's §5.2 worked example (Figure 5), step by step: three
   concurrent updates against a keyless three-way join view, maintained by
   SWEEP with on-line local error correction.

   Run with: dune exec examples/figure5_walkthrough.exe *)

open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_workload
open Repro_harness

let () =
  Format.printf
    "Figure 5 (SIGMOD'97): V = π[D,F] (R1 ⋈(B=C) R2 ⋈(D=E) R3)@.@.";
  let s2, d2 = (Paper_example.d_r2 ()) in
  let s3, d3 = (Paper_example.d_r3 ()) in
  let s1, d1 = (Paper_example.d_r1 ()) in
  (* ΔR2 first; ΔR3 and ΔR1 land while ΔR2's sweep query to R1 is in
     flight — the §5.2 interleaving. *)
  let outcome =
    Experiment.run_scripted ~algorithm:(module Sweep : Algorithm.S)
      ~view:(Paper_example.view ())
      ~initial:(Paper_example.initial ())
      ~updates:[ (0.0, s2, d2); (1.4, s3, d3); (1.5, s1, d1) ]
      ()
  in
  Format.printf "full simulation trace:@.";
  List.iter
    (fun l ->
      Format.printf "  [%6.2f] %-10s %s@." l.Trace.time l.Trace.who
        l.Trace.text)
    (Trace.lines outcome.Experiment.trace);
  Format.printf "@.view states (paper's Figure 5 warehouse column):@.";
  Format.printf "  initial:      %a@." Bag.pp (Paper_example.v0 ());
  let v = Bag.copy (Node.initial_view outcome.Experiment.node) in
  List.iter2
    (fun label (r : Node.install_record) ->
      Bag.merge_into ~into:v r.Node.delta;
      Format.printf "  after %s: %a@." label Bag.pp v)
    [ "ΔR2"; "ΔR3"; "ΔR1" ]
    (Node.installs outcome.Experiment.node);
  let verdict = Experiment.check_scripted outcome in
  Format.printf "@.checker: %a — every Figure 5 state reproduced exactly.@."
    Checker.pp_verdict verdict.Checker.verdict
