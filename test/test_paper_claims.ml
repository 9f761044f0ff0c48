(* Every claim EXPERIMENTS.md makes, as one declarative row checked
   against the typed rows of the experiment that measures it: the
   paper's claims, and P1's statements about its preset counters. Each experiment runs once per test run; its rendered page must
   also match test/experiments/<id>.txt byte for byte (regenerate with
   `make experiments-golden` when a change to a page is intended).

   A row the reproduction knowingly does not meet carries
   [broken = Some reason]: its case passes while the claim fails, and
   fails once the claim starts to hold, so the reason cannot go stale. *)

open Repro_consistency
open Repro_harness
module P = Paper_experiments

type 'r claim = {
  id : string;  (** the name EXPERIMENTS.md cites *)
  section : string;  (** where the paper makes the claim *)
  says : string;
  holds : 'r -> bool;
  broken : string option;
}

let claim ?broken id section says holds = { id; section; says; holds; broken }

let check c rows =
  match (c.holds rows, c.broken) with
  | true, None | false, Some _ -> Ok ()
  | false, None ->
      Error (Printf.sprintf "%s (%s) does not hold: %s" c.id c.section c.says)
  | true, Some why ->
      Error
        (Printf.sprintf
           "%s is marked broken (%s) but now holds: drop the mark" c.id why)

type group = Group : 'r P.experiment * 'r claim list -> group

(* ------------------------------------------------------------------ *)
(* Predicate helpers                                                    *)
(* ------------------------------------------------------------------ *)

let at_least_strong v = Checker.compare_verdict v Checker.Strong <= 0
let sweep_cost n = float_of_int (2 * (n - 1))

let rec pairwise ok = function
  | a :: (b :: _ as rest) -> ok a b && pairwise ok rest
  | _ -> true

let rising l = pairwise ( < ) l
let non_increasing l = pairwise ( >= ) l

let rec differences = function
  | a :: (b :: _ as rest) -> (b - a) :: differences rest
  | _ -> []

let within ~tolerance ~reference x =
  Float.abs (x -. reference) <= tolerance *. reference

(* ------------------------------------------------------------------ *)
(* The claims, one group per experiment                                 *)
(* ------------------------------------------------------------------ *)

let t1 =
  let open P.T1 in
  let cells alg rows = (List.find (fun r -> r.algorithm = alg) rows).cells in
  let every alg ok rows = List.for_all ok (cells alg rows) in
  Group
    ( experiment,
      [ claim "T1.sweep" "Table 1, §5"
          "SWEEP is complete at n = 2, 4, 6, 8 with exactly 2(n−1) msgs/upd"
          (fun rows ->
            List.map (fun c -> c.n) (cells "sweep" rows) = [ 2; 4; 6; 8 ]
            && every "sweep"
                 (fun c ->
                   c.completed && c.verdict = Checker.Complete
                   && c.msgs_per_update = sweep_cost c.n)
                 rows);
        claim "T1.nested-sweep" "Table 1, §6"
          "Nested SWEEP is at least strong and below 2(n−1) msgs/upd"
          (every "nested-sweep" (fun c ->
               c.completed && at_least_strong c.verdict
               && c.msgs_per_update < sweep_cost c.n));
        claim "T1.strobe" "Table 1" "Strobe is at least strong"
          (every "strobe" (fun c -> c.completed && at_least_strong c.verdict));
        claim "T1.naive" "§4" "naive is INCONSISTENT at every n"
          (every "naive" (fun c ->
               c.completed && c.verdict = Checker.Inconsistent));
        claim "T1.recompute" "§3" "recompute sends exactly 2n msgs/upd"
          (every "recompute" (fun c ->
               c.msgs_per_update = float_of_int (2 * c.n)));
        claim "T1.eca-cost" "Table 1" "ECA sends 2 msgs/upd (O(1)) at every n"
          (every "eca" (fun c -> c.msgs_per_update = 2.));
        claim "T1.eca" "Table 1" "ECA is strong"
          (every "eca" (fun c -> c.completed && at_least_strong c.verdict))
          ~broken:
            "measured convergent: the checker grades every install, and \
             ECA's intermediate states deviate whenever updates overlap";
        claim "T1.c-strobe" "Table 1" "C-strobe is complete at every n"
          (every "c-strobe" (fun c ->
               c.completed && c.verdict = Checker.Complete))
          ~broken:
            "not complete from n = 6: the run is cut off at 30k simulator \
             events with its update queue still growing" ] )

let f5 =
  let open P.F5 in
  Group
    ( experiment,
      [ claim "F5.states" "Figure 5, §5.2"
          "the measured V equals the paper's V at each step, verdict complete"
          (fun t ->
            List.length t.steps = 4
            && List.for_all
                 (fun s -> Repro_relational.Bag.equal s.paper s.measured)
                 t.steps
            && t.verdict.Checker.verdict = Checker.Complete) ] )

let f2 =
  let open P.F2 in
  Group
    ( experiment,
      [ claim "F2.round-trips" "Figure 2"
          "one round trip per remote source: 4 queries and 4 answers at n = 5"
          (fun t -> t.queries = 4 && t.answers = 4) ] )

let e1 =
  let open P.E1 in
  let scaling alg t =
    (List.find (fun (r : P.E1a.row) -> r.algorithm = alg) t.scaling).cells
  in
  let blowup alg t =
    (List.find (fun (r : P.E1b.row) -> r.algorithm = alg) t.blowup).cells
  in
  let cost (c : P.E1a.cell) = c.msgs_per_update in
  Group
    ( experiment,
      [ claim "E1a.sweep" "§1, §5.3"
          "SWEEP sends exactly 2(n−1) msgs/upd for n = 2..10"
          (fun t ->
            List.for_all
              (fun (c : P.E1a.cell) ->
                c.completed && c.msgs_per_update = sweep_cost c.n)
              (scaling "sweep" t));
        claim "E1a.nested-sweep" "§6.2"
          "Nested SWEEP stays below 2(n−1) msgs/upd at every n"
          (fun t ->
            List.for_all
              (fun (c : P.E1a.cell) -> c.msgs_per_update < sweep_cost c.n)
              (scaling "nested-sweep" t));
        claim "E1a.c-strobe" "§1" "C-strobe sends more than SWEEP for n ≥ 3"
          (fun t ->
            List.for_all2
              (fun (c : P.E1a.cell) s -> c.n < 3 || cost c > cost s)
              (scaling "c-strobe" t) (scaling "sweep" t));
        claim "E1a.c-strobe-cutoff" "§1"
          "C-strobe's runs are cut off at 30k events exactly from n = 6"
          (fun t ->
            List.for_all
              (fun (c : P.E1a.cell) -> c.completed = (c.n < 6))
              (scaling "c-strobe" t));
        claim "E1a.recompute" "§3" "recompute sends exactly 2n msgs/upd"
          (fun t ->
            List.for_all
              (fun (c : P.E1a.cell) -> cost c = float_of_int (2 * c.n))
              (scaling "recompute" t));
        claim "E1b.sweep" "§5.3"
          "SWEEP sends 7(K+1) queries and is complete for K = 0..5"
          (fun t ->
            List.for_all
              (fun (c : P.E1b.cell) ->
                c.queries = 7 * (c.k + 1) && c.verdict = Checker.Complete)
              (blowup "sweep" t));
        claim "E1b.c-strobe" "§1"
          "C-strobe sends 7/13/24/44/80/144 queries, with strictly \
           increasing differences"
          (fun t ->
            let q =
              List.map (fun (c : P.E1b.cell) -> c.queries) (blowup "c-strobe" t)
            in
            q = [ 7; 13; 24; 44; 80; 144 ] && rising (differences q)) ] )

let e2 =
  let open P.E2 in
  Group
    ( experiment,
      [ claim "E2.one-query" "§3, Table 1"
          "ECA sends one query per update at every gap"
          (List.for_all (fun r -> r.updates = 80 && r.queries = r.updates));
        claim "E2.payload" "§3"
          "query tuples/update strictly rise as the gap shrinks"
          (fun rows ->
            rising (List.map (fun r -> r.query_tuples_per_update) rows));
        claim "E2.verdicts" "§3"
          "ECA is complete when sequential (gap 10), convergent under overlap"
          (List.for_all (fun r ->
               let sequential = r.gap >= 10. in
               r.completed
               && r.verdict
                  = if sequential then Checker.Complete else Checker.Convergent))
      ] )

let e3 =
  let open P.E3 in
  let cell alg r = List.find (fun c -> c.algorithm = alg) r.cells in
  Group
    ( experiment,
      [ claim "E3.sweep" "§5.3" "SWEEP's staleness rises as the gap shrinks"
          (fun rows ->
            rising (List.map (fun r -> (cell "sweep" r).staleness) rows));
        claim "E3.strobe" "§5.3, §6.2"
          "Strobe installs once at gap ≤ 1 (quiescence)"
          (List.for_all (fun r ->
               r.gap > 1. || (cell "strobe" r).installs = 1));
        claim "E3.nested-sweep" "§6.2"
          "Nested SWEEP's staleness is below SWEEP's at every gap"
          (List.for_all (fun r ->
               (cell "nested-sweep" r).staleness < (cell "sweep" r).staleness))
      ] )

let e4 =
  let open P.E4 in
  Group
    ( experiment,
      [ claim "E4.sweep" "§5.3" "SWEEP stays at 2(n−1) = 6 msgs/upd"
          (List.for_all (fun r -> r.sweep_msgs_per_update = 6.));
        claim "E4.nested-sweep" "§6.2"
          "Nested SWEEP stays below 6 msgs/upd and never rises as the gap \
           shrinks"
          (fun rows ->
            let costs = List.map (fun r -> r.nested_msgs_per_update) rows in
            List.for_all (fun c -> c < 6.) costs && non_increasing costs) ] )

let e5 =
  let open P.E5 in
  Group
    ( experiment,
      [ claim "E5.depth-bound" "§6.2"
          "with depth bound d = 4, Nested SWEEP's depth stays ≤ 4"
          (List.for_all (fun r ->
               r.algorithm <> "nested (d=4)" || r.max_depth <= 4));
        claim "E5.verdicts" "§6.2" "every row is at least strong"
          (List.for_all (fun r -> r.completed && at_least_strong r.verdict)) ] )

let e6 =
  let open P.E6 in
  Group
    ( experiment,
      [ claim "E6.control" "§4"
          "the gap-50 control has 0 compensations and naive complete"
          (fun rows ->
            let r = List.hd rows in
            r.gap = 50. && r.compensations_per_update = 0.
            && r.naive_completed && r.naive_verdict = Checker.Complete);
        claim "E6.naive" "§4"
          "naive is INCONSISTENT and drives counts negative at every gap ≤ 3"
          (List.for_all (fun r ->
               r.gap > 3.
               || r.naive_verdict = Checker.Inconsistent
                  && r.naive_negative_installs > 0));
        claim "E6.sweep" "§4" "SWEEP is complete at every gap"
          (List.for_all (fun r ->
               r.sweep_completed && r.sweep_verdict = Checker.Complete)) ] )

let e7 =
  let open P.E7 in
  Group
    ( experiment,
      [ claim "E7.payload" "§1"
          "SWEEP's payload is below recompute's at every expansion factor"
          (List.for_all (fun r -> r.sweep_payload < r.recompute_payload)) ] )

let e8 =
  let open P.E8 in
  let close r =
    within ~tolerance:0.1 ~reference:r.staleness_sim r.staleness_model
  in
  Group
    ( experiment,
      [ claim "E8.model" "§6.2 [Yur97]"
          "the model's staleness is within 10% of the simulator's at ρ ≤ 0.5 \
           and ρ ≥ 2"
          (List.for_all (fun r ->
               (r.utilization > 0.5 && r.utilization < 2.) || close r));
        claim "E8.knee" "§6.2 [Yur97]"
          "the model's staleness is within 10% of the simulator's at every ρ"
          (List.for_all close)
          ~broken:
            "the model overestimates staleness 1.3–2.3× at 0.75 ≤ ρ < 1, \
             where finite streams and non-Poisson service make P–K \
             pessimistic" ] )

let e9 =
  let open P.E9 in
  Group
    ( experiment,
      [ claim "E9.messages" "§5.3"
          "msgs/upd are equal across all four latency models"
          (fun rows ->
            List.for_all
              (fun r -> r.msgs_per_update = (List.hd rows).msgs_per_update)
              rows) ] )

let a1 =
  (* (sweep, sweep-parallel) at each n *)
  let pairs rows =
    let find alg n =
      (List.find (fun (r : P.A1.row) -> r.n = n && r.run.algorithm = alg) rows)
        .run
    in
    List.sort_uniq compare (List.map (fun (r : P.A1.row) -> r.n) rows)
    |> List.map (fun n -> (find "sweep" n, find "sweep-parallel" n))
  in
  Group
    ( P.A1.experiment,
      [ claim "A1.messages" "§5.3"
          "sweep-parallel sends exactly SWEEP's messages at every n"
          (fun rows ->
            List.for_all
              (fun ((s : P.ablation), (p : P.ablation)) ->
                p.msgs_per_update = s.msgs_per_update)
              (pairs rows));
        claim "A1.staleness" "§5.3"
          "sweep-parallel's mean staleness is below SWEEP's at every n"
          (fun rows ->
            List.for_all
              (fun ((s : P.ablation), (p : P.ablation)) ->
                p.staleness_mean < s.staleness_mean)
              (pairs rows));
        claim "A1.complete" "§5.3" "every row is complete"
          (List.for_all (fun (r : P.A1.row) ->
               r.run.completed && r.run.verdict = Checker.Complete)) ] )

let a2 =
  let open P in
  let widths rows = List.filter (fun r -> r.algorithm <> "nested-sweep") rows in
  Group
    ( A2.experiment,
      [ claim "A2.messages" "§5.3"
          "every pipeline width sends exactly SWEEP's messages"
          (fun rows ->
            List.for_all
              (fun r -> r.msgs_per_update = (List.hd rows).msgs_per_update)
              (widths rows));
        claim "A2.staleness" "§5.3"
          "mean staleness strictly falls as W grows 1 → 2 → 4 → 8 → 16"
          (fun rows ->
            List.length (widths rows) = 5
            && pairwise ( > )
                 (List.map (fun r -> r.staleness_mean) (widths rows)));
        claim "A2.complete" "§5.3" "every row is complete"
          (List.for_all (fun r -> r.completed && r.verdict = Checker.Complete))
      ] )

let a3 =
  let open P.A3 in
  Group
    ( experiment,
      [ claim "A3.verdicts" "§2" "SWEEP and Global SWEEP are at least strong"
          (List.for_all (fun r -> r.completed && at_least_strong r.verdict));
        claim "A3.installs" "§2"
          "Global SWEEP makes fewer installs than SWEEP"
          (function
            | [ sweep; global ] -> global.installs < sweep.installs
            | _ -> false) ] )

(* P1 is a regression page: its golden file pins every counter, and
   these rows say which of them matter and why. *)
let p1 =
  let open P.P1 in
  let module M = Repro_warehouse.Metrics in
  let on preset rows = List.filter (fun r -> r.scenario = preset) rows in
  let run preset alg rows =
    List.find_opt (fun r -> r.algorithm = alg) (on preset rows)
  in
  let every preset ok rows =
    on preset rows <> [] && List.for_all ok (on preset rows)
  in
  Group
    ( experiment,
      [ claim "P1.self-maint" "DESIGN.md §14"
          "on self-maint, sweep, sweep-batched, nested-sweep and strobe \
           answer legs locally at < 1 msg/upd"
          (fun rows ->
            List.for_all
              (fun alg ->
                match run "self-maint" alg rows with
                | Some r ->
                    r.metrics.M.local_answers > 0
                    && M.messages_per_update r.metrics < 1.
                | None -> false)
              [ "sweep"; "sweep-batched"; "nested-sweep"; "strobe" ]);
        claim "P1.chaos-live" "DESIGN.md §12"
          "every chaos run has one warehouse crash, query timeouts and \
           breaker trips"
          (every "chaos" (fun r ->
               r.metrics.M.wh_crashes = 1
               && r.metrics.M.query_timeouts > 0
               && r.metrics.M.breaker_trips > 0));
        claim "P1.serving-live" "DESIGN.md §13"
          "reads are served on read-heavy and flash-crowd, and shed on \
           flash-crowd"
          (fun rows ->
            every "read-heavy" (fun r -> r.metrics.M.reads_served > 0) rows
            && every "flash-crowd"
                 (fun r ->
                   r.metrics.M.reads_served > 0 && r.metrics.M.reads_shed > 0)
                 rows);
        claim "P1.floors" "Table 1, §4"
          "naive is INCONSISTENT on all 6 presets; every other run but \
           recompute and eca is at least strong"
          (fun rows ->
            List.length (List.filter (fun r -> r.algorithm = "naive") rows) = 6
            && List.for_all
                 (fun r ->
                   match r.algorithm with
                   | "naive" -> r.completed && r.verdict = Checker.Inconsistent
                   | "recompute" | "eca" -> true
                   | _ -> r.completed && at_least_strong r.verdict)
                 rows) ] )

let groups =
  [ t1; f5; f2; e1; e2; e3; e4; e5; e6; e7; e8; e9; a1; a2; a3; p1 ]

(* ------------------------------------------------------------------ *)
(* Cases                                                                *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The first line where [rendered] departs from the golden file. *)
let first_difference ~golden ~rendered =
  let rec go i = function
    | g :: gs, r :: rs -> if g = r then go (i + 1) (gs, rs) else Some (i, g, r)
    | [], [] -> None
    | g :: _, [] -> Some (i, g, "<end of page>")
    | [], r :: _ -> Some (i, "<end of file>", r)
  in
  go 1 (String.split_on_char '\n' golden, String.split_on_char '\n' rendered)

let golden_case id rendered =
  let path = Filename.concat "experiments" (id ^ ".txt") in
  if not (Sys.file_exists path) then
    Alcotest.failf
      "%s: no golden page %s (create it empty, then make experiments-golden)"
      id path;
  match first_difference ~golden:(read_file path) ~rendered with
  | None -> ()
  | Some (line, want, got) ->
      Alcotest.failf
        "%s: page differs from %s at line %d\n  golden:   %s\n  rendered: %s"
        id path line want got

(* Every case of one group, keyed by experiment id (the golden page) or
   claim id; all of them share one run of the experiment. *)
let group_cases (Group (e, claims)) =
  let rows = lazy (e.P.rows ()) in
  ( e.P.id,
    ( e.P.id ^ " page matches its golden file",
      fun () -> golden_case e.P.id (Report.render (e.P.page (Lazy.force rows)))
    ) )
  :: List.map
       (fun c ->
         let name =
           Printf.sprintf "%s %s%s" c.id c.says
             (if c.broken = None then "" else " (broken)")
         in
         ( c.id,
           ( name,
             fun () ->
               (match c.broken with
               | Some why -> Printf.printf "expected to fail: %s\n" why
               | None -> ());
               match check c (Lazy.force rows) with
               | Ok () -> ()
               | Error msg -> Alcotest.fail msg ) ))
       claims

let all_cases = List.concat_map group_cases groups

let test_ids () =
  let ids = List.map (fun (P.Any e) -> e.P.id) P.registry in
  Alcotest.(check (list string)) "one claim group per experiment" ids
    (List.map (fun (Group (e, _)) -> e.P.id) groups);
  Alcotest.(check (list string)) "one golden page per experiment"
    (List.sort compare (List.map (fun id -> id ^ ".txt") ids))
    (List.sort compare (Array.to_list (Sys.readdir "experiments")))

let test_broken_rows () =
  let synthetic ?broken holds =
    claim ?broken "X" "-" "synthetic" (Fun.const holds)
  in
  let fails c = Result.is_error (check c ()) in
  Alcotest.(check bool) "a broken claim that holds fails" true
    (fails (synthetic ~broken:"reason" true));
  Alcotest.(check bool) "an unmarked claim that fails fails" true
    (fails (synthetic false));
  Alcotest.(check bool) "a broken claim that fails passes" false
    (fails (synthetic ~broken:"reason" false));
  Alcotest.(check bool) "an unmarked claim that holds passes" false
    (fails (synthetic true))

let suite =
  Alcotest.test_case "broken rows must fail" `Quick test_broken_rows
  :: List.map
       (fun (_, (name, run)) -> Alcotest.test_case name `Slow run)
       all_cases

(* The smoke cases that predate the claim rows, kept under their names:
   each runs the listed cases of [all_cases] (the rows are shared, so no
   experiment runs twice). *)
let smoke =
  let roll_up name keys =
    Alcotest.test_case name `Slow (fun () ->
        List.iter (fun k -> snd (List.assoc k all_cases) ()) keys)
  in
  [ roll_up "F5 reproduces Figure 5 exactly" [ "f5"; "F5.states" ];
    roll_up "F2 one round trip per source" [ "F2.round-trips" ];
    roll_up "E6 control and corruption rows" [ "E6.control"; "E6.naive" ];
    roll_up "A1 stays complete" [ "A1.complete" ];
    Alcotest.test_case "experiment ids resolve" `Quick test_ids ]
