(* Join-strategy suite (DESIGN.md §15, §18).

   A delta join leg runs one way: [Base_table.extend] probes the
   source's index of the junction it meets, a cross product included. The suite proves the leg
   bag-identical to the nested-loop reference ([Nested_loop]) over the
   edge cases (empty deltas, Null join columns, self-join-shaped specs,
   residuals) and randomized frontiers, then runs seeded storms over the
   sweep-family algorithms, including crash and outage schedules: each
   run must drain and meet its algorithm's Table 1 floor, which the
   checker decides by replaying every install against [Algebra].

   The kernel itself ([Algebra.join], from either side of a source's
   relation, [merge_overlap], [eval] and [compensate], whose hash-join terms stream through the join's
   [join_with]) is checked against the same reference on random chains: multi-equality, residual and
   cross-product junctions, signed counts, empty operands, and Str,
   Null, ±0.0 and NaN values.

   Seed count comes from JOIN_SEEDS (default 5 so `dune runtest` stays
   fast; `make joins` raises it to 100); each kernel property runs 20
   cases per seed. *)

open Repro_relational
open Repro_sim
open Repro_warehouse
open Repro_consistency
open Repro_harness
open Repro_workload
module Base_table = Repro_source.Base_table

let join_seeds = Rig.seeds_env ~var:"JOIN_SEEDS" ~default:5

(* ————— leg equivalence: Base_table.extend ≡ the nested-loop join ————— *)

let view3 = Chain.view ~n:3 ()

(* Execute one leg through the base table and demand the reference
   partial. *)
let check_leg_equivalence ~ctx view partial ~source r_src =
  let tbl = Base_table.create ~source ~view r_src in
  Alcotest.(check bool) (ctx ^ ": probe ≡ reference") true
    (Partial.equal
       (Base_table.extend tbl partial)
       (Nested_loop.extend view partial ~with_relation:(source, r_src)))

let test_leg_edge_cases () =
  let r_src =
    Relation.of_list
      [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1); (Chain.tuple ~key:1 ~a:2 ~b:2, 2);
        (Chain.tuple ~key:2 ~a:3 ~b:1, 1) ]
  in
  (* empty delta frontier *)
  let empty = { Partial.lo = 1; hi = 1; data = Delta.empty () } in
  check_leg_equivalence ~ctx:"empty delta" view3 empty ~source:0 r_src;
  check_leg_equivalence ~ctx:"empty delta right" view3 empty ~source:2 r_src;
  (* Null join columns on both sides: Null keys group and match like any
     other value, in the index as in the reference *)
  let null_tuple k = [| Value.int k; Value.Null; Value.Null |] in
  let r_null =
    Relation.of_list [ (null_tuple 0, 1); (Chain.tuple ~key:1 ~a:1 ~b:1, 1) ]
  in
  let p_null =
    { Partial.lo = 1; hi = 1;
      data = Delta.of_list [ (null_tuple 7, 1); (Chain.tuple ~key:8 ~a:1 ~b:1, 2) ] }
  in
  check_leg_equivalence ~ctx:"Null join columns" view3 p_null ~source:0 r_null;
  check_leg_equivalence ~ctx:"Null join columns right" view3 p_null ~source:2
    r_null;
  (* self-join-shaped spec: identical schemas joined on the same local
     column, plus a second equality and a residual on the junction *)
  let self =
    View_def.make ~name:"self" ~schemas:(Chain.schemas ~n:2)
      ~joins:
        [| Join_spec.make
             ~residual:(Predicate.cmp_const Predicate.Ge 0 (Value.int 0))
             [ (1, 4); (2, 5) ] |]
      ~projection:[| 0; 3 |] ()
  in
  let p_self =
    { Partial.lo = 1; hi = 1;
      data =
        Delta.of_list
          [ (Chain.tuple ~key:0 ~a:1 ~b:2, 1);
            (Chain.tuple ~key:1 ~a:2 ~b:2, 1) ] }
  in
  let r_self =
    Relation.of_list
      [ (Chain.tuple ~key:5 ~a:1 ~b:2, 1); (Chain.tuple ~key:6 ~a:1 ~b:3, 1);
        (Chain.tuple ~key:7 ~a:2 ~b:2, 2) ]
  in
  check_leg_equivalence ~ctx:"self-join shape" self p_self ~source:0 r_self

(* Randomized leg equivalence: dense and sparse key overlap, deletions
   in the frontier (negative counts), multiplicities. *)
let check_leg_random seed =
  let rng = Repro_sim.Rng.create (Int64.of_int (7000 + seed)) in
  let rand_rel n domain =
    Relation.of_list
      (List.init n (fun k ->
           ( Chain.tuple ~key:k
               ~a:(Repro_sim.Rng.int rng domain)
               ~b:(Repro_sim.Rng.int rng domain),
             1 + Repro_sim.Rng.int rng 2 )))
  in
  let r_src = rand_rel (8 + Repro_sim.Rng.int rng 20) 5 in
  let frontier =
    Delta.of_list
      (List.init
         (1 + Repro_sim.Rng.int rng 4)
         (fun k ->
           ( Chain.tuple ~key:(100 + k)
               ~a:(Repro_sim.Rng.int rng 5)
               ~b:(Repro_sim.Rng.int rng 5),
             if Repro_sim.Rng.bool rng 0.3 then -1 else 1 )))
  in
  let partial = { Partial.lo = 1; hi = 1; data = frontier } in
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d left leg" seed)
    view3 partial ~source:0 r_src;
  check_leg_equivalence
    ~ctx:(Printf.sprintf "seed %d right leg" seed)
    view3 partial ~source:2 r_src

let leg_random_case () = Rig.for_seeds join_seeds check_leg_random

(* ————— end-to-end: seeded storms over the indexed legs ————— *)

let base_scenario seed =
  { Scenario.default with
    Scenario.name = "join-diff";
    n_sources = 4;
    init_size = 12;
    domain = 6;
    stream =
      { Update_gen.default with Update_gen.n_updates = 40; mean_gap = 0.7 };
    seed = Int64.of_int seed }

let crashy sc =
  { sc with
    Scenario.name = "join-crash";
    faults =
      { Fault.link = Fault.lossy ~drop:0.05 ~duplicate:0.05 ();
        crashes = [];
        wh_crashes =
          [ { Fault.wh_down_at = 6.; wh_up_at = 14. };
            { Fault.wh_down_at = 22.; wh_up_at = 30. } ] } }

let outage sc =
  { sc with
    Scenario.name = "join-outage";
    deadline = Some 8.;
    breaker_k = 3;
    probe_limit = 0;
    stall_cap = 64;
    faults =
      { Fault.link = Fault.lossy ~drop:0.1 ~duplicate:0.05 ();
        crashes = [ { Fault.source = 1; down_at = 8.; up_at = 20. } ];
        wh_crashes = [] } }

(* Run [sc] once: it must drain and meet [floor] (the algorithm's
   Table 1 level). *)
let check_storm ~tag ~floor algo sc =
  let r = Experiment.run sc algo in
  Alcotest.(check bool) (tag ^ ": drains") true r.Experiment.completed;
  let v = r.Experiment.verdict in
  if Checker.compare_verdict v.Checker.verdict floor > 0 then
    Alcotest.failf "%s: wanted ≥%s, got %s (%s)" tag
      (Checker.verdict_to_string floor)
      (Checker.verdict_to_string v.Checker.verdict)
      v.Checker.detail

let check_storms ~tag ~floor algo seed =
  let sc = base_scenario seed in
  let storm sub ~floor sc =
    check_storm ~tag:(Printf.sprintf "%s seed %d%s" tag seed sub) ~floor algo
      sc
  in
  storm "" ~floor sc;
  storm " crash" ~floor (crashy sc);
  (* §12 degraded mode replays parked updates out of delivery order, so
     under a source outage the SWEEP family's floor is Strong *)
  storm " outage"
    ~floor:(if floor = Checker.Complete then Checker.Strong else floor)
    (outage sc)

let storm_case ~tag ~floor algo () =
  Rig.for_seeds join_seeds (check_storms ~tag ~floor algo)

(* ————— the kernel against the nested-loop reference ————— *)

(* Small ints so that keys meet, and the values whose equality is not
   their bits: 0.0 = -0.0, and NaN equals NaN under [Value.compare]. *)
let gen_value =
  QCheck.Gen.(
    frequency
      [ (6, map Value.int (int_range 0 2));
        (1, return Value.Null);
        (1, oneofl [ Value.Str "a"; Value.Str "b" ]);
        ( 2,
          oneofl
            [ Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan ] )
      ])

let gen_tuple width =
  QCheck.Gen.(map Array.of_list (list_repeat width gen_value))

(* Up to 5 entries with signed counts, or with counts 1..2 when
   [positive]; about one operand in six is empty. *)
let gen_bag ?(positive = false) width =
  let open QCheck.Gen in
  let count = if positive then int_range 1 2 else oneofl [ -2; -1; 1; 2 ] in
  map Bag.of_list (list_size (int_range 0 5) (pair (gen_tuple width) count))

let gen_cmp = QCheck.Gen.oneofl Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* A chain of [n] sources of width 1..3. Each junction has zero (a
   cross product), one or two equalities, repeats allowed, and maybe a
   residual over its two sources; the selection compares one attribute
   with a constant, and the projection keeps one to four attributes. *)
let gen_view n =
  let open QCheck.Gen in
  array_repeat n (int_range 1 3) >>= fun widths ->
  let offsets = Array.make n 0 in
  for j = 1 to n - 1 do
    offsets.(j) <- offsets.(j - 1) + widths.(j - 1)
  done;
  let total = offsets.(n - 1) + widths.(n - 1) in
  let attr j = map (fun a -> offsets.(j) + a) (int_range 0 (widths.(j) - 1)) in
  let junction k =
    let eq = pair (attr k) (attr (k + 1)) in
    let residual =
      map3
        (fun op l r -> Some (Predicate.Cmp (op, Predicate.Attr l, r)))
        gen_cmp (attr k)
        (oneof
           [ map (fun g -> Predicate.Attr g) (attr (k + 1));
             map (fun v -> Predicate.Const v) gen_value ])
    in
    map2
      (fun eqs residual -> Join_spec.make ?residual eqs)
      (list_size (frequency [ (1, return 0); (3, return 1); (2, return 2) ]) eq)
      (frequency [ (2, return None); (1, residual) ])
  in
  map3
    (fun joins selection projection ->
      View_def.make ~name:"random"
        ~schemas:
          (Array.mapi
             (fun j w ->
               Schema.make (Printf.sprintf "R%d" j)
                 (List.init w (fun a ->
                      Schema.attr (Printf.sprintf "c%d" a) Value.T_int)))
             widths)
        ~joins:(Array.of_list joins) ~selection
        ~projection:(Array.of_list projection) ())
    (flatten_l (List.init (n - 1) junction))
    (frequency
       [ (2, return Predicate.True);
         ( 1,
           map3
             (fun op g v -> Predicate.cmp_const op g v)
             gen_cmp (int_range 0 (total - 1)) gen_value ) ])
    (list_size (int_range 1 4) (int_range 0 (total - 1)))

let gen_partial ?positive view lo hi =
  QCheck.Gen.map
    (fun data -> { Partial.lo; hi; data })
    (gen_bag ?positive (Partial.arity view ~lo ~hi))

(* The sources next to [lo..hi] in a chain of [n]. *)
let neighbours n (lo, hi) =
  (if lo > 0 then [ lo - 1 ] else []) @ if hi < n - 1 then [ hi + 1 ] else []

(* [lo..hi] inside [0, n) that leaves a source out, so that it has a
   neighbour; n >= 2. *)
let gen_short_range n =
  QCheck.Gen.(
    int_range 0 (n - 1) >>= fun lo ->
    map
      (fun hi -> if lo = 0 && hi = n - 1 then (1, hi) else (lo, hi))
      (int_range lo (n - 1)))

let kernel_property name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(20 * join_seeds) (QCheck.make ~print gen)
       prop)

let show pp x = Format.asprintf "%a" pp x
let show_case view parts =
  String.concat "\n" (show View_def.pp view :: List.map (show Partial.pp) parts)

let kernel_join =
  let gen =
    let open QCheck.Gen in
    int_range 2 4 >>= fun n ->
    gen_view n >>= fun view ->
    int_range 0 (n - 2) >>= fun k ->
    pair (int_range 0 k) (int_range (k + 1) (n - 1)) >>= fun (lo, hi) ->
    map2 (fun l r -> (view, l, r)) (gen_partial view lo k)
      (gen_partial view (k + 1) hi)
  in
  kernel_property "nested-loop oracle: join" gen
    (fun (v, l, r) -> show_case v [ l; r ])
    (fun (view, left, right) ->
      Partial.equal
        (Algebra.join view left right)
        (Nested_loop.join view left right))

let kernel_extend =
  let gen =
    let open QCheck.Gen in
    int_range 2 4 >>= fun n ->
    gen_view n >>= fun view ->
    gen_short_range n >>= fun (lo, hi) ->
    oneofl (neighbours n (lo, hi)) >>= fun j ->
    map2
      (fun p r -> (view, p, j, r))
      (gen_partial view lo hi)
      (gen_partial ~positive:true view j j)
  in
  kernel_property "nested-loop oracle: extend" gen
    (fun (v, p, _, r) -> show_case v [ p; r ])
    (fun (view, p, j, r) ->
      Partial.equal
        (if j < p.Partial.lo then Algebra.join view r p
         else Algebra.join view p r)
        (Nested_loop.extend view p
           ~with_relation:(j, Relation.adopt r.Partial.data)))

(* Right tuples whose leading [at]-columns are often a left tuple's
   trailing ones, so that the overlap joins. *)
let kernel_merge_overlap =
  let gen =
    let open QCheck.Gen in
    int_range 1 4 >>= fun n ->
    gen_view n >>= fun view ->
    int_range 0 (n - 1) >>= fun at ->
    pair (int_range 0 at) (int_range at (n - 1)) >>= fun (lo, hi) ->
    gen_partial view lo at >>= fun left ->
    gen_partial view at hi >>= fun right ->
    let w = View_def.width view at in
    let lw = Partial.arity view ~lo ~hi:at in
    let lefts = List.map fst (Bag.to_sorted_list left.Partial.data) in
    let graft (rtup, c) =
      if lefts = [] then return (rtup, c)
      else
        map2
          (fun ltup keep ->
            if keep then (rtup, c)
            else
              let t = Array.copy rtup in
              Array.blit ltup (lw - w) t 0 w;
              (t, c))
          (oneofl lefts) bool
    in
    map
      (fun entries ->
        (view, at, left, { right with Partial.data = Bag.of_list entries }))
      (flatten_l (List.map graft (Bag.to_sorted_list right.Partial.data)))
  in
  kernel_property "nested-loop oracle: merge_overlap" gen
    (fun (v, _, l, r) -> show_case v [ l; r ])
    (fun (view, at, left, right) ->
      Partial.equal
        (Algebra.merge_overlap view ~at ~left ~right)
        (Nested_loop.merge_overlap view ~at ~left ~right))

let kernel_eval =
  let gen =
    let open QCheck.Gen in
    int_range 1 4 >>= fun n ->
    gen_view n >>= fun view ->
    map
      (fun rels -> (view, Array.of_list rels))
      (flatten_l
         (List.init n (fun j ->
              map
                (fun b -> Relation.adopt b)
                (gen_bag ~positive:true (View_def.width view j)))))
  in
  kernel_property "nested-loop oracle: eval" gen
    (fun (v, rels) ->
      String.concat "\n"
        (show View_def.pp v
        :: Array.to_list (Array.map (show Relation.pp) rels)))
    (fun (view, rels) ->
      Bag.equal
        (Relation.as_bag (Algebra.eval view (Array.get rels)))
        (Nested_loop.eval view rels))

(* One evaluator fed successive states of the sources, as the
   recompute baseline feeds it one snapshot per source per update. A
   source is kept, replaced by a [Relation.copy] that is then edited (a
   copy left unedited is what a source answers a fetch with, so its
   index is reused), edited in place, the very relation the evaluator
   saw last, or emptied. An edit inserts, deletes one copy of the
   [i]th entry in sorted order, or, as [Grow], inserts 8 fresh tuples,
   past the next growth of a table that held at most 5. *)
type edit = Insert of Tuple.t * int | Delete of int | Grow
type change = Keep | Copied of edit list | In_place of edit list | Emptied

let gen_edit width =
  QCheck.Gen.(
    frequency
      [ (3, map2 (fun t n -> Insert (t, n)) (gen_tuple width) (int_range 1 2));
        (2, map (fun i -> Delete i) (int_range 0 4));
        (1, return Grow) ])

let gen_change width =
  let edits = QCheck.Gen.list_size (QCheck.Gen.int_range 0 3) (gen_edit width) in
  QCheck.Gen.(
    frequency
      [ (3, return Keep);
        (3, map (fun e -> Copied e) edits);
        (3, map (fun e -> In_place e) edits);
        (1, return Emptied) ])

let apply_edit width r = function
  | Insert (t, n) -> Relation.insert r t n
  | Delete i -> (
      match List.nth_opt (Relation.to_sorted_list r) i with
      | Some (t, _) -> Relation.delete r t 1
      | None -> ())
  | Grow ->
      for i = 0 to 7 do
        Relation.insert r
          (Array.init width (fun a ->
               Value.int (if a = 0 then 100 + i else i mod 3)))
          1
      done

let apply_change width r = function
  | Keep -> r
  | Copied edits ->
      let r = Relation.copy r in
      List.iter (apply_edit width r) edits;
      r
  | In_place edits ->
      List.iter (apply_edit width r) edits;
      r
  | Emptied -> Relation.create ()

let pp_edit = function
  | Insert (t, n) -> Printf.sprintf "+%s[%d]" (Tuple.to_string t) n
  | Delete i -> Printf.sprintf "-#%d" i
  | Grow -> "grow"

let pp_change = function
  | Keep -> "keep"
  | Copied e -> "copy " ^ String.concat " " (List.map pp_edit e)
  | In_place e -> "in place " ^ String.concat " " (List.map pp_edit e)
  | Emptied -> "empty"

(* A chain, its sources, and 6-10 steps of source changes, each with
   an [extra] drawn by [gen_extra view]. *)
let gen_evaluator_case gen_extra =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  gen_view n >>= fun view ->
  let width = View_def.width view in
  flatten_l
    (List.init n (fun j ->
         map Relation.adopt (gen_bag ~positive:true (width j))))
  >>= fun rels ->
  list_size (int_range 6 10)
    (pair (flatten_l (List.init n (fun j -> gen_change (width j))))
       (gen_extra view))
  >|= fun steps -> (view, Array.of_list rels, steps)

let show_evaluator_case pp_extra (v, rels, steps) =
  String.concat "\n"
    ((show View_def.pp v :: Array.to_list (Array.map (show Relation.pp) rels))
    @ List.mapi
        (fun s (changes, extra) ->
          Printf.sprintf "step %d: %s%s" s
            (String.concat " | " (List.map pp_change changes))
            (pp_extra extra))
        steps)

(* [evaluator_steps view initial steps step] feeds one evaluator the
   initial sources, then each step's changes, calling
   [step eval rels extra] after each (with no extra at the start). The
   generated relations stay as printed: every step works on copies of
   them. *)
let evaluator_steps view initial steps step =
  let rels = Array.map Relation.copy initial in
  let eval = Algebra.evaluator view in
  step eval rels None
  && List.for_all
       (fun (changes, extra) ->
         List.iteri
           (fun j c ->
             rels.(j) <- apply_change (View_def.width view j) rels.(j) c)
           changes;
         step eval rels (Some extra))
       steps

(* The recompute baseline's use: the view advances by each returned
   change, and must equal the reference after every step. *)
let kernel_evaluator =
  kernel_property "nested-loop oracle: evaluator over changing sources"
    (gen_evaluator_case (fun _ -> QCheck.Gen.unit))
    (show_evaluator_case (fun () -> ""))
    (fun (view, initial, steps) ->
      let current = Bag.create () in
      evaluator_steps view initial steps (fun eval rels _ ->
          Bag.merge_into ~into:current (eval (Array.get rels) ~old:current);
          Bag.equal current (Nested_loop.eval view rels)))

(* The old view an evaluator diffs against, whatever it holds: the
   current view, nothing, the view [k + 1] steps back (or the earliest
   there is), or an unrelated bag of view tuples with signed counts. *)
type old = Current | Empty | Stale of int | Unrelated of Bag.t

let gen_old view =
  QCheck.Gen.(
    frequency
      [ (2, return Current); (1, return Empty);
        (2, map (fun k -> Stale k) (int_range 0 9));
        ( 2,
          map
            (fun b -> Unrelated b)
            (gen_bag (Array.length (View_def.projection view)))
        ) ])

let pp_old = function
  | Current -> ", against the current view"
  | Empty -> ", against nothing"
  | Stale k -> Printf.sprintf ", against the view %d steps back" (k + 1)
  | Unrelated b -> ", against " ^ show Bag.pp b

(* Whatever [old] is, the change takes it to the reference, and [old]
   is never written: a copy taken before still shares it. *)
let kernel_evaluator_old =
  kernel_property "nested-loop oracle: evaluator against any old view"
    (gen_evaluator_case gen_old)
    (show_evaluator_case pp_old)
    (fun (view, initial, steps) ->
      let history = ref [] in
      evaluator_steps view initial steps (fun eval rels extra ->
          let old =
            match (extra, !history) with
            | Some (Unrelated b), _ -> b
            | Some (Stale k), (_ :: _ as h) ->
                List.nth h (min (List.length h - 1) (k + 1))
            | (None | Some Current), h :: _ -> h
            | _ -> Bag.create ()
          in
          let before = Bag.copy old in
          let change = eval (Array.get rels) ~old in
          let untouched = Bag.shares before old in
          let expected = Nested_loop.eval view rels in
          Bag.merge_into ~into:before change;
          history := expected :: !history;
          untouched && Bag.equal before expected))

(* TempView over [lo..hi], the answer over it and source [j], and L_j
   with or without its junction indexes, so that both the probe and the
   hash join serve the error term. *)
let kernel_compensate =
  let gen =
    let open QCheck.Gen in
    int_range 2 4 >>= fun n ->
    gen_view n >>= fun view ->
    gen_short_range n >>= fun (lo, hi) ->
    oneofl (neighbours n (lo, hi)) >>= fun j ->
    let w = View_def.width view j in
    gen_partial view lo hi >>= fun temp ->
    gen_partial view (min j lo) (max j hi) >>= fun answer ->
    gen_bag w >>= fun interfering ->
    list_size (int_range 0 2) (gen_bag w) >>= fun extras ->
    map
      (fun indexed -> (view, temp, answer, interfering, extras, indexed))
      bool
  in
  kernel_property "nested-loop oracle: compensate" gen
    (fun (v, t, a, i, e, _) ->
      show_case v
        (t :: a
        :: List.map (fun d -> { a with Partial.data = d }) (i :: e)))
    (fun (view, temp, answer, interfering, extras, indexed) ->
      let j =
        if answer.Partial.lo < temp.Partial.lo then answer.Partial.lo
        else answer.Partial.hi
      in
      let index =
        if indexed then Some (Algebra.indexes view j interfering) else None
      in
      Partial.equal
        (Algebra.compensate ?index ~extras view ~answer ~interfering ~temp)
        (Nested_loop.compensate ~extras view ~answer ~interfering ~temp))

let suite =
  [ Alcotest.test_case "leg equivalence: edge cases" `Quick
      test_leg_edge_cases;
    Alcotest.test_case "leg equivalence: randomized" `Slow leg_random_case;
    kernel_join;
    kernel_extend;
    kernel_merge_overlap;
    kernel_eval;
    kernel_evaluator;
    kernel_evaluator_old;
    kernel_compensate;
    (* "differential": the checker replays every install of a storm
       against the Algebra reference *)
    Alcotest.test_case "differential: sweep" `Slow
      (storm_case ~tag:"sweep" ~floor:Checker.Complete
         (module Sweep : Algorithm.S));
    Alcotest.test_case "differential: sweep-batched" `Slow
      (storm_case ~tag:"sweep-batched" ~floor:Checker.Complete
         (module Sweep_batched : Algorithm.S));
    Alcotest.test_case "differential: nested-sweep" `Slow
      (storm_case ~tag:"nested-sweep" ~floor:Checker.Strong
         (module Nested_sweep : Algorithm.S));
    Alcotest.test_case "differential: strobe" `Slow
      (storm_case ~tag:"strobe" ~floor:Checker.Strong
         (module Strobe : Algorithm.S)) ]
