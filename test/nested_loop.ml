(* A nested-loop reference for the relational kernel that shares none of
   its join code. Every pair of operand tuples is concatenated, and the
   join condition, written as one predicate over the concatenation,
   decides whether the pair joins. It is quadratic by design, so the
   operands it is given stay small. *)

open Repro_relational

(* Junction [k]'s condition in global attributes: its equalities and its
   residual, as one conjunction. *)
let condition view k =
  let spec = View_def.join_between view k in
  Predicate.conj
    (List.map (fun (l, r) -> Predicate.eq_attr l r) spec.Join_spec.equalities
    @ Option.to_list spec.Join_spec.residual)

(* Every pair of a [left] and a [right] entry whose concatenation [t]
   passes [keep t], added to a fresh bag as [glue l r t] with the
   product of their counts. *)
let pairs left right ~keep ~glue =
  let out = Bag.create () in
  Bag.iter
    (fun l lc ->
      Bag.iter
        (fun r rc ->
          let t = Array.append l r in
          if keep t then Bag.add out (glue l r t) (lc * rc))
        right)
    left;
  out

let join view (left : Partial.t) (right : Partial.t) =
  let base = View_def.offset view left.lo in
  let cond = condition view left.hi in
  let keep t = Predicate.eval ~lookup:(fun g -> t.(g - base)) cond in
  { Partial.lo = left.lo; hi = right.hi;
    data = pairs left.data right.data ~keep ~glue:(fun _ _ t -> t) }

let extend view (p : Partial.t) ~with_relation:(j, r) =
  let leaf = { Partial.lo = j; hi = j; data = Relation.as_bag r } in
  if j < p.lo then join view leaf p else join view p leaf

(* The [at]-columns that end a left tuple equal those that start a right
   one; the joined tuple keeps them once. *)
let merge_overlap view ~at ~(left : Partial.t) ~(right : Partial.t) =
  let w = View_def.width view at in
  let lw = Partial.arity view ~lo:left.lo ~hi:left.hi in
  let same =
    Predicate.conj
      (List.init w (fun i -> Predicate.eq_attr (lw - w + i) (lw + i)))
  in
  let keep t = Predicate.eval ~lookup:(Array.get t) same in
  let glue l r _ = Array.append l (Array.sub r w (Array.length r - w)) in
  { Partial.lo = left.lo; hi = right.hi;
    data = pairs left.data right.data ~keep ~glue }

(* Every combination of one tuple per source, kept when it passes every
   junction and the selection, then projected. *)
let eval view (rels : Relation.t array) =
  let n = View_def.n_sources view in
  let all = ref (Bag.of_list [ ([||], 1) ]) in
  Array.iter
    (fun r ->
      all :=
        pairs !all (Relation.as_bag r)
          ~keep:(fun _ -> true)
          ~glue:(fun _ _ t -> t))
    rels;
  let cond =
    Predicate.conj
      (List.init (n - 1) (condition view) @ [ View_def.selection view ])
  in
  let out = Bag.create () in
  Bag.iter
    (fun t c ->
      if Predicate.eval ~lookup:(Array.get t) cond then
        Bag.add out (Array.map (Array.get t) (View_def.projection view)) c)
    !all;
  out

(* answer − (interfering + Σ extras) ⋈ temp, source [j] being the one
   [answer] adds to [temp]. *)
let compensate ?(extras = []) view ~(answer : Partial.t) ~interfering
    ~(temp : Partial.t) =
  let j = if answer.lo < temp.lo then answer.lo else answer.hi in
  let d = Bag.create () in
  List.iter (Bag.iter (Bag.add d)) (interfering :: extras);
  let dp = { Partial.lo = j; hi = j; data = d } in
  let error = if j < temp.lo then join view dp temp else join view temp dp in
  let data = Bag.copy answer.data in
  Bag.diff_into ~into:data error.data;
  { answer with data }
