(* The hash join indexes the smaller operand on its join columns and
   probes it with the larger one's. An empty equality list degenerates to
   a cross product (one shared empty key). Operands are read in place and
   never mutated. The index grows from the default size: [Index.create n]
   makes n buckets where growth stops at n/2, so presizing it to an
   operand's cardinality would double the heap a large join holds. A
   result [Bag] is sized for the smaller operand's cardinality instead:
   a bag sized for n tuples has the slots that growth would reach at n,
   and at fan-out 1 a join has about that many tuples. *)
module Index = Hashtbl.Make (Tuple)

(* [data]'s entries grouped by [key tup]. *)
let index data key =
  let idx = Index.create 16 in
  Delta.iter
    (fun tup c ->
      let k = key tup in
      match Index.find idx k with
      | matches -> Index.replace idx k ((tup, c) :: matches)
      | exception Not_found -> Index.add idx k [ (tup, c) ])
    data;
  idx

let rec emit_matches emit build_left ptup pc = function
  | [] -> ()
  | (btup, bc) :: rest ->
      if build_left then emit btup bc ptup pc else emit ptup pc btup bc;
      emit_matches emit build_left ptup pc rest

(* [join_with view left right f] calls [f] on every joined tuple with
   its count. Each is the concatenation of a distinct pair of operand
   tuples, so [f] never sees a tuple twice. *)
let join_with view (left : Partial.t) (right : Partial.t) f =
  if left.hi + 1 <> right.lo then
    invalid_arg
      (Printf.sprintf "Algebra.join: partials [%d..%d] and [%d..%d] not adjacent"
         left.lo left.hi right.lo right.hi);
  let spec = View_def.join_between view left.hi in
  let eqs = spec.Join_spec.equalities in
  let lofs = View_def.offset view left.lo in
  let rofs = View_def.offset view right.lo in
  let lcols = Array.of_list (List.map (fun (l, _) -> l - lofs) eqs) in
  let rcols = Array.of_list (List.map (fun (_, r) -> r - rofs) eqs) in
  let emit =
    match spec.Join_spec.residual with
    | None -> fun ltup lc rtup rc -> f (Tuple.concat ltup rtup) (lc * rc)
    | Some p ->
        fun ltup lc rtup rc ->
          let lookup g =
            if g < rofs then ltup.(g - lofs) else rtup.(g - rofs)
          in
          if Predicate.eval ~lookup p then f (Tuple.concat ltup rtup) (lc * rc)
  in
  let build_left = Delta.cardinal left.data <= Delta.cardinal right.data in
  let build, bcols, probe, pcols =
    if build_left then (left.data, lcols, right.data, rcols)
    else (right.data, rcols, left.data, lcols)
  in
  let idx = index build (fun tup -> Tuple.project tup bcols) in
  Delta.iter
    (fun ptup pc ->
      match Index.find idx (Tuple.project ptup pcols) with
      | matches -> emit_matches emit build_left ptup pc matches
      | exception Not_found -> ())
    probe

let join view (left : Partial.t) (right : Partial.t) : Partial.t =
  let result =
    Bag.create
      ~initial_size:(min (Delta.cardinal left.data) (Delta.cardinal right.data))
      ()
  in
  join_with view left right (Delta.add result);
  { Partial.lo = left.lo; hi = right.hi; data = result }

(* Source [j]'s relation as a partial, sharing its bag: joins only read
   it. *)
let leaf j r = { Partial.lo = j; hi = j; data = Relation.as_bag r }

let extend view (p : Partial.t) ~with_relation:(j, r) =
  if j = p.lo - 1 then join view (leaf j r) p
  else if j = p.hi + 1 then join view p (leaf j r)
  else
    invalid_arg
      (Printf.sprintf "Algebra.extend: source %d not adjacent to [%d..%d]" j
         p.lo p.hi)

(* [agree stup ptup eqs] holds when every (source column, partial
   column) pair of [eqs] carries equal values. A toplevel loop: a
   closure here would be allocated once per probe match. *)
let rec agree stup ptup = function
  | [] -> true
  | (sc, pc) :: rest -> Value.equal stup.(sc) ptup.(pc) && agree stup ptup rest

(* [probe_into view p ~source ~covers ~probe emit] calls [emit] on
   every tuple of [p] joined with source [source]'s tuples, with its
   count. Each partial tuple probes on the junction's first equality
   column [col]: [probe ~col ~value f] calls [f] on the tuples of
   [source] whose [col] equals [value], with their counts. Any further
   equalities and the residual predicate filter the candidates. Returns
   [false], emitting nothing, when there is no column to probe: a
   cross-product junction, or one whose [col] fails [covers]. *)
let probe_into view (p : Partial.t) ~source ~covers ~probe emit =
  let dir =
    if source = p.lo - 1 then `Left
    else if source = p.hi + 1 then `Right
    else
      invalid_arg
        (Printf.sprintf
           "Algebra.extend_with_probe: source %d not adjacent to [%d..%d]"
           source p.lo p.hi)
  in
  let spec =
    match dir with
    | `Left -> View_def.join_between view source
    | `Right -> View_def.join_between view p.hi
  in
  let src_ofs = View_def.offset view source in
  let p_ofs = View_def.offset view p.lo in
  (* each equality names one attribute in [source] and one inside [p];
     the first drives the probe, the rest filter candidates *)
  let local (lg, rg) =
    match dir with
    | `Left -> (lg - src_ofs, rg - p_ofs)
    | `Right -> (rg - src_ofs, lg - p_ofs)
  in
  match List.map local spec.Join_spec.equalities with
  | [] -> false (* cross-product junction: no column to probe on *)
  | (src_col, _) :: _ when not (covers src_col) -> false
  | (src_col, p_col) :: rest ->
      let residual_ok stup ptup =
        match spec.Join_spec.residual with
        | None -> true
        | Some pr ->
            let lookup g =
              match dir with
              | `Left ->
                  if g < p_ofs then stup.(g - src_ofs) else ptup.(g - p_ofs)
              | `Right ->
                  if g < src_ofs then ptup.(g - p_ofs) else stup.(g - src_ofs)
            in
            Predicate.eval ~lookup pr
      in
      Delta.iter
        (fun ptup pc ->
          probe ~col:src_col ~value:(Tuple.get ptup p_col) (fun stup sc ->
              if agree stup ptup rest && residual_ok stup ptup then
                let combined =
                  match dir with
                  | `Left -> Tuple.concat stup ptup
                  | `Right -> Tuple.concat ptup stup
                in
                emit combined (pc * sc)))
        p.data;
      true

let extend_with_probe view (p : Partial.t) ~source ~probe =
  let result = Delta.empty () in
  if probe_into view p ~source ~covers:(fun _ -> true) ~probe (Delta.add result)
  then
    Some
      { Partial.lo = min source p.lo; hi = max source p.hi; data = result }
  else None

(* The error term is linear in the interfering deltas, so each is joined
   with TempView on its own into one bag: [interfering] by probing its
   index when one covers the junction's probe column, the same probe
   join a source answers a sweep query with, and every other term by
   the hash join. All are read in place. Nearly every error term is
   empty, so its bag is made at its first tuple. The bag collects the
   error negated, and the answer is then added into it, so the result
   takes no further bag. *)
let compensate ?(index = []) ?(extras = []) view ~answer ~interfering
    ~(temp : Partial.t) =
  let j =
    if answer.Partial.lo = temp.lo - 1 && answer.Partial.hi = temp.hi then
      answer.Partial.lo
    else if answer.Partial.hi = temp.hi + 1 && answer.Partial.lo = temp.lo then
      answer.Partial.hi
    else
      invalid_arg
        (Printf.sprintf
           "Algebra.compensate: answer [%d..%d] does not extend temp [%d..%d]"
           answer.Partial.lo answer.Partial.hi temp.lo temp.hi)
  in
  let error = ref None in
  let emit tup c =
    match !error with
    | Some e -> Delta.add e tup (-c)
    | None ->
        let e = Delta.empty () in
        Delta.add e tup (-c);
        error := Some e
  in
  let hash_join d =
    let dp = { Partial.lo = j; hi = j; data = d } in
    if j < temp.lo then join_with view dp temp emit
    else join_with view temp dp emit
  in
  let covers col = List.exists (fun idx -> Column_index.col idx = col) index in
  let probe ~col ~value =
    Column_index.iter (List.find (fun idx -> Column_index.col idx = col) index) value
  in
  if not (probe_into view temp ~source:j ~covers ~probe emit) then
    hash_join interfering;
  List.iter hash_join extras;
  match !error with
  | Some e when not (Delta.is_empty e) ->
      Bag.merge_into ~into:e answer.data;
      { answer with data = e }
  | Some _ | None -> answer

let merge_overlap view ~at ~(left : Partial.t) ~(right : Partial.t) =
  if left.hi <> at || right.lo <> at then
    invalid_arg
      (Printf.sprintf
         "Algebra.merge_overlap: [%d..%d] and [%d..%d] do not overlap at %d"
         left.lo left.hi right.lo right.hi at);
  let w = View_def.width view at in
  let left_width = Partial.arity view ~lo:left.lo ~hi:left.hi in
  let result = Delta.empty () in
  (* Index right tuples by their leading (at)-slice, probe with left's
     trailing slice. *)
  let idx = index right.data (fun tup -> Tuple.slice tup 0 w) in
  Delta.iter
    (fun ltup lc ->
      match Index.find idx (Tuple.slice ltup (left_width - w) w) with
      | matches ->
          List.iter
            (fun (rtup, rc) ->
              let tail = Tuple.slice rtup w (Tuple.arity rtup - w) in
              Delta.add result (Tuple.concat ltup tail) (lc * rc))
            matches
      | exception Not_found -> ())
    left.data;
  { Partial.lo = left.lo; hi = right.hi; data = result }

(* [select_into view out] adds a full-width tuple's view tuple to [out]
   when it passes the selection. *)
let select_into view out =
  let proj = View_def.projection view in
  match View_def.selection view with
  | Predicate.True -> fun tup c -> Delta.add out (Tuple.project tup proj) c
  | sel ->
      fun tup c ->
        if Predicate.eval ~lookup:(Array.get tup) sel then
          Delta.add out (Tuple.project tup proj) c

let select_project view (full : Partial.t) : Delta.t =
  if not (Partial.covers_all view full) then
    invalid_arg "Algebra.select_project: partial does not span all sources";
  let out = Bag.create ~initial_size:(Delta.cardinal full.data) () in
  Delta.iter (select_into view out) full.data;
  out

(* The last join selects and projects as it emits, so the full-width
   join result is never built. The projection is a fresh bag, so it
   becomes the relation without a copy: its counts are sums of products
   of the relations' positive counts, so they are positive. *)
let eval view fetch =
  let n = View_def.n_sources view in
  let acc = ref (leaf 0 (fetch 0)) in
  for j = 1 to n - 2 do
    acc := join view !acc (leaf j (fetch j))
  done;
  let last = if n = 1 then !acc else leaf (n - 1) (fetch (n - 1)) in
  let out =
    Bag.create
      ~initial_size:(min (Partial.cardinal !acc) (Partial.cardinal last))
      ()
  in
  let emit = select_into view out in
  if n = 1 then Delta.iter emit last.data else join_with view !acc last emit;
  Relation.adopt out
