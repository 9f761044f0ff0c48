(* The hash join indexes one operand on its key columns and probes it
   with the other's. An index is built once, from a bag read in place,
   and never changes. Its entries sit in three arrays of the build's
   cardinality: tuple, count, and the next entry with the same key
   (-1 ends a chain). Distinct keys sit in an open-addressed table, the
   linear probing of [Bag]: slot [i] holds a key's [Tuple.hash_cols]
   ([-1] when empty) and the first entry of its chain, whose tuple is
   the key read in place. The table has at least twice as many slots as
   entries, so a miss stops within a few slots. A build adds each entry
   at the head of its key's chain, so it is O(n) at any fan-out: a
   cross-product junction, no key columns, is one key with one chain.
   A probe hashes its own key columns in place, finds the key's slot and
   walks that key's chain only. No key tuple is built on either side. *)
type index = {
  cols : int array;
  hashes : int array;
  heads : int array;
  next : int array;
  tuples : Tuple.t array;
  counts : int array;
}

(* The slot holding the key of [ptup]'s [pcols], hashed [h], or the
   empty slot ending its run. *)
let rec find_slot idx mask h ptup pcols i =
  let h' = Array.unsafe_get idx.hashes i in
  if
    h' < 0
    || h' = h
       && Tuple.equal_cols idx.tuples.(idx.heads.(i)) idx.cols ptup pcols
  then i
  else find_slot idx mask h ptup pcols ((i + 1) land mask)

(* The first entry whose key equals [ptup]'s [pcols], or -1. *)
let first idx ptup pcols =
  let h = Tuple.hash_cols ptup pcols in
  let mask = Array.length idx.hashes - 1 in
  let i = find_slot idx mask h ptup pcols (h land mask) in
  if idx.hashes.(i) < 0 then -1 else idx.heads.(i)

let rec slots cap n = if cap >= 2 * n then cap else slots (cap * 2) n

(* [data]'s entries grouped by their [cols]. *)
let index data cols =
  let n = Delta.cardinal data in
  let cap = slots 2 n in
  let idx =
    { cols; hashes = Array.make cap (-1); heads = Array.make cap 0;
      next = Array.make n (-1); tuples = Array.make n [||];
      counts = Array.make n 0 }
  in
  let mask = cap - 1 in
  let e = ref 0 in
  Delta.iter
    (fun tup c ->
      let h = Tuple.hash_cols tup cols in
      let i = find_slot idx mask h tup cols (h land mask) in
      if idx.hashes.(i) < 0 then idx.hashes.(i) <- h
      else idx.next.(!e) <- idx.heads.(i);
      idx.heads.(i) <- !e;
      idx.tuples.(!e) <- tup;
      idx.counts.(!e) <- c;
      incr e)
    data;
  idx

(* [iter_matches idx probe pcols f] calls [f ptup pc btup bc] on every
   entry of [probe] and every index entry with the same key. *)
let iter_matches idx probe pcols f =
  Delta.iter
    (fun ptup pc ->
      let e = ref (first idx ptup pcols) in
      while !e >= 0 do
        f ptup pc (Array.unsafe_get idx.tuples !e) idx.counts.(!e);
        e := idx.next.(!e)
      done)
    probe

let rec chain_length next e n =
  if e < 0 then n else chain_length next next.(e) (n + 1)

(* The number of (probe entry, index entry) pairs with equal keys, found
   by walking their chains without building anything. *)
let count_matches idx probe pcols =
  Delta.fold
    (fun ptup _ n -> chain_length idx.next (first idx ptup pcols) n)
    probe 0

(* [hash_join view left right] prepares the join of two adjacent
   partials: it indexes the smaller operand and returns [(size, run)].
   [run f] calls [f] on every joined tuple with its count. Each is the
   concatenation of a distinct pair of operand tuples, so [f] never sees
   a tuple twice. [size ()] counts the pairs whose keys match: a bound
   on the result's cardinality, since a residual only drops pairs. An
   empty operand builds nothing. *)
let hash_join view (left : Partial.t) (right : Partial.t) =
  if left.hi + 1 <> right.lo then
    invalid_arg
      (Printf.sprintf "Algebra.join: partials [%d..%d] and [%d..%d] not adjacent"
         left.lo left.hi right.lo right.hi);
  let nl = Delta.cardinal left.data and nr = Delta.cardinal right.data in
  if nl = 0 || nr = 0 then ((fun () -> 0), fun _ -> ())
  else begin
    let spec = View_def.join_between view left.hi in
    let eqs = spec.Join_spec.equalities in
    let lofs = View_def.offset view left.lo in
    let rofs = View_def.offset view right.lo in
    let lcols = Array.of_list (List.map (fun (l, _) -> l - lofs) eqs) in
    let rcols = Array.of_list (List.map (fun (_, r) -> r - rofs) eqs) in
    let emit f =
      match spec.Join_spec.residual with
      | None -> fun ltup lc rtup rc -> f (Tuple.concat ltup rtup) (lc * rc)
      | Some p ->
          fun ltup lc rtup rc ->
            let lookup g =
              if g < rofs then ltup.(g - lofs) else rtup.(g - rofs)
            in
            if Predicate.eval ~lookup p then
              f (Tuple.concat ltup rtup) (lc * rc)
    in
    if nl <= nr then
      let idx = index left.data lcols in
      ( (fun () -> count_matches idx right.data rcols),
        fun f ->
          let emit = emit f in
          iter_matches idx right.data rcols (fun rtup rc ltup lc ->
              emit ltup lc rtup rc) )
    else
      let idx = index right.data rcols in
      ( (fun () -> count_matches idx left.data lcols),
        fun f -> iter_matches idx left.data lcols (emit f) )
  end

let join_with view left right f = snd (hash_join view left right) f

let join view (left : Partial.t) (right : Partial.t) : Partial.t =
  let size, run = hash_join view left right in
  let data = Bag.create ~initial_size:(size ()) () in
  run (Delta.add data);
  { Partial.lo = left.lo; hi = right.hi; data }

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
  let lw = Partial.arity view ~lo:left.lo ~hi:left.hi in
  let rw = Partial.arity view ~lo:right.lo ~hi:right.hi in
  let result = Delta.empty () in
  (* Index right tuples by their leading (at)-columns, probe with left's
     trailing ones. *)
  let idx = index right.data (Array.init w Fun.id) in
  iter_matches idx left.data
    (Array.init w (fun i -> lw - w + i))
    (fun ltup lc rtup rc ->
      let tup = Array.make (lw + rw - w) Value.Null in
      Array.blit ltup 0 tup 0 lw;
      Array.blit rtup w tup lw (rw - w);
      Delta.add result tup (lc * rc));
  { Partial.lo = left.lo; hi = right.hi; data = result }

let select_project view (full : Partial.t) : Delta.t =
  if not (Partial.covers_all view full) then
    invalid_arg "Algebra.select_project: partial does not span all sources";
  let proj = View_def.projection view in
  let out = Bag.create ~initial_size:(Delta.cardinal full.data) () in
  (match View_def.selection view with
  | Predicate.True ->
      Delta.iter (fun tup c -> Delta.add out (Tuple.project tup proj) c) full.data
  | sel ->
      Delta.iter
        (fun tup c ->
          if Predicate.eval ~lookup:(Array.get tup) sel then
            Delta.add out (Tuple.project tup proj) c)
        full.data);
  out

(* One pipelined probe chain: source 0 streams through indexes of
   sources 1..n-1, each read in place. [parts.(j)] holds the tuple
   matched at source j, so the full-width tuple is never built: a
   residual or the selection reads global attribute g as column
   [loc.(g)] of [parts.(src.(g))], and the view tuple of a match that
   passes the selection is [Tuple.gather parts psrc ploc]. The plan,
   every map here, is made once per chain. *)
type plan = {
  n : int;
  parts : Tuple.t array;
  lookup : int -> Value.t;
  (* Junction k joins source k to source k + 1: its index holds source
     k + 1 keyed on [bcols.(k)], and source k's columns [pcols.(k)]
     probe it. *)
  bcols : int array array;
  pcols : int array array;
  residuals : Predicate.t option array;
  psrc : int array;
  ploc : int array;
  selection : Predicate.t;
  (* Junction k's last index, with a copy of the bag it indexed. *)
  built : (Bag.t * index) option array;
}

let plan view =
  let n = View_def.n_sources view in
  let src = Array.make (View_def.total_width view) 0 in
  let loc = Array.make (View_def.total_width view) 0 in
  for j = 0 to n - 1 do
    for a = 0 to View_def.width view j - 1 do
      src.(View_def.offset view j + a) <- j;
      loc.(View_def.offset view j + a) <- a
    done
  done;
  let parts = Array.make n [||] in
  let junction k = View_def.join_between view k in
  let cols k side =
    Array.of_list
      (List.map (fun eq -> loc.(side eq)) (junction k).Join_spec.equalities)
  in
  let proj = View_def.projection view in
  { n; parts; lookup = (fun g -> parts.(src.(g)).(loc.(g)));
    bcols = Array.init (n - 1) (fun k -> cols k snd);
    pcols = Array.init (n - 1) (fun k -> cols k fst);
    residuals = Array.init (n - 1) (fun k -> (junction k).Join_spec.residual);
    psrc = Array.map (Array.get src) proj;
    ploc = Array.map (Array.get loc) proj;
    selection = View_def.selection view;
    built = Array.make (n - 1) None }

let sources p fetch = Array.init p.n (fun j -> Relation.as_bag (fetch j))

(* [run p ~keep rels emit] calls [emit c] with [p.parts] holding each
   match that passes the selection, [c] its count.

   With [keep], junction k also keeps the index it built with an O(1)
   copy of the bag it was built from, and reuses it while the next bag
   fetched for source k + 1 still [Bag.shares] that copy's entries.
   Copy-on-write never writes a shared bag's arrays again, so equal
   arrays mean equal contents. The chain holds a copy, never the
   fetched bag itself: a caller that then changes its relation in place
   unshares it first, so the next call sees fresh arrays and
   rebuilds. *)
let run p ~keep rels emit =
  let { n; parts; lookup; pcols; residuals; _ } = p in
  let idxs =
    Array.init (n - 1) (fun k ->
        let r = rels.(k + 1) in
        match p.built.(k) with
        | Some (b, idx) when Bag.shares b r -> idx
        | _ ->
            let idx = index r p.bcols.(k) in
            if keep then p.built.(k) <- Some (Bag.copy r, idx);
            idx)
  in
  let emit =
    match p.selection with
    | Predicate.True -> emit
    | sel -> fun c -> if Predicate.eval ~lookup sel then emit c
  in
  (* [descend k c]: [parts] holds a match for sources 0..k; extend it
     through junction k *)
  let rec descend k c =
    if k = n - 1 then emit c
    else begin
      let idx = idxs.(k) in
      let e = ref (first idx parts.(k) pcols.(k)) in
      while !e >= 0 do
        parts.(k + 1) <- idx.tuples.(!e);
        (match residuals.(k) with
        | Some r when not (Predicate.eval ~lookup r) -> ()
        | _ -> descend (k + 1) (c * idx.counts.(!e)));
        e := idx.next.(!e)
      done
    end
  in
  Bag.iter
    (fun tup c ->
      parts.(0) <- tup;
      descend 0 c)
    rels.(0)

(* The view is sized for the smallest source, as a chain at fan-out 1
   yields about that many tuples. It is a fresh bag, so it becomes the
   relation without a copy: its counts are products of the relations'
   positive counts, so they are positive. *)
let eval view fetch =
  let p = plan view in
  let rels = sources p fetch in
  let out =
    Bag.create
      ~initial_size:
        (Array.fold_left (fun m r -> min m (Bag.cardinal r)) max_int rels)
      ()
  in
  let { parts; psrc; ploc; _ } = p in
  run p ~keep:false rels (fun c ->
      Delta.add out (Tuple.gather parts psrc ploc) c);
  Relation.adopt out

(* Each match is looked up in [old] where it stands, by
   [Tuple.hash_gather] and [Tuple.equal_gather], so a result already in
   the view costs no tuple. *)
let evaluator view =
  let p = plan view in
  let { parts; psrc; ploc; _ } = p in
  let equal t = Tuple.equal_gather t parts psrc ploc in
  let make () = Tuple.gather parts psrc ploc in
  fun fetch ~old ->
    let d = Bag.differ old in
    run p ~keep:true (sources p fetch) (fun c ->
        Bag.visit d ~hash:(Tuple.hash_gather parts psrc ploc) ~equal ~make c);
    Bag.finish d
