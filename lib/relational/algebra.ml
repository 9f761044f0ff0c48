(* The join index keys a bag's entries on some of their columns, read in
   place. Its entries sit in three arrays: tuple, count, and the next
   entry with the same key (-1 ends a chain). Distinct keys sit in an
   open-addressed table, the linear probing of [Bag]: slot [i] holds a
   key's [Tuple.hash_cols] ([-1] when empty) and one word that packs
   the first entry of its chain, whose tuple is the key read in place,
   with the number of entries in the chain, its size: a probe knows its
   key's fan-out before it walks the chain, and the size costs no word
   of its own and moves wherever the head moves. The table keeps at least
   twice as many slots as keys, so a miss stops within a few slots. A
   cross-product junction, no key columns, is one key with one chain.

   A bulk build adds each entry at the head of its key's chain, so it
   is O(n) at any fan-out. [add] changes one entry in place, found by
   walking its key's chain, so it costs the key's fan-out: a new tuple
   takes a free entry and joins the end of its key's chain, where the
   walk stopped, so entries that leave oldest first, as the update
   queue's do, are found at once. An entry whose count reaches 0
   leaves its chain for the free list, chained through [next]. A key
   whose chain empties leaves the table by backward-shift deletion, as
   in [Bag], so a probe still stops at the first empty slot and every
   chain holds a live entry. The entry arrays and the table grow by
   doubling.

   A probe hashes its own key columns in place, finds the key's slot and
   walks that key's chain only. No key tuple is built on either side. *)
type index = {
  cols : int array;
  mutable hashes : int array;
  mutable heads : int array;  (* head + size * [one], see [head] *)
  mutable next : int array;
  mutable tuples : Tuple.t array;
  mutable counts : int array;
  mutable keys : int;  (* occupied slots *)
  mutable used : int;  (* entries below [used] are live or free *)
  mutable free : int;  (* the first free entry, or -1 *)
}

(* A slot's word in [heads] holds the first entry of its key's chain in
   its low 31 bits and the chain's length above them; adding [one] adds
   an entry to the length. OCaml 5's native ints have 63 bits. *)
let one = 1 lsl 31
let head x = x land (one - 1)
let size x = x lsr 31

(* The slot holding the key of [ptup]'s [pcols], hashed [h], or the
   empty slot ending its run. *)
let rec find_slot idx mask h ptup pcols i =
  let h' = Array.unsafe_get idx.hashes i in
  if
    h' < 0
    || h' = h
       && Tuple.equal_cols idx.tuples.(head idx.heads.(i)) idx.cols ptup pcols
  then i
  else find_slot idx mask h ptup pcols ((i + 1) land mask)

(* The slot of the key equal to [ptup]'s [pcols], or -1. Inlined, so
   [first], on every step of a probe chain, costs no extra call. *)
let[@inline] key_slot idx ptup pcols =
  let h = Tuple.hash_cols ptup pcols in
  let mask = Array.length idx.hashes - 1 in
  let i = find_slot idx mask h ptup pcols (h land mask) in
  if idx.hashes.(i) < 0 then -1 else i

(* The first entry whose key equals [ptup]'s [pcols], or -1. *)
let first idx ptup pcols =
  let i = key_slot idx ptup pcols in
  if i < 0 then -1 else head idx.heads.(i)

let rec slots cap n = if cap >= 2 * n then cap else slots (cap * 2) n

let index data cols =
  let n = Delta.cardinal data in
  let cap = slots 2 n in
  let idx =
    { cols; hashes = Array.make cap (-1); heads = Array.make cap 0;
      next = Array.make n (-1); tuples = Array.make n [||];
      counts = Array.make n 0; keys = 0; used = n; free = -1 }
  in
  let mask = cap - 1 in
  let e = ref 0 in
  Delta.iter
    (fun tup c ->
      let h = Tuple.hash_cols tup cols in
      let i = find_slot idx mask h tup cols (h land mask) in
      if idx.hashes.(i) < 0 then begin
        idx.hashes.(i) <- h;
        idx.keys <- idx.keys + 1
      end
      else idx.next.(!e) <- head idx.heads.(i);
      let x = idx.heads.(i) in
      idx.heads.(i) <- x - head x + one + !e;
      idx.tuples.(!e) <- tup;
      idx.counts.(!e) <- c;
      incr e)
    data;
  idx

let rec empty_slot hashes mask i =
  if hashes.(i) < 0 then i else empty_slot hashes mask ((i + 1) land mask)

(* The table at twice its slots, every key rehashed; chains stay. *)
let grow_table idx =
  let cap = 2 * Array.length idx.hashes in
  let mask = cap - 1 in
  let hashes = Array.make cap (-1) and heads = Array.make cap 0 in
  Array.iteri
    (fun i h ->
      if h >= 0 then begin
        let j = empty_slot hashes mask (h land mask) in
        hashes.(j) <- h;
        heads.(j) <- idx.heads.(i)
      end)
    idx.hashes;
  idx.hashes <- hashes;
  idx.heads <- heads

(* A free entry holding [tup], [c] and [next], the entry arrays doubled
   when none is free. *)
let take idx tup c next =
  let e =
    if idx.free >= 0 then begin
      let e = idx.free in
      idx.free <- idx.next.(e);
      e
    end
    else begin
      let n = Array.length idx.tuples in
      if idx.used = n then begin
        let cap = max 4 (2 * n) in
        let widen a fill =
          Array.init cap (fun i -> if i < n then a.(i) else fill)
        in
        idx.next <- widen idx.next (-1);
        idx.tuples <- widen idx.tuples [||];
        idx.counts <- widen idx.counts 0
      end;
      idx.used <- idx.used + 1;
      idx.used - 1
    end
  in
  idx.tuples.(e) <- tup;
  idx.counts.(e) <- c;
  idx.next.(e) <- next;
  e

(* Slot [hole] loses its key: each key behind it in the run that may
   move shifts back into the hole. *)
let remove_slot idx hole =
  let hashes = idx.hashes and heads = idx.heads in
  let mask = Array.length hashes - 1 in
  let rec shift hole j =
    let h = hashes.(j) in
    if h < 0 then hole
    else if (j - h) land mask >= (j - hole) land mask then begin
      hashes.(hole) <- h;
      heads.(hole) <- heads.(j);
      shift j ((j + 1) land mask)
    end
    else shift hole ((j + 1) land mask)
  in
  hashes.(shift hole ((hole + 1) land mask)) <- -1;
  idx.keys <- idx.keys - 1

let rec add idx tup c =
  if c <> 0 then begin
    let cols = idx.cols in
    let h = Tuple.hash_cols tup cols in
    let mask = Array.length idx.hashes - 1 in
    let i = find_slot idx mask h tup cols (h land mask) in
    if idx.hashes.(i) >= 0 then begin
      (* the key is present: find [tup] in its chain, [prev] before it,
         or append it after the last entry [prev] *)
      let rec walk prev e =
        if e < 0 then begin
          let e = take idx tup c (-1) in
          idx.next.(prev) <- e;
          idx.heads.(i) <- idx.heads.(i) + one
        end
        else if not (Tuple.equal idx.tuples.(e) tup) then walk e idx.next.(e)
        else if idx.counts.(e) + c <> 0 then
          idx.counts.(e) <- idx.counts.(e) + c
        else begin
          let after = idx.next.(e) in
          let x = idx.heads.(i) - one in
          idx.heads.(i) <- x;
          if prev >= 0 then idx.next.(prev) <- after
          else if after >= 0 then idx.heads.(i) <- x - head x + after
          else remove_slot idx i;
          idx.tuples.(e) <- [||];
          idx.counts.(e) <- 0;
          idx.next.(e) <- idx.free;
          idx.free <- e
        end
      in
      walk (-1) (head idx.heads.(i))
    end
    else if 2 * (idx.keys + 1) > Array.length idx.hashes then begin
      grow_table idx;
      add idx tup c
    end
    else begin
      idx.heads.(i) <- take idx tup c (-1) + one;
      idx.hashes.(i) <- h;
      idx.keys <- idx.keys + 1
    end
  end

let matches idx ptup pcols f =
  let e = ref (first idx ptup pcols) in
  while !e >= 0 do
    f (Array.unsafe_get idx.tuples !e) idx.counts.(!e);
    e := idx.next.(!e)
  done

let rec chain_length next e n =
  if e < 0 then n else chain_length next next.(e) (n + 1)

(* Each key's size is the length of its chain. *)
let sized idx =
  let ok = ref true in
  Array.iteri
    (fun i h ->
      let x = idx.heads.(i) in
      if h >= 0 && size x <> chain_length idx.next (head x) 0 then ok := false)
    idx.hashes;
  !ok

(* [a]'s entries are all in [b], with their counts: each key of [a]
   probes [b] with its head entry's tuple. *)
let within a b =
  let ok = ref true in
  Array.iteri
    (fun i h ->
      if h >= 0 then
        matches a a.tuples.(head a.heads.(i)) a.cols (fun tup c ->
            let found = ref false in
            matches b tup a.cols (fun u c' ->
                if c = c' && Tuple.equal u tup then found := true);
            if not !found then ok := false))
    a.hashes;
  !ok

let equal_index a b =
  a.cols = b.cols && a.keys = b.keys && sized a && sized b && within a b
  && within b a

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

(* The number of (probe entry, index entry) pairs with equal keys: the
   sizes of the keys the probe entries find. *)
let count_matches idx probe pcols =
  Delta.fold
    (fun ptup _ n ->
      let i = key_slot idx ptup pcols in
      if i < 0 then n else n + size idx.heads.(i))
    probe 0

(* Junction [k]'s key columns of source [k] and of [k + 1], shifted to
   partials whose first columns are global attributes [lofs] and
   [rofs]. *)
let key_cols view k ~lofs ~rofs =
  let lcols, rcols = View_def.junction_key view k in
  let shift cols ofs src =
    let d = View_def.offset view src - ofs in
    if d = 0 then cols else Array.map (( + ) d) cols
  in
  (shift lcols lofs k, shift rcols rofs (k + 1))

(* [pairs view k ~lofs ~rofs f] is called on each pair of a left tuple
   (first column global attribute [lofs]) and a right one ([rofs])
   whose keys match across junction [k]: it calls [f] on their
   concatenation with the product of their counts when the junction's
   residual holds. *)
let pairs view k ~lofs ~rofs f =
  match (View_def.join_between view k).Join_spec.residual with
  | None -> fun ltup lc rtup rc -> f (Tuple.concat ltup rtup) (lc * rc)
  | Some p ->
      fun ltup lc rtup rc ->
        let lookup g =
          if g < rofs then ltup.(g - lofs) else rtup.(g - rofs)
        in
        if Predicate.eval ~lookup p then f (Tuple.concat ltup rtup) (lc * rc)

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
    let lofs = View_def.offset view left.lo in
    let rofs = View_def.offset view right.lo in
    let lcols, rcols = key_cols view left.hi ~lofs ~rofs in
    let emit = pairs view left.hi ~lofs ~rofs in
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

type indexes = { lower : index option; upper : index option }

let indexes ?(at = Fun.id) view j data =
  let build cols = index data (Array.map at cols) in
  let key k side =
    if k < 0 || k >= View_def.n_sources view - 1 then None
    else Some (side (View_def.junction_key view k))
  in
  let below = key (j - 1) snd and above = key j fst in
  let lower = Option.map build below in
  let upper =
    match (below, above) with
    | Some b, Some a when b = a -> lower
    | _ -> Option.map build above
  in
  { lower; upper }

let add_all ix tup c =
  Option.iter (fun idx -> add idx tup c) ix.lower;
  match (ix.upper, ix.lower) with
  | Some u, Some l when u == l -> ()
  | upper, _ -> Option.iter (fun idx -> add idx tup c) upper

(* The index of [ix] that [p] probes at source [source], the columns of
   [p]'s tuples that probe it, and the emitter of a matched pair, which
   [lift]s the source's tuple and calls [f] on the join. *)
let leg ?(lift = Fun.id) view ix (p : Partial.t) ~source =
  let at_left = source = p.lo - 1 in
  if not (at_left || source = p.hi + 1) then
    invalid_arg
      (Printf.sprintf "Algebra.answer: source %d not adjacent to [%d..%d]"
         source p.lo p.hi);
  let sofs = View_def.offset view source and pofs = View_def.offset view p.lo in
  let missing () =
    invalid_arg
      (Printf.sprintf "Algebra.answer: no index of source %d's junction" source)
  in
  if at_left then
    let idx = match ix.upper with Some idx -> idx | None -> missing () in
    let pairs = pairs view source ~lofs:sofs ~rofs:pofs in
    ( idx,
      snd (key_cols view source ~lofs:sofs ~rofs:pofs),
      fun f ->
        let emit = pairs f in
        fun ptup pc stup sc -> emit (lift stup) sc ptup pc )
  else
    let idx = match ix.lower with Some idx -> idx | None -> missing () in
    let pairs = pairs view p.hi ~lofs:pofs ~rofs:sofs in
    ( idx,
      fst (key_cols view p.hi ~lofs:pofs ~rofs:sofs),
      fun f ->
        let emit = pairs f in
        fun ptup pc stup sc -> emit ptup pc (lift stup) sc )

let probe view ix (p : Partial.t) ~source f =
  let idx, pcols, emit = leg view ix p ~source in
  iter_matches idx p.data pcols (emit f)

(* Two passes over [p]: the first finds each tuple's key once,
   remembers its chain and sums the keys' sizes; the second walks the
   remembered chains into a bag made at that size. *)
let answer ?lift view ix (p : Partial.t) ~source =
  let idx, pcols, emit = leg ?lift view ix p ~source in
  let chains = Array.make (Delta.cardinal p.data) (-1) in
  let k = ref 0 and total = ref 0 in
  Delta.iter
    (fun ptup _ ->
      let i = key_slot idx ptup pcols in
      if i >= 0 then begin
        chains.(!k) <- head idx.heads.(i);
        total := !total + size idx.heads.(i)
      end;
      incr k)
    p.data;
  let data = Bag.create ~initial_size:!total () in
  let emit = emit (Delta.add data) in
  k := 0;
  Delta.iter
    (fun ptup pc ->
      let e = ref chains.(!k) in
      while !e >= 0 do
        emit ptup pc (Array.unsafe_get idx.tuples !e) idx.counts.(!e);
        e := idx.next.(!e)
      done;
      incr k)
    p.data;
  data

(* The error term is linear in the interfering deltas, so each is joined
   with TempView on its own into one bag: [interfering] by probing its
   index when there is one, the same probe a source answers a sweep
   query with, and every other term by the hash join. All are read in
   place. Nearly every error term is empty, so its bag is made at its
   first tuple. The bag collects the error negated, and the answer is
   then added into it, so the result takes no further bag. *)
let compensate ?index ?(extras = []) view ~answer ~interfering
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
  (match index with
  | Some ix -> probe view ix temp ~source:j emit
  | None -> hash_join interfering);
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
  let proj = View_def.projection view in
  { n; parts; lookup = (fun g -> parts.(src.(g)).(loc.(g)));
    bcols = Array.init (n - 1) (fun k -> snd (View_def.junction_key view k));
    pcols = Array.init (n - 1) (fun k -> fst (View_def.junction_key view k));
    residuals =
      Array.init (n - 1) (fun k ->
          (View_def.join_between view k).Join_spec.residual);
    psrc = Array.map (Array.get src) proj;
    ploc = Array.map (Array.get loc) proj;
    selection = View_def.selection view;
    built = Array.make (n - 1) None }

let sources p fetch = Array.init p.n (fun j -> Relation.as_bag (fetch j))

(* Junction k's index over [rels.(k + 1)].

   With [keep], junction k also keeps the index it built with an O(1)
   copy of the bag it was built from, and reuses it while the next bag
   fetched for source k + 1 still [Bag.shares] that copy's entries.
   Copy-on-write never writes a shared bag's arrays again, so equal
   arrays mean equal contents. The chain holds a copy, never the
   fetched bag itself: a caller that then changes its relation in place
   unshares it first, so the next call sees fresh arrays and
   rebuilds. *)
let chain_indexes p ~keep rels =
  Array.init (p.n - 1) (fun k ->
      let r = rels.(k + 1) in
      match p.built.(k) with
      | Some (b, idx) when Bag.shares b r -> idx
      | _ ->
          let idx = index r p.bcols.(k) in
          if keep then p.built.(k) <- Some (Bag.copy r, idx);
          idx)

(* [run p idxs rels emit] calls [emit c] with [p.parts] holding each
   match that passes the selection, [c] its count. *)
let run p idxs rels emit =
  let { n; parts; lookup; pcols; residuals; _ } = p in
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

(* A bound on the chain's distinct results, counted without building
   any: every junction but the last is walked as [run] walks it, and
   the last adds the size of the key each match finds. Its residual and
   the selection only drop matches, and the projection only merges
   them. *)
let bound p idxs rels =
  let { n; parts; lookup; pcols; residuals; _ } = p in
  let rec descend k =
    let idx = idxs.(k) in
    if k = n - 2 then begin
      let i = key_slot idx parts.(k) pcols.(k) in
      if i < 0 then 0 else size idx.heads.(i)
    end
    else begin
      let e = ref (first idx parts.(k) pcols.(k)) and m = ref 0 in
      while !e >= 0 do
        parts.(k + 1) <- idx.tuples.(!e);
        (match residuals.(k) with
        | Some r when not (Predicate.eval ~lookup r) -> ()
        | _ -> m := !m + descend (k + 1));
        e := idx.next.(!e)
      done;
      !m
    end
  in
  if n = 1 then Bag.cardinal rels.(0)
  else
    Bag.fold
      (fun tup _ m ->
        parts.(0) <- tup;
        m + descend 0)
      rels.(0) 0

(* The view is sized by [bound], so it never grows. It is a fresh bag,
   so it becomes the relation without a copy: its counts are products
   of the relations' positive counts, so they are positive. *)
let eval view fetch =
  let p = plan view in
  let rels = sources p fetch in
  let idxs = chain_indexes p ~keep:false rels in
  let out = Bag.create ~initial_size:(bound p idxs rels) () in
  let { parts; psrc; ploc; _ } = p in
  run p idxs rels (fun c -> Delta.add out (Tuple.gather parts psrc ploc) c);
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
    let rels = sources p fetch in
    run p (chain_indexes p ~keep:true rels) rels (fun c ->
        Bag.visit d ~hash:(Tuple.hash_gather parts psrc ploc) ~equal ~make c);
    Bag.finish d
