(* An open-addressed table over three parallel arrays. Slot [i] holds
   the tuple [keys.(i)], its count [counts.(i)] and its cached
   [Tuple.hash] [hashes.(i)], or is empty: hash [-1] ([Tuple.hash] is
   never negative), count 0, key [[||]]. A tuple lives in the first
   slot of the run of occupied slots from its home slot, the hash's low
   bits, onwards (linear probing). A probe rejects a slot by comparing
   ints and follows the key only when the hashes agree. Removing an
   entry shifts back the entries behind it that may move (backward-shift
   deletion), so there are no tombstones and a probe stops at the first
   empty slot.

   [copy] shares the three arrays and marks both bags [shared]; the
   first mutation of a shared bag copies them. [total] is the signed sum
   of the counts: every mutation adds its [n] to it, so reading it costs
   nothing. *)
type t = {
  mutable hashes : int array;
  mutable keys : Tuple.t array;
  mutable counts : int array;
  mutable size : int;
  mutable total : int;
  mutable shared : bool;
}

let no_key : Tuple.t = [||]

(* A table of [cap] slots holds [cap * 7 / 8] entries; past that it
   grows ×4 while small, ×2 from 64 slots up. *)
let limit cap = cap * 7 / 8
let grown cap = if cap < 64 then cap * 4 else cap * 2

let make cap =
  { hashes = Array.make cap (-1); keys = Array.make cap no_key;
    counts = Array.make cap 0; size = 0; total = 0; shared = false }

let rec capacity cap n = if limit cap >= n then cap else capacity (cap * 2) n
let create ?(initial_size = 14) () = make (capacity 2 initial_size)

let copy b =
  b.shared <- true;
  { b with shared = true }

(* Only [copy] puts one set of arrays in two bags, and it marks both
   shared; a shared bag, and a bag that grows, takes fresh arrays before
   it writes. So arrays two bags share are never written again. *)
let shares a b = a.keys == b.keys

let unshare b =
  if b.shared then begin
    b.hashes <- Array.copy b.hashes;
    b.keys <- Array.copy b.keys;
    b.counts <- Array.copy b.counts;
    b.shared <- false
  end

(* The slot holding [tup], or the empty slot ending its run. *)
let rec slot hashes keys mask h tup i =
  let h' = Array.unsafe_get hashes i in
  if h' < 0 || (h' = h && Tuple.equal (Array.unsafe_get keys i) tup) then i
  else slot hashes keys mask h tup ((i + 1) land mask)

let rec free hashes mask i =
  if Array.unsafe_get hashes i < 0 then i else free hashes mask ((i + 1) land mask)

let place b i h tup n =
  b.hashes.(i) <- h;
  b.keys.(i) <- tup;
  b.counts.(i) <- n;
  b.size <- b.size + 1

(* Rehashing into fresh arrays also unshares. *)
let grow b =
  let hashes = b.hashes and keys = b.keys and counts = b.counts in
  let cap = grown (Array.length hashes) in
  let mask = cap - 1 in
  let hashes' = Array.make cap (-1) in
  let keys' = Array.make cap no_key and counts' = Array.make cap 0 in
  for i = 0 to Array.length hashes - 1 do
    let h = hashes.(i) in
    if h >= 0 then begin
      let j = free hashes' mask (h land mask) in
      hashes'.(j) <- h;
      keys'.(j) <- keys.(i);
      counts'.(j) <- counts.(i)
    end
  done;
  b.hashes <- hashes';
  b.keys <- keys';
  b.counts <- counts';
  b.shared <- false

(* Walk the run after [hole]: an entry whose home slot lies cyclically
   in [hole, j) moves back into the hole, whose place becomes the new
   hole. Returns the last hole. A toplevel loop, so a deletion
   allocates nothing. *)
let rec shift hashes keys counts mask hole j =
  let h = hashes.(j) in
  if h < 0 then hole
  else if (j - h) land mask >= (j - hole) land mask then begin
    hashes.(hole) <- h;
    keys.(hole) <- keys.(j);
    counts.(hole) <- counts.(j);
    shift hashes keys counts mask j ((j + 1) land mask)
  end
  else shift hashes keys counts mask hole ((j + 1) land mask)

(* Empty slot [hole], shifting back the entries behind it. *)
let remove_at b hole =
  let hashes = b.hashes and keys = b.keys and counts = b.counts in
  let mask = Array.length hashes - 1 in
  let hole = shift hashes keys counts mask hole ((hole + 1) land mask) in
  hashes.(hole) <- -1;
  keys.(hole) <- no_key;
  counts.(hole) <- 0;
  b.size <- b.size - 1

(* Add [n] to the entry in slot [i] and return its new count. A count
   that reaches zero leaves the table. *)
let settle b i n =
  unshare b;
  let c = b.counts.(i) + n in
  if c = 0 then remove_at b i else b.counts.(i) <- c;
  c

(* Put [tup], hashed [h], in the empty slot [i] that ends its run, or
   where it belongs once the table has grown. *)
let insert b i h tup n =
  if b.size >= limit (Array.length b.hashes) then begin
    grow b;
    let mask = Array.length b.hashes - 1 in
    place b (free b.hashes mask (h land mask)) h tup n
  end
  else begin
    unshare b;
    place b i h tup n
  end

(* [bump b h tup n] adds [n <> 0] to [tup], hashed [h], and returns the
   new count. A count that reaches zero leaves the table, but [n] still
   moves the total: the entry's old count was [-n]. *)
let bump b h tup n =
  let mask = Array.length b.hashes - 1 in
  let i = slot b.hashes b.keys mask h tup (h land mask) in
  b.total <- b.total + n;
  if b.hashes.(i) >= 0 then settle b i n
  else begin
    insert b i h tup n;
    n
  end

let add b tup n = if n <> 0 then ignore (bump b (Tuple.hash tup) tup n)

(* [slot] for a tuple known by its hash [h] and a test [equal] of a key
   against it. *)
let rec slot_by hashes keys mask h equal i =
  let h' = Array.unsafe_get hashes i in
  if h' < 0 || (h' = h && equal (Array.unsafe_get keys i)) then i
  else slot_by hashes keys mask h equal ((i + 1) land mask)

(* [add] of a tuple known by [h] and [equal]. A new entry takes [tup],
   or [make ()] when [tup] is [no_key], so nothing is built for a tuple
   the bag holds already. *)
let add_by b h equal tup make n =
  if n <> 0 then begin
    let mask = Array.length b.hashes - 1 in
    let i = slot_by b.hashes b.keys mask h equal (h land mask) in
    b.total <- b.total + n;
    if b.hashes.(i) >= 0 then ignore (settle b i n)
    else insert b i h (if tup == no_key then make () else tup) n
  end

(* A diff read off [old] in place: [seen] has bit [i] set once slot [i]
   of [old] was visited, and [delta] collects the change. *)
type differ = { old : t; seen : Bytes.t; delta : t }

let differ old =
  { old; seen = Bytes.make ((Array.length old.hashes + 7) lsr 3) '\000';
    delta = make 4 }

let[@inline] seen d i =
  Char.code (Bytes.unsafe_get d.seen (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] mark d i =
  let byte = Char.code (Bytes.unsafe_get d.seen (i lsr 3)) in
  Bytes.unsafe_set d.seen (i lsr 3)
    (Char.unsafe_chr (byte lor (1 lsl (i land 7))))

(* The first visit to an entry of [old] moves [delta] by the difference
   of the counts and marks the slot; a later one, or a tuple [old]
   lacks, adds its count. Either way [delta] reuses [old]'s tuple when
   there is one. *)
let visit d ~hash ~equal ~make c =
  let old = d.old in
  let mask = Array.length old.hashes - 1 in
  let i = slot_by old.hashes old.keys mask hash equal (hash land mask) in
  if old.hashes.(i) < 0 then add_by d.delta hash equal no_key make c
  else begin
    let c =
      if seen d i then c
      else begin
        mark d i;
        c - old.counts.(i)
      end
    in
    add_by d.delta hash equal old.keys.(i) make c
  end

let finish d =
  let old = d.old in
  for i = 0 to Array.length old.hashes - 1 do
    if old.hashes.(i) >= 0 && not (seen d i) then
      add d.delta old.keys.(i) (-old.counts.(i))
  done;
  d.delta

(* An empty slot's count is 0. *)
let count b tup =
  if b.size = 0 then 0
  else
    let h = Tuple.hash tup in
    let mask = Array.length b.hashes - 1 in
    b.counts.(slot b.hashes b.keys mask h tup (h land mask))

let mem b tup = count b tup <> 0
let is_empty b = b.size = 0
let cardinal b = b.size
let total b = b.total
let weight b = Array.fold_left (fun acc c -> acc + abs c) 0 b.counts
let has_negative b = Array.exists (fun c -> c < 0) b.counts

let iter f b =
  let hashes = b.hashes and keys = b.keys and counts = b.counts in
  for i = 0 to Array.length hashes - 1 do
    if Array.unsafe_get hashes i >= 0 then f keys.(i) counts.(i)
  done

let fold f b init =
  let hashes = b.hashes and keys = b.keys and counts = b.counts in
  let acc = ref init in
  for i = 0 to Array.length hashes - 1 do
    if Array.unsafe_get hashes i >= 0 then acc := f keys.(i) counts.(i) !acc
  done;
  !acc

(* Before a merge writes, read the home slot of each of [src]'s tuples
   in [into]: its hash, its count and the header of its tuple. The
   reads are independent of one another, so their cache misses overlap,
   and the merge that follows finds its slots in cache (group
   prefetching). [Sys.opaque_identity] keeps the reads. A table below
   [large] slots skips the pass: with its tuples it fits a 4 MiB L2
   cache, where an install finds its slots cached anyway, and the pass
   would only add a loop. 65,536 slots are 1.5 MiB of arrays, and a
   bag grows to them past 28,672 tuples of some 80 bytes each. *)
let large = 65_536

let touch into src =
  let hashes = into.hashes in
  let cap = Array.length hashes in
  if cap >= large then begin
    let keys = into.keys and counts = into.counts in
    let mask = cap - 1 and sum = ref 0 in
    let from = src.hashes in
    for j = 0 to Array.length from - 1 do
      let h = Array.unsafe_get from j in
      if h >= 0 then begin
        let i = h land mask in
        sum :=
          !sum + Array.unsafe_get hashes i + Array.unsafe_get counts i
          + Array.length (Array.unsafe_get keys i)
      end
    done;
    ignore (Sys.opaque_identity !sum)
  end

(* Each entry of [src] enters [into] with the hash [src] cached for it
   and [sign] times its count; [neg] tells whether some count left is
   negative. Merging a bag into itself reads a copy, which costs
   nothing until [into] first changes: self-merge doubles every count,
   self-diff empties the bag. *)
let merge ~into src sign =
  let src = if into == src then copy src else src in
  touch into src;
  let hashes = src.hashes and keys = src.keys and counts = src.counts in
  let neg = ref false in
  for i = 0 to Array.length hashes - 1 do
    let h = Array.unsafe_get hashes i in
    if h >= 0 && bump into h keys.(i) (sign * counts.(i)) < 0 then neg := true
  done;
  !neg

let merge_checked ~into src = merge ~into src 1
let merge_into ~into src = ignore (merge ~into src 1)
let diff_into ~into src = ignore (merge ~into src (-1))

let to_sorted_list b =
  let l = fold (fun tup c acc -> (tup, c) :: acc) b [] in
  List.sort (fun (a, _) (b, _) -> Tuple.compare a b) l

let of_list l =
  let b = create ~initial_size:(List.length l) () in
  List.iter (fun (tup, c) -> add b tup c) l;
  b

let equal a b =
  cardinal a = cardinal b && fold (fun tup c ok -> ok && count b tup = c) a true

let pp ppf b =
  Format.pp_print_char ppf '{';
  List.iteri
    (fun i (tup, c) ->
      if i > 0 then Format.pp_print_string ppf ", ";
      Format.fprintf ppf "%a[%d]" Tuple.pp tup c)
    (to_sorted_list b);
  Format.pp_print_char ppf '}'
