open Repro_relational

(* A checkpoint re-encodes every page dirtied since the previous one.
   The few tuples an interval's installs change scatter over the key
   space, one page each, so the bytes re-encoded per checkpoint grow
   with the page size, while the per-page costs (a fence, a list cell,
   a cached string) shrink with it. 32 halves the re-encoding of 64 and
   keeps a page's overhead small next to its entries. *)
let page_size = 32

(* Entries [0, len) of [keys]/[counts] are live and strictly ascending. *)
type page = {
  keys : Tuple.t array;
  counts : int array;
  mutable len : int;
  mutable bytes : string option;  (* cached encoding; None when dirty *)
}

(* Pages by fence: the page under fence [f] holds the entries in
   [f, next fence). The lowest fence is the arity-0 tuple, which no tuple
   compares below, so every tuple falls in some page. *)
module Fences = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type t = {
  mutable pages : page Fences.t;
  mutable cardinal : int;
  scratch : Buffer.t;  (* page re-encoding *)
}

let bottom () : Tuple.t = [||]

let new_page () =
  { keys = Array.make page_size (bottom ()); counts = Array.make page_size 0;
    len = 0; bytes = None }

let create () =
  { pages = Fences.singleton (bottom ()) (new_page ()); cardinal = 0;
    scratch = Buffer.create 4096 }

(* Index of the first live key >= [tup]. *)
let search p tup =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Tuple.compare p.keys.(mid) tup < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 p.len

let insert_at p i tup n =
  Array.blit p.keys i p.keys (i + 1) (p.len - i);
  Array.blit p.counts i p.counts (i + 1) (p.len - i);
  p.keys.(i) <- tup;
  p.counts.(i) <- n;
  p.len <- p.len + 1;
  p.bytes <- None

let remove_at p i =
  Array.blit p.keys (i + 1) p.keys i (p.len - i - 1);
  Array.blit p.counts (i + 1) p.counts i (p.len - i - 1);
  p.len <- p.len - 1;
  p.keys.(p.len) <- bottom ();
  p.bytes <- None

(* Moves the upper half of a full page to a new page fenced by its first
   key, and returns the new page. *)
let split t p =
  let half = page_size / 2 in
  let q = new_page () in
  Array.blit p.keys half q.keys 0 half;
  Array.blit p.counts half q.counts 0 half;
  Array.fill p.keys half half (bottom ());
  p.len <- half;
  q.len <- half;
  p.bytes <- None;
  t.pages <- Fences.add q.keys.(0) q t.pages;
  q

(* An emptied page leaves and its range joins the page below. When the
   bottom page empties, the next page takes over the bottom fence; the
   last page stays, empty. *)
let drop t fence =
  let rest = Fences.remove fence t.pages in
  if Tuple.compare fence (bottom ()) <> 0 then t.pages <- rest
  else
    match Fences.min_binding_opt rest with
    | None -> ()
    | Some (f, p) -> t.pages <- Fences.add (bottom ()) p (Fences.remove f rest)

let add t tup n =
  if n <> 0 then begin
    let fence, p =
      Fences.find_last (fun f -> Tuple.compare f tup <= 0) t.pages
    in
    let i = search p tup in
    if i < p.len && Tuple.compare p.keys.(i) tup = 0 then begin
      let c = p.counts.(i) + n in
      if c <> 0 then begin
        p.counts.(i) <- c;
        p.bytes <- None
      end
      else begin
        remove_at p i;
        t.cardinal <- t.cardinal - 1;
        if p.len = 0 then drop t fence
      end
    end
    else begin
      t.cardinal <- t.cardinal + 1;
      if p.len < page_size then insert_at p i tup n
      else
        let q = split t p in
        if i <= page_size / 2 then insert_at p i tup n
        else insert_at q (i - (page_size / 2)) tup n
    end
  end

let page_bytes t p =
  match p.bytes with
  | Some s -> s
  | None ->
      Buffer.clear t.scratch;
      for i = 0 to p.len - 1 do
        Codec.put_counted t.scratch (p.keys.(i), p.counts.(i))
      done;
      let s = Buffer.contents t.scratch in
      p.bytes <- Some s;
      s

(* The cardinal, then every page's bytes, in key order. *)
let pieces t =
  Codec.encode Codec.put_int t.cardinal
  :: List.rev (Fences.fold (fun _ p acc -> page_bytes t p :: acc) t.pages [])

let to_sorted_list t =
  List.rev
    (Fences.fold
       (fun _ p acc ->
         let acc = ref acc in
         for i = 0 to p.len - 1 do
           acc := (p.keys.(i), p.counts.(i)) :: !acc
         done;
         !acc)
       t.pages [])

let to_bag t = Bag.of_list (to_sorted_list t)

(* Pages are filled half full, so the first adds after a build or a
   decode split nothing. *)
let of_sorted entries =
  let t = create () in
  let cur = ref (snd (Fences.min_binding t.pages)) in
  let prev = ref None in
  List.iter
    (fun (tup, c) ->
      (match !prev with
      | Some p when Tuple.compare p tup >= 0 ->
          raise (Codec.Corrupt "bag listing not strictly ascending")
      | _ -> ());
      if c = 0 then raise (Codec.Corrupt "zero count in bag listing");
      prev := Some tup;
      if !cur.len >= page_size / 2 then begin
        let q = new_page () in
        t.pages <- Fences.add tup q t.pages;
        cur := q
      end;
      let p = !cur in
      p.keys.(p.len) <- tup;
      p.counts.(p.len) <- c;
      p.len <- p.len + 1;
      t.cardinal <- t.cardinal + 1)
    entries;
  t

let of_bag b = of_sorted (Bag.to_sorted_list b)
let get r = of_sorted (Codec.get_list r Codec.get_counted)
