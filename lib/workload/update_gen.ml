open Repro_relational
open Repro_sim

type placement = Uniform | Zipf of float | Alternating of int * int

type config = {
  n_updates : int;
  mean_gap : float;
  p_insert : float;
  placement : placement;
  txn_size : int;
  domain : int;
  p_global : float;
  fixed_gap : bool;
}

let default =
  { n_updates = 100; mean_gap = 1.0; p_insert = 0.6; placement = Uniform;
    txn_size = 1; domain = 16; p_global = 0.; fixed_gap = false }

module Mirror = struct
  (* One source's live tuples (so deletes name live tuples) and its next
     fresh key. Tuples sit in slots in the order they joined the mirror:
     the initial tuples in descending sorted order, then every insert
     appended. A Fenwick tree over slot occupancy finds the r-th live
     slot and clears a slot in O(log n). When the slots run out the live
     ones are compacted, in order, into an array 1.5 times their count,
     so the amortized cost of an insert stays O(log n) and dead slots
     are freed. *)
  type t = {
    mutable slots : Tuple.t array;
    mutable tree : int array;
        (* 1-based: tree.(i) counts the live slots in (i - lowbit i, i] *)
    mutable used : int;  (* slots handed out since the last compaction *)
    mutable live : int;
    mutable next_key : int;
  }

  (* A mirror whose first [n] slots are live (the caller fills them);
     capacity at least 16. Free slots hold the empty tuple, a static
     atom: [Array.make] of a large array first promotes a young filler
     with a minor collection, and at set-up the relation's tuples are
     young until the first one. *)
  let create n ~next_key =
    let cap = max 16 (n + (n / 2)) in
    { slots = Array.make cap [||];
      tree = Array.init (cap + 1) (fun i -> max 0 (min i n - (i - (i land -i))));
      used = n; live = n; next_key }

  let of_relation rel =
    let sorted = Relation.to_sorted_list rel in
    let n = List.length sorted in
    let t = create n ~next_key:0 in
    List.iteri
      (fun i (tup, _) ->
        t.slots.(n - 1 - i) <- tup;
        match Tuple.get tup 0 with
        | Value.Int k -> t.next_key <- max t.next_key (k + 1)
        | _ -> ())
      sorted;
    t

  let live t = t.live

  let add t i d =
    let cap = Array.length t.slots in
    let i = ref (i + 1) in
    while !i <= cap do
      t.tree.(!i) <- t.tree.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* The slot holding the [r]-th live tuple (0-based, append order). *)
  let select t r =
    let cap = Array.length t.slots in
    let step = ref 1 in
    while 2 * !step <= cap do step := 2 * !step done;
    let pos = ref 0 and rem = ref r in
    while !step > 0 do
      let next = !pos + !step in
      if next <= cap && t.tree.(next) <= !rem then begin
        pos := next;
        rem := !rem - t.tree.(next)
      end;
      step := !step / 2
    done;
    !pos

  let compact t =
    let c = create t.live ~next_key:t.next_key in
    for r = 0 to t.live - 1 do
      c.slots.(r) <- t.slots.(select t r)
    done;
    t.slots <- c.slots;
    t.tree <- c.tree;
    t.used <- c.used

  let append t tup =
    if t.used = Array.length t.slots then compact t;
    t.slots.(t.used) <- tup;
    add t t.used 1;
    t.used <- t.used + 1;
    t.live <- t.live + 1

  let remove t i =
    add t i (-1);
    t.live <- t.live - 1

  (* The stream is the one the former newest-first list mirror produced:
     that list is exactly the live slots read backwards, so its [r]-th
     element is live slot [live - 1 - r]. The Rng calls, and their
     order, are unchanged. *)
  let gen rng cfg t =
    let insert () =
      let tup =
        Chain.tuple ~key:t.next_key ~a:(Rng.int rng cfg.domain)
          ~b:(Rng.int rng cfg.domain)
      in
      t.next_key <- t.next_key + 1;
      append t tup;
      Delta.insertion tup
    in
    if t.live = 0 || Rng.bool rng cfg.p_insert then insert ()
    else begin
      let slot = select t (t.live - 1 - Rng.int rng t.live) in
      let victim = t.slots.(slot) in
      remove t slot;
      Delta.deletion victim
    end
end

type 'm mirror = {
  of_relation : Relation.t -> 'm;
  gen : Rng.t -> config -> 'm -> Delta.t;
}

let drive_with mirror engine rng cfg ~view ~initial ~apply
    ?(on_done = fun () -> ()) () =
  let n = View_def.n_sources view in
  let mirrors = Array.map mirror.of_relation initial in
  let flip = ref false in
  let pick_source () =
    match cfg.placement with
    | Uniform -> Rng.int rng n
    | Zipf theta -> Rng.zipf rng ~n ~theta
    | Alternating (a, b) ->
        flip := not !flip;
        if !flip then a else b
  in
  let next_gid = ref 0 in
  let rec emit remaining =
    if remaining = 0 then on_done ()
    else begin
      (if n >= 2 && Rng.bool rng cfg.p_global then begin
         (* type-3 transaction: one part at each of two distinct sources,
            applied at the same instant *)
         let s1 = pick_source () in
         let s2 =
           let rec other () =
             let s = Rng.int rng n in
             if s = s1 then other () else s
           in
           other ()
         in
         let gid = !next_gid in
         incr next_gid;
         apply ~source:s1 ~global:(Some (gid, 2))
           (mirror.gen rng cfg mirrors.(s1));
         apply ~source:s2 ~global:(Some (gid, 2))
           (mirror.gen rng cfg mirrors.(s2))
       end
       else begin
         let source = pick_source () in
         let parts =
           List.init cfg.txn_size (fun _ -> mirror.gen rng cfg mirrors.(source))
         in
         apply ~source ~global:None (Delta.sum parts)
       end);
      Engine.schedule engine ~delay:(gap ())
        (fun () -> emit (remaining - 1))
    end
  and gap () =
    if cfg.fixed_gap then cfg.mean_gap
    else Rng.exponential rng ~mean:cfg.mean_gap
  in
  Engine.schedule engine ~delay:(gap ()) (fun () -> emit cfg.n_updates)

let drive engine rng cfg ~view ~initial ~apply ?on_done () =
  drive_with { of_relation = Mirror.of_relation; gen = Mirror.gen }
    engine rng cfg ~view ~initial ~apply ?on_done ()
