open Repro_relational
open Repro_protocol

type entry = { update : Message.update; arrival : int; arrived_at : float }

(* Entries are kept oldest-first in a two-list deque: [front] holds the
   oldest entries in order, [rear] the newest in reverse. Appends and pops
   are O(1) amortized and the length is cached, so neither the hot append
   path nor the capacity check walks the queue. Mid-queue removal (which
   algorithms need for absorption) rebuilds both lists — it was O(n)
   before and stays O(n).

   Beside it, [by_source.(j)] is a lane: a deque of the same shape
   holding exactly the entries from source [j], in queue order, and
   their count. [append], [pop] and [push_front] keep it in step in
   O(1); the O(n) removals rebuild it. So the interference lookup
   [from_source j] costs O(|L_j|), not O(queue).

   A lane also keeps, once [interference] has asked for it, the running
   sum of its entries' deltas: [append] and [push_front] add the entry's
   delta, [pop] and the O(n) removals subtract each delta that leaves.
   Bag addition commutes and a count that reaches zero leaves the bag,
   so the running sum equals [Delta.sum] of the lane's deltas as a bag.
   Built with the sum, on the same request, come the sum's join indexes,
   one per junction of source [j] in the view ([Algebra.indexes]); every
   delta that moves the sum moves them too, so each equals a fresh build
   over the sum.
   All of it is derived state, never checkpointed: a queue rebuilt from
   entries builds it again on the first request. *)
type deque = { mutable front : entry list; mutable rear : entry list }

type lane = {
  q : deque;
  mutable count : int;
  mutable running : (Delta.t * Algebra.indexes) option;
}

type interference = { count : int; sum : Delta.t; index : Algebra.indexes }

type t = {
  all : deque;
  mutable by_source : lane array;
  mutable len : int;
  mutable next_arrival : int;
  capacity : int option;
  view : View_def.t;
}

let create ?capacity ~view () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Update_queue.create: capacity <= 0"
  | _ -> ());
  { all = { front = []; rear = [] }; by_source = [||]; len = 0;
    next_arrival = 0; capacity; view }

let capacity t = t.capacity

let source_of e = e.update.Message.txn.source
let delta_of e = e.update.Message.delta

let normalize d =
  if d.front = [] then begin
    d.front <- List.rev d.rear;
    d.rear <- []
  end

let to_list d = d.front @ List.rev d.rear

let new_lane () =
  { q = { front = []; rear = [] }; count = 0; running = None }

(* [d] moves the lane's sum and indexes by [sign]. *)
let lane_move (l : lane) sign d =
  match l.running with
  | None -> ()
  | Some (sum, index) ->
      if sign > 0 then Bag.merge_into ~into:sum d
      else Bag.diff_into ~into:sum d;
      Delta.iter (fun tup c -> Algebra.add_all index tup (sign * c)) d

(* The lane of source [j], growing the index on first sight. *)
let lane t j =
  let have = Array.length t.by_source in
  if j >= have then
    t.by_source <-
      Array.init (max (j + 1) (2 * have)) (fun i ->
          if i < have then t.by_source.(i) else new_lane ());
  t.by_source.(j)

(* [e] joins the front ([`Front]) or rear of its lane's deque. *)
let lane_enqueue t e side =
  let l = lane t (source_of e) in
  (match side with
  | `Front -> l.q.front <- e :: l.q.front
  | `Rear -> l.q.rear <- e :: l.q.rear);
  l.count <- l.count + 1;
  l

let lane_push t e side = lane_move (lane_enqueue t e side) 1 (delta_of e)

(* Make [kept] (oldest first) the whole queue once [taken] has left it:
   the lanes' deques are refilled from [kept], and their sums and
   indexes lose the taken deltas. *)
let reset t kept ~taken =
  t.all.front <- kept;
  t.all.rear <- [];
  t.len <- List.length kept;
  Array.iter
    (fun l ->
      l.q.front <- [];
      l.q.rear <- [];
      l.count <- 0)
    t.by_source;
  List.iter (fun e -> ignore (lane_enqueue t e `Rear : lane)) kept;
  List.iter (fun e -> lane_move (lane t (source_of e)) (-1) (delta_of e)) taken

let append t update ~arrived_at =
  (match t.capacity with
  | Some c when t.len >= c ->
      (* Admission control lives above the queue (the harness defers or
         sheds before delivery); reaching this point is a wiring bug. *)
      invalid_arg "Update_queue.append: over capacity"
  | _ -> ());
  let entry = { update; arrival = t.next_arrival; arrived_at } in
  t.next_arrival <- t.next_arrival + 1;
  t.all.rear <- entry :: t.all.rear;
  lane_push t entry `Rear;
  t.len <- t.len + 1;
  entry

(* Crash recovery: rebuild a queue from checkpointed entries, preserving
   their original arrival numbers and the next number to assign. *)
let of_entries ?capacity ~view entries ~next_arrival =
  let t = create ?capacity ~view () in
  reset t entries ~taken:[];
  t.next_arrival <- next_arrival;
  t

(* The oldest entry of a source is the oldest of its deque, so a pop
   takes the head of both. *)
let pop t =
  normalize t.all;
  match t.all.front with
  | [] -> None
  | e :: rest ->
      t.all.front <- rest;
      let l = t.by_source.(source_of e) in
      normalize l.q;
      l.q.front <- List.tl l.q.front;
      l.count <- l.count - 1;
      lane_move l (-1) (delta_of e);
      t.len <- t.len - 1;
      Some e

(* Degraded-mode abort path: return an entry to the head so the next
   [pop] re-yields it (its arrival number is unchanged). *)
let push_front t e =
  (match t.capacity with
  | Some c when t.len >= c -> invalid_arg "Update_queue.push_front: over capacity"
  | _ -> ());
  t.all.front <- e :: t.all.front;
  lane_push t e `Front;
  t.len <- t.len + 1

let peek t =
  normalize t.all;
  match t.all.front with [] -> None | e :: _ -> Some e

let is_empty t = t.len = 0
let length t = t.len
let entries t = to_list t.all

let take t ~max =
  if max < 0 then invalid_arg "Update_queue.take: max < 0";
  let rec go k acc =
    if k = 0 then List.rev acc
    else match pop t with None -> List.rev acc | Some e -> go (k - 1) (e :: acc)
  in
  go max []

(* Up to [max] eligible entries in arrival order, skipping (and
   preserving) ineligible ones. *)
let take_eligible t ~max ~eligible =
  if max < 0 then invalid_arg "Update_queue.take_eligible: max < 0";
  let rec go k taken kept = function
    | [] -> (List.rev taken, List.rev kept)
    | e :: rest ->
        if k > 0 && eligible e then go (k - 1) (e :: taken) kept rest
        else go k taken (e :: kept) rest
  in
  let taken, kept = go max [] [] (entries t) in
  reset t kept ~taken;
  taken

(* Folds the per-source rear into the front in place, so repeated
   lookups between appends return the same list without allocating. *)
let from_source t j =
  if j < 0 || j >= Array.length t.by_source then []
  else begin
    let d = t.by_source.(j).q in
    if d.rear <> [] then begin
      d.front <- to_list d;
      d.rear <- []
    end;
    d.front
  end

let interference t j =
  let l = lane t j in
  let sum, index =
    match l.running with
    | Some running -> running
    | None ->
        let sum = Delta.sum (List.map delta_of (from_source t j)) in
        let running = (sum, Algebra.indexes t.view j sum) in
        l.running <- Some running;
        running
  in
  { count = l.count; sum; index }

let take_from_source t j =
  let mine = from_source t j in
  reset t (List.filter (fun e -> source_of e <> j) (entries t)) ~taken:mine;
  mine

let last_arrival t = t.next_arrival - 1
