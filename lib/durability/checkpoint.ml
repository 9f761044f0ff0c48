open Repro_protocol

type sender_state = {
  next_seq : int;
  acked_upto : int;
  window : (int * Message.to_source) list;
}

type queued = { update : Message.update; arrival : int; arrived_at : float }

type t = {
  taken_at : float;
  wal_pos : int;
  view : Canon.t;
  queue : queued list;
  queue_next_arrival : int;
  next_qid : int;
  algo : Snap.t;
  recv_expected : int array;
  senders : sender_state array;
  breaker : Snap.t;  (* circuit-breaker state; Snap.Unit when none *)
  aux : Canon.t list option;  (* aux-store projections; None when off *)
}

let put_sender b s =
  Codec.put_int b s.next_seq;
  Codec.put_int b s.acked_upto;
  Codec.put_list b
    (fun b (seq, payload) ->
      Codec.put_int b seq;
      Codec.put_to_source b payload)
    s.window

let get_sender r =
  let next_seq = Codec.get_int r in
  let acked_upto = Codec.get_int r in
  let window =
    Codec.get_list r (fun r ->
        let seq = Codec.get_int r in
        let payload = Codec.get_to_source r in
        (seq, payload))
  in
  { next_seq; acked_upto; window }

let put_queued b q =
  Codec.put_update b q.update;
  Codec.put_int b q.arrival;
  Codec.put_float b q.arrived_at

let get_queued r =
  let update = Codec.get_update r in
  let arrival = Codec.get_int r in
  let arrived_at = Codec.get_float r in
  { update; arrival; arrived_at }

let put_head b t =
  Codec.put_float b t.taken_at;
  Codec.put_int b t.wal_pos

let put_rest b t =
  Codec.put_list b put_queued t.queue;
  Codec.put_int b t.queue_next_arrival;
  Codec.put_int b t.next_qid;
  Snap.put b t.algo;
  Codec.put_list b (fun b i -> Codec.put_int b i) (Array.to_list t.recv_expected);
  Codec.put_list b put_sender (Array.to_list t.senders);
  Snap.put b t.breaker

let get r =
  let taken_at = Codec.get_float r in
  let wal_pos = Codec.get_int r in
  let view = Canon.get r in
  let queue = Codec.get_list r get_queued in
  let queue_next_arrival = Codec.get_int r in
  let next_qid = Codec.get_int r in
  let algo = Snap.get r in
  let recv_expected = Array.of_list (Codec.get_list r Codec.get_int) in
  let senders = Array.of_list (Codec.get_list r get_sender) in
  let breaker = Snap.get r in
  let aux = Snap.get_image_list r in
  { taken_at; wal_pos; view; queue; queue_next_arrival; next_qid; algo;
    recv_expected; senders; breaker; aux }

(* Bytes in [get]'s order: [put_head], the view, [put_rest], the aux
   projections. Nearly all of it is the images' cached page strings,
   passed along as they are. *)
let pieces t =
  List.concat
    [ [ Codec.encode put_head t ];
      Canon.pieces t.view;
      [ Codec.encode put_rest t ];
      Snap.image_list_pieces t.aux ]

let encode t = String.concat "" (pieces t)
let decode = Codec.decode get
