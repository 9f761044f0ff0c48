open Repro_relational
open Repro_protocol

type record =
  | Update_received of { update : Message.update; arrived_at : float }
  | Answer_received of { link : int; msg : Message.to_warehouse }
  | Installed of { delta : Delta.t; txns : Message.txn_id list }

let put_record b = function
  | Update_received { update; arrived_at } ->
      Codec.put_tag b 0;
      Codec.put_update b update;
      Codec.put_float b arrived_at
  | Answer_received { link; msg } ->
      Codec.put_tag b 1;
      Codec.put_int b link;
      Codec.put_to_warehouse b msg
  | Installed { delta; txns } ->
      Codec.put_tag b 2;
      Codec.put_delta b delta;
      Codec.put_list b Codec.put_txn_id txns

let get_record r =
  match Codec.get_tag r with
  | 0 ->
      let update = Codec.get_update r in
      let arrived_at = Codec.get_float r in
      Update_received { update; arrived_at }
  | 1 ->
      let link = Codec.get_int r in
      let msg = Codec.get_to_warehouse r in
      Answer_received { link; msg }
  | 2 ->
      let delta = Codec.get_delta r in
      let txns = Codec.get_list r Codec.get_txn_id in
      Installed { delta; txns }
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad wal tag %d" t))

let encode_record = Codec.encode put_record
let decode_record = Codec.decode get_record

(* The in-simulation log device: an append-only sequence of encoded
   records. Records are serialized on append — the log never aliases live
   algorithm state, exactly like bytes on stable storage. Records below
   [base] have been truncated away; [count] and [total_bytes] still count
   them. *)
type t = {
  mutable rev_records : string list;  (* records [base, count), newest first *)
  mutable base : int;
  mutable count : int;
  mutable total_bytes : int;
  mutable live_bytes : int;
  mutable live_bytes_max : int;
}

let create () =
  { rev_records = []; base = 0; count = 0; total_bytes = 0; live_bytes = 0;
    live_bytes_max = 0 }

let append t record =
  let s = encode_record record in
  t.rev_records <- s :: t.rev_records;
  t.count <- t.count + 1;
  t.total_bytes <- t.total_bytes + String.length s;
  t.live_bytes <- t.live_bytes + String.length s;
  t.live_bytes_max <- max t.live_bytes_max t.live_bytes

let length t = t.count
let bytes t = t.total_bytes
let live_bytes_max t = t.live_bytes_max

let check_pos fn t pos =
  if pos < t.base || pos > t.count then
    invalid_arg
      (Printf.sprintf "Wal.%s: position %d outside [%d, %d]" fn pos t.base
         t.count)

let truncate t pos =
  check_pos "truncate" t pos;
  t.rev_records <- List.filteri (fun i _ -> i < t.count - pos) t.rev_records;
  t.base <- pos;
  t.live_bytes <-
    List.fold_left (fun n s -> n + String.length s) 0 t.rev_records

let records_from t pos =
  check_pos "records_from" t pos;
  let rec take k acc rest =
    if k = 0 then acc
    else
      match rest with
      | [] -> assert false
      | s :: rest -> take (k - 1) (decode_record s :: acc) rest
  in
  take (t.count - pos) [] t.rev_records

(* Which incoming link a record was delivered on ([None] for installs,
   which are local). Recovery counts these per link to advance each
   receiver's expected sequence number past the replayed records. *)
let link_of = function
  | Update_received { update; _ } -> Some update.Message.txn.Message.source
  | Answer_received { link; _ } -> Some link
  | Installed _ -> None
