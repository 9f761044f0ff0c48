type t = {
  wal : Wal.t;
  checkpoint_every : int;
  mutable capture : (unit -> Checkpoint.t) option;
  mutable latest : (string list * int) option;  (* pieces, and their wal_pos *)
  mutable records_since : int;
  mutable checkpoints : int;
  mutable checkpoint_bytes : int;
}

let create ?(checkpoint_every = 8) () =
  if checkpoint_every < 0 then invalid_arg "Store.create: checkpoint_every < 0";
  { wal = Wal.create (); checkpoint_every; capture = None; latest = None;
    records_since = 0; checkpoints = 0; checkpoint_bytes = 0 }

let set_capture t f = t.capture <- Some f
let wal_length t = Wal.length t.wal
let wal_bytes t = Wal.bytes t.wal
let wal_live_bytes_max t = Wal.live_bytes_max t.wal
let checkpoints t = t.checkpoints
let checkpoint_bytes t = t.checkpoint_bytes

let log t record =
  Wal.append t.wal record;
  t.records_since <- t.records_since + 1

let checkpoint_now t =
  match t.capture with
  | None -> invalid_arg "Store.checkpoint_now: no capture function set"
  | Some capture ->
      (* encode immediately: the stored bytes are the durable artifact,
         and decoding them (rather than keeping the live record) is what
         recovery does. The pieces are immutable strings, most of them
         page bytes shared with the previous checkpoint. *)
      let c = capture () in
      let pieces = Checkpoint.pieces c in
      t.latest <- Some (pieces, c.Checkpoint.wal_pos);
      Wal.truncate t.wal c.Checkpoint.wal_pos;
      t.checkpoints <- t.checkpoints + 1;
      t.checkpoint_bytes <-
        List.fold_left (fun n s -> n + String.length s) t.checkpoint_bytes
          pieces;
      t.records_since <- 0

let maybe_checkpoint t =
  if
    t.checkpoint_every > 0
    && t.records_since >= t.checkpoint_every
    && Option.is_some t.capture
  then checkpoint_now t

let latest_checkpoint t =
  Option.map
    (fun (pieces, _) -> Checkpoint.decode (String.concat "" pieces))
    t.latest

let tail t =
  let from = match t.latest with Some (_, wal_pos) -> wal_pos | None -> 0 in
  Wal.records_from t.wal from
