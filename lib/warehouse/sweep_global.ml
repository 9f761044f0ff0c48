open Repro_relational
open Repro_protocol

(* Per-instance ledger: which global transactions are still missing parts,
   and the install buffer held back while any is open. *)
type ledger = {
  open_txns : (int, int) Hashtbl.t;
  mutable buffered : Delta.t;
  (* newest first; reversed into delivery order at flush and snapshot *)
  mutable rev_buffered_entries : Update_queue.entry list;
}

include Sweep_batched.Make (struct
  let name = "sweep-global"
  let batch_max = 1
  let compensate = true

  (* Finished batches are buffered (not installed) while a global
     transaction is open; their deltas would be visible to neither the
     aux projections nor the queue scan, so local answers are unsound
     here (see POLICY.local_answers). *)
  let local_answers = false

  type extra = ledger

  let create_extra _ =
    { open_txns = Hashtbl.create 8; buffered = Delta.empty ();
      rev_buffered_entries = [] }

  (* Account one processed update against its global transaction, if
     any. *)
  let note_part ledger (entry : Update_queue.entry) =
    match entry.update.Message.global with
    | None -> ()
    | Some { Message.gid; parts } ->
        let remaining =
          match Hashtbl.find_opt ledger.open_txns gid with
          | None -> parts - 1
          | Some r -> r - 1
        in
        if remaining = 0 then Hashtbl.remove ledger.open_txns gid
        else Hashtbl.replace ledger.open_txns gid remaining

  (* Buffer installs while any transaction is open; flush at boundaries
     so no view state exposes a partial transaction. *)
  let install ctx ledger view_delta entries =
    List.iter (note_part ledger) entries;
    Bag.merge_into ~into:ledger.buffered view_delta;
    ledger.rev_buffered_entries <-
      List.rev_append entries ledger.rev_buffered_entries;
    if Hashtbl.length ledger.open_txns = 0 then begin
      let delta = ledger.buffered in
      let entries = List.rev ledger.rev_buffered_entries in
      ledger.buffered <- Delta.empty ();
      ledger.rev_buffered_entries <- [];
      ctx.Algorithm.install delta ~txns:entries
    end

  let extra_idle ledger =
    Hashtbl.length ledger.open_txns = 0 && ledger.rev_buffered_entries = []

  module Snap = Repro_durability.Snap

  (* Canonical dump: open transactions sorted by gid. *)
  let extra_snapshot { open_txns; buffered; rev_buffered_entries } =
    let open_txns =
      Hashtbl.fold (fun gid r acc -> (gid, r) :: acc) open_txns []
      |> List.sort compare
      |> List.map (fun (gid, r) -> Snap.ints [ gid; r ])
    in
    Snap.List
      [ Snap.List open_txns; Snap.Delta (Delta.copy buffered);
        Snap.List (List.rev_map Algorithm.snap_of_entry rev_buffered_entries) ]

  let extra_restore _ s =
    match Snap.to_list s with
    | [ open_txns; buffered; entries ] ->
        let ledger =
          { open_txns = Hashtbl.create 8; buffered = Snap.to_delta buffered;
            rev_buffered_entries =
              List.rev_map Algorithm.entry_of_snap (Snap.to_list entries) }
        in
        List.iter
          (fun pair ->
            match Snap.to_ints pair with
            | [ gid; r ] -> Hashtbl.replace ledger.open_txns gid r
            | _ -> invalid_arg "sweep-global: malformed ledger snapshot")
          (Snap.to_list open_txns);
        ledger
    | _ -> invalid_arg "sweep-global: malformed snapshot"
end)
