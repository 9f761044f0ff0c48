(** Periodic snapshots of the whole recoverable warehouse state.

    A checkpoint bounds the WAL tail that has to be replayed after a
    crash. It captures, at a consistent point (between message
    deliveries):

    - the materialized view contents, as a {!Canon.t} image whose
      encoding is byte-identical to [Codec.put_bag] of the view;
    - the pending-update queue, with original arrival numbers and
      timestamps (algorithms compare arrival numbers, and staleness is
      measured from the original arrival time);
    - the query-id counter and the algorithm's resumable state as a
      {!Snap} tree;
    - transport state: each warehouse-side receiver's next expected
      sequence number and each warehouse-side sender's [next_seq] /
      cumulative-ack / unacknowledged window. Restoring the sender
      counter makes replay regenerate in-flight queries with their
      {e original} sequence numbers, so the sources' receivers suppress
      them as duplicates — exactly-once even though recovery resends;
    - the aux-store projections, one {!Canon.t} image per source;
    - the WAL position [wal_pos] the checkpoint covers: recovery replays
      only records [wal_pos..].

    The store keeps every checkpoint encoded, as its {!pieces}, and
    recovery decodes it, so serializability is exercised on every run
    that crashes. *)

(** One warehouse→source transport sender, frozen. *)
type sender_state = {
  next_seq : int;
  acked_upto : int;
  window : (int * Repro_protocol.Message.to_source) list;
      (** unacked (seq, payload), oldest first *)
}

type queued = {
  update : Repro_protocol.Message.update;
  arrival : int;
  arrived_at : float;
}

type t = {
  taken_at : float;  (** sim time the checkpoint was taken *)
  wal_pos : int;  (** WAL records covered by this checkpoint *)
  view : Canon.t;
      (** the view; a capture may pass the live image, since the store
          encodes a checkpoint as soon as it is captured *)
  queue : queued list;
  queue_next_arrival : int;
  next_qid : int;
  algo : Snap.t;
  recv_expected : int array;  (** per up-link receiver state *)
  senders : sender_state array;  (** per down-link sender state *)
  breaker : Snap.t;
      (** per-source circuit-breaker state ([Snap.Unit] when the run has
          no breaker) *)
  aux : Canon.t list option;
      (** self-maintenance aux-store projections, one image per source
          ([None] when the run has no aux store); encoded as the
          [Snap.Unit] or [Snap.List] of [Snap.Delta] they stand for, and
          passed live like [view] *)
}

(** The encoding as byte pieces, in order. The images' pieces are their
    cached page strings ({!Canon.pieces}), so pages unchanged since the
    previous checkpoint are shared with it rather than copied. *)
val pieces : t -> string list

(** [String.concat ""] of {!pieces}. *)
val encode : t -> string

(** Raises {!Codec.Corrupt} on malformed bytes, including a view listing
    whose tuples are not strictly ascending. *)
val decode : string -> t
