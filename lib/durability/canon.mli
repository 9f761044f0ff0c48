(** A bag kept in canonical order with its checkpoint encoding cached.

    A checkpoint writes the warehouse view as {!Codec.put_bag} does: the
    number of distinct tuples, then every [(tuple, count)] entry in
    [Tuple.compare] order. Producing that from a hash-table {!Bag.t}
    means sorting and re-encoding the whole view at every checkpoint.
    An image instead holds the same entries already sorted, split into
    pages of at most 32 entries, and caches each page's encoded bytes.
    {!add} dirties one page; {!pieces} re-encodes only dirty pages and
    hands out the cached strings of the rest, so a checkpoint costs what
    changed since the last one, and consecutive checkpoints share the
    bytes of every page neither touched. Because a page's bytes are the
    concatenation of its entries' encodings, in order, the image encodes
    byte-identically to [Codec.put_bag] of a bag with the same
    contents. *)

open Repro_relational

type t

(** An empty image. *)
val create : unit -> t

(** The image of a bag (one sort). *)
val of_bag : Bag.t -> t

(** A fresh bag with the same contents, built as [Bag.of_list] of the
    sorted entries — the bag [Codec.get_bag] decodes from the
    concatenated {!pieces}. *)
val to_bag : t -> Bag.t

(** [add t tup n] adds [n] (possibly negative) to the multiplicity of
    [tup], exactly like {!Bag.add}: adding zero is a no-op and an entry
    whose count reaches zero is removed. O(log n + page size). *)
val add : t -> Tuple.t -> int -> unit

(** The encoding as byte pieces, in order: the number of distinct
    tuples ([Codec.put_int]), then each page's entries'
    {!Codec.put_counted} bytes. Concatenated, they are the bytes of
    [Codec.put_bag] on an equal bag. A page unchanged since the previous
    call yields the same immutable string again, so pieces kept from an
    earlier call stay valid and share storage with later ones.
    O(dirty pages' entries + pages). *)
val pieces : t -> string list

(** Reads a [Codec.put_bag] listing in O(n), without sorting. Raises
    {!Codec.Corrupt} unless the tuples are strictly ascending and every
    count is non-zero — the only listings {!pieces} can produce. *)
val get : Codec.reader -> t
