(** A bag kept in canonical order with its checkpoint encoding cached.

    A checkpoint writes the warehouse view as {!Codec.put_bag} does: the
    number of distinct tuples, then every [(tuple, count)] entry in
    [Tuple.compare] order. Producing that from a hash-table {!Bag.t}
    means sorting and re-encoding the whole view at every checkpoint.
    An image instead holds the same entries already sorted, split into
    pages of at most 64 entries, and caches each page's encoded bytes.
    {!add} dirties one page; {!blit} re-encodes only dirty pages and
    copies the rest, so a checkpoint costs what changed since the last
    one. Because a page's bytes are the concatenation of its entries'
    encodings, in order, the image encodes byte-identically to
    [Codec.put_bag] of a bag with the same contents. *)

open Repro_relational

type t

(** An empty image. *)
val create : unit -> t

(** The image of a bag (one sort). *)
val of_bag : Bag.t -> t

(** A fresh bag with the same contents, built as [Bag.of_list] of the
    sorted entries — the bag [Codec.get_bag] decodes from {!blit}'s
    bytes. *)
val to_bag : t -> Bag.t

(** [add t tup n] adds [n] (possibly negative) to the multiplicity of
    [tup], exactly like {!Bag.add}: adding zero is a no-op and an entry
    whose count reaches zero is removed. O(log n + page size). *)
val add : t -> Tuple.t -> int -> unit

(** Byte length of the image's encoding. *)
val encoded_length : t -> int

(** [blit t dst off] writes the encoding into [dst] at [off]: the number
    of distinct tuples ([Codec.put_int]), then every entry's
    {!Codec.put_counted} bytes in order — the bytes of [Codec.put_bag] on
    an equal bag. *)
val blit : t -> Bytes.t -> int -> unit

(** Reads a [Codec.put_bag] listing in O(n), without sorting. Raises
    {!Codec.Corrupt} unless the tuples are strictly ascending and every
    count is non-zero — the only listings {!blit} can produce. *)
val get : Codec.reader -> t
