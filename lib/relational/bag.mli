(** Counted multisets of tuples.

    This is the shared representation behind {!Relation} (counts kept
    strictly positive) and {!Delta} (signed counts). The paper maintains
    tuple multiplicities with a count control field (GMS93 counting
    semantics, §2), which is what makes SWEEP correct without the
    unique-key assumption the Strobe family needs.

    A bag never stores a zero count: inserting an opposite count removes
    the entry. Tuples hash and compare with {!Tuple.hash} and
    {!Tuple.equal}, not the polymorphic runtime; iteration order is
    unspecified. *)

type t

(** [create ~initial_size ()] holds [initial_size] tuples (default 14)
    before it first grows. *)
val create : ?initial_size:int -> unit -> t

(** [copy b] costs O(1): the two bags share their entries until either
    is first mutated, which then copies them. *)
val copy : t -> t

(** [shares a b] holds when [a] and [b] hold the same entries, which
    only {!copy} brings about. Neither has changed since, as a bag that
    changes first copies the entries it shares, so [equal a b]: an O(1)
    test that a copy still matches its bag. It is false for equal bags
    built apart, or once either side changes. *)
val shares : t -> t -> bool

(** [add b tup n] adds [n] (possibly negative) to the multiplicity of
    [tup]. Adding zero is a no-op. *)
val add : t -> Tuple.t -> int -> unit

(** [count b tup] is the multiplicity of [tup] (0 when absent). *)
val count : t -> Tuple.t -> int

val mem : t -> Tuple.t -> bool
val is_empty : t -> bool

(** Number of distinct tuples. *)
val cardinal : t -> int

(** Sum of multiplicities (signed). O(1): the bag keeps it beside its
    entries, and every mutation updates it. *)
val total : t -> int

(** Sum of absolute multiplicities — the "size" of a bag when used as a
    message payload. *)
val weight : t -> int

(** [has_negative b] holds when some multiplicity is negative. *)
val has_negative : t -> bool

val iter : (Tuple.t -> int -> unit) -> t -> unit
val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** [merge_into ~into src] adds every entry of [src] into [into].
    Aliasing is safe: [merge_into ~into b b] doubles every count. *)
val merge_into : into:t -> t -> unit

(** [merge_checked ~into src] is [merge_into ~into src], and tells
    whether any count it left in [into] is negative. *)
val merge_checked : into:t -> t -> bool

(** [diff_into ~into src] subtracts every entry of [src] from [into].
    Aliasing is safe: [diff_into ~into b b] empties the bag. *)
val diff_into : into:t -> t -> unit

(** {2 Read-only diff}

    A differ computes [new − old] while [new] is visited tuple by tuple
    (each tuple any number of times, with any counts), reading [old] in
    place: [old] is never written, so it needs no copy. A visit names
    its tuple by hash and equality, so the caller need not build it:
    a tuple is built only when it is new to both [old] and the result,
    and an entry of [old] lends its own tuple to the result. *)

type differ

(** [differ old] starts a diff against [old], which must not change
    until {!finish}. *)
val differ : t -> differ

(** [visit d ~hash ~equal ~make c] adds [c] copies of a tuple [u] to
    [new]: [hash] is [Tuple.hash u], [equal v] is [Tuple.equal v u], and
    [make ()] builds [u]. It costs a probe of [old] and, unless the
    first visit to an entry of [old] matches its count, one of the
    result. *)
val visit :
  differ -> hash:int -> equal:(Tuple.t -> bool) -> make:(unit -> Tuple.t) ->
  int -> unit

(** [finish d] is [new − old], a fresh bag: every visit's count, less
    the count in [old] of every tuple. [d] is spent. *)
val finish : differ -> t

(** Entries sorted by tuple — canonical, deterministic order. *)
val to_sorted_list : t -> (Tuple.t * int) list

val of_list : (Tuple.t * int) list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
