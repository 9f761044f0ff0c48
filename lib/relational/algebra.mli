(** Join / select / project with counting semantics.

    These operations implement both sides of the protocol: a data source
    computing [ComputeJoin(ΔV, R)] (Fig. 3) and the warehouse computing the
    local compensation [ΔRj ⋈ TempView] (Fig. 4) use the same signed hash
    join. Counts multiply across a join and accumulate under projection
    (GMS93). *)

(** [join view left right] joins two adjacent partials
    ([left.hi + 1 = right.lo]) using the chain's join condition between
    them. Counts multiply, so deletions (negative counts) propagate with
    the correct sign. The smaller operand is indexed on the junction's
    key ({!index}), read in place, and the result is sized by the pairs
    whose keys match. Raises [Invalid_argument] when the partials are not
    adjacent. *)
val join : View_def.t -> Partial.t -> Partial.t -> Partial.t

(** [join_with view left right f] calls [f] on each tuple of
    [join view left right] with its count, building no result: the
    pairs stream out of the probe as they match. *)
val join_with :
  View_def.t -> Partial.t -> Partial.t -> (Tuple.t -> int -> unit) -> unit

(** {2 Join indexes}

    The one index every join probes. It keys a bag's entries on a set
    of columns, the whole key of a junction, and reads each entry's
    tuple in place. A cross-product junction is the index with no key
    columns: one key whose chain holds every entry. {!join} builds one
    over its smaller operand and {!eval} one per junction; the owners of
    changing bags (a source's table, the update queue's L_j, an
    auxiliary projection) keep theirs in step with {!add}. *)
type index

(** [index b cols] indexes [b]'s entries on columns [cols]. *)
val index : Bag.t -> int array -> index

(** [add idx tup c] adds [c] (possibly negative) to [tup]'s count,
    keeping the index in step with a bag that received the same
    [Bag.add]: an entry whose count reaches 0 leaves it, and so does a
    key without entries. *)
val add : index -> Tuple.t -> int -> unit

(** [matches idx ptup pcols f] calls [f] on each entry whose key equals
    [ptup]'s columns [pcols], with its count, in no particular order. *)
val matches : index -> Tuple.t -> int array -> (Tuple.t -> int -> unit) -> unit

(** The same key columns and the same entries with the same counts,
    and on both sides each key's number of entries, kept with its first
    entry, agrees with its chain. *)
val equal_index : index -> index -> bool

(** Source [j]'s join indexes, one per junction of [j]: [lower] keyed
    on [j]'s columns of junction [j − 1], [upper] on those of junction
    [j] ({!View_def.junction_key}); [None] past an end of the chain.
    When both keys are the same columns, one index serves both. *)
type indexes = { lower : index option; upper : index option }

(** [indexes ?at view j b] indexes [b], a bag of source [j]'s tuples,
    on each junction of [j]. [at c] is the column of [b]'s tuples that
    holds [j]'s column [c] (the identity by default; an auxiliary
    projection maps [c] to its position among the tracked columns). *)
val indexes : ?at:(int -> int) -> View_def.t -> int -> Bag.t -> indexes

(** [add_all ix tup c] is {!add} on each distinct index of [ix]. *)
val add_all : indexes -> Tuple.t -> int -> unit

(** [answer ?lift view ix p ~source] joins [p] with the bag [ix]
    indexes, source [source]'s tuples, adjacent to [p] on either side,
    as a source answers a sweep query: a fresh delta, bag for bag
    {!join}'s with a partial holding the same tuples. Each tuple of [p]
    hashes its side of the junction's key and finds the key once; the
    index keeps each key's number of entries, and their sum bounds the
    result (the junction's residual only drops pairs), so the delta is
    made once at that size and never grows. Then the keys' entries are
    walked, and the residual filters the pairs. [lift] maps an indexed
    tuple to source width before the residual and the concatenation
    read it (the identity by default). Raises [Invalid_argument] when
    [source] is not adjacent to [p]. *)
val answer :
  ?lift:(Tuple.t -> Tuple.t) -> View_def.t -> indexes -> Partial.t ->
  source:int -> Delta.t

(** [compensate ?index ?extras view ~answer ~interfering ~temp] removes
    the error term from a sweep answer (paper §4):
    [answer − (interfering + Σ extras) ⋈ temp], where [interfering] is
    the (merged) concurrent ΔRj, [extras] further deltas of source [j]
    that the answer also reflects, and [temp] the partial ΔV that was
    sent to source [j]. The join side is inferred from the ranges.

    The error term is linear, so each delta is joined with [temp] on its
    own. [index], when given, is [interfering]'s {!indexes}, kept in
    step with it: [temp] probes it as a source answers a sweep query
    ({!answer}), costing O(|temp| × fan-out) rather than
    O(|interfering|). Otherwise, and for every extra, the hash join
    runs. The result is bag for bag the same either way. When the error
    term is empty the result is [answer] itself; otherwise it is fresh.
    Nothing is mutated. *)
val compensate :
  ?index:indexes -> ?extras:Delta.t list ->
  View_def.t -> answer:Partial.t -> interfering:Delta.t -> temp:Partial.t ->
  Partial.t

(** [merge_overlap view ~at ~left ~right] glues two partials that both end
    at source [at] ([left.hi = at = right.lo]): tuples whose [at]-slices
    are equal are concatenated (the duplicate slice kept once) and their
    counts multiplied. This is the ΔV_left ⋈ ΔV_right merge of the
    parallel-sweep optimization the paper sketches in §5.3 — the right
    sweep must have started from a unit-count copy of ΔR so multiplicities
    and signs are not double-counted. Raises [Invalid_argument] when the
    ranges do not overlap exactly at [at]. *)
val merge_overlap :
  View_def.t -> at:int -> left:Partial.t -> right:Partial.t -> Partial.t

(** [select_project view full] applies the view's selection and projection
    to a full-width delta, producing a delta over *view* tuples. Raises
    [Invalid_argument] when [full] does not span all sources. *)
val select_project : View_def.t -> Partial.t -> Delta.t

(** [eval view fetch] recomputes the view from scratch: [fetch i] must
    return source [i]'s current relation. Ground truth for tests and the
    initial view. Source 0 streams through indexes of sources 1..n−1 in
    one probe chain, so no intermediate join result is built; the result
    is fresh. It keeps nothing and leaves every relation as it was, not
    even marked shared. *)
val eval : View_def.t -> (int -> Relation.t) -> Relation.t

(** [evaluator view] recomputes the view repeatedly, as the recompute
    baseline does once per update, and returns each time the change to
    the view rather than the view: [evaluator view fetch ~old] is
    [eval view fetch − old], a fresh delta. [old], typically the
    installed view, is read in place and never written, so it needs no
    copy: each result of the probe chain is hashed and compared where
    it stands ({!Tuple.hash_gather}, {!Tuple.equal_gather}) and looked up
    in [old] through a {!Bag.differ}, so the only tuples built are those
    new to [old], which the delta installs.

    The plan (column maps, probe columns, residuals, projection) is made
    once. Junction k keeps the index it built over source k + 1 with an
    O(1) {!Relation.copy} of that relation, and the next call reuses the
    index while the relation fetched for source k + 1 still
    {!Bag.shares} that copy's entries. So a source that answers with a
    [Relation.copy] of an unchanged table costs no build, and any
    change, even in place to the very relation fetched before, rebuilds
    that junction only. *)
val evaluator :
  View_def.t -> (int -> Relation.t) -> old:Bag.t -> Delta.t
