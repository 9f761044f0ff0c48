(** Join / select / project with counting semantics.

    These operations implement both sides of the protocol: a data source
    computing [ComputeJoin(ΔV, R)] (Fig. 3) and the warehouse computing the
    local compensation [ΔRj ⋈ TempView] (Fig. 4) use the same signed hash
    join. Counts multiply across a join and accumulate under projection
    (GMS93). *)

(** [join view left right] joins two adjacent partials
    ([left.hi + 1 = right.lo]) using the chain's join condition between
    them. Counts multiply, so deletions (negative counts) propagate with
    the correct sign. The smaller operand is indexed on its key
    columns, read in place, and the result is sized by the pairs whose
    keys match. Raises [Invalid_argument] when the partials are not
    adjacent. *)
val join : View_def.t -> Partial.t -> Partial.t -> Partial.t

(** [extend view p ~with_relation:(j, r)] joins [p] with relation [r] of
    source [j], which must be adjacent to [p] on either side. This is the
    source-side step of the sweep. *)
val extend : View_def.t -> Partial.t -> with_relation:int * Relation.t -> Partial.t

(** [compensate ?index ?extras view ~answer ~interfering ~temp] removes
    the error term from a sweep answer (paper §4):
    [answer − (interfering + Σ extras) ⋈ temp], where [interfering] is
    the (merged) concurrent ΔRj, [extras] further deltas of source [j]
    that the answer also reflects, and [temp] the partial ΔV that was
    sent to source [j]. The join side is inferred from the ranges.

    The error term is linear, so each delta is joined with [temp] on its
    own. [index] lists indexes on columns of [interfering], kept in step
    with it: when one covers the junction's first equality column,
    [temp] probes it as {!extend_with_probe} probes a source, costing
    O(|temp| × fan-out) rather than O(|interfering|). Otherwise, and for
    every extra, the hash join runs. The result is bag for bag the same
    either way. When the error term is empty the result is [answer]
    itself; otherwise it is fresh. Nothing is mutated. *)
val compensate :
  ?index:Column_index.t list -> ?extras:Delta.t list ->
  View_def.t -> answer:Partial.t -> interfering:Delta.t -> temp:Partial.t ->
  Partial.t

(** [extend_with_probe view p ~source ~probe] is {!extend} served by a
    persistent per-column index instead of an ad-hoc hash build: each
    partial tuple probes the source's index on the junction's first
    equality column ([probe ~col ~value f] calls [f] on each matching
    source tuple with its multiplicity, [col] being source-local); any
    further equalities and any residual predicate filter the candidates. Returns
    [None] only for a cross-product junction (no equality to probe on) —
    the caller falls back to {!extend}. Results are always identical to
    {!extend}'s (asserted by the test suite). *)
val extend_with_probe :
  View_def.t -> Partial.t -> source:int ->
  probe:(col:int -> value:Value.t -> (Tuple.t -> int -> unit) -> unit) ->
  Partial.t option

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
