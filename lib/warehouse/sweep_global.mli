(** Global SWEEP — type-3 (multi-source) transaction support.

    The paper's model (§2) handles type-1/2 updates and points to the
    Strobe paper's technique for type-3: a transaction spanning several
    sources arrives at the warehouse as independently delivered per-source
    parts, and no view state should ever expose some parts without the
    others.

    This variant processes updates exactly like SWEEP — one at a time, in
    delivery order, with local compensation — but *buffers installs while
    any global transaction is open* (some parts incorporated, some still
    outstanding). The buffered delta, covering the whole transaction plus
    whatever unrelated updates were interleaved between its parts, is
    installed as one atomic state transition once no transaction is open.

    It is the {!Sweep_batched} engine with a batch of one, no local
    answers and an install hook that keeps the transaction ledger.

    On streams without global transactions this is SWEEP (complete
    consistency); with them the view is strongly consistent and
    transaction-atomic — the test suite asserts that no install ever
    splits a global transaction. *)

include Algorithm.S
