(** SWEEP (paper §5, Fig. 4).

    Processes one update at a time, in warehouse delivery order. For
    update (ΔR, i) it computes ΔV by querying sources i−1 … 0 (left
    sweep), then i+1 … n−1 (right sweep), one round trip each. When an
    answer from source j arrives while updates from j sit in the update
    queue, those updates interfered (FIFO argument, §4); their error term
    [ΔRj ⋈ TempView] is computed and subtracted *locally* — no
    compensating queries. The finished ΔV is selected, projected and
    installed before the next update is started.

    Guarantees complete consistency; exactly 2(n−1) messages
    (n−1 queries, n−1 answers) per update.

    This is the {!Sweep_batched} engine with a batch of one. An update
    whose delta is empty installs an empty view delta without sending
    any query. *)

include Algorithm.S
