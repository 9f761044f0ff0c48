(** The no-compensation strawman.

    Identical to SWEEP except that answers are incorporated as-is: the
    error terms introduced by concurrent updates (paper §3) are never
    corrected. Under concurrency it installs wrong states — including
    negative tuple counts — which is the anomaly motivating the paper.
    With updates spaced far enough apart it coincides with SWEEP.

    The {!Sweep_batched} engine with a batch of one, no compensation and
    no local answers. *)

include Algorithm.S
