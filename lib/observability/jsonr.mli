(** Minimal JSON reader — the decoding half of the observability layer,
    independent of {!Jsonw}'s writer code path (they share only the value
    type). Used by the round-trip tests and the wall-clock benchmark
    (bench/perf). *)

(** Parse a complete document. Numbers without a fraction or exponent
    that fit an OCaml [int] come back as [Jsonw.Int]. *)
val parse : string -> (Jsonw.t, string) result

(** Like {!parse}; raises [Invalid_argument] with the error message. *)
val parse_exn : string -> Jsonw.t
