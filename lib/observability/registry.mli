(** The JSON export of one run: its flat counters and, when the run had
    an {!Obs} handle, its histograms and span count. [warehouse_sim
    --json-out] writes it.

    Deterministic: counters in list order, histograms in
    first-observation order. *)

type counter = [ `Int of int | `Float of float | `Str of string ]

(** [{"algorithm", "scenario", "counters", "histograms", "span_count"}],
    the last two only with [obs]; [spans] also embeds the full span
    trees (large). *)
val entry_json :
  ?spans:bool -> ?obs:Obs.t -> algorithm:string -> scenario:string ->
  (string * counter) list -> Jsonw.t
