(* The JSON export of one run: flat counters plus the run's {!Obs}
   histograms and span count, in a fixed key order. *)

type counter = [ `Int of int | `Float of float | `Str of string ]

let counter_json : counter -> Jsonw.t = function
  | `Int i -> Jsonw.Int i
  | `Float f -> Jsonw.Float f
  | `Str s -> Jsonw.String s

let entry_json ?(spans = false) ?obs ~algorithm ~scenario counters =
  Jsonw.obj
    ([ ("algorithm", Jsonw.str algorithm);
       ("scenario", Jsonw.str scenario);
       ("counters",
        Jsonw.Obj (List.map (fun (k, v) -> (k, counter_json v)) counters)) ]
    @
    match obs with
    | None -> []
    | Some obs ->
        [ ("histograms", Obs.histograms_json obs);
          ("span_count", Jsonw.int (Tracer.span_count (Obs.tracer obs))) ]
        @ if spans then [ ("trace", Tracer.to_json (Obs.tracer obs)) ] else [])
