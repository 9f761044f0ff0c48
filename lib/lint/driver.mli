(** Two-phase orchestration: phase 1 parses every unit once and builds
    the {!Modgraph}; phase 2 runs the rules over every unit, applies
    pragmas and renders text / JSON / SARIF. *)

type file_report = {
  file : string;
  findings : Finding.t list;  (** active (unsuppressed), sorted *)
  suppressed : (Finding.t * Pragma.t) list;  (** the audit trail *)
  pragma_count : int;
      (** pragma occurrences scanned in the file, valid or malformed —
          the suppression-audit invariant ties this to the raw source *)
}

type report = { files : int; reports : file_report list }

(** Lint one unit from source text against a single-unit module graph
    (the fixture entry point — cross-module rules see only this file).
    [has_mli] defaults to probing for a sibling [.mli] on disk; fixture
    tests override it. *)
val lint_source : ?has_mli:bool -> file:string -> string -> file_report

val lint_file : string -> file_report

(** Lint several [(file, source)] units against one shared module graph
    — the cross-module fixture entry point. Reports are in input
    order. *)
val lint_sources : (string * string) list -> report

(** Lint every [.ml] under the given files/directories, skipping
    [_build], hidden directories and [lint_fixtures]. One shared module
    graph spans the whole set. *)
val lint_paths : string list -> report

val errors : report -> int
val warnings : report -> int

(** Total pragma occurrences scanned (used + unused + malformed). *)
val pragmas : report -> int

(** Per-rule (id, slug, active findings, suppressed) in rule order. *)
val rule_stats : report -> (string * string * int * int) list

val render_text : ?show_suppressed:bool -> report -> string
val to_json : report -> Repro_observability.Jsonw.t
val render_json : report -> string

(** SARIF 2.1.0 document: one run, rule table from {!Rules.meta}, one
    result per active finding. *)
val to_sarif : report -> Repro_observability.Jsonw.t

val render_sarif : report -> string

(** Run the CLI on [argv]; returns the intended exit status (0 clean,
    1 error findings, 2 usage error). Flags: [--json],
    [--show-suppressed], [--sarif OUT]. *)
val main : string array -> int
