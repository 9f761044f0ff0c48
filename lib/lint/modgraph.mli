(** Phase 1 of the cross-module lint: a repo-wide model built by parsing
    every compilation unit once, queried by the cross-module rules
    (L7–L9).

    The model records, per unit (one [.ml] file, module name = capitalized
    basename):

    - every definition-level [let] (toplevel, nested modules, functor
      bodies and arguments) with its required arity and source location;
    - the cross-module references each definition makes, resolved by
      module-name prefix plus local [module X = Path] aliases;
    - direct I/O and wall-clock effect sites inside each definition;
    - the record labels declared [mutable] anywhere in the parsed set.

    On top of the index sits a [mutability fixpoint]: a definition is
    {e mutable-yielding} when its value (arity 0) or its fully-applied
    result (arity > 0) is — or contains — freshly created mutable
    structure ([ref], [Hashtbl.create], [Buffer], arrays, mutable record
    fields, [lazy]), propagated through local [let]s, value aliases and
    calls to other indexed definitions. Partial applications are never
    counted: a call contributes only when it supplies at least the
    callee's required (non-optional) parameters, so
    [let encode = Codec.encode put] stays a function, not a value. *)

type t

(** A toplevel value binding that holds mutable structure (L7 feed). *)
type mutable_value = {
  mv_name : string;
  mv_line : int;
  mv_col : int;
  mv_reason : string;  (** what makes it mutable, e.g. "Hashtbl.create" *)
}

(** A direct effect site reachable from a maintenance handler (L8 feed). *)
type hot_effect = {
  he_line : int;
  he_col : int;
  he_effect : string;  (** the primitive, e.g. "Format.std_formatter" *)
  he_def : string;  (** "Unit.def" containing the effect *)
  he_chain : string;  (** call chain from the handler root, " -> "-joined *)
}

(** [build units] indexes the parsed set; [units] are
    [(file, structure)] pairs. Files that failed to parse are simply
    absent. *)
val build : (string * Parsetree.structure) list -> t

(** Toplevel mutable values defined in [file], in source order. *)
val mutable_values : t -> file:string -> mutable_value list

(** Effect sites in [file] reachable from a handler root
    ([on_update]/[on_answer]/[on_source_down]/[on_source_up]) defined
    under [lib/]. The walk never descends into [lib/observability/]:
    routing an effect through [Obs] is the sanctioned escape hatch. *)
val hot_path_effects : t -> file:string -> hot_effect list
