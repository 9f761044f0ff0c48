(** The SPJ view definition maintained at the warehouse (paper §2):

    {v V = π_ProjAttr σ_SelectCond (R0 ⋈ R1 ⋈ … ⋈ R(n-1)) v}

    Sources are 0-indexed here (the paper is 1-indexed). The attributes of
    all base relations are concatenated into a single global attribute
    space; [offset v i] is the global index of source [i]'s first
    attribute. *)

type t

(** [make ~name ~schemas ~joins ~selection ~projection ()] validates and
    builds a view definition:
    - [Array.length joins = Array.length schemas - 1];
    - [joins.(i)]'s equalities connect attributes of source [i] (left) and
      source [i+1] (right), and its residual reads only those two sources;
    - projection and selection indices fall inside the global width.

    Raises [Invalid_argument] otherwise. *)
val make :
  name:string ->
  schemas:Schema.t array ->
  joins:Join_spec.t array ->
  ?selection:Predicate.t ->
  projection:int array ->
  unit ->
  t

val name : t -> string
val n_sources : t -> int
val schemas : t -> Schema.t array
val schema : t -> int -> Schema.t
val joins : t -> Join_spec.t array
val join_between : t -> int -> Join_spec.t
val selection : t -> Predicate.t
val projection : t -> int array

(** Global index of source [i]'s first attribute. *)
val offset : t -> int -> int

(** Arity of source [i]'s relation. *)
val width : t -> int -> int

(** Total width of the un-projected join tuple. *)
val total_width : t -> int

(** [source_of_global v g] is the source whose relation holds global
    attribute [g]. *)
val source_of_global : t -> int -> int

(** [junction_key v k] is junction [k]'s key: the columns its
    equalities name, in order, local to source [k] and to source [k + 1]
    ([[||]] for both at a cross product). Every join reads a junction's
    key here: a source's join indexes ({!Algebra.indexes}), the hash
    join and the probe chain. The arrays are the view's own; never
    mutate them. *)
val junction_key : t -> int -> int array * int array

(** The local columns of source [id] that the chain's join equalities
    name: its key columns in the junction with [id - 1], then in the
    junction with [id + 1] ({!junction_key}). Each may repeat. An
    auxiliary projection tracks these ([Aux_store]). *)
val join_columns : t -> int -> int list

(** [global_by_name v i name] resolves a source-local attribute name. *)
val global_by_name : t -> int -> string -> int

(** Positions *within the projection* of source [i]'s key attributes.
    Raises [Not_found] if some key attribute of [i] is not projected —
    the situation in which the Strobe family is inapplicable (paper
    §3). *)
val view_key_positions : t -> int -> int list

(** Whether the projection retains every source's full key — the Strobe
    family's applicability condition. *)
val includes_all_keys : t -> bool

val pp : Format.formatter -> t -> unit
