(** Structured tracing: typed, causally linked spans and events.

    A span is an interval of simulated time — name, attributes, parent
    span, children and point events — forming one tree per update
    transaction at the warehouse (notice → sweep legs → compensation →
    install, with source-query child spans). Recording is append-only;
    {!render} and {!to_json} are deterministic, so a seeded run pins a
    byte-identical tree. Gating (enabled/disabled, replay muting) lives
    one level up in {!Obs}; the tracer itself always records. *)

type id = int

(** The null span: parent of roots, safe no-op target for {!finish}. *)
val none : id

type attr = I of int | F of float | S of string | B of bool

type span = {
  id : id;
  parent : id;
  name : string;
  start_time : float;
  mutable end_time : float;  (** NaN while the span is open *)
  attrs : (string * attr) list;
  mutable rev_children : id list;
  mutable rev_events : event list;
}

and event = { at : float; ev_name : string; ev_attrs : (string * attr) list }

type t

val create : unit -> t
val span_count : t -> int

(** Open a span at [time]. An unknown (or [none]) parent makes it a
    root. *)
val start :
  t -> time:float -> ?parent:id -> name:string ->
  ?attrs:(string * attr) list -> unit -> id

(** Close a span (first close wins; unknown ids and [none] ignored). *)
val finish : t -> time:float -> id -> unit

(** Record a point event on [span] (default: the root). *)
val event :
  t -> time:float -> ?span:id -> name:string ->
  ?attrs:(string * attr) list -> unit -> unit

val roots : t -> id list

(** ASCII span tree: one line per span ("[start..end] name k=v …", 3
    decimals), events as "@time name" lines, children indented two
    spaces. Byte-deterministic for a given recording. *)
val render : t -> string

val to_json : t -> Jsonw.t
