(** ASCII rendering for experiment output. *)

type align = L | R

(** [table ~title ~headers ~rows] renders a boxed ASCII table under a
    [title] line. [aligns] defaults to left for the first column and
    right for the rest. *)
val table :
  ?aligns:align list -> title:string -> headers:string list ->
  rows:string list list -> unit -> string

(** One piece of a report page. *)
type block =
  | Text of string list  (** lines, each printed with a trailing newline *)
  | Table of {
      aligns : align list option;  (** as {!table}'s [aligns] *)
      headers : string list;
      rows : string list list;
    }  (** a boxed table set off by a blank line above it *)

(** [render page] prints the blocks in order. *)
val render : block list -> string

(** Format helpers. *)
val f1 : float -> string

val f2 : float -> string

(** Write a JSON document to [path] (2-space indent, trailing newline). *)
val write_json : string -> Repro_observability.Jsonw.t -> unit
