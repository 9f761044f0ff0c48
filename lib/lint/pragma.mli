(** Suppression pragmas: [(* lint: allow <rule> <reason> *)] covers
    findings of [<rule>] on its own line, and on the next line when
    nothing but blanks precedes it on its line;
    [(* lint: allow-file <rule> <reason> *)] covers the whole file. The
    reason is mandatory — each suppression is its own audit trail. *)

type t = {
  line : int;
  rule : string;  (** canonical id, e.g. "L3" *)
  reason : string;
  file_wide : bool;
  alone : bool;  (** nothing but blanks before it on its line *)
  mutable used : bool;
}

(** Accepts "L1".."L4", "L7".."L9" and the slug names ("determinism",
    "iteration-order", "quadratic", "exception-hygiene",
    "toplevel-mutable-state", "hot-path-effects", "send-aliasing"),
    case-insensitively. *)
val canonical_rule : string -> string option

(** [scan source] returns pragmas in line order plus malformed-pragma
    diagnostics as [(line, message)] pairs. *)
val scan : string -> t list * (int * string) list

val covers : t -> Finding.t -> bool
