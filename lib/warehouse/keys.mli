(** Key plumbing for the Strobe-family baselines.

    Strobe and C-strobe assume every base relation has a unique key and
    that the view projects all of them (paper §3); these helpers extract
    key values from source tuples, full-width join tuples and projected
    view tuples, build the key-based deletions those algorithms apply
    locally, and make their one kind of install: edit a working copy of
    the view by key, then install [working − view]. *)

open Repro_relational

(** Checks the Strobe applicability condition; raises [Invalid_argument]
    naming the algorithm when the view does not retain all keys. *)
val require_keys : algorithm:string -> View_def.t -> unit

(** Key values of a source-local tuple of source [j]. *)
val source_tuple_key : View_def.t -> int -> Tuple.t -> Tuple.t

(** Key values of source [j]'s slice inside a full-width join tuple. *)
val full_tuple_key : View_def.t -> int -> Tuple.t -> Tuple.t

(** Key values of source [j] inside a projected view tuple. *)
val view_tuple_key : View_def.t -> int -> Tuple.t -> Tuple.t

(** [kill_full view ~full kills] removes from the full-width delta
    [full] (in place) every tuple whose [source]-slice key is [key] for
    some [(source, key)] in [kills]. *)
val kill_full : View_def.t -> full:Delta.t -> (int * Tuple.t) list -> unit

(** [view_deletion view ~contents ~source ~key] is the negative view-level
    delta that removes every current view tuple whose [source]-key equals
    [key]. *)
val view_deletion :
  View_def.t -> contents:Bag.t -> source:int -> key:Tuple.t -> Delta.t

(** [add_answer view ~working full] select-projects the full-width
    answer [full] and adds each derived tuple to [working] once, unless
    [working] already holds it: the keys make any present tuple an
    already-derived one (duplicate suppression). *)
val add_answer : View_def.t -> working:Bag.t -> Delta.t -> unit

(** [install ctx ~working ~txns] installs [working] minus the current
    view as one state transition incorporating [txns]. The difference
    is read off the view in place by a {!Bag.differ}, which neither
    writes the view nor copies [working]. *)
val install :
  Algorithm.ctx -> working:Bag.t -> txns:Update_queue.entry list -> unit
