(** Simulation trace log.

    Components emit timestamped, labelled lines; the Figure 2
    demonstration and debugging replay them. A call site guards its
    emit, [if Trace.enabled t then Trace.emit t …], so a disabled trace
    costs one branch and allocates nothing: an unguarded call builds its
    arguments' closures and formats the line before [emit] can drop it. *)

type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool

(** [emit t ~time ~who fmt …]: record a line; a disabled trace formats
    it and drops it (guard the call with {!enabled}). *)
val emit : t -> time:float -> who:string -> ('a, Format.formatter, unit) format -> 'a

type line = { time : float; who : string; text : string }

(** Lines in emission order. *)
val lines : t -> line list

val clear : t -> unit
val pp : Format.formatter -> t -> unit
