(** Simulation trace log.

    Components emit timestamped, labelled lines; the Figure 2
    demonstration and debugging replay them. Disabled traces cost one
    branch per emit. *)

type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool

(** [emit t ~time ~who fmt …]: record a line (no-op when disabled). *)
val emit : t -> time:float -> who:string -> ('a, Format.formatter, unit) format -> 'a

type line = { time : float; who : string; text : string }

(** Lines in emission order. *)
val lines : t -> line list

val clear : t -> unit
val pp : Format.formatter -> t -> unit
