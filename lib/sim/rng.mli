(** Deterministic splitmix64 PRNG.

    Every run of the simulator is seeded explicitly, so experiments and
    failing property-test cases replay bit-identically. A draw allocates
    nothing but its own boxed result: {!int} and {!bool} allocate
    nothing, {!float} and {!exponential} at most the float they return,
    {!int64} the int64. *)

type t

val create : int64 -> t

(** Derive an independent stream (used to give each workload source its
    own stream without cross-coupling). *)
val split : t -> t

val int64 : t -> int64

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] when
    [bound <= 0]. *)
val int : t -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** [bool t p] is true with probability [p]. *)
val bool : t -> float -> bool

(** Exponentially distributed with the given mean — inter-arrival times of
    source updates. *)
val exponential : t -> mean:float -> float

(** [uniform t ~lo ~hi] is uniform in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [pick t arr] is a uniformly random element. Raises on empty array. *)
val pick : t -> 'a array -> 'a

(** [zipf t ~n ~theta] samples a 0-based rank in [0, n) with Zipfian skew
    [theta] ([theta = 0] is uniform). *)
val zipf : t -> n:int -> theta:float -> int
