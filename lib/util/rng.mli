(** Pseudo-random number generation.

    A small, fast, splittable PRNG (xoshiro256 star-star) used by every randomized
    component of the library.  All estimators take an explicit [Rng.t] so
    experiments are reproducible from a single integer seed.

    The state is the four 64-bit xoshiro words held unboxed in one 32-byte
    buffer, so {!bits}, {!int}, {!bool} and {!bernoulli} allocate nothing
    per draw (VATIC's estimate flips one coin per bucket entry).  {!int64}
    returns a boxed [int64], and a {!float} whose call is not inlined
    (any call from another module) returns a boxed float.  The golden test
    in [test/test_rng.ml] pins every function's stream for five seeds, so
    a change of layout cannot change a result. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed] by
    expanding it with splitmix64. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Streams drawn from the parent and the child are statistically
    independent for practical purposes. *)

val copy : t -> t
(** Duplicate the current state (both copies then produce the same stream). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 62 uniformly random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1]; [bound] must be positive.
    Unbiased (rejection sampling). *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform on the inclusive range [lo, hi]; requires [lo <= hi]. *)

val float : t -> float
(** Uniform on [0, 1) with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0, 1]). *)

val gaussian : t -> float
(** Standard normal deviate (polar Box–Muller). *)

val exponential : t -> float
(** Standard exponential deviate (rate 1). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
