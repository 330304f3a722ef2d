(** Deterministic splitmix64 pseudo-random generator.

    Every stochastic piece of the reproduction (workload stimuli, synthetic
    images, the property-test case seeds) draws from this generator so that
    experiments are bit-reproducible across runs.  {!derive} names the
    replayable per-case seeds of the property runner in [lib/check]. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator from a 64-bit seed.  Output sequences
    are identical to all previous versions of this module. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val bool : t -> bool
(** Fair coin. *)

val derive : int64 -> int -> int64
(** [derive seed k] is the seed of the [k]-th replayable sub-stream of
    [seed]; [derive seed 0 = seed], so a reported per-case seed can be fed
    straight back into [create] (or [--seed]) to replay case 0 of that
    stream. *)
