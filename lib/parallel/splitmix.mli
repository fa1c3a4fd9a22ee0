(** SplitMix64 pseudo-random number generator.

    Deterministic and portable: the same seed yields the same
    stream on every machine, which the reproduction needs for generating
    identical synthetic inputs everywhere. *)

type t

val create : int -> t
(** [create seed] makes a generator from an integer seed. *)

val next_int64 : t -> int64
(** Next 64 raw bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
