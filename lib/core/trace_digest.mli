(** Incremental FNV-1a (64-bit) digests of execution traces.

    The deterministic scheduler folds each round's shape into a digest as
    it runs ({!Stats.t.digest}); the determinism audit compares two runs
    in O(1) by comparing digests instead of diffing full schedules. The
    byte-wise FNV-1a fold is fixed and machine-independent: equal traces
    give equal digests everywhere, and unequal digests prove the traces
    differ. (Digest equality is evidence, not proof, of trace equality —
    the usual 2^-64 caveat.) *)

type t = int64

val absent : t
(** Reported by schedulers that keep no trace (serial, nondet); the
    neutral element of {!combine}. *)

val seed : t
(** Starting value of a real trace fold (the FNV-1a offset basis). *)

val is_absent : t -> bool

val fold_int : t -> int -> t
(** Fold the 8 little-endian bytes of the word into the digest. *)

val fold_ints : t -> int array -> int -> t
(** [fold_ints t a n] folds [a.(0)] .. [a.(n - 1)] with {!fold_int}, in
    order, without boxing per element. Raises [Invalid_argument] unless
    [0 <= n <= Array.length a]. *)

val fold_int64 : t -> int64 -> t
val fold_bool : t -> bool -> t

val fold_float : t -> float -> t
(** Folds the IEEE-754 bit pattern (so [-0. <> +0.] and NaNs compare by
    representation). *)

val fold_string : t -> string -> t

val combine : t -> t -> t
(** Fold digest [b] into digest [a]; {!absent} is neutral on either
    side. *)

val equal : t -> t -> bool

val to_hex : t -> string
(** 16 lowercase hex digits — the printed digest format. *)

val of_hex : string -> t option
(** Parse what {!to_hex} or {!pp} printed: 16 lowercase hex digits, or
    ["-"] for {!absent}. [None] on anything else. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_hex}, or ["-"] for {!absent}. *)
