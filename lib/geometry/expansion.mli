(** Exact floating-point expansion arithmetic (Shewchuk-style), the exact
    fallback of the robust geometric predicates. *)

type t = float array

val two_sum : float -> float -> float * float
(** Error-free sum: [(x, e)] with [x = fl(a+b)] and [a + b = x + e]
    exactly. *)

val two_prod : float -> float -> float * float
(** Error-free product via fused multiply-add. *)

val of_float : float -> t
val grow : t -> float -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : t -> float -> t
val mul : t -> t -> t

val sign : t -> int
(** Exact sign of the represented real: -1, 0 or 1. *)
