(** 2D points. *)

type t = { x : float; y : float }

val make : float -> float -> t
val x : t -> float
val y : t -> float
val equal : t -> t -> bool
val compare : t -> t -> int
val sub : t -> t -> t
val add : t -> t -> t
val scale : float -> t -> t
val dot : t -> t -> float
val cross : t -> t -> float
val dist2 : t -> t -> float
val dist : t -> t -> float
val midpoint : t -> t -> t
val pp : Format.formatter -> t -> unit

val random_unit_square : ?seed:int -> int -> t array
(** Deterministic uniform points in the unit square (paper §4.2). *)
