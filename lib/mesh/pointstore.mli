(** Concurrently growable append-only point store.

    Refinement tasks allocate points from inside parallel commits; ids
    are dense ints usable as array keys. *)

type t

val create : ?capacity:int -> unit -> t
val count : t -> int

val add : t -> Geometry.Point.t -> int
(** Thread-safe append; returns the new point's id. *)

val get : t -> int -> Geometry.Point.t
(** Raises [Invalid_argument] for ids never allocated. *)
