(** Set-associative LRU cache over abstract location ids (one location =
    one line). *)

type t

val create : lines:int -> associativity:int -> t
(** Raises [Invalid_argument] unless [lines] is a positive multiple of
    [associativity] and the resulting set count is a power of two. *)

val access : t -> int -> bool
(** Touch a line; [true] = hit. *)

val hits : t -> int
val misses : t -> int
