(** Off-heap integer planes: fixed-length vectors of non-negative ints
    in [Bigarray] storage, outside the OCaml heap.

    Element width is chosen automatically at creation: 4 bytes when
    every value fits 31 bits, 8 bytes otherwise. Reads never allocate
    (the 4-byte case is stored as unboxed 16-bit halves, not as a
    boxing [int32] bigarray). *)

type t

val i32_max : int
(** Largest value a 4-byte plane can hold ([2^31 - 1]). *)

val create : max_value:int -> int -> t
(** [create ~max_value len]: a zero-filled plane of [len] values sized
    to hold [max_value]. Raises [Invalid_argument] on negative
    arguments. *)

val length : t -> int
val bytes_per_value : t -> int
val memory_bytes : t -> int
(** Off-heap payload size in bytes. *)

val get : t -> int -> int
(** Bounds-checked. *)

val unsafe_get : t -> int -> int
val unsafe_set : t -> int -> int -> unit
(** No bounds checks — for loops whose ranges are established
    invariants (CSR offsets are monotone and in-range by
    construction). *)

val to_array : t -> int array
val iter : (int -> unit) -> t -> unit
val equal : t -> t -> bool

val sort_range : t -> int -> int -> unit
(** [sort_range t lo hi] sorts values in [\[lo, hi)] ascending in place
    — an int-specialized sort, no polymorphic compare. *)

(** Growable off-heap staging buffer of native ints (always 8-byte;
    used to accumulate edge streams before the counting sort packs them
    into sized planes). *)
module Buf : sig
  type t

  val create : int -> t
  val length : t -> int
  val push : t -> int -> unit
  val get : t -> int -> int
  val unsafe_get : t -> int -> int
end
