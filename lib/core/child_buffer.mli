(** Flat per-worker child buffers for the DIG scheduler.

    A growable structure-of-arrays of [(parent id, birth index, item)]
    triples. Capacity survives {!clear}, so a warmed-up
    buffer accumulates children without allocating — the flat
    replacement for the scheduler's former per-push list consing. Not
    thread-safe: each buffer is owned by one worker during a parallel
    phase and read by the sequential generation formation. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val clear : 'a t -> unit
(** Forget the contents, keep the capacity. *)

val push : 'a t -> parent:int -> birth:int -> 'a -> unit
(** Append one child created by task [parent] as its [birth]-th push. *)

val parent : 'a t -> int -> int
val birth : 'a t -> int -> int
val item : 'a t -> int -> 'a
(** Column accessors for index [i < length t]; unchecked. *)
