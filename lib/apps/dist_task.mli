(** A (node, distance) task of the label-correcting operators ({!Bfs},
    {!Sssp}) packed into one immediate int, [(dist lsl bits) lor node].

    A pushed task then is no heap block: it waits in the scheduler's
    buffers across rounds without the minor GC promoting anything. Task
    ids come from (parent id, birth index), never from items, so the
    encoding does not move a schedule digest. *)

type codec
(** The width [bits] of the node field. *)

val codec : nodes:int -> codec
(** The fewest [bits] that hold every node id below [nodes]; the
    distance gets the remaining [62 - bits] bits of a non-negative int.
    Raises [Invalid_argument] on a negative [nodes]. *)

val pack : codec -> node:int -> dist:int -> int
(** Raises [Invalid_argument] when [node] is outside [0 .. 2^bits - 1]
    or [dist] outside [0 .. 2^(62 - bits) - 1]: a distance that does
    not fit is refused, never wrapped. *)

val node : codec -> int -> int
val dist : codec -> int -> int
