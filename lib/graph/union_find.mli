(** Union-find (path halving + union by rank). *)

type t

val create : int -> t

val find : t -> int -> int
(** Root with path halving (mutates). *)

val find_readonly : t -> int -> int
(** Root without any mutation; usable under fine-grain locking. *)

val union : t -> int -> int -> bool
(** [false] when already in the same set. *)

val components : t -> int
