(** Shared task pool with termination detection, used by the
    non-deterministic speculative scheduler. *)

type 'a t

val create : 'a array -> 'a t

val take : 'a t -> 'a option
(** Blocks until a task is available ([Some]) or every task has completed
    or the set was aborted ([None], the termination signal for the
    calling worker). *)

val push_new : 'a t -> 'a list -> unit
(** Add freshly created tasks (increases the pending count). *)

val requeue : 'a t -> 'a -> unit
(** Return an aborted task for retry (pending count unchanged). *)

val complete : 'a t -> unit
(** Mark one task as successfully finished. *)

val abort : 'a t -> unit
(** End the run for every worker: blocked and later [take]s return
    [None]. Called by a worker whose task raised. *)
