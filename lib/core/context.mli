(** Operator execution context.

    A Galois operator is a function [('item, 'state) t -> 'item -> unit].
    Inside the operator, the context provides neighborhood acquisition,
    the failsafe declaration, task creation and (optional) continuation
    state, exactly mirroring the paper's programming model (§2, §3.3).

    Contract for operators ({e cautiousness}): acquire every abstract
    location the task reads or writes, then call {!failsafe}, and only
    then mutate shared state. Violations raise {!Not_cautious}. *)

exception Conflict
(** The task lost a location to another task (non-deterministic
    execution). The scheduler catches this and retries the task; operator
    code should let it propagate. *)

exception Not_cautious
(** An acquisition happened after the failsafe point. *)

exception Failsafe_reached
(** Internal control flow of the deterministic inspect phase; operator
    code must not catch it (catching [exn] and re-raising is fine). *)

type phase =
  | Direct  (** one-shot execution: serial or speculative (Fig. 1b) *)
  | Inspect  (** deterministic neighborhood marking (Fig. 2) *)
  | Commit  (** deterministic select-and-execute (Fig. 3) *)

type ('item, 'state) t

val acquire : (_, _) t -> Lock.t -> unit
(** Acquire an abstract location. Phase-dependent: exclusive claim
    (Direct; raises {!Conflict} when lost), priority marking (Inspect;
    never fails) or verification (Commit). *)

val failsafe : (_, _) t -> unit
(** Declare the failsafe point: all reads are done, writes may begin.
    Idempotent. *)

val register_new : (_, _) t -> Lock.t -> unit
(** Integrate an abstract location created by this task after its
    failsafe point (a fresh object, e.g. a new mesh triangle). Must only
    be called with locks nobody else has seen. *)

val touch : ?write:bool -> (_, _) t -> Lock.t -> unit
(** Declare a shared-state access on an abstract location for the
    dynamic determinism audit ({!Audit}, enabled via [Run.audit]):
    a write by default, a read with [~write:false]. Purely
    observational — it never synchronizes or raises; with auditing off
    it costs one branch. Accesses before the failsafe point are
    recorded as such and flagged as cautiousness violations when they
    are writes; accesses to locations outside the acquired neighborhood
    are flagged as containment violations at the end of the round. *)

val push : ('item, _) t -> 'item -> unit
(** Create a new task. Buffered; takes effect only if this task
    commits. *)

val save : (_, 'state) t -> 'state -> unit
(** Stash continuation state during the inspect phase (the paper's
    continuation optimization, §3.3). The state reappears via {!saved}
    when the task is committed in the same round. *)

val saved : (_, 'state) t -> 'state option
(** Previously saved state, if the scheduler preserved it. Operators must
    recompute when [None]. *)

val work : (_, _) t -> int -> unit
(** Report abstract work units (used by the machine simulator's cost
    model). *)

val phase : (_, _) t -> phase
val task_id : (_, _) t -> int

val stamp : (_, _) t -> int
(** The {!Lock} epoch all this task's claims run under (set by the
    scheduler via {!reset}). *)

(** {2 Scheduler internals}

    Everything below is used by the schedulers in this library and is not
    part of the application-facing API. A context is per-worker scratch:
    its neighborhood and push buffers keep their capacity across
    {!reset}, so a warmed-up worker runs tasks without allocating. *)

val create : unit -> ('item, 'state) t

val reset :
  ('item, 'state) t ->
  phase:phase -> task_id:int -> stamp:int -> saved:'state option -> unit
(** [stamp] is the lock epoch (from {!Lock.new_epoch}) the task's
    acquisitions are made under. *)

(** The [neighborhood_*] accessors see [Inspect]-phase locations only
    when {!set_keep_inspected} is on (the DIG scheduler turns it on
    when the run records or validates); otherwise an inspection's
    stored neighborhood is empty. {!neighborhood_count} always counts
    every acquisition. [Direct]-phase acquisitions are always stored,
    since {!release_all} needs them. *)

val neighborhood_array : (_, _) t -> Lock.t array
(** Fresh array of the stored locks, in acquisition order. *)

val neighborhood_into : (_, _) t -> Lock.t array -> Lock.t array
(** Copy the stored locks (acquisition order) into the given array if
    it is large enough, else into a fresh one; returns whichever was
    filled. Entries beyond {!neighborhood_count} are stale — callers
    must pair the array with the count, not [Array.length]. *)

val neighborhood_count : (_, _) t -> int
(** Locations acquired by the current task, stored or not. *)

val pushed_get : ('item, _) t -> int -> 'item
(** [pushed_get t i] is the [i]-th pushed item in push order,
    [0 <= i < pushed_count t]. *)

val pushed_list : ('item, _) t -> 'item list
(** Pushed items in push order (allocates; for the one-shot
    schedulers). *)

val pushed_into : ('item, _) t -> 'item array -> 'item array
(** Same contract as {!neighborhood_into}, for the pushed items. *)

val pushed_count : (_, _) t -> int
val work_units : (_, _) t -> int
val reached_failsafe : (_, _) t -> bool
val set_on_defeat : (_, _) t -> (int -> unit) -> unit
val set_stats : (_, _) t -> Stats.worker -> unit

val set_tape : (_, _) t -> Audit.tape option -> unit
(** Attach (or detach) the audit recorder tape this context records
    acquire/touch events into. Set once per run by the DIG scheduler;
    [None] disables recording. *)

val set_keep_inspected : (_, _) t -> bool -> unit
(** Whether [Inspect]-phase acquisitions are stored as well as counted
    (default [true]). Set once per context by the DIG scheduler. *)

val keeps_inspected : (_, _) t -> bool

val release_all : (_, _) t -> unit
