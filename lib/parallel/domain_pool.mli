(** A fixed pool of OCaml domains executing SPMD-style jobs.

    The calling domain participates as worker [0]; a pool of size [n]
    spawns [n - 1] additional domains. Between jobs, workers spin a
    bounded number of [Domain.cpu_relax] iterations on an atomic
    generation word (the fast path when cores are available) and then
    park on a condition variable (the oversubscription-safe slow
    path). *)

type t

val create : ?spin:int -> int -> t
(** [create n] spawns a pool of [n] workers. [spin] bounds the
    [Domain.cpu_relax] iterations a waiter spends on the fast path
    before parking; [0] parks immediately, recovering the pure condvar
    behavior. The default is parameterless and oversubscription-safe:
    512 when all [n] workers fit the machine's cores
    ([Domain.recommended_domain_count]), 0 otherwise — spinning cannot
    help when the signaling domain has no core to run on. Raises
    [Invalid_argument] when [n <= 0] or [spin < 0]. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job w] on every worker [w] (0 to [size t - 1])
    concurrently and returns when all have finished. If any worker
    raises, one of the raised exceptions is re-raised in the caller after
    all workers have completed. Raises like {!check_live} after
    {!shutdown}. *)

val check_live : t -> unit
(** Raises [Invalid_argument "Domain_pool: pool is shut down"] after
    {!shutdown}. Code that may finish without calling {!run} — a det:1
    run, a one-lane service drain — calls it where its work starts, so
    that every use after shutdown fails loudly rather than running on
    the caller alone. *)

val sync_counters : t -> (int * int) array
(** Per-worker [(spins, parks)] totals accumulated since pool creation:
    wakeups served entirely by the spin fast path vs. waits that fell
    back to the condvar. Slot [0] counts the caller's job-completion
    joins. Each {!run} on a pool of [n > 1] workers adds exactly one wait
    to every slot, so the sum of spins and parks over the slots is [n]
    times the number of [run]s ([0] for a one-worker pool); only the
    split between spins and parks depends on timing. Read only between
    jobs, and never fold into anything deterministic. *)

val shutdown : t -> unit
(** Join all worker domains. The pool cannot be used afterwards.
    Idempotent: a second [shutdown] is a no-op. *)

val with_pool : ?spin:int -> int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool, shutting it down
    afterwards even if [f] raises. *)

val guided_chunk : workers:int -> int -> int
(** [guided_chunk ~workers n] is the chunk size of a dynamic iteration
    over [n] indices shared by [workers]: about eight grabs per worker,
    at least 4 and at most 1024 indices per grab. Which worker runs which
    index depends on timing, so nothing deterministic may depend on the
    chunking. *)

val parallel_for : ?chunk:int -> t -> int -> int -> (int -> unit) -> unit
(** [parallel_for t lo hi body] runs [body i] for [lo <= i < hi] with
    dynamic chunked load balancing, in chunks of [chunk] indices
    (default {!guided_chunk} over the pool's workers). *)

val parallel_for_workers : t -> int -> int -> (int -> int -> int -> unit) -> unit
(** [parallel_for_workers t lo hi body] statically splits [\[lo, hi)] into
    contiguous slices and calls [body worker slice_lo slice_hi] once per
    worker that received a non-empty slice. *)
