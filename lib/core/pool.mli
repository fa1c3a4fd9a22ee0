(** A first-class, long-lived worker pool.

    Without an explicit pool every {!Run.exec} spawns and joins its own
    domains — correct, but ruinous for servers running thousands of
    small queries. A [Pool.t] is created once, injected into any number
    of runs ({!Run.pool}, or the [?pool] argument of the applications),
    shared freely between them, and shut down exactly once:

    {[
      let pool = Galois.Pool.create ~domains:8 () in
      (* ... many runs: Run.make ... |> Run.pool pool |> Run.exec ... *)
      Galois.Pool.shutdown pool
    ]}

    A pool may be larger than a run's thread count — schedulers use the
    first [threads] workers and the rest stay parked — but never
    smaller ({!Run.exec} raises). Deterministic schedules do not depend
    on the pool: running on a fresh pool, a shared pool, or a pool of a
    different size yields byte-identical digests. *)

type t

val create : ?domains:int -> unit -> t
(** [create ()] sizes the pool to the machine
    ([Domain.recommended_domain_count]); [~domains] pins the worker
    count. The calling domain participates as worker 0, so [domains - 1]
    new domains are spawned. Raises [Invalid_argument] when
    [domains <= 0]. *)

val size : t -> int
(** Worker count, including the caller's slot. *)

val domain_pool : t -> Parallel.Domain_pool.t
(** The underlying SPMD pool, for code driving [Parallel] primitives
    ([parallel_for], the pbbs kernels) directly. Raises
    [Invalid_argument "Galois.Pool: pool is shut down"] after
    {!shutdown} — every use-after-shutdown fails loudly rather than
    hanging on parked workers. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent: a second [shutdown] is a
    no-op. Any later attempt to {e use} the pool (a run, or
    {!domain_pool}) raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, even if [f] raises. *)
