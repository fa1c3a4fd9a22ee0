(** Execution statistics for a runtime invocation.

    These back the paper's application-characteristics study (Figures 4
    and 5: task commit rates, abort ratios, rounds, atomic update
    rates). A report is counts and a digest, with no time in it: a
    run's per-phase times are the {!Obs.Phase_time} events of a traced
    run, and its wall time is measured around the call by whoever wants
    it. *)

type worker = Obs.counters
(** Per-worker mutable counters, owned exclusively by one worker during
    a parallel section (create them with {!Obs.counters}). *)

val book_sync : worker array -> before:(int * int) array -> after:(int * int) array -> unit
(** Set each worker's [spins]/[parks] to the difference between two
    {!Parallel.Domain_pool.sync_counters} snapshots taken around a run. *)

val counters_event : worker -> Obs.event
(** The [Worker_counters] observability event of a worker: a copy of
    its counters as they are now. *)

type t = {
  threads : int;
  commits : int;
  aborts : int;
  acquired : int;
  atomics : int;
  work_units : int;
  created : int;
  inspected : int;
  chunks : int;  (** dynamic chunk grabs of the DIG parallel phases *)
  spins : int;  (** pool-sync wakeups served by the spin fast path *)
  parks : int;
      (** pool-sync waits that parked on a condvar. Every pool dispatch
          books one wait, a spin or a park, per worker of the run, so
          [spins + parks] is [threads] times the dispatched phases (the
          DIG scheduler runs a phase no second worker could share
          inline, without one); only the split depends on timing. *)
  rounds : int;
  generations : int;
  buckets : int;
      (** soft-priority buckets opened by the deterministic scheduler
          (0 when [prio=off] and for nondet/serial) *)
  digest : Trace_digest.t;
      (** Round-trace digest of a deterministic execution
          ({!Trace_digest.absent} for nondet/serial). Two deterministic
          runs of the same program took the same schedule iff their
          digests agree. *)
}
(** Aggregated result of one {!Run.exec}. The counters from [commits]
    to [parks] are the workers' {!Obs.counters} summed ([acquired] is
    [acquires], [work_units] is [work], [created] is [pushes],
    [inspected] is [inspections]); under [det], the sums of the
    {!Obs.det_counters} are thread-invariant and survive a resume.
    Every field but [threads], [chunks], [spins] and [parks] is then a
    function of the input and the det options alone. *)

val merge :
  ?digest:Trace_digest.t ->
  ?buckets:int ->
  threads:int ->
  rounds:int ->
  generations:int ->
  worker array ->
  t
(** [buckets] defaults to 0 (unordered execution). *)

val totals : t -> worker
(** [t]'s counters as one record (worker 0): the inverse of {!merge}'s
    projection of the summed workers onto {!t}. *)

val add : t -> t -> t
(** Combine consecutive executions (counters sum, digests chain with
    {!Trace_digest.combine}). *)

val zero : int -> t
(** Neutral element of {!add} for a given thread count. *)

val abort_ratio : t -> float
(** Aborts / (commits + aborts); the paper's abort ratio (Fig. 4). *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary. The digest is printed only when present
    (deterministic runs). *)
