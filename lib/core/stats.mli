(** Execution statistics for a runtime invocation.

    These back the paper's application-characteristics study (Figures 4
    and 5: task commit rates, abort ratios, rounds, atomic update
    rates). *)

type worker = Obs.counters
(** Per-worker mutable counters, owned exclusively by one worker during
    a parallel section (create them with {!Obs.counters}). *)

val book_sync : worker array -> before:(int * int) array -> after:(int * int) array -> unit
(** Set each worker's [spins]/[parks] to the difference between two
    {!Parallel.Domain_pool.sync_counters} snapshots taken around a run. *)

val counters_event : worker -> Obs.event
(** The [Worker_counters] observability event of a worker: a copy of
    its counters as they are now. *)

type phase_times = { inspect_s : float; select_s : float; other_s : float }
(** Wall-clock breakdown of {!t.time_s} across scheduler phases. The DIG
    scheduler reports its two parallel phases in [inspect_s]/[select_s]
    with sequential glue (generation sort, mark resolution, window
    adaptation) in [other_s]; serial and speculative executions book all
    their time under [select_s]. Always sums to {!t.time_s} (up to float
    rounding). *)

val breakdown : inspect_s:float -> select_s:float -> time_s:float -> phase_times
(** Clamp the measured phase times to [\[0, ∞)] and attribute the
    remainder of [time_s] to [other_s] (clamped at 0). *)

val phase_total : phase_times -> float
(** Sum of the three components. *)

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
  time_s : float;
  phases : phase_times;  (** where [time_s] went, per scheduler phase *)
}
(** Aggregated result of one {!Run.exec}. The counters from [commits]
    to [parks] are the workers' {!Obs.counters} summed ([acquired] is
    [acquires], [work_units] is [work], [created] is [pushes],
    [inspected] is [inspections]); under [det], the sums of the
    {!Obs.det_counters} are thread-invariant and survive a resume. *)

val merge :
  ?digest:Trace_digest.t ->
  ?phases:phase_times ->
  ?buckets:int ->
  threads:int ->
  rounds:int ->
  generations:int ->
  time_s:float ->
  worker array ->
  t
(** When [phases] is omitted the whole of [time_s] is booked under
    [other_s]; [buckets] defaults to 0 (unordered execution). *)

val totals : t -> worker
(** [t]'s counters as one record (worker 0): the inverse of {!merge}'s
    projection of the summed workers onto {!t}. *)

val add : t -> t -> t
(** Combine consecutive executions (counters sum, times add, digests
    chain with {!Trace_digest.combine}). *)

val zero : int -> t
(** Neutral element of {!add} for a given thread count. *)

val abort_ratio : t -> float
(** Aborts / (commits + aborts); the paper's abort ratio (Fig. 4). *)

val commits_per_us : t -> float
(** Committed tasks per microsecond (Fig. 4's task rate). *)

val atomics_per_us : t -> float
(** Atomic updates per microsecond (Fig. 5). *)

val pp_phases : Format.formatter -> phase_times -> unit

val pp : Format.formatter -> t -> unit
(** Multi-line summary. The digest is printed only when present
    (deterministic runs); serial/nondet runs show the phase-time
    breakdown without a digest line. *)
