(** Non-deterministic speculative scheduler (paper Fig. 1b).

    Executes tasks eagerly with mark-based conflict detection and
    cheap rollback (dining-philosophers style, §2.1). The answer may
    depend on timing and thread count — this is the fast default the
    paper argues for, with determinism available on demand via
    {!Det_sched}. *)

val run :
  ?record:bool ->
  ?sink:Obs.sink ->
  ?threads:int ->
  pool:Parallel.Domain_pool.t ->
  operator:(('item, 'state) Context.t -> 'item -> unit) ->
  'item array ->
  Stats.t * Schedule.t option
(** [sink] receives one [Phase_time] ([Execute]) and per-worker
    [Worker_counters] events at the end of the run; it is not closed.
    With {!Obs.null} the run reads no clock.

    An exception raised by [operator] ends the run for every worker and
    is re-raised; when several workers raise, which exception wins is
    unspecified. *)
