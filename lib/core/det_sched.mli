(** Deterministic interference-graph (DIG) scheduler — the paper's core
    contribution (§3).

    Executes an unordered Galois task pool in deterministic rounds:
    inspect a window of tasks up to their failsafe points with max-id
    marking, commit the unique resulting independent set, retry the rest.
    The output is a function of the input and the (fixed) scheduling
    constants only — never of the thread count or timing. *)

val spread_index : int -> int -> int -> int
(** [spread_index spread n i] is the slot that position [i] of [n]
    takes under the §3.3 locality-spread permutation: the array dealt
    into [spread] strided piles, concatenated. A bijection on [[0, n)]
    whenever [spread > 1 && n > spread]; the identity otherwise. *)

val spread_permute : int -> 'a array -> 'a array
(** The spread permutation applied to an array: element [i] moves to
    [spread_index spread (length arr) i]. Returns [arr] itself when the
    permutation is the identity. Exposed for the property tests. *)

val generation_layout :
  static_id:('item -> int) option ->
  spread:int ->
  priority:Policy.priority_mode ->
  prio_of:('item -> int) ->
  base:int ->
  'item Child_buffer.t array ->
  (int * 'item) array * (int * int) array * int
(** Generation formation exactly as the scheduler does it, for the
    property tests: the [(id, item)] tasks of the generation formed from
    the children in the worker buffers (at least one child in all), in
    pending-deque order, with ids dense from [base]; the
    [(bucket, size)] run table ([[||]] under [Prio_off]); and the bucket
    width used (0 under [Prio_off]). Without [static_id], ids follow the
    (parent id, birth index) order, whichever buffer holds a child;
    raises [Invalid_argument] unless each parent's births are exactly
    [0..k-1]. *)

val adapt_window : target_ratio:float -> window:int -> committed:int -> w_use:int -> int
(** One step of the parameterless window controller (§3.1): the next
    window size after a round that committed [committed] of [w_use]
    tasks under the current [window]. Doubles (capped at 2^22) at or
    above [target_ratio], shrinks proportionally below it to
    [window * ratio / target_ratio + 1] — at least [committed] when the
    round used its whole window and [target_ratio <= 1], so the floor
    comes from the commit count, not from a constant. Raises
    [Invalid_argument] unless [1 <= w_use <= window] and
    [0 <= committed <= w_use]. Exposed for the property tests; the
    scheduler calls exactly this. *)

type 'item boundary = {
  b_rounds : int;  (** rounds completed when the boundary was taken *)
  b_generations : int;
  b_buckets : int;  (** soft-priority bucket runs opened so far *)
  b_next_id : int;
  b_gen_base : int;
  b_window : int;  (** the {e next} round's window (already adapted) *)
  b_delta : int;
      (** bucket width of the current soft-priority generation; 0 when
          unordered. Resume recomputes pending buckets from priorities
          and this delta. *)
  b_digest : Trace_digest.t;  (** digest prefix through round [b_rounds] *)
  b_pending_ids : int array;  (** task ids, in pending-deque order *)
  b_pending_items : 'item array;
  b_todo_parents : int array;
  b_todo_births : int array;
  b_todo_items : 'item array;
  b_counters : Stats.worker;
      (** sums of the {!Obs.det_counters} since round 1; the other
          counters are 0 *)
}
(** Round-boundary scheduler state: everything [run] needs to resume at
    round [b_rounds + 1] and reproduce the uninterrupted run's schedule
    digest for digest. The pending deque is captured in deque order (the
    spread permutation means that is {e not} id order), and the current
    generation's children ride along in (parent id, birth index) order —
    a mid-generation boundary owns children pushed by earlier rounds,
    and the order makes its encoded bytes independent of the thread
    count. [b_buckets] and [b_counters] are cumulative since the
    original round 1: [b_counters] carries exactly the worker counters
    whose {!Obs.counter_table} entry is deterministic (committed,
    aborted, acquires, atomics, work, pushes, inspections). The
    thread- and timing-dependent ones (chunks, spins, parks) restart
    from zero on resume. *)

val run :
  ?record:bool ->
  ?sink:Obs.sink ->
  ?audit:Audit.t ->
  ?checkpoint:int * ('item boundary -> unit) ->
  ?resume:'item boundary ->
  ?stop_after:int ->
  ?threads:int ->
  ?priority:('item -> int) ->
  pool:Parallel.Domain_pool.t ->
  options:Policy.det_options ->
  static_id:('item -> int) option ->
  operator:(('item, 'state) Context.t -> 'item -> unit) ->
  'item array ->
  Stats.t * Schedule.t option
(** [static_id] enables the paper's §3.3 fast path for task pools drawn
    from a fixed universe: ids come from the application (and duplicate
    pushes of one task collapse) instead of the (parent id, birth
    index) rank of each child.

    [priority] maps an item to its (lower-is-sooner) integer priority.
    It only matters under [options.priority <> Prio_off]: each
    generation is laid out as contiguous delta-stepping bucket runs
    (bucket = [priority / delta], floor division; id order within a
    bucket; the spread permutation applies per run) and rounds draw
    their windows from the lowest non-empty bucket, never straddling
    runs. The layout is a pure function of (ids, priorities, delta), so
    the schedule stays deterministic; bucket opens are folded into the
    digest and emitted as [Obs.Bucket_opened]/[Bucket_drained]. Omitting
    [priority] under a prio policy puts every task in bucket 0. With
    [Prio_off] (the default policy) the function is ignored and the
    schedule is byte-identical to the unordered scheduler.

    [sink] receives the full round/phase event stream: per generation a
    [Generation_begin]; per round [Round_begin], [Inspect_done],
    [Select_done], [Execute_done] plus two [Phase_time]s, a
    [Chunk_sized] with the round's guided chunk size and a
    [Window_adapted] when the adaptive controller resizes; and final
    per-worker [Worker_counters]. Events are emitted from sequential
    sections only, and every field outside [Phase_time] / [Chunk_sized] /
    [Worker_counters] is deterministic. The sink is not closed. The
    [Phase_time]s are the only clock readings: with {!Obs.null} the
    scheduler reads no clock.

    [audit] attaches a dynamic determinism recorder ({!Audit}): worker
    contexts record acquire/touch footprints on per-worker tapes, and
    the sequential glue checks cautiousness, containment and
    intra-round races after every round's selectAndExec, emitting a
    deterministic [Obs.Audit_finding] per finding when tracing. Without
    it, no recorder exists and the hot path is unchanged.

    [checkpoint:(k, f)] calls [f] with a fresh {!boundary} after every
    [k]-th round (from the sequential glue — [f] may serialize the items
    but must not call back into the scheduler), preceded by a
    deterministic [Obs.Checkpoint_taken] event when tracing. Raises
    [Invalid_argument] if [k < 1].

    [resume] restarts from a boundary instead of [items] (which is then
    ignored): round numbering, id assignment, the adaptive window and
    the digest continue exactly where the boundary stopped, so a
    completed resumed run's digest equals the uninterrupted run's — at
    any thread count. Emits [Obs.Resumed] when tracing.

    [stop_after:r] stops after the first round boundary with
    [rounds >= r] (a no-op if the run finishes earlier) — the replay-to
    primitive. The returned stats cover the executed prefix. Raises
    [Invalid_argument] if [r < 1].

    An exception raised by [operator] does not cut its phase short:
    every other task of the round's inspect (or selectAndExec) still
    runs, and then [run] re-raises the exception of the raising task
    with the lowest id, with that task's backtrace. Which tasks raise is
    deterministic, so the same exception surfaces at every thread count.
    After an inspect failure no task of that round has committed; after
    a selectAndExec failure every other selected task of the round has.
    The pool stays usable. *)
