(** Structured round/phase observability for the Galois runtime.

    All three schedulers can emit a stream of typed events into a
    {!sink}: round boundaries, per-phase outcomes (inspect /
    select-and-execute), adaptive-window decisions, per-worker counters
    and per-phase wall-clock timings. Events that depend only on the
    input and the policy — never on timing or thread count — are
    classified {!deterministic}; rendering just those
    ({!deterministic_lines}) yields a byte-comparable stream that must
    be identical across thread counts for a deterministic run, which
    [lib/detcheck] audits across its configuration lattice.

    Sinks are synchronous and are only ever called from the scheduler's
    sequential sections (never concurrently), so they need no locking. *)

(** {1 Worker counters} *)

type counters = {
  worker : int;  (** worker index within the run *)
  mutable committed : int;  (** tasks that executed to completion *)
  mutable aborted : int;  (** conflict aborts / failed round selections *)
  mutable acquires : int;  (** neighborhood mark operations *)
  mutable atomics : int;  (** CAS-class operations on shared words *)
  mutable work : int;  (** abstract work units reported by operators *)
  mutable pushes : int;  (** tasks created *)
  mutable inspections : int;  (** deterministic-scheduler inspect executions *)
  mutable chunks : int;  (** chunk grabs in the DIG parallel phases *)
  mutable spins : int;  (** pool wakeups served by the spin fast path *)
  mutable parks : int;  (** pool waits that parked on the condvar slow path *)
}
(** The per-worker counters behind the paper's Figures 4 and 5. One
    worker owns its record during a parallel section and bumps the
    fields directly; everything that walks all of them goes through
    {!counter_table}. *)

type counter = {
  name : string;  (** rendering and JSONL key *)
  get : counters -> int;
  set : counters -> int -> unit;
  det : bool;
      (** the run-wide sum is a function of the input and the policy
          under [det] — identical across thread counts and carried
          across a resume boundary *)
}

val counter_table : counter list
(** Every counter except [worker], in declaration order: the order of
    the [Worker_counters] rendering, its JSONL fields, and the resume
    boundary's wire format. [chunks], [spins] and [parks] depend on
    thread count and timing; the other seven are deterministic. *)

val det_counters : counter list
(** The entries of {!counter_table} with [det] set, in table order. *)

val counters : int -> counters
(** All-zero counters of worker [w]. *)

val sum_counters : ?fields:counter list -> counters array -> counters
(** Field-wise sum over [fields] (default {!counter_table}); fields
    outside the list, and [worker], are zero. *)

(** {1 Events} *)

(** The two instrumented phases of a DIG round, plus [Execute] for
    schedulers that run tasks directly (serial, speculative). *)
type phase = Inspect | Select | Execute

val phase_name : phase -> string
(** ["inspect"], ["select"] or ["execute"]. *)

val phase_of_name : string -> phase option

type event =
  | Run_begin of { policy : string; threads : int; tasks : int }
      (** First event of a run. Carries the rendered policy and thread
          count, so it is {e not} part of the deterministic stream. *)
  | Generation_begin of { generation : int; tasks : int }
      (** The DIG scheduler drained its pending queue into a new
          sorted generation of [tasks] tasks. *)
  | Round_begin of { round : int; window : int }
      (** A DIG round starts over a window of [window] tasks. *)
  | Inspect_done of { round : int; marked : int; saved_continuations : int }
      (** Inspect phase finished: [marked] locations were acquired
          (max-id marked) in total; [saved_continuations] tasks saved a
          continuation at their failsafe point. *)
  | Select_done of { round : int; committed : int; defeated : int }
      (** Mark ownership resolved: [committed] tasks won all their
          marks, [defeated] lost at least one and retry next round. *)
  | Execute_done of { round : int; work : int; pushes : int }
      (** Commit execution finished: [work] abstract work units were
          performed by committed tasks, which pushed [pushes] children. *)
  | Window_adapted of { old_w : int; new_w : int; ratio : float }
      (** The adaptive controller resized the window after a round with
          commit ratio [ratio]. Only emitted when the size changes. *)
  | Phase_time of { round : int; phase : phase; dt_s : float }
      (** Wall-clock seconds spent in one phase of one round. Timing
          is machine- and run-dependent: never deterministic. *)
  | Chunk_sized of { round : int; tasks : int; chunk : int }
      (** The DIG scheduler's guided chunking picked grab size [chunk]
          for this round's [tasks]-task parallel phases. The choice
          depends on the thread count, so — like [Phase_time] — it is
          not part of the deterministic stream. *)
  | Worker_counters of counters
      (** End-of-run totals of one worker (see {!counters}). Task→worker
          attribution and synchronization behavior depend on timing, so
          the event is not deterministic even where the run-wide sum of
          a counter is. *)
  | Bucket_opened of { generation : int; bucket : int; size : int }
      (** Soft-priority scheduling ([prio=delta:<n>|auto]) started
          drawing windows from delta-stepping bucket [bucket] of
          [generation], holding [size] tasks. Bucket membership is
          [priority / delta] — a pure function of the task set — so the
          event is deterministic. *)
  | Bucket_drained of { round : int; bucket : int }
      (** The last task of bucket [bucket] left the pending window after
          [round] (committed or carried to the next generation); the
          next round draws from the following non-empty bucket. *)
  | Checkpoint_taken of { round : int; digest : string }
      (** A round-boundary snapshot was captured after [round], with the
          digest prefix through that round (hex). Emitted only when
          checkpointing is enabled; round and digest are deterministic,
          so two checkpointed runs must agree on every such event. *)
  | Resumed of { round : int; digest : string }
      (** The scheduler restarted from a round-boundary snapshot taken
          after [round] and will replay round [round + 1] next. Emitted
          only on resume. *)
  | Audit_finding of { round : int; rule : string; task : int; other : int; lid : int }
      (** The dynamic determinism audit ([Run.audit]) flagged task
          [task] in [round]: [rule] is ["containment"],
          ["cautiousness"] or ["race"] (see [Galois.Audit]); [other] is
          the race partner's task id (0 otherwise); [lid] the location.
          Deterministic given a fixed location-id namespace
          ([Lock.reset_lids]). *)
  | Run_end of { commits : int; rounds : int; generations : int }
      (** Last event of a run. *)

type stamped = { at_s : float; event : event }
(** An event with the absolute wall-clock time it was emitted at. *)

val deterministic : event -> bool
(** [true] iff every field of the event is a function of the input and
    the policy alone — identical across machines and thread counts for
    a deterministic ([det]) run. [Run_begin], [Phase_time],
    [Chunk_sized] and [Worker_counters] are excluded; everything else is
    included. *)

val pp_event : Format.formatter -> event -> unit
(** One-line human rendering, stable across runs (no timestamps). *)

val deterministic_lines : stamped list -> string
(** Render the deterministic subset of a trace, one event per line,
    timestamps stripped. Two deterministic runs of the same input must
    produce byte-identical results regardless of thread count; this is
    the quantity detcheck compares across its lattice. *)

(** {1 Sinks} *)

type sink = { emit : stamped -> unit; close : unit -> unit }
(** A consumer of stamped events. [close] flushes/releases resources;
    the creator of a sink is responsible for closing it (the runtime
    never closes user-supplied sinks — a sink may outlive several runs,
    e.g. one trace file across the epochs of [pfp]). *)

(** Sink combinators: compose per-job sinks with a global sink (the
    service layer's shape — every query can carry its own sink teed
    into the server's), or fan one stream out to several consumers. *)
module Sink : sig
  type t = sink

  val null : t
  (** Discards everything. *)

  val is_null : t -> bool
  (** Physical test against {!null} — the combinators guarantee any
      composition that would discard everything {e is} [null]. *)

  val tee : t -> t -> t
  (** Emits into both sinks; [close] closes both. [null] operands
      collapse: [tee null s == s]. *)

  val of_list : t list -> t
  (** Emits into every sink, in list order; [close] closes all. [null]
      elements are dropped; an empty (or all-[null]) list is {!null}. *)
end

val null : sink
(** [Sink.null]. *)

val tee : sink -> sink -> sink
(** [Sink.tee]. *)

val close : sink -> unit
(** [close s = s.close ()]. *)

val pretty : ?ppf:Format.formatter -> unit -> sink
(** Human-readable printer (default {!Fmt.stderr}); each line is
    prefixed with seconds elapsed since the sink's first event. *)

(** In-memory ring buffer, the sink used by tests and [detcheck]. *)
module Memory : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Ring of at most [capacity] (default 65536) most-recent events.
      Older events are dropped once full — ample for test-sized runs,
      but note that an overflowing ring is no longer a faithful prefix
      of the run. *)

  val sink : t -> sink
  (** [close] is a no-op; the buffer stays readable. *)

  val contents : t -> stamped list
  (** Oldest first. *)

  val dropped : t -> int
  (** Number of events evicted due to capacity. *)

  val clear : t -> unit
end

(** Line-oriented JSON encoding of stamped events: one flat object per
    line, e.g.
    [{"at_s":12.5,"ev":"round_begin","round":3,"window":64}].
    Self-contained emitter and validating parser (no external JSON
    dependency); [of_line (to_line s)] round-trips every event. *)
module Jsonl : sig
  val to_line : stamped -> string
  (** Without the trailing newline. *)

  val of_line : string -> (stamped, string) result
  (** Parse and schema-check one line: must be a flat JSON object with
      an [at_s] number, a known [ev] name, exactly that event's fields
      with the right types, and nothing else. *)

  val validate_line : string -> (unit, string) result

  val load : string -> (stamped list, string) result
  (** Read a trace file; the error names the file and the first
      offending line, or the I/O failure (missing file, directory). *)

  val sink : out_channel -> sink
  (** Write lines to a channel the caller owns; [close] only flushes. *)

  val file : string -> sink
  (** Open [path] for writing; [close] closes the file (idempotent). *)
end
