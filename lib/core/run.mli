(** The primary runtime entry point: a builder over everything a run
    can carry — policy, pool, schedule recording, static ids, trace
    sinks and in-memory trace capture.

    {[
      let report =
        Galois.Run.(
          make ~operator initial_tasks
          |> policy (Galois.Policy.det 8)
          |> record
          |> sink (Obs.Jsonl.file "run.jsonl")
          |> exec)
    ]} *)

type ('item, 'state) operator = ('item, 'state) Context.t -> 'item -> unit

type report = {
  stats : Stats.t;
  schedule : Schedule.t option;  (** present iff {!record} was requested *)
  trace : Obs.stamped list option;  (** present iff {!trace} was requested *)
  audit : Audit.report option;  (** present iff {!audit} was requested *)
}

type ('item, 'state) t
(** An unexecuted run description. Immutable: every combinator returns
    a new value, so partial descriptions can be shared and specialized. *)

val make : operator:('item, 'state) operator -> 'item array -> ('item, 'state) t
(** A run of [operator] over the given initial tasks, under
    {!Policy.serial}, with no pool, recording, sinks or capture. *)

val policy : Policy.t -> ('item, 'state) t -> ('item, 'state) t

val pool : Pool.t -> ('item, 'state) t -> ('item, 'state) t
(** Reuse a long-lived {!Pool.t} (must be at least as large as the
    policy's thread count — {!exec} raises [Invalid_argument]
    otherwise, and also when the pool is already shut down); without
    one, {!exec} creates a temporary pool per run. *)

val record : ('item, 'state) t -> ('item, 'state) t
(** Capture a {!Schedule.t} for the simulators ([report.schedule]). *)

val static_id : ('item -> int) -> ('item, 'state) t -> ('item, 'state) t
(** Deterministic-scheduler fast path for fixed task universes (§3.3);
    ignored by other policies. *)

val priority : ('item -> int) -> ('item, 'state) t -> ('item, 'state) t
(** Soft-priority hint: map each task to a (lower-is-sooner) integer
    priority. Only consulted by det policies whose options carry
    [prio=delta:<n>] or [prio=auto] ([Policy.Det_options.make ~priority])
    — the scheduler then lays each generation out as delta-stepping bucket
    runs and draws windows from the lowest non-empty bucket. Under the
    default [prio=off] (and under serial/nondet policies) the hint is
    ignored and schedules are byte-identical to runs without it. *)

val sink : Obs.sink -> ('item, 'state) t -> ('item, 'state) t
(** Stream observability events into [sink] during execution. May be
    called several times; all sinks receive every event. Sinks are
    {e never closed} by {!exec} — a sink can outlive many runs (e.g.
    one trace file across the epochs of preflow-push); closing is the
    creator's responsibility. *)

val trace : ('item, 'state) t -> ('item, 'state) t
(** Additionally capture the event stream in memory and return it as
    [report.trace]. The capture ring holds 65,536 events; if the run
    emits more, {!exec} raises [Failure] naming the dropped count rather
    than return a truncated stream. Stream longer runs to a {!sink}. *)

val opt : ('a -> ('i, 's) t -> ('i, 's) t) -> 'a option -> ('i, 's) t -> ('i, 's) t
(** [opt f (Some v)] is [f v]; [opt f None] is the identity — for
    threading optional arguments through a builder chain. *)

val audit : ('item, 'state) t -> ('item, 'state) t
(** Enable the dynamic determinism audit ({!Audit}): record every
    task's acquire/touch footprint and check cautiousness, containment
    and intra-round races after each committed round, returning the
    accumulated findings as [report.audit]. Requires a det policy
    ({!exec} raises [Invalid_argument] otherwise). With auditing off no
    recorder is allocated — the hot path is unchanged. *)

(** {1 Checkpoint & replay}

    A round-boundary {!Snapshot.t} is the one currency: {!checkpoint}
    hands one out every few rounds, {!resume} takes one back. A det
    schedule depends only on the input and the det options, so a
    snapshot resumes at any thread count and the completed run's digest
    equals the uninterrupted run's. Files and bytes are the caller's:
    {!Snapshot.save}/{!Snapshot.load} and
    {!Snapshot.encode}/{!Snapshot.decode}.

    All of these require a det policy: {!exec} raises
    [Invalid_argument] if any is combined with serial or nondet. *)

val app : string -> ('item, 'state) t -> ('item, 'state) t
(** Tag the description with an application name, recorded in
    snapshots; resuming from a snapshot whose tag disagrees is
    refused. Untagged descriptions and snapshots skip the check. *)

val snapshot_state :
  save:(unit -> 'st) -> restore:('st -> unit) -> ('item, 'state) t -> ('item, 'state) t
(** Register the application's world state with the snapshot machinery:
    [save ()] captures it (called at each checkpoint; the result may be
    marshalled, so it must be plain data — copy your arrays), [restore]
    writes a captured value back (called once by {!resume}, before the
    first round). Without a hook, snapshots carry scheduler state only:
    they can resume only against a world that already reflects the
    captured rounds, such as the one that was stopped there in this
    process. *)

val checkpoint :
  every:int -> ('item Snapshot.t -> unit) -> ('item, 'state) t -> ('item, 'state) t
(** Call the function with a snapshot after every [every]-th round
    ({!exec} raises [Invalid_argument] if [every < 1]). It runs in the
    scheduler's sequential glue and must not call back into the run. *)

val resume : 'item Snapshot.t -> ('item, 'state) t -> ('item, 'state) t
(** Continue from a snapshot at its captured round; the initial items
    of the description are ignored. {!exec} first validates it against
    this description — det options, app tag and static-id flag, raising
    [Invalid_argument] on a mismatch (or if the snapshot carries state
    and the description has no {!snapshot_state} hook) — then restores
    the state it carries through the hook. A snapshot kept in memory
    from a stopped run passes the same checks as one loaded from a
    file. *)

val stop_after : int -> ('item, 'state) t -> ('item, 'state) t
(** Stop at the first round boundary [>= r] (replay-to). A no-op if the
    run finishes earlier; the report covers the executed prefix. *)

val exec : ('item, 'state) t -> report
(** Run all tasks (and the tasks they create) to completion. The event
    stream is bracketed by [Run_begin] and [Run_end]. *)

val solve :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  ?pool:Pool.t ->
  policy:Policy.t ->
  ('item, 'state) t * (unit -> 'a) ->
  'a * report
(** Execute an app's plan — its run description plus a reader of the
    output — under [policy], adding {!record}, {!audit}, a {!pool} and a
    {!sink} when asked, and return [(result (), report)]. Each app in
    [lib/apps] is defined once by its [plan], and this is how code runs
    it: [solve ~policy (App.plan input)]. *)
