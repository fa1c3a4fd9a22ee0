(** Determinism audit: falsify the paper's central claim on demand.

    A {!case} is a runnable program whose results are summarized as three
    digests. {!check_invariance} sweeps it over a configuration lattice
    (thread counts × initial windows × locality spread × continuation ×
    static ids), asserting:

    - at a fixed configuration, the round-trace digest
      ({!Galois.Stats.t.digest}), the totals of the counters
      {!Obs.counter_table} marks deterministic, the order-sensitive
      output digest and
      the rendered deterministic observability event stream
      ({!Obs.deterministic_lines}, timing events stripped) are identical
      across all thread counts — the paper's portability claim, checked
      in O(1) per comparison (byte-for-byte for the event stream);
    - across configurations, the case's canonical digest (its notion of
      "the answer") is identical — schedules may differ, answers may
      not.

    {!Gen} supplies property-based random cases (random conflict
    topologies, random operator shapes); {!App_cases} derives cases for
    the real benchmarks from the per-app table {!Replay_cases}, whose
    rows are the apps' [plan]s. {!seeds_distinguished} is the positive
    control proving
    the digests can diverge at all. *)

type run_result = {
  sched_digest : Galois.Trace_digest.t;
      (** {!Galois.Stats.t.digest} of the run; absent for serial/nondet *)
  det_counters : Galois.Trace_digest.t;
      (** the run's totals of the {!Obs.det_counters}, folded in table
          order: thread-invariant at a fixed configuration *)
  output_digest : Galois.Trace_digest.t;
      (** order-sensitive digest of the final output; thread-invariant at
          a fixed configuration *)
  canonical_digest : Galois.Trace_digest.t;
      (** digest of the configuration-invariant answer *)
  commits : int;
  det_trace : string;
      (** rendered deterministic event stream of the run
          ({!Obs.deterministic_lines}): byte-identical across thread
          counts at a fixed configuration *)
}

type case = {
  name : string;
  static_id_capable : bool;
      (** whether running under [~static_id] preserves the case's
          semantics (task keys unique, duplicate collapsing a no-op) *)
  run :
    policy:Galois.Policy.t ->
    pool:Galois.Pool.t ->
    static_id:bool ->
    run_result;
}

type config = { label : string; options : Galois.Policy.det_options; static_id : bool }

val lattice : static_id_capable:bool -> config list
(** The default configuration lattice: adaptive and pinned initial
    windows, locality spread on/off, continuation on/off, mark
    validation, soft-priority bucketing ([prio=delta:8], [prio=auto],
    [prio=auto] with a pinned small window), and (when the case
    permits) static ids. *)

val default_threads : int list
(** [\[1; 2; 4; 8\]]. *)

type divergence = {
  case_name : string;
  config : string;
  threads : int;
  quantity : string;
  expected : Galois.Trace_digest.t;
  got : Galois.Trace_digest.t;
}

type report = { case_name : string; runs : int; divergences : divergence list }

val ok : report -> bool
val pp_divergence : Format.formatter -> divergence -> unit
val pp_report : Format.formatter -> report -> unit

val check_invariance : ?threads:int list -> ?configs:config list -> case -> report
(** Run the case at every (configuration, thread count) lattice point —
    one shared domain pool sized to the largest thread count — and
    collect every digest divergence. An empty divergence list is the
    audit passing. *)

val seeds_distinguished :
  ?threads:int -> gen:(int -> case) -> seed:int -> Galois.Policy.t -> bool
(** Positive control: cases generated from [seed] and [seed + 1] must
    have different canonical digests under the given policy. False means
    the digest pipeline cannot signal divergence — every green audit is
    then meaningless. *)

val prio_salt_distinguished : ?threads:int -> seed:int -> unit -> bool
(** Positive control for the soft-priority axis: with a forced
    non-trivial priority range, perturbing the bucket-assignment salt
    must change the [prio=delta:1] schedule digest (buckets are folded
    into it) while leaving the [prio=off] digest untouched. False means
    the bucket plumbing is inert and the prio lattice rows prove
    nothing. *)

(** Property-based random cases over {!Parallel.Splitmix}: random
    conflict-lock topologies and random synthetic operators (randomized
    acquire sets, failsafe placement, continuation saves, work reports
    and task pushes). Everything is a function of the seed. *)
module Gen : sig
  type topology = Ring | Clusters | Bipartite | Subsets | Star

  val topology_name : topology -> string

  type params = {
    seed : int;
    tasks : int;
    locks : int;
    topology : topology;
    max_neigh : int;
    push_prob : float;
    max_children : int;
    max_depth : int;
    pure_prob : float;
    save_prob : float;
    work_max : int;
    unique_children : bool;
    prio_salt : int;
        (** seeds the per-task priority hash; perturbing it moves tasks
            between delta-stepping buckets (see
            {!prio_salt_distinguished}) *)
    prio_range : int;  (** priorities span [\[0, prio_range)] *)
  }

  val random_params : seed:int -> params
  (** The priority draws are appended after every pre-existing draw, so
      names, schedules and digests of cases pinned before the
      soft-priority axis are unchanged. *)

  val name_of_params : params -> string
  (** The case name [case_of_params] would report. *)

  val priority_of : params -> int * int -> int
  (** The per-task priority hash: pure in (params, item), in
      [\[0, prio_range)] (0 when [prio_range <= 1]). Attached to every
      generated run via {!Galois.Run.priority} — inert under the
      default [prio=off] configurations. *)

  val case_of_params : params -> case
  (** Runs a fresh plan of the generated operator (the one
      {!Replay_cases.gen} hands out) at every lattice point, like every
      {!App_cases} case. *)

  val case : seed:int -> case
  (** [case_of_params (random_params ~seed)]. *)
end

(** The one table of apps: each row is an app's plan over inputs
    generated once at row construction, plus how to digest the output
    its plan reads back and how to report it. [fresh] builds a
    brand-new world per call — crash/resume tests need one world for the
    uninterrupted reference and a separate one to crash. galois-run, the
    lattice cases ({!App_cases}), the checkpoint/replay harness
    (lib/replay, test_replay) and the audit rows ({!Audit_cases.apps})
    all run these rows. Names match the {!Gen} / {!App_cases} names for
    the same parameters, so pinned fixture entries can be
    cross-referenced. *)
module Replay_cases : sig
  type t =
    | Case : {
        name : string;
        static_id_capable : bool;
        snapshot_capable : bool;
            (** carries a snapshot-state hook: serialized cross-process
                resume works, not just live in-process resume *)
        fresh : static_id:bool -> unit -> ('i, 's) Galois.Run.t * (unit -> 'o);
            (** a fresh world's plan: its description plus a reader of
                the output (call once, after executing) *)
        output_digest : 'o -> Galois.Trace_digest.t;
            (** order-sensitive: thread-invariant at a fixed
                configuration *)
        canonical_digest : 'o -> commits:int -> Galois.Trace_digest.t;
            (** the configuration-invariant answer *)
        summary : 'o -> string;
            (** galois-run's one-line result, with its [valid=] check
                (pagerank: its deviation from the power iteration) *)
      }
        -> t

  val gen : seed:int -> t
  val bfs : n:int -> seed:int -> t
  val sssp : n:int -> seed:int -> t
  val boruvka : n:int -> seed:int -> t

  val dmr : points:int -> seed:int -> t
  (** Canonical digest is the refinement postcondition (mesh consistent
      and fully refined): the refined mesh itself is legitimately
      configuration-dependent, but must be thread-invariant at any fixed
      configuration (its canonical triangle list is the output
      digest). *)

  val all : n:int -> points:int -> seed:int -> t list
  (** Every app row: bfs, sssp, cc, boruvka, mis, triangles, pagerank,
      dt, dmr, kcore. bfs, sssp and pagerank run [kout n k=5]; cc, mis,
      triangles and kcore its symmetrisation; boruvka a symmetrised,
      weighted [kout n k=4]; dt and dmr [points] unit-square points (dt
      at least 4). bfs, sssp and kcore carry snapshot hooks. mis's
      canonical digest is the set's validity and pagerank's is every rank
      lying within 1% of the power iteration's: both answers depend on
      the configuration. *)

  val of_app : string -> n:int -> points:int -> seed:int -> (t, string) result
  (** The row of {!all} for a command-line app name, [mst] naming
      boruvka. The error names the accepted apps. *)
end

(** The paper's benchmarks as lattice cases, each derived from its
    {!Replay_cases} row: every [run] solves a fresh plan with a capture
    sink. *)
module App_cases : sig
  val of_replay : Replay_cases.t -> case

  val bfs : n:int -> seed:int -> case
  val sssp : n:int -> seed:int -> case
  val boruvka : n:int -> seed:int -> case
  val dmr : points:int -> seed:int -> case
end

(** Cases for the dynamic neighborhood/race audit ({!Galois.Run.audit}).

    {!Audit_cases.apps} runs every Run-based benchmark with auditing on:
    all are cautious by construction, so {!Galois.Audit.clean} must hold
    on each report (the race check also re-verifies the scheduler's
    disjoint-neighborhood invariant, since acquires count as writes).
    {!Audit_cases.controls} are deliberately broken operators — the
    audit's positive controls — each returning witness findings that
    must appear verbatim in its report. *)
module Audit_cases : sig
  type t = {
    name : string;
    run : policy:Galois.Policy.t -> pool:Galois.Pool.t -> Galois.Audit.report;
  }

  val apps : n:int -> points:int -> seed:int -> t list
  (** Every {!Replay_cases.all} row, named as the row is, solving a
      fresh plan per run with [~audit:true]; then pfp, which runs one
      plan per epoch and keeps its own row. *)

  type control = {
    cname : string;
    crun :
      policy:Galois.Policy.t ->
      pool:Galois.Pool.t ->
      Galois.Audit.report * Galois.Audit.finding list;
  }

  val non_cautious_bfs : n:int -> seed:int -> control
  (** BFS whose distance write precedes the failsafe point: flagged as
      (cautiousness, round 1, task 1) on the source node's location. *)

  val racy_sssp : unit -> control
  (** Two tasks with disjoint neighborhoods both writing an unacquired
      shared location: two containment findings plus one write/write
      race, all in round 1. *)

  val controls : n:int -> seed:int -> control list
end

(** The service lattice: determinism at the service boundary. An
    identical mixed bfs/sssp/cc query batch against a shared
    {!Service.Catalog} must yield byte-identical responses, per-job
    deterministic event streams, and service digests across pool sizes
    and across admission interleavings (the same submissions grouped
    into different arrival batches). *)
module Service_case : sig
  val queries : seed:int -> nodes:int -> count:int -> Service.Query.t list
  (** The deterministic workload: query [i] is a function of
      [(seed, i)] alone — bfs/sssp against ["kout"], cc against
      ["sym"], in the {!Service.Catalog.synthetic} catalog. *)

  val check :
    ?pool_sizes:int list -> ?count:int -> ?nodes:int -> seed:int -> unit -> report
  (** Run the [count]-query workload (default 120) once per
      (pool size × interleaving) lattice point — pool sizes default to
      {!default_threads}, interleavings are one-arrival-batch and
      uneven batches of 17 — and compare every point's response stream
      byte-for-byte (with each job's deterministic event-stream digest
      appended) against the first. *)
end

(** The schedule-dump text format, written by [galois-run --schedule-out]
    and compared by [detcheck replay]: one ["round=N window=W
    committed=C"] line per recorded round, numbered absolutely (a
    resumed run's dump starts mid-run), then a ["digest=<hex> rounds=R"]
    trailer. *)
module Schedule_dump : sig
  val lines : Galois.Run.report -> string list
  (** The dump of a run executed with {!Galois.Run.record}; a report
      without a round schedule yields the trailer alone. *)

  val check_suffix : full:string list -> resumed:string list -> (int, string list) result
  (** Whether the [resumed] dump is the suffix of the [full] one: every
      resumed round line equals the same-numbered full line and the
      digest trailers are equal. [Ok n] counts the resumed rounds;
      [Error] lists every problem found, including a resumed dump with
      no round lines and a missing trailer. *)
end
