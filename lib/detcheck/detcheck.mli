(** Determinism audit: falsify the paper's central claim on demand.

    {!check_invariance} sweeps a row of the app table {!Replay_cases}
    over a configuration lattice (thread counts × initial windows ×
    locality spread × continuation × static ids), asserting:

    - at a fixed configuration, the round-trace digest
      ({!Galois.Stats.t.digest}), the totals of the counters
      {!Obs.counter_table} marks deterministic, the order-sensitive
      output digest and
      the rendered deterministic observability event stream
      ({!Obs.deterministic_lines} of the {!Galois.Run.trace} stream,
      timing events stripped) are identical across all thread counts —
      the paper's portability claim, checked in O(1) per comparison
      (byte-for-byte for the event stream, whose divergence is reported
      at its first differing line);
    - across configurations, the row's canonical digest (its notion of
      "the answer") is identical — schedules may differ, answers may
      not.

    {!Replay_cases.gen} supplies property-based random rows (random
    conflict topologies, random operator shapes) beside the real
    benchmarks' rows. {!seeds_distinguished} is the positive control
    proving the digests can diverge at all. *)

type config = { label : string; options : Galois.Policy.det_options; static_id : bool }

val lattice : static_id_capable:bool -> config list
(** The default configuration lattice: adaptive and pinned initial
    windows, locality spread on/off, continuation on/off, mark
    validation, a non-default window target ratio ([ratio=0.5]),
    soft-priority bucketing ([prio=delta:8], [prio=auto],
    [prio=auto] with a pinned small window), and (when the row
    permits) static ids. *)

val default_threads : int list
(** [\[1; 2; 4; 8\]]. *)

(** The one table of apps: each row is an app's plan over inputs
    generated once at row construction, plus how to digest the output
    its plan reads back and how to report it. [fresh] builds a
    brand-new world per call — crash/resume tests need one world for the
    uninterrupted reference and a separate one to crash, and every
    lattice point starts from scratch. galois-run, the lattice
    ({!check_invariance}), the checkpoint/replay harness (lib/replay,
    test_replay) and the audit rows ({!Audit_cases.apps}) all run these
    rows. *)
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
  (** A property-based random row over {!Parallel.Splitmix}: a random
      conflict-lock topology and a random synthetic operator (randomized
      acquire sets, failsafe placement, continuation saves, work reports
      and task pushes), everything a function of the seed. Its name
      records the seed, the lock topology and the task, lock and
      push-depth counts; it is static-id capable when its child keys
      are unique. *)

  val gen_repeated : seed:int -> t
  (** The {!gen} row of [seed] made to repeat items: its children draw
      their keys from an eighth of the task range, so many pushes name
      an item already pushed. It is static-id capable: with static ids
      the copies of an item collapse into one task, without them each
      copy runs. Its answer is the set of values each cell received,
      the same either way, except that a value written twice into one
      cell under static ids (a collapse that did not happen) changes
      it. *)

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

type line_diff = {
  line : int;  (** 1-based, counting deterministic lines only *)
  round : int;  (** the round in progress in the expected stream; 0 before round 1 *)
  expected_line : string;
  got_line : string;  (** ["<end of stream>"] past a stream's last line *)
}
(** The first line two deterministic event streams disagree on. *)

type divergence = {
  case_name : string;
  config : string;
  threads : int;
  quantity : string;
  expected : Galois.Trace_digest.t;
  got : Galois.Trace_digest.t;
  first_line : line_diff option;  (** present on a ["trace-stream"] divergence *)
}

type report = { case_name : string; runs : int; divergences : divergence list }

val ok : report -> bool

val pp_divergence : Format.formatter -> divergence -> unit
(** One line; a trace-stream divergence names its first differing line
    and round. *)

val pp_report : Format.formatter -> report -> unit
(** One line per divergence; a trace-stream divergence names its first
    differing line and round. *)

val check_invariance : ?threads:int list -> Replay_cases.t -> report
(** Solve a fresh world of the row at every ({!lattice} configuration,
    thread count) point with {!Galois.Run.trace} — one shared domain
    pool sized to the largest thread count — and collect every digest
    divergence. An empty divergence list is the audit passing. A run
    whose capture ring overflows raises [Failure]. *)

val seeds_distinguished : ?threads:int -> seed:int -> Galois.Policy.t -> bool
(** Positive control: the {!Replay_cases.gen} rows of [seed] and
    [seed + 1] must have different canonical digests under the given
    policy. False means the digest pipeline cannot signal divergence —
    every green audit is then meaningless. *)

val prio_salt_distinguished : ?threads:int -> seed:int -> unit -> bool
(** Positive control for the soft-priority axis: with a forced
    non-trivial priority range, perturbing the bucket-assignment salt
    must change the [prio=delta:1] schedule digest (buckets are folded
    into it) while leaving the [prio=off] digest untouched. False means
    the bucket plumbing is inert and the prio lattice rows prove
    nothing. *)

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
    run : policy:Galois.Policy.t -> pool:Parallel.Domain_pool.t -> Galois.Audit.report;
  }

  val apps : n:int -> points:int -> seed:int -> t list
  (** Every {!Replay_cases.all} row, named as the row is, solving a
      fresh plan per run with [~audit:true]; then pfp, which runs one
      plan per epoch and keeps its own row. *)

  type control = {
    cname : string;
    crun :
      policy:Galois.Policy.t ->
      pool:Parallel.Domain_pool.t ->
      Galois.Run.report * Galois.Audit.finding list;
        (** the run's report, with its audit and its {!Galois.Run.trace}
            stream, and the witnesses its audit must flag verbatim *)
  }

  val controls : n:int -> seed:int -> control list
  (** [non-cautious-bfs]: BFS whose distance write precedes the failsafe
      point, flagged as (cautiousness, round 1, task 1) on the source
      node's location. [racy-sssp]: two tasks with disjoint
      neighborhoods both writing an unacquired shared location, giving
      two containment findings plus one write/write race, all in
      round 1. *)
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
