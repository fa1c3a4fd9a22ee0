(** The deterministic job server: concurrent bfs/sssp/cc queries
    against a shared {!Catalog}, executed on a shared {!Galois.Pool}.

    The admission queue batches submissions into rounds keyed only by
    (job id, arrival batch) — never wall-clock. {!drain} executes one
    arrival batch (everything pending) on up to [threads] lanes: one
    pool dispatch deals the batch's jobs to the lanes, and each job runs
    as one det:1 Galois run on the lane that takes it. A det run's
    answer does not depend on its thread count, so a job answers exactly
    as it would at det:[threads], and jobs run side by side instead of
    each paying the pool's wake-ups every round. A job's own sink is
    called by the lane running it; the server's global sink is called
    only by the draining domain, which replays each job's buffered
    events and records the responses in job-id order.

    Rendered responses exclude latency and batch number, so an
    identical submission sequence yields byte-identical responses — and
    an identical folded {!digest} — at any pool size and under any
    grouping of the submissions into batches (as long as nothing is
    rejected; rejections depend on batch boundaries by design).

    Backpressure is deterministic: a submission is rejected iff the
    queue already holds [max_pending] jobs. A rejection is itself a
    recorded response, so two identical submission/drain sequences
    agree byte-for-byte on the rejects too. *)

type outcome =
  | Done of {
      summary : string;  (** app-specific, e.g. [reached=812] *)
      output_digest : Galois.Trace_digest.t;
      sched_digest : Galois.Trace_digest.t;
      commits : int;
      rounds : int;
    }
  | Rejected of { reason : string }  (** deterministic backpressure *)
  | Failed of { reason : string }
      (** deterministic failure: a validation failure (unknown graph,
          missing weights, asymmetric graph, source out of range), or
          the [Printexc] rendering of the exception the query's run or
          one of its sinks raised *)

type response = {
  job : int;  (** submission-order id *)
  query : Query.t;
  batch : int;  (** arrival batch it executed in; {e not} rendered *)
  outcome : outcome;
  latency_s : float;  (** submit-to-completion wall time; {e not} rendered *)
}

val render : response -> string
(** One line, e.g.
    [job=3 query=bfs:kout:7 ok reached=812 output=.. sched=.. commits=812 rounds=14].
    A function of (job id, query, outcome) only — byte-comparable
    across pool sizes and admission interleavings. *)

type t

val create :
  ?threads:int -> ?max_pending:int -> ?sink:Obs.sink -> catalog:Catalog.t ->
  Galois.Pool.t -> t
(** A server executing up to [threads] jobs at once on the given pool,
    each at det:1 (default: the pool size; must not exceed it), holding
    at most [max_pending] (default 1024) queued jobs, and replaying
    every job's events into [sink] (default {!Obs.null}) in job-id
    order. The server does not own the pool; shutting the pool down is
    the creator's job, after the last {!drain}. *)

val submit : ?sink:Obs.sink -> t -> Query.t -> [ `Accepted of int | `Rejected of int ]
(** Enqueue a query; the id is the submission rank. [sink] receives
    this job's events, from the lane that executes it; the server's
    global sink receives them too, from the draining domain. Rejected
    submissions are recorded as {!Rejected} responses immediately.
    Raises [Invalid_argument "Server.submit: called while draining"]
    when called during {!drain} (from a sink), where the job's id
    would depend on timing. *)

val pending : t -> int

val drain : t -> response list
(** Execute every currently pending job — one arrival batch — and
    return their responses in job-id order (also recorded in that
    order). A query whose run raises is answered {!Failed}; the rest
    of the batch is still answered. Raises [Invalid_argument] when
    called during another drain, or when the pool is shut down (then
    nothing is popped). *)

(** {2 Introspection} *)

type stats = {
  submitted : int;
  completed : int;
  rejected : int;
  failed : int;
  batches : int;
  pending : int;
  digest : Galois.Trace_digest.t;
}

val stats : t -> stats

val digest : t -> Galois.Trace_digest.t
(** FNV-1a fold of every recorded {!render} line, in record order — the
    service-level analogue of the scheduler's round-trace digest. *)

val responses : t -> response list
(** Every recorded response, in record order. *)

val percentile_latency_s : t -> float -> float
(** [percentile_latency_s t 99.0] is the p99 latency (nearest-rank);
    [0.0] when nothing completed. *)
