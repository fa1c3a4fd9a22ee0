(** The deterministic job server: concurrent bfs/sssp/cc queries
    against a shared {!Catalog}, executed on a shared {!Galois.Pool}.

    The admission queue batches submissions into rounds keyed only by
    (job id, arrival batch) — never wall-clock. {!drain} executes one
    arrival batch (everything pending) in job-id order; each job runs
    as one deterministic Galois run, its parallelism inside the run.
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
      (** deterministic validation failure: unknown graph, missing
          weights, asymmetric graph, source out of range *)

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
(** A server executing jobs on the given pool with [det:threads]
    (default: the pool size; must not exceed it), holding at most
    [max_pending] (default 1024) queued jobs, teeing every job's events
    into [sink] (default {!Obs.null}). The server does not own the
    pool; shutting the pool down is the creator's job, after the last
    {!drain}. *)

val submit : ?sink:Obs.sink -> t -> Query.t -> [ `Accepted of int | `Rejected of int ]
(** Enqueue a query; the id is the submission rank. [sink] receives
    this job's events (teed with the server's global sink) when it
    executes. Rejected submissions are recorded as {!Rejected}
    responses immediately. *)

val pending : t -> int

val drain : t -> response list
(** Execute every currently pending job — one arrival batch — in job-id
    order and return their responses (also recorded). Jobs submitted
    from a sink while draining join the next batch. *)

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
