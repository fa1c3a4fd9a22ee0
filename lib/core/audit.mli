(** Dynamic determinism audit: shadow access recording and per-round
    neighborhood/race checking for the DIG scheduler.

    Enable with {!Run.audit} (det policies only). When auditing is on,
    {!Context.acquire} records each acquisition and operators may
    declare their shared-state accesses with {!Context.touch}; the
    scheduler drains the per-worker tapes in its sequential end-of-round
    glue and checks, per committed round:

    - {e cautiousness} — no shared write before the failsafe point (any
      inspected task, committed or defeated);
    - {e containment} — every location a committed task touched was in
      its acquired neighborhood;
    - {e race} — no write/write or write/read overlap between distinct
      committed tasks of the same round. Acquires count as writes, so
      the check is non-vacuous even for operators that never call
      [touch]: it independently verifies the scheduler's
      disjoint-neighborhood invariant.

    Auditing is zero-cost when disabled: no recorder is allocated and
    the hot path pays one branch per acquire/touch. Findings are a
    deterministic function of the schedule and the location ids (see
    {!Lock.create}). *)

type kind = Acquire | Read | Write

type rule =
  | Containment  (** touched a location outside the acquired set *)
  | Cautiousness  (** wrote shared state before the failsafe point *)
  | Race  (** two committed tasks of one round overlap, >= 1 writer *)

val rule_name : rule -> string
(** ["containment"], ["cautiousness"] or ["race"] — the names used by
    [Obs.Audit_finding] and the detlint/detcheck tooling. *)

type finding = {
  rule : rule;
  round : int;
  task : int;  (** offending task id (the higher id, for races) *)
  other : int;  (** race partner (lower id); [0] for other rules *)
  lid : int;  (** location id ({!Lock.id}) *)
}

val pp_finding : Format.formatter -> finding -> unit

type report = {
  findings : finding list;  (** in detection order (round-major) *)
  rounds : int;  (** rounds audited *)
  tasks : int;  (** task inspections audited (retries recount) *)
  dropped : int;  (** findings past the recorder's limit, not retained *)
}

val empty_report : report
val merge_reports : report -> report -> report
(** Concatenate findings and sum the counters — for multi-epoch apps
    that execute one {!Run} per epoch (e.g. preflow-push). *)

val clean : report -> bool
(** No findings and none dropped. *)

(** {2 Scheduler internals}

    Everything below is wired by {!Run.exec} and the DIG scheduler;
    applications only see {!report} and {!Context.touch}. *)

type t
(** A recorder: per-worker tapes plus the accumulated findings. One
    recorder serves exactly one run (tapes are drained per round,
    findings accumulate across rounds). *)

val create : unit -> t
(** A recorder that retains at most 10000 findings; excess findings are
    counted in [report.dropped] rather than silently lost. *)

type tape
(** A per-worker flat event buffer. Recording never allocates beyond
    amortized buffer growth. *)

val tape : t -> int -> tape
(** The tape for worker slot [w], created on first use. Call from
    sequential code only. *)

val record : tape -> task:int -> lid:int -> kind:kind -> pre:bool -> unit
(** Append one access event. [pre] marks an access before the task's
    failsafe point. *)

val end_round : t -> round:int -> inspected:int -> committed:int array -> finding list
(** Drain all tapes, run the three checks for [round] against the
    (ascending-sorted) committed task ids, clear the tapes, and return
    this round's fresh findings (also accumulated into the recorder).
    Call from the scheduler's sequential glue, after selectAndExec and
    before the pending set is compacted. *)

val report : t -> report
