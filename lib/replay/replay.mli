(** Checkpoint/replay harnesses over the {!Galois.Run} replay
    primitives: lockstep dual-run digest cross-checking (the DMR-style
    verifier behind [detcheck lockstep]) and crash-injection (run, kill
    at a round, resume). The primitives themselves — [Run.checkpoint],
    [Run.resume], [Run.stop_after] and the snapshot codec — live in
    lib/core; this layer only composes them. *)

(** Run a job twice (any two thread counts / pools) and cross-check the
    deterministic digest prefix at every shared round boundary —
    dual-modular-redundancy-style execution, with divergence localized
    to the first differing boundary. *)
module Lockstep : sig
  type trail = (int * Galois.Trace_digest.t) list
  (** [(round, digest prefix through that round)] in ascending round
      order. *)

  type verdict =
    | Agree of { compared : int }  (** all shared boundaries matched *)
    | Diverge of { round : int; a : Galois.Trace_digest.t; b : Galois.Trace_digest.t }
        (** earliest shared boundary where the digests differ *)
    | Disjoint  (** no shared boundaries — nothing was compared *)

  val collect :
    every:int -> ('item, 'state) Galois.Run.t -> trail * Galois.Run.report
  (** Execute the description with an [every]-round checkpoint hook
      that records [(round, digest)] — the description must already
      carry a det policy (and pool, if shared). *)

  val first_divergence : trail -> trail -> verdict
  (** Compare two trails at their common rounds (cadences may differ);
      rounds sampled by only one side are skipped. *)

  val pp_verdict : Format.formatter -> verdict -> unit
end

type crash_outcome = {
  resumed : Galois.Run.report;
      (** the run that was stopped at [crash_round] and resumed to
          completion; its deterministic stats (digest, rounds, commits)
          must equal an uninterrupted run's *)
  crash_round : int;
      (** the round the crash boundary was taken after; 0 if the run
          finished without taking any boundary (empty task pool) *)
}

val crash_resume :
  ?resume_policy:Galois.Policy.t -> at:int -> ('i, 's) Galois.Run.t -> crash_outcome
(** Crash-injection harness, the one crash-and-resume in the tree. The
    description (with a det policy applied) is executed with a snapshot
    after every round and stopped at the first boundary [>= at], then
    executed again over the same world, resumed from the last snapshot
    through {!Galois.Run.resume} — under [resume_policy] if given (e.g.
    a different thread count; determinism says the digest must not
    care). [at] past the end of the run degrades to a complete run plus
    a no-op resume. The caller runs its own uninterrupted reference
    over a separate world to compare against. *)

val swap_pending_ids :
  int -> int -> 'item Galois.Det_sched.boundary -> 'item Galois.Det_sched.boundary
(** The negative-control perturbation: a copy of the boundary with
    pending-deque entries [i] and [j] (ids and items) swapped. The task
    set is preserved but the window draw order is not, so a resume from
    the perturbed boundary diverges at the first round after it. *)
