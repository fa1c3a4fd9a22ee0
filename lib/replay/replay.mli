(** Checkpoint/replay harnesses over the {!Galois.Run} replay
    primitives: crash injection (run, kill at a round, resume) and the
    snapshot perturbation that is its negative control. The primitives
    themselves — [Run.checkpoint], [Run.resume], [Run.stop_after] and
    the snapshot codec — live in lib/core; this layer only composes
    them. A divergence is localized to a round by detcheck's lattice
    (the first differing deterministic event line, with its round) or by
    a [Run.checkpoint ~every:1] trail of round-boundary digests. *)

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
