(** Recorded schedules: per-task costs and location streams.

    Optional output of a runtime execution, consumed by the machine
    simulator (scaling figures) and the cache simulator (locality
    figures). *)

type task_record = {
  acquires : int;  (** neighborhood size (mark operations) *)
  inspect_work : int;  (** work units before the failsafe point *)
  commit_work : int;  (** work units of the commit / full execution *)
  committed : bool;
  locks : int array;  (** location ids in acquisition order *)
}

type t =
  | Rounds of task_record array list
      (** Deterministic rounds, in order; each array is one inspected
          window. *)
  | Flat of task_record list
      (** Asynchronous execution: attempts in completion order. *)

val committed_tasks : t -> task_record list
(** Every committed record, in round (or completion) order. *)

val digest : t -> Trace_digest.t
(** Structural digest: round boundaries plus every record's costs and
    commit decision (location ids excluded — they are process-local).
    Lets two recordings be compared in O(1) after the fact; the live
    {!Stats.t.digest} additionally covers committed task ids. *)
