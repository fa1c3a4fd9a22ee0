(** Replay recorded schedules under machine cost models to obtain
    simulated execution times at arbitrary thread counts — the engine
    behind the reproduction's scaling figures (Figs. 6, 7, 9, 10). *)

val makespan : ?amplify:int -> threads:int -> float list -> float
(** Greedy list-scheduling makespan. [amplify] models the same schedule
    at K times the input size (balanced bound, clamped by the longest
    task). *)

val seconds : Machine.t -> float -> float

val time_schedule : ?amplify:int -> Machine.t -> threads:int -> Galois.Schedule.t -> float
(** Generic Galois runtime cost: a [Flat] (serial or speculative)
    schedule is list-scheduled task by task; a [Rounds] (deterministic)
    schedule pays, per round, an inspect and a commit makespan, each
    followed by a barrier, with a re-read miss per committed acquire. *)

val time_rounds_pbbs :
  ?amplify:int -> Machine.t -> threads:int -> Galois.Schedule.task_record array list -> float
(** Handwritten-DIG cost model (the PBBS variants, paper §5.3): bare
    reservations, hand-coded task resume, tuned constants. *)

val time_serial_baseline : ?amplify:int -> Machine.t -> Galois.Schedule.task_record list -> float
(** Best-sequential-implementation model: committed work only, no
    synchronization cost (the Fig. 8 baselines). *)

val time_kernel :
  ?amplify:int ->
  Machine.t ->
  threads:int ->
  task_costs:int array ->
  barriers:int ->
  atomics:int ->
  float
