(** The runtime's one source of time.

    Durations are differences of the monotonic clock, so they cannot go
    negative under NTP steps; absolute event timestamps ([Obs.at_s])
    are wall time, read by {!stamp} alone. Nothing a run reports besides
    {!Obs} events carries time: the schedulers read this module only to
    build [Phase_time] events, so only when a sink is attached. *)

val now_ns : unit -> int64
(** Nanoseconds on CLOCK_MONOTONIC; origin is arbitrary (comparable
    only within one process). *)

val now_s : unit -> float
(** [now_ns] in seconds. *)

val elapsed_s : float -> float
(** [elapsed_s t0] is seconds since the [now_s] reading [t0], clamped
    to be non-negative. *)

val stamp : Obs.event -> Obs.stamped
(** [event] stamped with the current wall-clock time. *)
