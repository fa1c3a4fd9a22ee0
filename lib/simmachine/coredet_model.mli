(** Model of CoreDet-style deterministic thread scheduling (quantum
    rounds with serialized communication), for the Fig. 6 comparison. *)

val slowdown : Machine.t -> threads:int -> work:int -> atomics:int -> float
(** Simulated CoreDet execution time of a workload with the given total
    work and atomic-update count, over the time of the same workload
    under plain parallel execution. *)
