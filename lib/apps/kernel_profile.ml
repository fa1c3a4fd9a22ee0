(* Execution profile of a PARSEC-style data-parallel kernel.

   These kernels (blackscholes, bodytrack, freqmine) contrast with the
   irregular benchmarks in the paper's characteristics study: coarse
   tasks, orders of magnitude fewer atomic updates (Fig. 5), and good
   behavior under CoreDet-style deterministic thread scheduling (Fig. 6).
   The per-task cost vector feeds the machine and CoreDet simulators. *)

type t = {
  tasks : int;
  atomics : int;  (* shared-memory atomic updates performed *)
  barriers : int;  (* bulk-synchronous phase boundaries *)
  time_s : float;
  task_costs : int array;  (* abstract work units per task *)
}

let total_work t = Array.fold_left ( + ) 0 t.task_costs
