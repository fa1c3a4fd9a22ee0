(** Execution profile of a PARSEC-style data-parallel kernel, consumed
    by the machine and CoreDet simulators (Figs. 5, 6). *)

type t = {
  tasks : int;
  atomics : int;
  barriers : int;
  time_s : float;
  task_costs : int array;
}

val total_work : t -> int
