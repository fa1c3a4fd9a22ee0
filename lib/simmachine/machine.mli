(** Cost models of the paper's three evaluation machines (§4.3). *)

type t = {
  name : string;
  numa_nodes : int;
  cores_per_node : int;
  ghz : float;
  work_cycles : float;
  atomic_cycles : float;
  remote_multiplier : float;
  acquire_overhead_cycles : float;
  reread_miss_cycles : float;
  barrier_base_cycles : float;
  barrier_per_thread_cycles : float;
  task_overhead_cycles : float;
}

val max_threads : t -> int

val remote_fraction : t -> threads:int -> float
(** Probability that a shared access crosses nodes, when threads fill
    NUMA nodes in order: [(k - 1) / k] over the [k] nodes touched. *)

val m4x10 : t
val m4x6 : t
val numa8x4 : t
val all : t list
val by_name : string -> t option

val thread_sweep : t -> int list
(** Powers of two up to the machine's core count (plus the max). *)
