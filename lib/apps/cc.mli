(** Connected components by label propagation (Galois program) and
    union-find (sequential baseline). The graph must be symmetric. *)

val plan : Graphlib.Csr.t -> (int, unit) Galois.Run.t * (unit -> int array)
(** Minimum-label propagation: the unexecuted run description plus a
    reader of its label array. The labels — minimum node id per
    component — are unique, so every policy agrees. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Parallel.Domain_pool.t ->
  Graphlib.Csr.t ->
  int array * Galois.Run.report
(** [Galois.Run.solve] over {!plan}. It stays only because
    costbench/workload.ml names it, and ROADMAP direction 1 deletes
    it; code in the tree solves {!plan} directly. *)

val serial : Graphlib.Csr.t -> int array

val count_components : int array -> int
val validate : Graphlib.Csr.t -> int array -> bool
