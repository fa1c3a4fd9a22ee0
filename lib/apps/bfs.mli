(** Breadth-first search (paper §4.1). *)

val unreached : int
(** Distance value of unreachable nodes ([max_int]). *)

val plan :
  Graphlib.Csr.t -> source:int -> ((int * int), unit) Galois.Run.t * (unit -> int array)
(** Lonestar-style unordered label-correcting BFS, the app's single
    definition: the unexecuted run description plus a reader of the
    distance array it fills. It runs non-deterministically or
    deterministically by the policy it is solved under (the paper's
    g-n / g-d variants); the checkpoint/replay layer composes its own
    policies onto it. The description is tagged [app "bfs"] and carries
    a [Run.snapshot_state] hook over the distance array, so snapshots
    can resume in a fresh process. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Parallel.Domain_pool.t ->
  Graphlib.Csr.t ->
  source:int ->
  int array * Galois.Run.report
(** [Galois.Run.solve] over {!plan}. It stays only because
    costbench/workload.ml names it, and ROADMAP direction 1 deletes
    it; code in the tree solves {!plan} directly. *)

val serial : Graphlib.Csr.t -> source:int -> int array
(** Optimized sequential queue BFS (the Fig. 8 baseline role). *)

val pbbs :
  pool:Parallel.Domain_pool.t -> Graphlib.Csr.t -> source:int -> int array * int array * int
(** PBBS detBFS: level-synchronous with deterministic min-parent
    resolution. Returns (distances, parents, levels). *)

val validate : Graphlib.Csr.t -> source:int -> int array -> bool
(** Checks a distance labelling against the BFS definition. *)
