(** Single-source shortest paths with non-negative integer weights. *)

val unreached : int

val plan :
  Graphlib.Csr.t ->
  int array ->
  source:int ->
  ((int * int), unit) Galois.Run.t * (unit -> int array)
(** Unordered label-correcting SSSP (weights indexed by edge id): the
    unexecuted run description plus a reader of its distance array,
    tagged [app "sssp"] with a [Run.snapshot_state] hook — see
    {!Bfs.plan}. The distances are unique, so every policy agrees with
    {!serial}. Raises [Invalid_argument] on weight-array size
    mismatch. *)

val plan_weighted :
  Graphlib.Csr.t ->
  source:int ->
  ((int * int), unit) Galois.Run.t * (unit -> int array)
(** Like {!plan}, but weights come from the graph's own off-heap weight
    plane ({!Graphlib.Csr.weight}) — no heap-side weight array. Raises
    [Invalid_argument] on an unweighted graph. The schedule depends
    only on the weight values, so for equal weights the digest is
    byte-identical to the array path. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Parallel.Domain_pool.t ->
  Graphlib.Csr.t ->
  int array ->
  source:int ->
  int array * Galois.Run.report
(** [Galois.Run.solve] over {!plan}. It stays only because
    costbench/workload.ml names it, and ROADMAP direction 1 deletes
    it; code in the tree solves {!plan} directly. *)

val galois_weighted :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Parallel.Domain_pool.t ->
  Graphlib.Csr.t ->
  source:int ->
  int array * Galois.Run.report
(** [Galois.Run.solve] over {!plan_weighted}. It stays only because
    costbench/workload.ml names it, and ROADMAP direction 1 deletes
    it; code in the tree solves {!plan_weighted} directly. *)

val serial : Graphlib.Csr.t -> int array -> source:int -> int array
(** Dijkstra. *)

val validate : Graphlib.Csr.t -> int array -> source:int -> int array -> bool
