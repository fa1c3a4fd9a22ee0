(** Breadth-first search (paper §4.1). *)

val unreached : int
(** Distance value of unreachable nodes ([max_int]). *)

val plan :
  Graphlib.Csr.t -> source:int -> ((int * int), unit) Galois.Run.t * (unit -> int array)
(** The app's single definition: the unexecuted run description plus a
    reader of the distance array it fills. {!galois} is
    {!Galois.Run.solve} over it; the checkpoint/replay layer composes
    its own policies onto it. The description is tagged [app "bfs"] and
    carries a [Run.snapshot_state] hook over the distance array, so
    snapshots can resume in a fresh process. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  source:int ->
  int array * Galois.Run.report
(** Lonestar-style unordered label-correcting BFS: runs
    non-deterministically or deterministically by policy (the paper's
    g-n / g-d variants). Returns the distance array. *)

val serial : Graphlib.Csr.t -> source:int -> int array
(** Optimized sequential queue BFS (the Fig. 8 baseline role). *)

val pbbs :
  pool:Parallel.Domain_pool.t -> Graphlib.Csr.t -> source:int -> int array * int array * int
(** PBBS detBFS: level-synchronous with deterministic min-parent
    resolution. Returns (distances, parents, levels). *)

val validate : Graphlib.Csr.t -> source:int -> int array -> bool
(** Checks a distance labelling against the BFS definition. *)
