(** Single-source shortest paths with non-negative integer weights. *)

val unreached : int

val plan :
  Graphlib.Csr.t ->
  int array ->
  source:int ->
  ((int * int), unit) Galois.Run.t * (unit -> int array)
(** The unexecuted {!galois} description plus a reader of its distance
    array, tagged [app "sssp"] with a [Run.snapshot_state] hook — see
    {!Bfs.plan}. *)

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
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  int array ->
  source:int ->
  int array * Galois.Run.report
(** Unordered label-correcting SSSP (weights indexed by edge id). The
    distances are unique, so every policy agrees with {!serial}. Raises
    [Invalid_argument] on weight-array size mismatch. *)

val galois_weighted :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  source:int ->
  int array * Galois.Run.report
(** {!galois} over {!plan_weighted}: the embedded-weight-plane run. *)

val serial : Graphlib.Csr.t -> int array -> source:int -> int array
(** Dijkstra. *)

val validate : Graphlib.Csr.t -> int array -> source:int -> int array -> bool
