(** Deterministic synthetic graph generators (paper §4.2 inputs), built
    for paper scale: edges stream straight into off-heap CSR planes
    with no per-node list allocation, so 10^6–10^7-vertex inputs build
    in seconds with a near-empty heap. *)

val kout : ?seed:int -> n:int -> k:int -> unit -> Csr.t
(** Uniform random graph: each node gets [k] distinct random out-edges
    (no self-loops) — the bfs/mis/pfp input family of the paper.
    Byte-identical output to the historical list-based generator for
    any (seed, n, k). *)

val grid2d : rows:int -> cols:int -> Csr.t
(** 4-connected grid (the 2D road-like input), symmetric. *)

val rmat :
  ?seed:int -> ?a:float -> ?b:float -> ?c:float -> scale:int -> edge_factor:int -> unit -> Csr.t
(** R-MAT power-law generator; [2^scale] nodes, [edge_factor] edges per
    node. *)

val uniform : ?seed:int -> n:int -> m:int -> unit -> Csr.t
(** Uniform random multigraph: [m] edges with uniform endpoints, no
    self-loops. *)

val flow_network :
  ?seed:int -> n:int -> k:int -> unit -> Csr.t * int array * int * int
(** Random flow instance: (graph, edge capacities in [\[1, 100\]],
    source, sink). *)
