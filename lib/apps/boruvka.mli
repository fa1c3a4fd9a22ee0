(** Boruvka's minimum spanning forest as an unordered Galois program.

    Each union-find root owns a mergeable min-heap of its component's
    outgoing edges, keyed by (weight, edge id), whose top is external
    after every union: a task's inspection reads that top in O(1) and
    writes nothing; its commit melds the two heaps and pops the edges
    the union made internal.

    Requires a symmetric graph with direction-symmetric weights
    ({!Graphlib.Graph_io.undirected_random_weights}); ties break by edge
    id, making the forest weight unique across all policies. *)

type forest = { parent_edge : int list; total_weight : int }

val plan :
  Graphlib.Csr.t -> int array -> (int, unit) Galois.Run.t * (unit -> forest)
(** The unexecuted {!galois} description plus a closure reading the
    forest off the world after (each) exec. Tagged [app "boruvka"];
    carries no snapshot-state hook (union-find is not serializable), so
    it supports live in-process resume only. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  int array ->
  forest * Galois.Run.report

val serial : Graphlib.Csr.t -> int array -> forest
(** Kruskal with (weight, edge id) ordering — defines the deterministic
    answer. *)

val validate : Graphlib.Csr.t -> forest -> bool
(** Acyclic and spanning (forest components = graph components). *)
