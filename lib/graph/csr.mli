(** Immutable compressed-sparse-row directed graphs on off-heap
    storage.

    Node ids are [0..nodes-1]. Edge indices are stable, so per-edge
    payloads (capacities, flows) live in arrays keyed by edge index —
    or, for weights, in an optional plane stored alongside the
    topology.

    The offsets/targets/weights vectors are {!Plane.t} (Bigarray with
    automatic 4/8-byte element sizing): the graph's bulk lives outside
    the OCaml heap, is never scanned by the GC, and costs half the
    memory of the old boxed [int array] representation on inputs with
    fewer than [2^31] edges. *)

type t

val nodes : t -> int
val edges : t -> int

val memory_bytes : t -> int
(** Total off-heap payload (offsets + targets + weights planes). *)

(** {2 Construction} *)

val of_adjacency : int list array -> t
(** Build from out-adjacency lists; list order becomes edge order. *)

val of_edges : n:int -> (int * int) array -> t
(** Build from an edge array. Edge order is preserved per source node
    (stable counting sort by source — the same adjacency order as
    {!of_adjacency} on lists built in edge order). Raises
    [Invalid_argument] on out-of-range endpoints. *)

val of_planes : ?weights:Plane.t -> n:int -> offsets:Plane.t -> targets:Plane.t -> unit -> t
(** Wrap pre-built planes after validating the CSR invariants (offsets
    monotone and anchored at [0]/[edges], targets in range). Raises
    [Invalid_argument] when they do not hold. *)

(** Streaming edge builder: accumulate edges one at a time in off-heap
    staging buffers (no [int list array] intermediate), then pack with
    the same stable counting sort as {!of_edges}. *)
module Builder : sig
  type csr = t
  type t

  val create : ?capacity:int -> n:int -> unit -> t
  val nodes : t -> int

  val add_edge : t -> int -> int -> unit
  (** Raises [Invalid_argument] on out-of-range endpoints, or if the
      builder already holds weighted edges. *)

  val add_weighted_edge : t -> int -> int -> int -> unit
  (** Raises [Invalid_argument] on out-of-range endpoints, a negative
      weight, or if the builder already holds unweighted edges. *)

  val build : t -> csr
end

(** {2 Weights} *)

val weighted : t -> bool

val weight : t -> int -> int
(** Raises [Invalid_argument] if the graph has no weight plane or the
    edge index is out of bounds. *)

val unsafe_weight : t -> int -> int
(** No checks; [0] on unweighted graphs. For traversal loops over
    verified edge ranges. *)

val with_weight_plane : t -> Plane.t -> t
val weights_array : t -> int array option
(** Materialize the weight plane back to a heap array (compatibility
    with [int array] consumers). *)

(** {2 Traversal} *)

val out_degree : t -> int -> int

val first_edge : t -> int -> int
val end_edge : t -> int -> int
(** [u]'s successors are the edges [first_edge g u .. end_edge g u - 1].
    Both raise [Invalid_argument] on a node out of bounds; with
    {!target}, a [for] loop over that range walks the successors
    without allocating a closure. *)

val target : t -> int -> int
(** The head of an edge. Raises [Invalid_argument] on an edge index
    out of bounds. *)

val iter_succ : t -> int -> (int -> unit) -> unit
val iter_succ_edges : t -> int -> (int -> int -> unit) -> unit

val exists_succ : t -> int -> (int -> bool) -> bool

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v]: is there an edge [u -> v]? Binary search when
    every adjacency range is ascending (checked at construction; always
    true for {!symmetrize} output), linear scan otherwise — same verdict
    either way. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** All edges in edge-index order, without materializing tuples. *)

val iter_edges_i : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges_i g f] calls [f e u v] for every edge in edge-index
    order. *)

val all_edges : t -> (int * int) array

val symmetrize : t -> t
(** Undirected, simple version: both directions present, no self-loops,
    no duplicate edges, adjacency sorted ascending. List-free and
    int-specialized; the output is a pure function of the input edge
    set (identical to the historical [List.sort_uniq compare] path). *)

val is_symmetric : t -> bool
(** Reverse-edge check: O(m log d) by binary search on sorted-adjacency
    graphs, linear-scan fallback otherwise. *)

val validate : t -> (unit, string) result
(** Re-check the structural invariants (used on every binary load). *)

val equal : t -> t -> bool
(** Same topology and weights, independent of element sizing. *)

(** {2 Internal plane access} (serialization) *)

val offsets_plane : t -> Plane.t
val targets_plane : t -> Plane.t
val weights_plane : t -> Plane.t option
