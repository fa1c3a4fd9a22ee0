(** Mutable triangle mesh with neighbor adjacency and per-triangle
    abstract locks.

    The shared substrate of the Delaunay triangulation (dt) and Delaunay
    mesh refinement (dmr) benchmarks.

    {b Synchronization contract}: acquire [tri.lock] through the operator
    context before reading or writing any field of [tri]. The cavity
    helpers take an [acquire] callback and honor this for every triangle
    they touch. *)

module Pointstore = Pointstore

type triangle = {
  tid : int;  (** internal id; not deterministic across runs *)
  v : int array;  (** 3 point ids, counter-clockwise *)
  nbr : triangle option array;
      (** [nbr.(i)] shares the edge opposite [v.(i)]; [None] = border *)
  mutable alive : bool;
  lock : Galois.Lock.t;
  mutable bucket : int list;  (** uninserted points inside (dt only) *)
}

type t

val create : ?capacity:int -> unit -> t
val points : t -> Pointstore.t
val point : t -> int -> Geometry.Point.t
val add_point : t -> Geometry.Point.t -> int
val triangle_point : t -> triangle -> int -> Geometry.Point.t

val new_triangle : t -> int -> int -> int -> triangle
(** Fresh alive triangle with the given CCW vertices and no neighbors. *)

val triangles : t -> triangle list
(** All alive triangles. Call only in quiescent states. *)

val triangle_count : t -> int

val facing_index : triangle -> int -> int -> int
(** [facing_index tri a b] is the slot (0..2) of the neighbor across
    edge [{a, b}]. Raises [Invalid_argument] if the triangle lacks that
    edge. *)

type boundary_edge = {
  a : int;
  b : int;
  outer : triangle option;
  inner : triangle;  (** the cavity triangle this edge belongs to *)
}
type cavity = { old_tris : triangle list; boundary : boundary_edge list }

exception Blocked of int * int * triangle
(** [Blocked (a, b, tri)]: the cavity hit border edge (a, b) of [tri]
    with the insertion point outside the domain; refinement splits that
    edge instead. *)

val collect_cavity :
  ?ignore_border:int * int ->
  t ->
  acquire:(triangle -> unit) ->
  start:triangle ->
  Geometry.Point.t ->
  cavity
(** The Bowyer–Watson cavity of a point: all triangles reachable from
    [start] whose open circumdisk contains it, plus the boundary edge
    cycle. [acquire] is called before each triangle (cavity members and
    boundary outers) is first read. [ignore_border] names the border
    segment being split, whose midpoint may round to just outside the
    domain; it is exempt from the [Blocked] check. *)

val retriangulate :
  ?split:int * int -> t -> register:(Galois.Lock.t -> unit) -> cavity -> int -> triangle list
(** [retriangulate t ~register cavity q] kills the cavity and stars [q]
    to the boundary edges, restoring all adjacency (including the outer
    triangles' back pointers, which the caller must have acquired —
    [collect_cavity] did). [register] receives each new triangle's lock
    (see {!Galois.Context.register_new}). [split] names the border
    segment whose midpoint [q] is; that edge is not starred, which
    splits it in two. Returns the new triangles. *)

val circumcircle_contains : t -> triangle -> Geometry.Point.t -> bool
val contains_point : t -> triangle -> Geometry.Point.t -> bool
val min_angle : t -> triangle -> float
val circumcenter : t -> triangle -> Geometry.Point.t option

val bounding_triangle : t -> triangle * int list
(** A far-away enclosing triangle (corners at distance [1e4]); returns
    it and its three synthetic vertex ids (to strip later). *)

val strip_vertices : t -> int list -> unit
(** Kill all triangles touching the given vertex ids, turning the
    revealed edges into borders. Sequential. *)

val check_consistency : t -> (unit, string) result
(** Adjacency symmetry, orientation, liveness — test support. *)

val delaunay_violations : ?exclude:(int -> bool) -> t -> int
(** Internal edges violating the local Delaunay property, optionally
    ignoring triangles touching excluded vertex ids. *)
