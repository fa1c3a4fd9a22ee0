(** Delaunay triangulation by parallel incremental insertion
    (Bowyer–Watson cavities; paper §4.1). *)

type state
(** Internal per-run state (mesh + point containers). *)

val plan :
  Geometry.Point.t array -> (int, Mesh.cavity) Galois.Run.t * (unit -> Mesh.t)
(** Triangulate the points under any policy: the unexecuted run
    description plus the mesh reader, which strips the synthetic
    bounding vertices — call it once, after the run. The mesh read back
    is the Delaunay triangulation of the points' convex hull. *)

val serial : Geometry.Point.t array -> Mesh.t
(** {!plan} solved under {!Galois.Policy.serial}. *)

val pbbs :
  ?granularity:int ->
  pool:Parallel.Domain_pool.t ->
  Geometry.Point.t array ->
  Mesh.t * Detreserve.stats
(** Handwritten deterministic variant via deterministic reservations
    over insertion priorities. *)

val canonical : Mesh.t -> (float * float) list list
(** Order-independent fingerprint of a mesh: sorted triangle coordinate
    triples. Two runs produced the same triangulation iff their
    canonical forms are equal. *)
