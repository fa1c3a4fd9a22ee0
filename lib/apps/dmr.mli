(** Delaunay mesh refinement (Chew's algorithm with Ruppert segment
    splitting; paper §4.1). *)

type config = { min_angle : float; min_edge : float }
(** Quality threshold (degrees) and minimum-edge backstop. *)

val default_config : config

val shortest_edge : Mesh.t -> Mesh.triangle -> float
val is_bad : config -> Mesh.t -> Mesh.triangle -> bool
val bad_triangles : config -> Mesh.t -> Mesh.triangle list

val plan_cavity :
  Mesh.t ->
  acquire:(Mesh.triangle -> unit) ->
  Mesh.triangle ->
  (Geometry.Point.t * Mesh.cavity * (int * int) option) option
(** The insertion plan for a bad triangle: circumcenter — or, when that
    encroaches or escapes the domain, a border-segment midpoint with the
    segment to split. [None]: drop the task (mesh untouched). *)

type op_state
(** The operator's saved-continuation state (an insertion plan). *)

val plan :
  ?config:config -> Mesh.t -> (Mesh.triangle, op_state) Galois.Run.t * (unit -> Mesh.t)
(** The unexecuted {!galois} description over the mesh's current bad
    triangles, tagged [app "dmr"], plus a reader of the mesh it refines
    in place. {!galois} is {!Galois.Run.solve} over it. No
    snapshot-state hook — triangles live inside the mesh, so dmr
    supports live in-process resume only. *)

val galois :
  ?config:config ->
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Mesh.t ->
  Galois.Run.report
(** Refine all bad triangles in place under any policy. *)

val serial : ?config:config -> Mesh.t -> Galois.Run.report

val pbbs :
  ?config:config ->
  ?granularity:int ->
  pool:Parallel.Domain_pool.t ->
  Mesh.t ->
  Detreserve.stats
(** Handwritten deterministic variant (dynamic deterministic
    reservations). *)

val refined : config -> Mesh.t -> bool
(** Postcondition: no alive triangle is still bad. *)
