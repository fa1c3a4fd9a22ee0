(** Delaunay mesh refinement (Chew's algorithm with Ruppert segment
    splitting; paper §4.1). *)

type config = { min_angle : float; min_edge : float }
(** Quality threshold (degrees) and minimum-edge backstop. *)

val default_config : config

type op_state
(** The operator's saved-continuation state (an insertion plan). *)

val plan :
  ?config:config -> Mesh.t -> (Mesh.triangle, op_state) Galois.Run.t * (unit -> Mesh.t)
(** Refine all bad triangles in place under any policy: the unexecuted
    run description over the mesh's current bad triangles, tagged
    [app "dmr"], plus a reader of the mesh it refines. No snapshot-state
    hook — triangles live inside the mesh, so dmr supports live
    in-process resume only. *)

val serial : ?config:config -> Mesh.t -> Galois.Run.report
(** {!plan} solved under {!Galois.Policy.serial}. *)

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
