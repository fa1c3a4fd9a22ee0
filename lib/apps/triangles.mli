(** Triangle counting over a symmetric simple graph. All tasks are
    read-only up to their single result-cell write — a stress of the
    runtime's near-pure task handling. *)

val count_at : Graphlib.Csr.t -> int -> int
(** Triangles whose minimum vertex is [u]. *)

val plan : Graphlib.Csr.t -> (int, unit) Galois.Run.t * (unit -> int)
(** The unexecuted {!galois} description plus a reader of the total
    count; {!galois} is {!Galois.Run.solve} over it. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  int * Galois.Run.report

val serial : Graphlib.Csr.t -> int
