(** Triangle counting over a symmetric simple graph. All tasks are
    read-only up to their single result-cell write — a stress of the
    runtime's near-pure task handling. *)

val plan : Graphlib.Csr.t -> (int, unit) Galois.Run.t * (unit -> int)
(** The unexecuted run description plus a reader of the total count. *)

val serial : Graphlib.Csr.t -> int
