(** Connected components by label propagation (Galois program) and
    union-find (sequential baseline). The graph must be symmetric. *)

val plan : Graphlib.Csr.t -> (int, unit) Galois.Run.t * (unit -> int array)
(** The unexecuted {!galois} description plus a reader of its label
    array; {!galois} is {!Galois.Run.solve} over it. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  int array * Galois.Run.report
(** Minimum-label propagation. The result — minimum node id per
    component — is unique, so every policy agrees. *)

val serial : Graphlib.Csr.t -> int array

val count_components : int array -> int
val validate : Graphlib.Csr.t -> int array -> bool
