(** Connected components by label propagation (Galois program) and
    union-find (sequential baseline). The graph must be symmetric. *)

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
