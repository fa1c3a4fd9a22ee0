(** k-core decomposition (coreness) — the ordered showcase app of the
    soft-priority scheduler.

    The graph is read as undirected (successors are neighbors): pass a
    symmetric CSR, e.g. {!Graphlib.Csr.symmetrize}. Coreness is a
    unique function of the graph, so every policy — serial peeling,
    unordered det, soft-priority det at any delta and thread count —
    produces the same array. *)

val plan : Graphlib.Csr.t -> (int * int, unit) Galois.Run.t * (unit -> int array)
(** The unexecuted {!galois} description plus a reader of its estimate
    array (which converges to the coreness), tagged [app "kcore"], with the
    task's push-time estimate as its {!Galois.Run.priority} and a
    [Run.snapshot_state] hook over the estimates. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  int array * Galois.Run.report
(** Montresor-style h-index local updates: a task lowers its vertex's
    estimate to the h-index of its neighbors' estimates and wakes the
    neighbors whose estimate exceeds the new value. The fixpoint is the
    coreness, so the result equals {!serial} under every policy; an
    ordered policy ([prio=delta:<n>]/[prio=auto]) merely reaches it
    with fewer re-evaluations. *)

val serial : Graphlib.Csr.t -> int array
(** Matula–Beck bin-sort peeling, O(n + m). *)

val validate : Graphlib.Csr.t -> int array -> bool
(** [validate g core] checks [core] against {!serial}. *)

val h_index : counts:int array -> Graphlib.Csr.t -> int array -> int -> int
(** The local update rule, exposed for the property tests: the largest
    [h] such that at least [h] neighbors of the vertex have estimate
    [>= h]. [counts] is zeroed scratch of size at least [degree + 1],
    re-zeroed before returning. *)
