(** Maximal independent set (paper §4.1). The graph must be symmetric. *)

val plan : Graphlib.Csr.t -> (int, unit) Galois.Run.t * (unit -> bool array)
(** The unexecuted {!galois} description plus a reader of its
    membership array; {!galois} is {!Galois.Run.solve} over it. *)

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  bool array * Galois.Run.report
(** Lonestar greedy MIS under any policy. Result depends on the schedule
    (unless deterministic), but is always a valid MIS. *)

val serial : Graphlib.Csr.t -> bool array
(** Greedy in node order: the lexicographically-first MIS. *)

val pbbs :
  ?granularity:int ->
  pool:Parallel.Domain_pool.t ->
  Graphlib.Csr.t ->
  bool array * Detreserve.stats
(** Deterministic-reservations MIS; equals {!serial}'s output. *)

val is_maximal_independent : Graphlib.Csr.t -> bool array -> bool
