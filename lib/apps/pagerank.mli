(** Push-based residual PageRank (asynchronous Galois fixed point).

    Integer Q20 fixed-point arithmetic makes the Galois variants exactly
    reproducible under the deterministic policy; all policies agree with
    the synchronous power iteration within the tolerance. *)

type config = { damping : int; tolerance : int }
(** Q20 fixed point (see [one] = 2^20 internally): default damping 0.85,
    tolerance 1e-3. *)

val default_config : config

val plan : ?config:config -> Graphlib.Csr.t -> (int, unit) Galois.Run.t * (unit -> float array)
(** The unexecuted {!galois} description plus a reader of the ranks;
    {!galois} is {!Galois.Run.solve} over it. *)

val galois :
  ?config:config ->
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Graphlib.Csr.t ->
  float array * Galois.Run.report
(** Ranks (converted to floats). Ranks are un-normalized (PageRank's
    (1-d) + d·Σ formulation). *)

val serial : ?config:config -> ?max_iters:int -> Graphlib.Csr.t -> float array
(** Synchronous power iteration (floating point) — the reference. *)

val max_rel_diff : reference:float array -> float array -> float
(** The largest deviation of a rank from its reference, relative to the
    reference rank. The residual push stops with every residual below
    the tolerance, so a rank falls short of the true one by at most
    tolerance / (1 - damping) of it (0.67% at the defaults), at any
    graph size; an absolute bound would grow with the ranks. *)
