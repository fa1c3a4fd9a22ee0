(** Preflow-push maximum flow with global relabeling (paper §4.1). *)

type result = {
  flow_value : int;
  epochs : int;
  global_relabels : int;
  stats : Galois.Stats.t;
  schedule : Galois.Schedule.t option;
  audit : Galois.Audit.report option;
}

val galois :
  ?record:bool ->
  ?audit:bool ->
  ?sink:Obs.sink ->
  policy:Galois.Policy.t ->
  ?pool:Galois.Pool.t ->
  Flow_network.t ->
  result
(** Epoch-structured Galois preflow-push: active nodes are unordered
    tasks (static node ids — the §3.3 fast path); global relabeling runs
    between epochs once enough local relabels accumulate. Mutates the
    network's residual capacities. *)

val serial : Flow_network.t -> result
(** FIFO push-relabel with periodic global relabeling (the hi_pr
    baseline role, Fig. 8). *)
