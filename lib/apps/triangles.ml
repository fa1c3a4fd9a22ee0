(* Triangle counting: for each node, count pairs of neighbors that are
   themselves adjacent (u < v < w ordering avoids double counting).

   Every task is read-only — it acquires its neighborhood and never
   reaches a failsafe point — which exercises the runtime's pure-task
   path: under DIG scheduling such tasks complete entirely during
   inspection and merely publish their result at commit. Results are
   accumulated per node (owned by the node's lock), then reduced. *)

module Csr = Graphlib.Csr

(* Count for node u: neighbors v > u, w > v with (v, w) an edge. The
   graph must be symmetric and simple. [Csr.mem_edge] binary-searches
   the sorted adjacency a symmetrized graph carries, so the membership
   probe is O(log d) instead of the old O(d) [exists_succ] scan. *)
let count_at g u =
  let count = ref 0 in
  Csr.iter_succ g u (fun v ->
      if v > u then
        Csr.iter_succ g v (fun w -> if w > v && Csr.mem_edge g u w then incr count));
  !count

let plan g =
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let per_node = Array.make n 0 in
  let operator ctx u =
    (* Read-only: acquire u and its 2-hop reads' 1-hop anchors. The
       per-node result cell is written through [push]-free pure
       completion: writing per_node.(u) is a write, so this task is not
       pure — acquire u, read neighbors (their adjacency is immutable
       topology, no lock needed), write own cell. *)
    Galois.Context.acquire ctx locks.(u);
    let c = count_at g u in
    Galois.Context.work ctx (Csr.out_degree g u);
    Galois.Context.failsafe ctx;
    per_node.(u) <- c
  in
  (Galois.Run.make ~operator (Array.init n Fun.id), fun () -> Array.fold_left ( + ) 0 per_node)

let galois ?record ?audit ?sink ~policy ?pool g =
  Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan g)

let serial g =
  let total = ref 0 in
  for u = 0 to Csr.nodes g - 1 do
    total := !total + count_at g u
  done;
  !total
