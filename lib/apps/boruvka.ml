(* Boruvka's minimum-spanning-forest algorithm as an unordered Galois
   program — a morph algorithm in the Galois taxonomy, here expressed
   over union-find components.

   A task owns one component (identified by a node): it finds the
   lightest edge leaving its component, merges the two components and
   re-activates the merged component. Neighborhood = the two current
   component roots (locked via per-root locks), so concurrent merges of
   disjoint component pairs proceed in parallel.

   Requires a symmetric graph with direction-symmetric weights
   ([Graph_io.undirected_random_weights]); the per-component search only
   scans outward-oriented edges, so the cut property needs the inward
   copy to carry the same weight. The MSF weight is then unique (ties
   break by edge id), so all policies must agree with [serial]
   (Kruskal). *)

module Csr = Graphlib.Csr
module Uf = Graphlib.Union_find

type forest = { parent_edge : int list; total_weight : int }

(* The lightest (weight, edge id) leaving the component of [root],
   scanning that component's vertices; ties break by edge id for
   determinism. *)
let lightest_out g weights members uf root =
  let best = ref None in
  List.iter
    (fun u ->
      Csr.iter_succ_edges g u (fun e v ->
          if Uf.find_readonly uf v <> root then
            let cand = (weights.(e), e, u, v) in
            match !best with
            | None -> best := Some cand
            | Some b -> if cand < b then best := Some cand))
    members.(root);
  !best

(* Unexecuted run description + a closure reading the forest off the
   world. No snapshot hook: the union-find structure has no copy-out
   API, so boruvka supports live in-process resume (the world object is
   shared between the crashed and resumed exec) but not cross-process
   snapshot files. *)
let plan g weights =
  if Array.length weights <> Csr.edges g then
    invalid_arg "Boruvka.galois: weight array size mismatch";
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let uf = Uf.create n in
  (* Component member lists, merged on union; owned by the root's
     lock. *)
  let members = Array.init n (fun u -> [ u ]) in
  let chosen = Array.make (Csr.edges g) false in
  let operator ctx u =
    (* Optimistically find our root, then lock it and re-validate — the
       same pattern as dt's container location. *)
    let rec lock_root x =
      let r = Uf.find_readonly uf x in
      Galois.Context.acquire ctx locks.(r);
      if Uf.find_readonly uf x = r then r else lock_root x
    in
    let root = lock_root u in
    if root <> Uf.find_readonly uf u then ()
    else
      match lightest_out g weights members uf root with
      | None -> () (* isolated component: done, pure *)
      | Some (_, e, _, v) ->
          let other = lock_root v in
          (* Locking [other] happened after computing the edge; if the
             component moved, retry by re-finding the lightest edge.
             Re-validate simply by checking roots are still distinct and
             stable. *)
          if other = root then () (* merged underneath us: stale task *)
          else begin
            Galois.Context.work ctx (List.length members.(root));
            Galois.Context.failsafe ctx;
            ignore (Uf.union uf root other);
            let new_root = Uf.find_readonly uf root in
            members.(new_root) <- List.rev_append members.(root) members.(other);
            if new_root <> root then members.(root) <- [];
            if new_root <> other then members.(other) <- [];
            chosen.(e) <- true;
            Galois.Context.push ctx new_root
          end
  in
  let run = Galois.Run.make ~operator (Array.init n Fun.id) |> Galois.Run.app "boruvka" in
  let forest () =
    let parent_edge = ref [] and total = ref 0 in
    Array.iteri
      (fun e picked ->
        if picked then begin
          parent_edge := e :: !parent_edge;
          total := !total + weights.(e)
        end)
      chosen;
    { parent_edge = !parent_edge; total_weight = !total }
  in
  (run, forest)

let galois ?record ?audit ?sink ~policy ?pool g weights =
  Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan g weights)

(* Kruskal with sort by (weight, edge id) — the sequential baseline and
   the definition of the deterministic answer. *)
let serial g weights =
  let n = Csr.nodes g in
  let order = Array.init (Csr.edges g) Fun.id in
  Array.sort (fun a b -> compare (weights.(a), a) (weights.(b), b)) order;
  let uf = Uf.create n in
  let edges = Csr.all_edges g in
  let parent_edge = ref [] and total = ref 0 in
  Array.iter
    (fun e ->
      let u, v = edges.(e) in
      if Uf.union uf u v then begin
        parent_edge := e :: !parent_edge;
        total := !total + weights.(e)
      end)
    order;
  { parent_edge = !parent_edge; total_weight = !total }

(* A spanning forest: acyclic (|edges| = n - components) and spanning
   (edge endpoints connect everything connectable). *)
let validate g forest =
  let n = Csr.nodes g in
  let uf = Uf.create n in
  let edges = Csr.all_edges g in
  let acyclic =
    List.for_all
      (fun e ->
        let u, v = edges.(e) in
        Uf.union uf u v)
      forest.parent_edge
  in
  (* Forest components must equal graph components. *)
  let guf = Uf.create n in
  Array.iter (fun (u, v) -> ignore (Uf.union guf u v)) edges;
  acyclic && Uf.components uf = Uf.components guf
