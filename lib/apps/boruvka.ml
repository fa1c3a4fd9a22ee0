(* Boruvka's minimum-spanning-forest algorithm as an unordered Galois
   program — a morph algorithm in the Galois taxonomy, here expressed
   over union-find components.

   A task owns one component (identified by a node): it takes the
   lightest edge leaving its component, merges the two components and
   re-activates the merged component. Neighborhood = the two current
   component roots (locked via per-root locks), so concurrent merges of
   disjoint component pairs proceed in parallel.

   Each root owns a leftist min-heap of its component's outgoing edges,
   keyed by (weight, edge id). Invariant: after every union the merged
   root's heap top is an external edge — the commit melds the two heaps
   and pops internal edges off the top, and the absorbed root's heap is
   emptied. Inspection therefore only reads the top, in O(1), and
   mutates nothing before the failsafe point. Edges that became internal
   below the top stay until they surface; each edge is popped at most
   once.

   Requires a symmetric graph with direction-symmetric weights
   ([Graph_io.undirected_random_weights]); a component only sees its
   outward-oriented edges, so the cut property needs the inward copy to
   carry the same weight. The MSF weight is then unique (ties break by
   edge id), so all policies must agree with [serial] (Kruskal). *)

module Csr = Graphlib.Csr
module Uf = Graphlib.Union_find

type forest = { parent_edge : int list; total_weight : int }

(* Persistent leftist heap of edges [e] to target [v]: meld rebuilds
   only right spines, O(log n) nodes. *)
module Heap = struct
  type t = Empty | Node of { rank : int; w : int; e : int; v : int; l : t; r : t }

  let rank = function Empty -> 0 | Node n -> n.rank

  let rec meld a b =
    match (a, b) with
    | Empty, h | h, Empty -> h
    | Node x, Node y ->
        if y.w < x.w || (y.w = x.w && y.e < x.e) then meld b a
        else
          let r = meld x.r b in
          if rank x.l >= rank r then Node { x with r; rank = rank r + 1 }
          else Node { x with l = r; r = x.l; rank = rank x.l + 1 }

  (* [u]'s out-edges minus self-loops, sorted by key into a left spine:
     already heap-ordered and leftist (every right child is empty). *)
  let of_vertex g weights u =
    let out = ref [] in
    Csr.iter_succ_edges g u (fun e v -> if v <> u then out := (weights.(e), e, v) :: !out);
    List.fold_left
      (fun l (w, e, v) -> Node { rank = 1; w; e; v; l; r = Empty })
      Empty
      (List.sort (fun a b -> compare b a) !out)
end

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
  (* Per-root outgoing-edge heaps and component sizes, owned by the
     root's lock. *)
  let heaps = Array.init n (Heap.of_vertex g weights) in
  let size = Array.make n 1 in
  let chosen = Array.make (Csr.edges g) false in
  let rec drop_internal root = function
    | Heap.Node x when Uf.find_readonly uf x.v = root -> drop_internal root (Heap.meld x.l x.r)
    | h -> h
  in
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
      match heaps.(root) with
      | Heap.Empty -> () (* no edge leaves the component: done, pure *)
      | Heap.Node { e; v; _ } ->
          let other = lock_root v in
          if other = root then () (* merged underneath us: stale task *)
          else begin
            Galois.Context.work ctx size.(root);
            Galois.Context.failsafe ctx;
            ignore (Uf.union uf root other);
            let new_root = Uf.find_readonly uf root in
            let absorbed = if new_root = root then other else root in
            heaps.(new_root) <- drop_internal new_root (Heap.meld heaps.(root) heaps.(other));
            heaps.(absorbed) <- Heap.Empty;
            size.(new_root) <- size.(root) + size.(other);
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
