(* Single-source shortest paths with non-negative integer weights:
   label-correcting over unordered tasks, the weighted sibling of bfs.
   The distances are algorithm-deterministic, so all policies must agree
   with Dijkstra ([serial]). *)

module Csr = Graphlib.Csr

let unreached = max_int

(* Unexecuted run description + world, like [Bfs.plan]: the distance
   array is the entire mutable state, so the snapshot hook copies it.
   [weight] abstracts where the per-edge weight lives — a heap array or
   the CSR's own off-heap weight plane; the task stream (and therefore
   the schedule digest) depends only on the weight values, so both
   sources produce byte-identical schedules. A task is a node and its
   tentative distance packed into one int ([Dist_task]), and the
   successors are walked with [for] loops, so the operator allocates
   nothing. A distance past the packed range raises [Invalid_argument]
   from [Dist_task.pack] (a sum that overflows is negative and is
   refused the same way): the run fails rather than answer a wrapped
   distance. *)
let plan_with ~weight g ~source =
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let dist = Array.make n unreached in
  let codec = Dist_task.codec ~nodes:n in
  let operator ctx task =
    let u = Dist_task.node codec task and d = Dist_task.dist codec task in
    Galois.Context.acquire ctx locks.(u);
    if dist.(u) <= d then () (* stale: pure skip *)
    else begin
      let first = Csr.first_edge g u and last = Csr.end_edge g u - 1 in
      for e = first to last do
        Galois.Context.acquire ctx locks.(Csr.target g e)
      done;
      Galois.Context.work ctx (last + 1 - first);
      Galois.Context.failsafe ctx;
      dist.(u) <- d;
      for e = first to last do
        let v = Csr.target g e in
        let nd = d + weight e in
        if dist.(v) > nd then Galois.Context.push ctx (Dist_task.pack codec ~node:v ~dist:nd)
      done
    end
  in
  let run =
    Galois.Run.make ~operator [| Dist_task.pack codec ~node:source ~dist:0 |]
    |> Galois.Run.app "sssp"
    (* Soft-priority hint: the tentative distance. Only consulted when
       the policy asks for prio=delta/auto; prio=off schedules are
       byte-identical to the hint-free ones. *)
    |> Galois.Run.priority (Dist_task.dist codec)
    |> Galois.Run.snapshot_state
         ~save:(fun () -> Array.copy dist)
         ~restore:(fun saved -> Array.blit saved 0 dist 0 n)
  in
  (run, fun () -> dist)

let plan g weights ~source =
  if Array.length weights <> Csr.edges g then
    invalid_arg "Sssp.plan: weight array size mismatch";
  plan_with ~weight:(fun e -> weights.(e)) g ~source

(* The run description over the graph's own weight plane (no heap-side
   weight array at all). *)
let plan_weighted g ~source =
  if not (Csr.weighted g) then invalid_arg "Sssp.plan_weighted: graph has no weight plane";
  plan_with ~weight:(fun e -> Csr.unsafe_weight g e) g ~source

let galois_weighted ?record ?audit ?sink ~policy ?pool g ~source =
  Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan_weighted g ~source)

let galois ?record ?audit ?sink ~policy ?pool g weights ~source =
  Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan g weights ~source)

(* Dijkstra with a simple pairing of (dist, node) in a sorted module-less
   binary heap. *)
module Heap = struct
  type t = { mutable data : (int * int) array; mutable size : int }

  let create () = { data = Array.make 64 (0, 0); size = 0 }

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let push h x =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) (0, 0) in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- x;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.data.((!i - 1) / 2) > h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && h.data.(l) < h.data.(!smallest) then smallest := l;
        if r < h.size && h.data.(r) < h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue_ := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      Some top
    end
end

let serial g weights ~source =
  let n = Csr.nodes g in
  let dist = Array.make n unreached in
  let heap = Heap.create () in
  dist.(source) <- 0;
  Heap.push heap (0, source);
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if d = dist.(u) then
          Csr.iter_succ_edges g u (fun e v ->
              let nd = d + weights.(e) in
              if dist.(v) > nd then begin
                dist.(v) <- nd;
                Heap.push heap (nd, v)
              end);
        drain ()
  in
  drain ();
  dist

(* Triangle-inequality check plus witness-predecessor existence. *)
let validate g weights ~source dist =
  let ok = ref (dist.(source) = 0) in
  Array.iteri
    (fun u du ->
      if du <> unreached then
        Csr.iter_succ_edges g u (fun e v -> if dist.(v) > du + weights.(e) then ok := false))
    dist;
  let witnessed = Array.make (Csr.nodes g) false in
  witnessed.(source) <- true;
  Array.iteri
    (fun u du ->
      if du <> unreached then
        Csr.iter_succ_edges g u (fun e v ->
            if dist.(v) = du + weights.(e) then witnessed.(v) <- true))
    dist;
  Array.iteri (fun v dv -> if dv <> unreached && not witnessed.(v) then ok := false) dist;
  !ok
