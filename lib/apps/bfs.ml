(* Breadth-first search (paper §4.1).

   - [plan]: the Lonestar-style unordered label-correcting program. A
     task, node u at distance d packed into one int ([Dist_task]),
     claims u and its successors, improves dist(u), and creates tasks
     for improvable successors. Runs non-deterministically or
     deterministically depending on the policy (g-n / g-d).
   - [pbbs]: the handwritten deterministic level-synchronous program
     with min-parent races resolved by deterministic reservations
     (PBBS detBFS).
   - [serial]: optimized sequential queue BFS — the role of the
     Schardl–Leiserson baseline in Fig. 8. *)

module Csr = Graphlib.Csr

let unreached = max_int

(* The app's one definition: the run description plus a reader of the
   world (distance array) it executes against, without executing it —
   callers solve it under a policy, and the checkpoint/replay layer
   composes its own policies, checkpoints and resumes onto it. The
   distance array is the app's entire mutable state, so the snapshot
   hook is a plain copy in / copy out. The operator allocates nothing:
   its tasks are immediate ints and it walks the successors with [for]
   loops rather than closures. *)
let plan g ~source =
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let dist = Array.make n unreached in
  let codec = Dist_task.codec ~nodes:n in
  let operator ctx task =
    let u = Dist_task.node codec task and d = Dist_task.dist codec task in
    Galois.Context.acquire ctx locks.(u);
    if dist.(u) <= d then () (* stale task: nothing to do, stays pure *)
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
        if dist.(v) > d + 1 then
          Galois.Context.push ctx (Dist_task.pack codec ~node:v ~dist:(d + 1))
      done
    end
  in
  let run =
    Galois.Run.make ~operator [| Dist_task.pack codec ~node:source ~dist:0 |]
    |> Galois.Run.app "bfs"
    |> Galois.Run.snapshot_state
         ~save:(fun () -> Array.copy dist)
         ~restore:(fun saved -> Array.blit saved 0 dist 0 n)
  in
  (run, fun () -> dist)

let galois ?record ?audit ?sink ~policy ?pool g ~source =
  Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan g ~source)

let serial g ~source =
  let n = Csr.nodes g in
  let dist = Array.make n unreached in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let d = dist.(u) + 1 in
    Csr.iter_succ g u (fun v ->
        if dist.(v) = unreached then begin
          dist.(v) <- d;
          Queue.add v queue
        end)
  done;
  dist

(* PBBS detBFS: level-synchronous rounds; within a round, contending
   parents of a frontier vertex are resolved by a deterministic min
   reservation, so parents (and everything else) are thread-independent. *)
let pbbs ~pool g ~source =
  let n = Csr.nodes g in
  let dist = Array.make n unreached in
  let parent = Array.make n (-1) in
  let cells = Detreserve.Cell.create_array n in
  let rounds = ref 0 in
  dist.(source) <- 0;
  parent.(source) <- source;
  let frontier = ref [| source |] in
  while Array.length !frontier > 0 do
    incr rounds;
    let f = !frontier in
    let level = !rounds in
    (* Reserve: every frontier vertex bids for its unvisited neighbors. *)
    Parallel.Domain_pool.parallel_for pool 0 (Array.length f) (fun i ->
        let u = f.(i) in
        Csr.iter_succ g u (fun v ->
            if dist.(v) = unreached then Detreserve.Cell.reserve cells.(v) u));
    (* Commit: the minimum bidder becomes the parent. *)
    Parallel.Domain_pool.parallel_for pool 0 (Array.length f) (fun i ->
        let u = f.(i) in
        Csr.iter_succ g u (fun v ->
            if dist.(v) = unreached && Detreserve.Cell.holds cells.(v) u then begin
              dist.(v) <- level;
              parent.(v) <- u
            end));
    (* Next frontier: nodes discovered this level, in node order —
       deterministic. Gathered with per-worker contiguous slices. *)
    let workers = Parallel.Domain_pool.size pool in
    let buffers = Array.make workers [] in
    Parallel.Domain_pool.parallel_for_workers pool 0 n (fun w lo hi ->
        let acc = ref [] in
        for v = hi - 1 downto lo do
          if dist.(v) = level then acc := v :: !acc
        done;
        buffers.(w) <- !acc);
    frontier := Array.concat (List.map Array.of_list (Array.to_list buffers))
  done;
  (dist, parent, !rounds)

(* Check a distance labelling against the definition (used by tests and
   the harness's self-checks). *)
let validate g ~source dist =
  let ok = ref true in
  if dist.(source) <> 0 then ok := false;
  Array.iteri
    (fun u du ->
      if du <> unreached then
        Csr.iter_succ g u (fun v -> if dist.(v) > du + 1 then ok := false))
    dist;
  (* Every reached non-source node has a predecessor exactly one
     closer. *)
  let has_pred = Array.make (Csr.nodes g) false in
  has_pred.(source) <- true;
  Array.iteri
    (fun u du ->
      if du <> unreached then
        Csr.iter_succ g u (fun v -> if dist.(v) = du + 1 then has_pred.(v) <- true))
    dist;
  Array.iteri (fun v dv -> if dv <> unreached && not has_pred.(v) then ok := false) dist;
  !ok
