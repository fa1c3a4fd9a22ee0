(* Synthetic graph generators matching the paper's inputs (§4.2):
   uniform k-out random graphs for bfs/mis/pfp, plus grid, R-MAT and
   uniform-random graphs for broader testing, at paper scale (10^6–10^7
   vertices). All are deterministic in the seed, stream their edges
   straight into off-heap CSR planes (no [int list array]
   intermediate), and allocate O(1) heap words per node. *)

(* [kout] writes targets directly into the final plane: the out-degree
   is uniformly [k], so offsets are [u * k] and no counting sort is
   needed. The SplitMix call sequence and the per-node insertion order
   are byte-identical to the historical list-based generator, so every
   pinned digest over k-out inputs is unchanged. *)
let kout ?(seed = 1) ~n ~k () =
  if n <= 0 then invalid_arg "Generators.kout: n must be positive";
  if k < 0 || (k >= n && n > 1) then invalid_arg "Generators.kout: need 0 <= k < n";
  let g = Parallel.Splitmix.create seed in
  let m = n * k in
  let offsets = Plane.create ~max_value:m (n + 1) in
  for u = 0 to n do
    Plane.unsafe_set offsets u (u * k)
  done;
  let targets = Plane.create ~max_value:(max 0 (n - 1)) m in
  let chosen = Array.make (max k 1) (-1) in
  for u = 0 to n - 1 do
    (* k distinct targets, none equal to u, in draw order. *)
    let count = ref 0 in
    while !count < k do
      let v = Parallel.Splitmix.int g n in
      let dup = ref false in
      for i = 0 to !count - 1 do
        if chosen.(i) = v then dup := true
      done;
      if v <> u && not !dup then begin
        chosen.(!count) <- v;
        incr count
      end
    done;
    for i = 0 to k - 1 do
      Plane.unsafe_set targets ((u * k) + i) chosen.(i)
    done
  done;
  Csr.of_planes ~n ~offsets ~targets ()

(* 4-connected grid; neighbor order per node is down, up, right, left
   (the historical list order), written directly into the plane. *)
let grid2d ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Generators.grid2d: dimensions must be positive";
  let n = rows * cols in
  let id r c = (r * cols) + c in
  let deg r c =
    (if r + 1 < rows then 1 else 0)
    + (if r > 0 then 1 else 0)
    + (if c + 1 < cols then 1 else 0)
    + if c > 0 then 1 else 0
  in
  let m = ref 0 in
  let offsets = Plane.create ~max_value:(4 * n) (n + 1) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      m := !m + deg r c;
      Plane.unsafe_set offsets (id r c + 1) !m
    done
  done;
  let targets = Plane.create ~max_value:(n - 1) !m in
  let cursor = ref 0 in
  let emit v =
    Plane.unsafe_set targets !cursor v;
    incr cursor
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if r + 1 < rows then emit (id (r + 1) c);
      if r > 0 then emit (id (r - 1) c);
      if c + 1 < cols then emit (id r (c + 1));
      if c > 0 then emit (id r (c - 1))
    done
  done;
  Csr.of_planes ~n ~offsets ~targets ()

(* R-MAT (Chakrabarti et al.): recursive quadrant descent with
   probabilities (a, b, c, d). Produces the skewed degree distributions
   of social-network-like graphs. Edges are streamed into the counting
   sort in generation order, the order the historical
   [Array.init]-based path used. *)
let rmat ?(seed = 1) ?(a = 0.45) ?(b = 0.22) ?(c = 0.22) ~scale ~edge_factor () =
  if scale <= 0 || scale > 30 then invalid_arg "Generators.rmat: scale out of range";
  if edge_factor <= 0 then invalid_arg "Generators.rmat: edge_factor must be positive";
  let d = 1.0 -. a -. b -. c in
  if d < 0.0 then invalid_arg "Generators.rmat: probabilities exceed 1";
  let n = 1 lsl scale in
  let m = n * edge_factor in
  let g = Parallel.Splitmix.create seed in
  let builder = Csr.Builder.create ~capacity:m ~n () in
  for _ = 1 to m do
    let u = ref 0 and v = ref 0 in
    for _ = 1 to scale do
      let r = Parallel.Splitmix.float g in
      let du, dv =
        if r < a then (0, 0)
        else if r < a +. b then (0, 1)
        else if r < a +. b +. c then (1, 0)
        else (1, 1)
      in
      u := (!u * 2) + du;
      v := (!v * 2) + dv
    done;
    Csr.Builder.add_edge builder !u !v
  done;
  Csr.Builder.build builder

(* Uniform random multigraph: m edges with independently uniform
   endpoints, self-loops rejected by resampling. The Erdős–Rényi-style
   sibling of [rmat] for unskewed degree distributions at scale. *)
let uniform ?(seed = 1) ~n ~m () =
  if n <= 1 then invalid_arg "Generators.uniform: n must be at least 2";
  if m < 0 then invalid_arg "Generators.uniform: m must be non-negative";
  let g = Parallel.Splitmix.create seed in
  let builder = Csr.Builder.create ~capacity:(max m 1) ~n () in
  for _ = 1 to m do
    let u = ref (Parallel.Splitmix.int g n) and v = ref (Parallel.Splitmix.int g n) in
    while !u = !v do
      v := Parallel.Splitmix.int g n
    done;
    Csr.Builder.add_edge builder !u !v
  done;
  Csr.Builder.build builder

(* The paper's pfp input shape: random graph with a designated source and
   sink and uniform random capacities in [1, 100]. Returns (graph,
   capacities, source, sink). *)
let flow_network ?(seed = 1) ~n ~k () =
  let g = kout ~seed ~n ~k () in
  let rng = Parallel.Splitmix.create (seed + 17) in
  let caps = Array.init (Csr.edges g) (fun _ -> 1 + Parallel.Splitmix.int rng 100) in
  (g, caps, 0, n - 1)
