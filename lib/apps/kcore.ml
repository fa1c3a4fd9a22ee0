(* k-core decomposition (coreness) — the repo's ordered app.

   [galois] runs Montresor-style h-index local updates: every vertex
   carries a coreness estimate, initially its degree; processing a
   vertex lowers the estimate to the h-index of its neighbors'
   estimates and wakes the neighbors whose estimate exceeds the new
   value. Estimates only ever decrease and the fixpoint of the h-index
   map is exactly the coreness — unique regardless of processing
   order, so every policy agrees with the serial Matula–Beck peeling.

   The natural schedule is ordered, though: peeling low-estimate
   vertices first settles their neighborhoods before high-degree
   vertices look at them, so far fewer re-evaluations are wasted.
   That is what [Run.priority] (the estimate at push time) plus a
   [prio=delta:<n>]/[prio=auto] policy exploit; under [prio=off] the
   program is still correct, just chattier.

   The graph is read as undirected: successors are neighbors. Pass a
   symmetric CSR (e.g. {!Graphlib.Csr.symmetrize}) for meaningful
   coreness — [plan] does not symmetrize for you. *)

module Csr = Graphlib.Csr

(* h-index of the (estimate-capped) neighbor multiset: the largest [h]
   with at least [h] neighbors whose estimate is [>= h]. Counting sort
   into [counts] (scratch of size [>= deg + 1], zeroed on entry and
   re-zeroed before returning) then a suffix-sum scan. *)
let h_index ~counts g est u =
  let d = Csr.out_degree g u in
  Csr.iter_succ g u (fun v ->
      let c = if est.(v) > d then d else est.(v) in
      counts.(c) <- counts.(c) + 1);
  let h = ref 0 in
  let at_least = ref 0 in
  (try
     for c = d downto 1 do
       at_least := !at_least + counts.(c);
       if !at_least >= c then begin
         h := c;
         raise Exit
       end
     done
   with Exit -> ());
  Array.fill counts 0 (d + 1) 0;
  !h

let plan g =
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let est = Array.init n (fun v -> Csr.out_degree g v) in
  let operator ctx (u, _est_at_push) =
    Galois.Context.acquire ctx locks.(u);
    Csr.iter_succ g u (fun v -> Galois.Context.acquire ctx locks.(v));
    Galois.Context.work ctx (Csr.out_degree g u);
    Galois.Context.failsafe ctx;
    (* Degree-sized scratch per call: self-contained and small. *)
    let counts = Array.make (Csr.out_degree g u + 1) 0 in
    let h = h_index ~counts g est u in
    if h < est.(u) then begin
      est.(u) <- h;
      Csr.iter_succ g u (fun v ->
          if est.(v) > h then Galois.Context.push ctx (v, est.(v)))
    end
  in
  let initial = Array.init n (fun v -> (v, est.(v))) in
  let run =
    Galois.Run.make ~operator initial
    |> Galois.Run.app "kcore"
    |> Galois.Run.priority (fun (_, e) -> e)
    |> Galois.Run.snapshot_state
         ~save:(fun () -> Array.copy est)
         ~restore:(fun saved -> Array.blit saved 0 est 0 n)
  in
  (run, fun () -> est)

let galois ?record ?audit ?sink ~policy ?pool g =
  Galois.Run.solve ?record ?audit ?sink ?pool ~policy (plan g)

(* Matula–Beck peeling: bin-sort vertices by degree, repeatedly remove
   a minimum-degree vertex, assign it the current degree as coreness
   and decrement its still-present neighbors (repositioning them one
   bin down). O(n + m) with the standard bin/pos/vert bookkeeping. *)
let serial g =
  let n = Csr.nodes g in
  if n = 0 then [||]
  else begin
    let deg = Array.init n (fun v -> Csr.out_degree g v) in
    let max_deg = Array.fold_left max 0 deg in
    let bin = Array.make (max_deg + 2) 0 in
    Array.iter (fun d -> bin.(d) <- bin.(d) + 1) deg;
    let start = ref 0 in
    for d = 0 to max_deg do
      let c = bin.(d) in
      bin.(d) <- !start;
      start := !start + c
    done;
    let pos = Array.make n 0 in
    let vert = Array.make n 0 in
    Array.iteri
      (fun v d ->
        pos.(v) <- bin.(d);
        vert.(bin.(d)) <- v;
        bin.(d) <- bin.(d) + 1)
      deg;
    (* Restore bin starts (they were bumped while placing). *)
    for d = max_deg downto 1 do
      bin.(d) <- bin.(d - 1)
    done;
    bin.(0) <- 0;
    let core = Array.make n 0 in
    for i = 0 to n - 1 do
      let v = vert.(i) in
      core.(v) <- deg.(v);
      Csr.iter_succ g v (fun u ->
          if deg.(u) > deg.(v) then begin
            let du = deg.(u) and pu = pos.(u) in
            let pw = bin.(du) in
            let w = vert.(pw) in
            if u <> w then begin
              pos.(u) <- pw;
              vert.(pu) <- w;
              pos.(w) <- pu;
              vert.(pw) <- u
            end;
            bin.(du) <- bin.(du) + 1;
            deg.(u) <- du - 1
          end)
    done;
    core
  end

let validate g core =
  let reference = serial g in
  Array.length core = Csr.nodes g && core = reference
