(* Push-based residual PageRank — the classic asynchronous Galois
   formulation: each node holds a rank and a residual; a task flushes a
   node's residual into its rank and pushes damped shares to its
   successors, re-activating any successor whose residual crosses the
   tolerance.

   Fixed-point iterations of this kind converge to the same answer (up
   to tolerance) under any schedule, so all policies must agree with the
   synchronous power iteration ([serial]) within tolerance. Integer
   fixed-point arithmetic (scaled by 2^20) keeps the Galois variants'
   answers exactly reproducible under the deterministic policy. *)

module Csr = Graphlib.Csr

let scale_bits = 20
let one = 1 lsl scale_bits

type config = { damping : int; tolerance : int }

(* damping 0.85, tolerance 1e-3 in fixed point *)
let default_config = { damping = 85 * one / 100; tolerance = one / 1000 }

let plan ?(config = default_config) g =
  let n = Csr.nodes g in
  let locks = Galois.Lock.create_array n in
  let rank = Array.make n 0 in
  let residual = Array.make n (one - config.damping) in
  let operator ctx u =
    Galois.Context.acquire ctx locks.(u);
    if residual.(u) < config.tolerance then () (* drained: pure skip *)
    else begin
      Csr.iter_succ g u (fun v -> Galois.Context.acquire ctx locks.(v));
      Galois.Context.work ctx (Csr.out_degree g u);
      Galois.Context.failsafe ctx;
      let r = residual.(u) in
      residual.(u) <- 0;
      rank.(u) <- rank.(u) + r;
      let deg = Csr.out_degree g u in
      if deg > 0 then begin
        (* share = damping * r / deg in Q20 fixed point; the product
           stays well under 2^62. *)
        let give = config.damping * r / one / deg in
        if give > 0 then
          Csr.iter_succ g u (fun v ->
              let before = residual.(v) in
              residual.(v) <- before + give;
              if before < config.tolerance && before + give >= config.tolerance then
                Galois.Context.push ctx v)
      end
    end
  in
  ( Galois.Run.make ~operator (Array.init n Fun.id),
    fun () -> Array.map (fun r -> float_of_int r /. float_of_int one) rank )

(* Synchronous power iteration in floats: the reference answer, capped
   at 200 iterations. *)
let serial ?(config = default_config) g =
  let max_iters = 200 in
  let n = Csr.nodes g in
  let d = float_of_int config.damping /. float_of_int one in
  let tol = float_of_int config.tolerance /. float_of_int one in
  let base = 1.0 -. d in
  let rank = Array.make n base in
  let next = Array.make n 0.0 in
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iters < max_iters do
    incr iters;
    Array.fill next 0 n base;
    for u = 0 to n - 1 do
      let deg = Csr.out_degree g u in
      if deg > 0 then begin
        let share = d *. rank.(u) /. float_of_int deg in
        Csr.iter_succ g u (fun v -> next.(v) <- next.(v) +. share)
      end
    done;
    let delta = ref 0.0 in
    for u = 0 to n - 1 do
      delta := Float.max !delta (Float.abs (next.(u) -. rank.(u)));
      rank.(u) <- next.(u)
    done;
    if !delta < tol /. 10.0 then continue_ := false
  done;
  rank

let max_rel_diff ~reference ranks =
  let m = ref 0.0 in
  Array.iteri
    (fun i x -> m := Float.max !m (Float.abs (x -. reference.(i)) /. reference.(i)))
    ranks;
  !m
