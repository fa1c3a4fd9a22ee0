(* Black–Scholes option pricing: the PARSEC kernel's computational
   skeleton — embarrassingly parallel, uniform coarse tasks, nearly zero
   synchronization. *)

type option_data = {
  spot : float;
  strike : float;
  rate : float;
  volatility : float;
  maturity : float;
  call : bool;
}

let generate ?(seed = 7) n =
  let g = Parallel.Splitmix.create seed in
  Array.init n (fun _ ->
      {
        spot = 10.0 +. (Parallel.Splitmix.float g *. 190.0);
        strike = 10.0 +. (Parallel.Splitmix.float g *. 190.0);
        rate = 0.01 +. (Parallel.Splitmix.float g *. 0.09);
        volatility = 0.05 +. (Parallel.Splitmix.float g *. 0.55);
        maturity = 0.1 +. (Parallel.Splitmix.float g *. 2.9);
        call = Parallel.Splitmix.bool g;
      })

(* Cumulative normal distribution via the Abramowitz–Stegun polynomial,
   as in the PARSEC source. *)
let cndf x =
  let sign_negative = x < 0.0 in
  let x = Float.abs x in
  let k = 1.0 /. (1.0 +. (0.2316419 *. x)) in
  let poly =
    k
    *. (0.319381530
       +. (k *. (-0.356563782 +. (k *. (1.781477937 +. (k *. (-1.821255978 +. (k *. 1.330274429))))))))
  in
  let pdf = exp (-0.5 *. x *. x) /. sqrt (2.0 *. Float.pi) in
  let value = 1.0 -. (pdf *. poly) in
  if sign_negative then 1.0 -. value else value

let price o =
  let d1 =
    (log (o.spot /. o.strike) +. ((o.rate +. (0.5 *. o.volatility *. o.volatility)) *. o.maturity))
    /. (o.volatility *. sqrt o.maturity)
  in
  let d2 = d1 -. (o.volatility *. sqrt o.maturity) in
  let discounted = o.strike *. exp (-.o.rate *. o.maturity) in
  if o.call then (o.spot *. cndf d1) -. (discounted *. cndf d2)
  else (discounted *. cndf (-.d2)) -. (o.spot *. cndf (-.d1))

let run ~pool options =
  let n = Array.length options in
  let out = Array.make n 0.0 in
  let atomics = Atomic.make 0 in
  let t0 = Galois.Clock.now_s () in
  (* One dynamic chunk grab per 1024 options is the only shared-memory
     synchronization — the kernel's defining characteristic. *)
  Parallel.Domain_pool.parallel_for ~chunk:1024 pool 0 n (fun i ->
      if i land 1023 = 0 then Atomic.incr atomics;
      out.(i) <- price options.(i));
  let time_s = Galois.Clock.elapsed_s t0 in
  ( out,
    {
      Kernel_profile.tasks = n;
      atomics = Atomic.get atomics;
      barriers = 1;
      time_s;
      task_costs = Array.make n 1;
    } )
