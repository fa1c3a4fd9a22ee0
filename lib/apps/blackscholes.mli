(** Black–Scholes option pricing: the PARSEC kernel's computational
    skeleton (coarse uniform tasks, near-zero synchronization). *)

type option_data = {
  spot : float;
  strike : float;
  rate : float;
  volatility : float;
  maturity : float;
  call : bool;
}

val generate : ?seed:int -> int -> option_data array

val run :
  pool:Parallel.Domain_pool.t ->
  option_data array ->
  float array * Kernel_profile.t
