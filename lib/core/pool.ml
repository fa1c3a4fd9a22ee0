(* [Parallel.Domain_pool] under its older name. costbench names
   [Galois.Pool.t], [with_pool ~domains] and [domain_pool], and the
   benchmark's sources stay unchanged so that its results compare across
   commits; this alias keeps it building until ROADMAP 1(b) deletes it.
   Everything else uses [Parallel.Domain_pool]. *)

type t = Parallel.Domain_pool.t

let with_pool ~domains f = Parallel.Domain_pool.with_pool domains f
let domain_pool (t : t) = t
