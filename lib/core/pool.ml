(* The long-lived worker pool behind [Galois.Run] and the service layer.

   [Parallel.Domain_pool] is the SPMD mechanism (spin-then-park workers,
   the calling domain participating as worker 0); this module is the
   facade that makes it a first-class, shareable resource: created once,
   injected into any number of runs via [Run.pool], and shut down
   exactly once. The paper's on-demand pitch extends to the pool itself:
   [create ()] is parameterless — it sizes the pool to the machine. *)

type t = {
  dp : Parallel.Domain_pool.t;
  mutable state : [ `Live | `Down ];
}

let create ?domains () =
  let domains =
    match domains with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some d ->
        if d <= 0 then invalid_arg "Galois.Pool.create: domains must be positive";
        d
  in
  { dp = Parallel.Domain_pool.create domains; state = `Live }

let size t = Parallel.Domain_pool.size t.dp

let domain_pool t =
  match t.state with
  | `Live -> t.dp
  | `Down -> invalid_arg "Galois.Pool: pool is shut down"

let shutdown t =
  match t.state with
  | `Down -> ()
  | `Live ->
      (* Flip the state first: even if joining a worker raised, the pool
         must never be handed out again. *)
      t.state <- `Down;
      Parallel.Domain_pool.shutdown t.dp

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
