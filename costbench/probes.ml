(* Micro-probes of single-layer primitives, timed with plain Galois.Clock
   loops. Each reports the median of 9 batches, so one descheduled batch
   does not move it. *)

let time_ns f =
  let t0 = Galois.Clock.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Galois.Clock.now_ns ()) t0)

(* [batch ()] returns the nanoseconds its timed part took for [ops]
   operations. *)
let median_of_batches ~ops batch =
  Analysis.Summary.median (List.init 9 (fun _ -> batch () /. float_of_int ops))

(* Nanoseconds per [Pending.compact] of a full 4,096-task window that
   keeps every other task. [load] takes ownership without copying, so
   only the compactions are timed. *)
let pending_compact_ns () =
  let size = 4_096 and reps = 64 in
  let p = Galois.Pending.create () in
  let src = Array.init size Fun.id in
  median_of_batches ~ops:reps (fun () ->
      let copies = Array.init reps (fun _ -> Array.copy src) in
      time_ns (fun () ->
          Array.iter
            (fun a ->
              Galois.Pending.load p a;
              ignore (Galois.Pending.compact p ~w_use:size ~keep:(fun i -> i land 1 = 0)))
            copies))

(* Nanoseconds per [Lock.claim_max]: rounds of 64 claims with rising
   task ids on 64 locations, one fresh epoch per round, as the inspect
   phase makes them. *)
let lock_claim_max_ns () =
  let locks = Galois.Lock.create_array 64 and rounds = 500 in
  median_of_batches ~ops:(rounds * 64) (fun () ->
      time_ns (fun () ->
          for _ = 1 to rounds do
            let stamp = Galois.Lock.new_epoch () in
            Array.iteri (fun i l -> ignore (Galois.Lock.claim_max l ~stamp (i + 1))) locks
          done))

(* Nanoseconds per edge of a successor walk that also reads each edge's
   weight ([unsafe_weight] is 0 on an unweighted graph), over the
   workload's own graph. *)
let succ_read_ns_per_edge g =
  let module Csr = Graphlib.Csr in
  let acc = ref 0 and passes = 3 in
  median_of_batches ~ops:(passes * max 1 (Csr.edges g)) (fun () ->
      time_ns (fun () ->
          for _ = 1 to passes do
            for u = 0 to Csr.nodes g - 1 do
              Csr.iter_succ_edges g u (fun e v -> acc := !acc + v + Csr.unsafe_weight g e)
            done
          done))

(* Microseconds per round trip of an empty job through the pool. *)
let dispatch_us pool =
  let dp = Galois.Pool.domain_pool pool and calls = 200 in
  1e-3
  *. median_of_batches ~ops:calls (fun () ->
         time_ns (fun () ->
             for _ = 1 to calls do
               Parallel.Domain_pool.run dp (fun _ -> ())
             done))
