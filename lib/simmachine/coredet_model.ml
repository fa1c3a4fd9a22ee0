(* A model of CoreDet-style deterministic thread scheduling (DMP-O/B,
   Bergan et al. ASPLOS 2010), for the paper's §5.2 comparison.

   CoreDet executes threads in rounds of fixed instruction quanta. A
   thread runs its quantum in parallel mode, but a shared-memory atomic
   (or any potentially communicating operation) ends parallel mode
   early; the round then finishes with a serial phase in which threads
   take a deterministic token in turn to perform their communication.

   Consequence — and the point of Fig. 6: per round, each thread
   advances min(quantum, distance-to-next-atomic) work units. Programs
   with rare atomics (blackscholes) advance full quanta and scale;
   irregular programs whose tasks perform atomics every few hundred
   instructions advance only that far per round and then serialize,
   so threads buy almost nothing. *)

(* Model constants, in cycles: the parallel-mode quantum (~1000
   instructions), the serialized commit per thread per round, and the
   round barrier. *)
let quantum_cycles = 1000.0
let token_cycles = 30.0
let round_barrier_cycles = 600.0

(* [work] total work units, [atomics] shared atomic updates performed,
   spread through the work. All arithmetic is in cycles. *)
let time (m : Machine.t) ~threads ~work ~atomics =
  let work_cycles = float_of_int work *. m.Machine.work_cycles in
  let remote = Machine.remote_fraction m ~threads in
  let atomic_cycles =
    m.Machine.atomic_cycles *. (1.0 +. (remote *. (m.Machine.remote_multiplier -. 1.0)))
  in
  (* Mean distance between atomics, in cycles of useful work. *)
  let distance = if atomics = 0 then work_cycles else work_cycles /. float_of_int atomics in
  let advance = Float.min quantum_cycles distance in
  (* Rounds needed: total work split across threads advancing [advance]
     cycles per round each. *)
  let per_round_parallel = advance *. float_of_int threads in
  let rounds = Float.max 1.0 (work_cycles /. per_round_parallel) in
  (* Per round: parallel part + serial token phase: threads that ended
     on an atomic commit serially. *)
  let enders = if distance <= quantum_cycles then float_of_int threads else 0.0 in
  let serial = enders *. (token_cycles +. atomic_cycles) in
  let round_cycles = advance +. serial +. round_barrier_cycles in
  Exec_model.seconds m (rounds *. round_cycles)

(* Baseline (no CoreDet): plain parallel execution of the same work. *)
let baseline_time (m : Machine.t) ~threads ~work ~atomics =
  let remote = Machine.remote_fraction m ~threads in
  let atomic_cycles =
    m.Machine.atomic_cycles *. (1.0 +. (remote *. (m.Machine.remote_multiplier -. 1.0)))
  in
  let cycles =
    (float_of_int work *. m.Machine.work_cycles /. float_of_int threads)
    +. (float_of_int atomics /. float_of_int threads *. atomic_cycles)
  in
  Exec_model.seconds m cycles

let slowdown m ~threads ~work ~atomics =
  time m ~threads ~work ~atomics /. baseline_time m ~threads ~work ~atomics
