(* Discrete execution simulation: replay a recorded schedule under a
   machine cost model at a given thread count.

   Asynchronous (non-deterministic / serial) schedules are
   list-scheduled greedily: each task goes to the least-loaded worker;
   the simulated time is the makespan. Deterministic round schedules
   replay the paper's structure exactly: per round, an inspect phase and
   a commit phase, each a parallel makespan, separated by barriers — so
   the critical-path cost of rounds (§3.4) emerges naturally rather than
   being assumed.

   Sharing costs use the machine's NUMA remote fraction: every mark
   operation is a shared-memory access that crosses nodes with the
   probability induced by how many nodes the threads span. *)

(* [tuning] scales the per-task scheduling overhead (1.0 = the generic
   Galois runtime; 0.3 models PBBS's hand-optimized code paths). [miss]
   adds a per-acquire memory penalty (the deterministic schedulers'
   inspect/commit locality loss, §5.4). *)
let cycles_of_task ?(tuning = 1.0) ?(miss = 0.0) (m : Machine.t) ~remote ~work ~acquires =
  let atomic = m.atomic_cycles *. (1.0 +. (remote *. (m.remote_multiplier -. 1.0))) in
  (float_of_int work *. m.work_cycles)
  +. (float_of_int acquires *. (atomic +. (tuning *. m.acquire_overhead_cycles) +. miss))
  +. (tuning *. m.task_overhead_cycles)

let barrier_cycles (m : Machine.t) ~threads =
  m.barrier_base_cycles +. (m.barrier_per_thread_cycles *. float_of_int threads)

(* Greedy list scheduling; returns the makespan in cycles. The worker
   loads live in a binary min-heap so each assignment is O(log threads). *)
let makespan_exact ~threads costs =
  let heap = Array.make threads 0.0 in
  let sift_down i =
    let x = heap.(i) in
    let i = ref i in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = ref !i in
      if l < threads && heap.(l) < (if !smallest = !i then x else heap.(!smallest)) then
        smallest := l;
      if r < threads && heap.(r) < (if !smallest = !i then x else heap.(!smallest)) then
        smallest := r;
      if !smallest = !i then continue_ := false
      else begin
        heap.(!i) <- heap.(!smallest);
        heap.(!smallest) <- x;
        i := !smallest
      end
    done
  in
  List.iter
    (fun c ->
      heap.(0) <- heap.(0) +. c;
      sift_down 0)
    costs;
  Array.fold_left Float.max 0.0 heap

(* [amplify] models running the same schedule structure at K times the
   input size: each phase holds K times the tasks. Replication smooths
   load imbalance, so the amplified makespan is the balanced bound
   clamped below by the longest single task. The figures use this to
   evaluate scaling at the paper's input scale without materializing
   10M-task recordings. *)
let makespan ?(amplify = 1) ~threads costs =
  if amplify <= 1 then makespan_exact ~threads costs
  else begin
    let total = List.fold_left ( +. ) 0.0 costs in
    let longest = List.fold_left Float.max 0.0 costs in
    Float.max longest (float_of_int amplify *. total /. float_of_int threads)
  end

let seconds (m : Machine.t) cycles = cycles /. (m.ghz *. 1e9)

(* Asynchronous schedule: tasks (including aborted attempts, whose work
   was also burned) flow through the workers. *)
let time_flat ?amplify (m : Machine.t) ~threads records =
  let remote = Machine.remote_fraction m ~threads in
  let costs =
    List.map
      (fun r ->
        cycles_of_task m ~remote
          ~work:(r.Galois.Schedule.inspect_work + r.Galois.Schedule.commit_work)
          ~acquires:r.Galois.Schedule.acquires)
      records
  in
  seconds m (makespan ?amplify ~threads costs)

(* Deterministic rounds: inspect-phase makespan + barrier + commit-phase
   makespan + barrier, per round. The deterministic scheduler touches
   every mark twice more than the speculative one (mark, verify, clear),
   and pays the window glue; fold that into the per-phase costs. *)
let time_rounds ?amplify (m : Machine.t) ~threads rounds =
  let remote = Machine.remote_fraction m ~threads in
  let barrier = barrier_cycles m ~threads in
  let total = ref 0.0 in
  List.iter
    (fun round ->
      let inspect_costs =
        Array.to_list
          (Array.map
             (fun r ->
               cycles_of_task m ~remote ~work:r.Galois.Schedule.inspect_work
                 ~acquires:r.Galois.Schedule.acquires)
             round)
      in
      let commit_costs =
        Array.to_list
          (Array.map
             (fun r ->
               if r.Galois.Schedule.committed then
                 (* verify + clear, plus the §5.4 locality cost: the
                    neighborhood was last touched a whole window ago *)
                 cycles_of_task ~miss:m.Machine.reread_miss_cycles m ~remote
                   ~work:r.Galois.Schedule.commit_work ~acquires:r.Galois.Schedule.acquires
               else
                 (* failed selection still clears its marks *)
                 cycles_of_task m ~remote ~work:0 ~acquires:r.Galois.Schedule.acquires)
             round)
      in
      total :=
        !total +. makespan ?amplify ~threads inspect_costs +. barrier
        +. makespan ?amplify ~threads commit_costs +. barrier)
    rounds;
  seconds m !total

(* PBBS = handwritten DIG scheduling (paper §5.3): same round
   structure, but reservations are bare min-CAS writes, the commit phase
   resumes the task instead of re-executing its prefix
   (application-specific continuations), and the per-task scheduling
   constants are hand-tuned ([tuning] 0.3). *)
let time_rounds_pbbs ?amplify (m : Machine.t) ~threads rounds =
  let tuning = 0.3 in
  let remote = Machine.remote_fraction m ~threads in
  let barrier = barrier_cycles m ~threads in
  let total = ref 0.0 in
  List.iter
    (fun round ->
      let reserve_costs =
        Array.to_list
          (Array.map
             (fun r ->
               cycles_of_task ~tuning m ~remote ~work:r.Galois.Schedule.inspect_work
                 ~acquires:r.Galois.Schedule.acquires)
             round)
      in
      let commit_costs =
        Array.to_list
          (Array.map
             (fun r ->
               if r.Galois.Schedule.committed then
                 (* Hand-coded resume: only the work past the failsafe
                    point runs at commit — but the locality cost of the
                    inspect/commit separation applies to PBBS too
                    (Fig. 11). *)
                 cycles_of_task ~tuning ~miss:(0.6 *. m.Machine.reread_miss_cycles) m ~remote
                   ~work:(max 0 (r.Galois.Schedule.commit_work - r.Galois.Schedule.inspect_work))
                   ~acquires:r.Galois.Schedule.acquires
               else cycles_of_task ~tuning m ~remote ~work:0 ~acquires:r.Galois.Schedule.acquires)
             round)
      in
      total :=
        !total +. makespan ?amplify ~threads reserve_costs +. barrier
        +. makespan ?amplify ~threads commit_costs +. barrier)
    rounds;
  seconds m !total

let time_schedule ?amplify (m : Machine.t) ~threads schedule =
  match schedule with
  | Galois.Schedule.Flat records -> time_flat ?amplify m ~threads records
  | Galois.Schedule.Rounds rounds -> time_rounds ?amplify m ~threads rounds

(* A hand-optimized sequential baseline (Fig. 8's role): the algorithmic
   work without any synchronization — no mark operations, minimal
   per-task cost. *)
let time_serial_baseline ?(amplify = 1) (m : Machine.t) records =
  let cycles =
    List.fold_left
      (fun acc r ->
        if r.Galois.Schedule.committed then
          acc
          +. (float_of_int (r.Galois.Schedule.inspect_work + r.Galois.Schedule.commit_work)
             *. m.work_cycles)
          +. (0.25 *. m.task_overhead_cycles)
        else acc)
      0.0 records
  in
  seconds m (float_of_int amplify *. cycles)

(* Data-parallel kernel (PARSEC skeletons): per barrier phase, work is
   list-scheduled; atomics are negligible by construction but included. *)
let time_kernel ?amplify (m : Machine.t) ~threads ~task_costs ~barriers ~atomics =
  let remote = Machine.remote_fraction m ~threads in
  let costs =
    List.map
      (fun w -> cycles_of_task m ~remote ~work:w ~acquires:0)
      (Array.to_list task_costs)
  in
  let amp = float_of_int (Option.value ~default:1 amplify) in
  let atomic =
    amp *. float_of_int atomics *. m.atomic_cycles
    *. (1.0 +. (remote *. (m.remote_multiplier -. 1.0)))
    /. float_of_int threads
  in
  let cycles =
    makespan ?amplify ~threads costs
    +. (float_of_int barriers *. barrier_cycles m ~threads)
    +. atomic
  in
  seconds m cycles
