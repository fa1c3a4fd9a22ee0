module Machine = Simmachine.Machine
module Exec_model = Simmachine.Exec_model
module Coredet = Simmachine.Coredet_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let task ~acquires ~inspect ~commit ~committed =
  {
    Galois.Schedule.acquires;
    inspect_work = inspect;
    commit_work = commit;
    committed;
    locks = [||];
  }

let test_machine_shapes () =
  check_int "m4x10 cores" 40 (Machine.max_threads Machine.m4x10);
  check_int "m4x6 cores" 24 (Machine.max_threads Machine.m4x6);
  check_int "numa8x4 cores" 32 (Machine.max_threads Machine.numa8x4);
  Alcotest.(check (float 1e-9)) "no remote on one node" 0.0
    (Machine.remote_fraction Machine.numa8x4 ~threads:8);
  Alcotest.(check (float 1e-9)) "two nodes at 9 threads" 0.5
    (Machine.remote_fraction Machine.numa8x4 ~threads:9);
  check_bool "remote fraction grows" true
    (Machine.remote_fraction Machine.numa8x4 ~threads:32
    > Machine.remote_fraction Machine.numa8x4 ~threads:9)

let test_thread_sweep () =
  let sweep = Machine.thread_sweep Machine.m4x10 in
  check_bool "starts at 1" true (List.hd sweep = 1);
  check_bool "ends at max" true (List.exists (fun p -> p = 40) sweep);
  check_bool "ascending" true (List.sort compare sweep = sweep)

let test_makespan () =
  (* 4 unit tasks on 2 workers: makespan 2. *)
  Alcotest.(check (float 1e-9)) "balanced" 2.0
    (Exec_model.makespan ~threads:2 [ 1.0; 1.0; 1.0; 1.0 ]);
  (* One giant task dominates. *)
  Alcotest.(check (float 1e-9)) "critical path" 10.0
    (Exec_model.makespan ~threads:4 [ 10.0; 1.0; 1.0 ]);
  (* Amplified: balanced bound. *)
  Alcotest.(check (float 1e-9)) "amplified" 20.0
    (Exec_model.makespan ~amplify:10 ~threads:2 [ 1.0; 1.0; 1.0; 1.0 ])

let test_flat_scaling () =
  let records = List.init 1000 (fun _ -> task ~acquires:4 ~inspect:0 ~commit:10 ~committed:true) in
  let t1 = Exec_model.time_schedule Machine.m4x10 ~threads:1 (Flat records) in
  let t8 = Exec_model.time_schedule Machine.m4x10 ~threads:8 (Flat records) in
  check_bool "parallel is faster" true (t8 < t1);
  check_bool "speedup is sublinear-or-linear" true (t1 /. t8 <= 8.000001)

let test_rounds_cost_more_than_flat () =
  (* The same tasks in many small deterministic rounds must cost more
     than asynchronous execution (barriers + double touch). *)
  let tasks = List.init 256 (fun _ -> task ~acquires:4 ~inspect:5 ~commit:5 ~committed:true) in
  let rounds = List.map (fun t -> [| t |]) tasks in
  let flat = Exec_model.time_schedule Machine.m4x10 ~threads:8 (Flat tasks) in
  let det = Exec_model.time_schedule Machine.m4x10 ~threads:8 (Rounds rounds) in
  check_bool "deterministic rounds slower" true (det > flat)

let test_pbbs_between_flat_and_det () =
  let round =
    Array.init 64 (fun _ -> task ~acquires:6 ~inspect:5 ~commit:10 ~committed:true)
  in
  let det = Exec_model.time_schedule Machine.m4x10 ~threads:8 (Rounds [ round ]) in
  let pbbs = Exec_model.time_rounds_pbbs Machine.m4x10 ~threads:8 [ round ] in
  check_bool "handwritten deterministic faster than generic" true (pbbs < det)

let test_numa_cliff () =
  (* numa8x4: efficiency per thread drops sharply crossing one blade. *)
  let records = List.init 2000 (fun _ -> task ~acquires:6 ~inspect:0 ~commit:5 ~committed:true) in
  let m = Machine.numa8x4 in
  let t8 = Exec_model.time_schedule ~amplify:100 m ~threads:8 (Flat records) in
  let t9 = Exec_model.time_schedule ~amplify:100 m ~threads:9 (Flat records) in
  (* 9 threads cross the NUMA boundary: time should NOT improve by the
     thread ratio; per-thread efficiency drops. *)
  let eff8 = 1.0 /. (t8 *. 8.0) and eff9 = 1.0 /. (t9 *. 9.0) in
  check_bool "efficiency drops across the blade boundary" true (eff9 < eff8)

let test_serial_baseline_cheapest () =
  let records = List.init 500 (fun _ -> task ~acquires:6 ~inspect:0 ~commit:5 ~committed:true) in
  let baseline = Exec_model.time_serial_baseline Machine.m4x10 records in
  let galois1 = Exec_model.time_schedule Machine.m4x10 ~threads:1 (Flat records) in
  check_bool "baseline beats 1-thread runtime" true (baseline < galois1)

let test_coredet_contrast () =
  let m = Machine.m4x10 in
  (* Coarse-grain, almost no atomics: CoreDet cost is modest. *)
  let coarse = Coredet.slowdown m ~threads:40 ~work:1_000_000 ~atomics:100 in
  (* Fine-grain with an atomic every few work units: catastrophic. *)
  let fine = Coredet.slowdown m ~threads:40 ~work:1_000_000 ~atomics:500_000 in
  check_bool "coarse-grain is mildly slowed" true (coarse < 4.0);
  check_bool "fine-grain collapses" true (fine > 20.0);
  check_bool "slowdowns exceed 1" true (coarse > 1.0)

let test_coredet_monotone_in_threads () =
  let m = Machine.m4x10 in
  let s t = Coredet.slowdown m ~threads:t ~work:1_000_000 ~atomics:200_000 in
  check_bool "slowdown grows with threads" true (s 40 > s 2)

let test_cache_basics () =
  let c = Cachesim.Cache.create ~lines:64 ~associativity:4 in
  check_bool "first access misses" false (Cachesim.Cache.access c 1);
  check_bool "second access hits" true (Cachesim.Cache.access c 1)

let test_cache_lru_eviction () =
  (* Fill one set beyond associativity; the oldest line must leave. With
     a 1-set cache, ids map to the same set. *)
  let c = Cachesim.Cache.create ~lines:4 ~associativity:4 in
  List.iter (fun i -> ignore (Cachesim.Cache.access c i)) [ 1; 2; 3; 4; 5 ];
  check_bool "evicted line misses again" false (Cachesim.Cache.access c 1)

let test_cache_validation () =
  Alcotest.check_raises "bad geometry"
    (Invalid_argument "Cache.create: lines must be a positive multiple of associativity")
    (fun () -> ignore (Cachesim.Cache.create ~lines:10 ~associativity:4))

let test_hierarchy_locality_effect () =
  (* The same tasks executed as rounds (inspect + commit far apart) must
     produce at least as many DRAM accesses as flat execution. *)
  let n = 4096 in
  let mk i =
    {
      Galois.Schedule.acquires = 4;
      inspect_work = 0;
      commit_work = 1;
      committed = true;
      locks = Array.init 4 (fun j -> ((i * 4) + j) mod (2 * n));
    }
  in
  let tasks = List.init n mk in
  let flat = Galois.Schedule.Flat tasks in
  let rounds = Galois.Schedule.Rounds [ Array.of_list tasks ] in
  let d_flat =
    Cachesim.Hierarchy.dram_accesses
      (Cachesim.Hierarchy.replay ~l1_lines:64 ~l2_lines:256 ~l3_lines:1024 ~threads:4 flat)
  in
  let d_rounds =
    Cachesim.Hierarchy.dram_accesses
      (Cachesim.Hierarchy.replay ~l1_lines:64 ~l2_lines:256 ~l3_lines:1024 ~threads:4 rounds)
  in
  check_bool "round execution touches DRAM more" true (d_rounds > d_flat)

let suite =
  [
    Alcotest.test_case "machine descriptions" `Quick test_machine_shapes;
    Alcotest.test_case "thread sweeps" `Quick test_thread_sweep;
    Alcotest.test_case "makespan" `Quick test_makespan;
    Alcotest.test_case "flat schedule scales" `Quick test_flat_scaling;
    Alcotest.test_case "rounds cost more than flat" `Quick test_rounds_cost_more_than_flat;
    Alcotest.test_case "pbbs model beats generic det" `Quick test_pbbs_between_flat_and_det;
    Alcotest.test_case "NUMA cliff at blade boundary" `Quick test_numa_cliff;
    Alcotest.test_case "serial baseline cheapest" `Quick test_serial_baseline_cheapest;
    Alcotest.test_case "coredet coarse vs fine grain" `Quick test_coredet_contrast;
    Alcotest.test_case "coredet slowdown grows with threads" `Quick
      test_coredet_monotone_in_threads;
    Alcotest.test_case "cache hit/miss accounting" `Quick test_cache_basics;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache geometry validation" `Quick test_cache_validation;
    Alcotest.test_case "hierarchy shows det locality loss" `Quick test_hierarchy_locality_effect;
  ]
