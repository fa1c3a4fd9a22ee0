let check_int = Alcotest.(check int)

let test_pool_runs_all_workers () =
  Parallel.Domain_pool.with_pool 4 (fun pool ->
      let seen = Array.make 4 false in
      Parallel.Domain_pool.run pool (fun w -> seen.(w) <- true);
      Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "worker %d ran" i) true s) seen)

let test_pool_size_one () =
  Parallel.Domain_pool.with_pool 1 (fun pool ->
      let hit = ref 0 in
      Parallel.Domain_pool.run pool (fun w ->
          check_int "only worker 0" 0 w;
          incr hit);
      check_int "ran once" 1 !hit)

let test_pool_rejects_zero () =
  Alcotest.check_raises "zero size" (Invalid_argument "Domain_pool.create: size must be positive")
    (fun () -> ignore (Parallel.Domain_pool.create 0))

let test_pool_propagates_exception () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      match Parallel.Domain_pool.run pool (fun w -> if w = 1 then failwith "boom") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)

let test_pool_reusable_after_exception () =
  Parallel.Domain_pool.with_pool 2 (fun pool ->
      (try Parallel.Domain_pool.run pool (fun _ -> failwith "first") with Failure _ -> ());
      let counter = Atomic.make 0 in
      Parallel.Domain_pool.run pool (fun _ -> Atomic.incr counter);
      check_int "both workers ran after failure" 2 (Atomic.get counter))

let test_parallel_for_covers_range () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let n = 1000 in
      let hits = Array.make n (Atomic.make 0) in
      for i = 0 to n - 1 do
        hits.(i) <- Atomic.make 0
      done;
      Parallel.Domain_pool.parallel_for pool 0 n (fun i -> Atomic.incr hits.(i));
      Array.iteri (fun i a -> check_int (Printf.sprintf "index %d hit once" i) 1 (Atomic.get a)) hits)

let test_parallel_for_empty () =
  Parallel.Domain_pool.with_pool 2 (fun pool ->
      let hit = Atomic.make 0 in
      Parallel.Domain_pool.parallel_for pool 5 5 (fun _ -> Atomic.incr hit);
      check_int "no iterations" 0 (Atomic.get hit))

let test_parallel_for_workers_partition () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let n = 100 in
      let owner = Array.make n (-1) in
      Parallel.Domain_pool.parallel_for_workers pool 0 n (fun w lo hi ->
          for i = lo to hi - 1 do
            owner.(i) <- w
          done);
      Array.iteri (fun i w -> Alcotest.(check bool) (Printf.sprintf "index %d owned" i) true (w >= 0)) owner;
      (* Slices must be contiguous: owner array is non-decreasing. *)
      for i = 1 to n - 1 do
        if owner.(i) < owner.(i - 1) then Alcotest.failf "owners not contiguous at %d" i
      done)

let test_many_jobs () =
  Parallel.Domain_pool.with_pool 4 (fun pool ->
      let total = Atomic.make 0 in
      for _ = 1 to 200 do
        Parallel.Domain_pool.run pool (fun _ -> Atomic.incr total)
      done;
      check_int "all jobs ran on all workers" 800 (Atomic.get total))

let suite =
  [
    Alcotest.test_case "pool runs every worker" `Quick test_pool_runs_all_workers;
    Alcotest.test_case "pool of size one" `Quick test_pool_size_one;
    Alcotest.test_case "pool rejects size zero" `Quick test_pool_rejects_zero;
    Alcotest.test_case "pool propagates worker exception" `Quick test_pool_propagates_exception;
    Alcotest.test_case "pool usable after exception" `Quick test_pool_reusable_after_exception;
    Alcotest.test_case "parallel_for covers range exactly once" `Quick test_parallel_for_covers_range;
    Alcotest.test_case "parallel_for on empty range" `Quick test_parallel_for_empty;
    Alcotest.test_case "parallel_for_workers partitions contiguously" `Quick
      test_parallel_for_workers_partition;
    Alcotest.test_case "pool handles many sequential jobs" `Quick test_many_jobs;
  ]
