let check_int = Alcotest.(check int)

let test_cell_min_semantics () =
  let c = (Detreserve.Cell.create_array 1).(0) in
  Detreserve.Cell.reserve c 10;
  Detreserve.Cell.reserve c 5;
  Detreserve.Cell.reserve c 8;
  Alcotest.(check bool) "min holds" true (Detreserve.Cell.holds c 5);
  Detreserve.Cell.release c 8;
  Alcotest.(check bool) "release by non-holder is no-op" true (Detreserve.Cell.holds c 5);
  Detreserve.Cell.release c 5;
  Alcotest.(check bool) "released" false (Detreserve.Cell.holds c 5)

let test_independent_items_commit_first_round () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let n = 100 in
      let done_ = Array.make n false in
      let stats =
        Detreserve.speculative_for ~granularity:256 ~pool ~n
          ~reserve:(fun _ -> ())
          ~commit:(fun i ->
            done_.(i) <- true;
            true)
          ()
      in
      check_int "one round" 1 stats.Detreserve.rounds;
      check_int "all committed" n stats.Detreserve.commits;
      Alcotest.(check bool) "all done" true (Array.for_all Fun.id done_))

let test_sequential_semantics () =
  (* All items contend on one cell: execution must follow index order
     exactly, like a sequential loop. *)
  Parallel.Domain_pool.with_pool 4 (fun pool ->
      let n = 40 in
      let cell = (Detreserve.Cell.create_array 1).(0) in
      let log = ref [] in
      let stats =
        Detreserve.speculative_for ~granularity:8 ~pool ~n
          ~reserve:(fun i -> Detreserve.Cell.reserve cell i)
          ~commit:(fun i ->
            if Detreserve.Cell.holds cell i then begin
              log := i :: !log;
              Detreserve.Cell.release cell i;
              true
            end
            else begin
              Detreserve.Cell.release cell i;
              false
            end)
          ()
      in
      check_int "all committed" n stats.Detreserve.commits;
      Alcotest.(check (list int)) "index order" (List.init n Fun.id) (List.rev !log))

let test_granularity_validation () =
  Parallel.Domain_pool.with_pool 1 (fun pool ->
      Alcotest.check_raises "bad granularity"
        (Invalid_argument "Detreserve.speculative_for: granularity must be positive") (fun () ->
          ignore
            (Detreserve.speculative_for ~granularity:0 ~pool ~n:1
               ~reserve:(fun _ -> ())
               ~commit:(fun _ -> true)
               ())))

let test_dynamic_children () =
  (* Each initial item spawns one child generation; totals must match. *)
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let processed = Atomic.make 0 in
      let stats =
        Detreserve.speculative_for_dynamic ~granularity:16 ~pool
          ~initial:(Array.init 10 (fun i -> (0, i)))
          ~reserve:(fun _ _ -> ())
          ~commit:(fun _ (depth, i) ->
            Atomic.incr processed;
            if depth < 2 then Some [ (depth + 1, i) ] else Some [])
          ()
      in
      check_int "3 generations of 10" 30 (Atomic.get processed);
      check_int "commits" 30 stats.Detreserve.commits)

let test_dynamic_retry () =
  (* An item that fails twice then succeeds. *)
  Parallel.Domain_pool.with_pool 2 (fun pool ->
      let attempts = Array.make 2 0 in
      let stats =
        Detreserve.speculative_for_dynamic ~granularity:4 ~pool
          ~initial:[| "a"; "b" |]
          ~reserve:(fun _ _ -> ())
          ~commit:(fun prio _item ->
            attempts.(prio) <- attempts.(prio) + 1;
            if attempts.(prio) < 3 then None else Some [])
          ()
      in
      check_int "commits" 2 stats.Detreserve.commits;
      check_int "retries" 4 stats.Detreserve.retries)

let suite =
  [
    Alcotest.test_case "cell min semantics" `Quick test_cell_min_semantics;
    Alcotest.test_case "independent items: one round" `Quick
      test_independent_items_commit_first_round;
    Alcotest.test_case "contended items: sequential order" `Quick test_sequential_semantics;
    Alcotest.test_case "granularity validation" `Quick test_granularity_validation;
    Alcotest.test_case "dynamic children" `Quick test_dynamic_children;
    Alcotest.test_case "dynamic retry" `Quick test_dynamic_retry;
  ]
