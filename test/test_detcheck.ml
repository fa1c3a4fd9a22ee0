(* The determinism audit, audited.

   - the invariance checker passes on genuinely deterministic cases
     (fuzz-generated and real apps) over a reduced lattice;
   - it *fails* on a deliberately nondeterministic case (detection is
     live, not vacuous);
   - the round-trace digest in Stats and the structural Schedule digest
     are thread-invariant and seed-sensitive;
   - generated cases are pure functions of their seed. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module D = Galois.Trace_digest

let quick_threads = [ 1; 2; 3 ]

let test_fuzz_cases_invariant () =
  (* A handful of fixed seeds; the 25-case sweep runs under @detcheck. *)
  List.iter
    (fun seed ->
      let report = Detcheck.check_invariance ~threads:quick_threads (Detcheck.Gen.case ~seed) in
      if not (Detcheck.ok report) then Alcotest.failf "%a" Detcheck.pp_report report)
    [ 1; 2; 3; 4 ]

let test_bfs_case_invariant () =
  let report =
    Detcheck.check_invariance ~threads:quick_threads (Detcheck.App_cases.bfs ~n:150 ~seed:7)
  in
  if not (Detcheck.ok report) then Alcotest.failf "%a" Detcheck.pp_report report

let test_checker_detects_divergence () =
  (* A case that changes its answer on every run: the checker must
     report divergences on both axes (threads and configurations). *)
  let counter = ref 0 in
  let case =
    {
      Detcheck.name = "deliberately-nondeterministic";
      static_id_capable = false;
      run =
        (fun ~policy:_ ~pool:_ ~static_id:_ ->
          incr counter;
          let d = D.fold_int D.seed !counter in
          {
            Detcheck.sched_digest = d;
            det_counters = d;
            output_digest = d;
            canonical_digest = d;
            det_trace = D.to_hex d;
            commits = 1;
          });
    }
  in
  let report = Detcheck.check_invariance ~threads:[ 1; 2 ] case in
  check_bool "divergence detected" false (Detcheck.ok report);
  (* Every non-reference run diverges in every quantity, and the
     second configuration's anchor also diverges canonically. *)
  check_bool "multiple divergences" true (List.length report.Detcheck.divergences > 3);
  check_bool "det-counters compared" true
    (List.exists (fun d -> d.Detcheck.quantity = "det-counters") report.Detcheck.divergences)

let test_positive_control () =
  check_bool "seed perturbation diverges (det)" true
    (Detcheck.seeds_distinguished
       ~gen:(fun s -> Detcheck.Gen.case ~seed:s)
       ~seed:11 (Galois.Policy.det 2))

let test_gen_is_pure () =
  (* Same seed, fresh case values: identical digests run to run. *)
  let digest () =
    let case = Detcheck.Gen.case ~seed:42 in
    Galois.Pool.with_pool ~domains:2 (fun pool ->
        case.Detcheck.run ~policy:(Galois.Policy.det 2) ~pool ~static_id:false)
  in
  let a = digest () and b = digest () in
  check_bool "sched digest reproducible" true (D.equal a.Detcheck.sched_digest b.Detcheck.sched_digest);
  check_bool "output digest reproducible" true
    (D.equal a.Detcheck.output_digest b.Detcheck.output_digest);
  check_int "commits reproducible" a.Detcheck.commits b.Detcheck.commits;
  check_bool "det run has a digest" false (D.is_absent a.Detcheck.sched_digest)

let test_params_cover_topologies () =
  (* The random parameter space actually reaches every topology. *)
  let seen = Hashtbl.create 8 in
  for seed = 0 to 63 do
    let p = Detcheck.Gen.random_params ~seed in
    Hashtbl.replace seen (Detcheck.Gen.topology_name p.Detcheck.Gen.topology) ()
  done;
  check_int "all five topologies" 5 (Hashtbl.length seen)

(* --- digest plumbing in the runtime ---------------------------------- *)

let run_recorded ~policy ~threads:_ () =
  let locks = Galois.Lock.create_array 13 in
  let operator ctx i =
    Galois.Context.acquire ctx locks.(i mod 13);
    Galois.Context.acquire ctx locks.((i * 7) mod 13);
    Galois.Context.work ctx 2;
    Galois.Context.failsafe ctx
  in
  Galois.Run.make ~operator (Array.init 90 Fun.id)
  |> Galois.Run.policy policy
  |> Galois.Run.record
  |> Galois.Run.exec

let test_stats_digest_thread_invariant () =
  let digest_at t = (run_recorded ~policy:(Galois.Policy.det t) ~threads:t ()).stats.digest in
  let d1 = digest_at 1 in
  check_bool "digest present" false (D.is_absent d1);
  List.iter
    (fun t ->
      if not (D.equal d1 (digest_at t)) then Alcotest.failf "stats digest differs at %d threads" t)
    [ 2; 4 ]

let test_schedule_digest_thread_invariant () =
  let digest_at t =
    match (run_recorded ~policy:(Galois.Policy.det t) ~threads:t ()).schedule with
    | Some s -> Galois.Schedule.digest s
    | None -> Alcotest.fail "no schedule recorded"
  in
  let d1 = digest_at 1 in
  List.iter
    (fun t ->
      if not (D.equal d1 (digest_at t)) then
        Alcotest.failf "schedule digest differs at %d threads" t)
    [ 2; 4 ]

let test_digests_distinguish_programs () =
  (* Different task counts must not collide (sanity, not cryptography). *)
  let digest_n n =
    let locks = Galois.Lock.create_array 5 in
    let operator ctx i =
      Galois.Context.acquire ctx locks.(i mod 5);
      Galois.Context.failsafe ctx
    in
    (Galois.Run.make ~operator (Array.init n Fun.id)
    |> Galois.Run.policy (Galois.Policy.det 2)
    |> Galois.Run.exec)
      .stats.digest
  in
  check_bool "different programs, different digests" false (D.equal (digest_n 40) (digest_n 41))

let test_serial_and_nondet_have_no_digest () =
  let run policy = (run_recorded ~policy ~threads:1 ()).stats.digest in
  check_bool "serial absent" true (D.is_absent (run Galois.Policy.serial));
  check_bool "nondet absent" true (D.is_absent (run (Galois.Policy.nondet 2)))

let suite =
  [
    Alcotest.test_case "fuzz cases invariant on reduced lattice" `Quick test_fuzz_cases_invariant;
    Alcotest.test_case "bfs case invariant on reduced lattice" `Quick test_bfs_case_invariant;
    Alcotest.test_case "checker detects a nondeterministic case" `Quick
      test_checker_detects_divergence;
    Alcotest.test_case "positive control: seeds distinguished" `Quick test_positive_control;
    Alcotest.test_case "generated cases are seed-pure" `Quick test_gen_is_pure;
    Alcotest.test_case "parameter space covers all topologies" `Quick
      test_params_cover_topologies;
    Alcotest.test_case "stats digest thread-invariant" `Quick test_stats_digest_thread_invariant;
    Alcotest.test_case "schedule digest thread-invariant" `Quick
      test_schedule_digest_thread_invariant;
    Alcotest.test_case "digests distinguish programs" `Quick test_digests_distinguish_programs;
    Alcotest.test_case "serial/nondet report no digest" `Quick
      test_serial_and_nondet_have_no_digest;
  ]
