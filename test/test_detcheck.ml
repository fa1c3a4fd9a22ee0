(* The determinism audit, audited.

   - the invariance checker passes on genuinely deterministic table rows
     (fuzz-generated and real apps) over a reduced lattice;
   - it *fails* on a deliberately nondeterministic row (detection is
     live, not vacuous) and names the first differing event line;
   - the round-trace digest in Stats and the structural Schedule digest
     are thread-invariant and seed-sensitive;
   - generated rows are pure functions of their seed. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module D = Galois.Trace_digest

let quick_threads = [ 1; 2; 3 ]

let test_fuzz_cases_invariant () =
  (* A handful of fixed seeds; the 25-row sweep runs under @detcheck. *)
  List.iter
    (fun seed ->
      let report =
        Detcheck.check_invariance ~threads:quick_threads (Detcheck.Replay_cases.gen ~seed)
      in
      if not (Detcheck.ok report) then Alcotest.failf "%a" Detcheck.pp_report report)
    [ 1; 2; 3; 4 ]

(* The repeated-gen row must really repeat items: with static ids it
   commits fewer tasks than without, and gives the same answer. *)
let test_repeated_row_collapses () =
  List.iter
    (fun seed ->
      let (Detcheck.Replay_cases.Case c) = Detcheck.Replay_cases.gen_repeated ~seed in
      let solve static_id =
        let o, (report : Galois.Run.report) =
          Galois.Run.solve ~policy:(Galois.Policy.det 2) (c.fresh ~static_id ())
        in
        (report.stats.commits, c.canonical_digest o ~commits:report.stats.commits)
      in
      let commits, answer = solve false and collapsed, answer' = solve true in
      check_bool (Printf.sprintf "seed %d: static ids collapse repeats" seed) true
        (collapsed < commits);
      check_bool (Printf.sprintf "seed %d: same answer" seed) true (D.equal answer answer'))
    [ 7; 2014 ]

let test_bfs_case_invariant () =
  let report =
    Detcheck.check_invariance ~threads:quick_threads (Detcheck.Replay_cases.bfs ~n:150 ~seed:7)
  in
  if not (Detcheck.ok report) then Alcotest.failf "%a" Detcheck.pp_report report

(* A table row whose world differs on every run: the k-th fresh world's
   four tasks each report k work units, so every answer differs and the
   event streams first part at round 1's execute-done line. *)
let drifting_row () =
  let worlds = ref 0 in
  Detcheck.Replay_cases.Case
    {
      name = "deliberately-nondeterministic";
      static_id_capable = false;
      snapshot_capable = false;
      fresh =
        (fun ~static_id:_ () ->
          incr worlds;
          let k = !worlds in
          let locks = Galois.Lock.create_array 4 in
          let operator ctx i =
            Galois.Context.acquire ctx locks.(i);
            Galois.Context.work ctx k;
            Galois.Context.failsafe ctx
          in
          (Galois.Run.make ~operator (Array.init 4 Fun.id), fun () -> k));
      output_digest = D.fold_int D.seed;
      canonical_digest = (fun k ~commits:_ -> D.fold_int D.seed k);
      summary = string_of_int;
    }

let test_checker_detects_divergence () =
  (* The checker must report divergences on both axes (threads and
     configurations), and name where the event streams part. *)
  let report = Detcheck.check_invariance ~threads:[ 1; 2 ] (drifting_row ()) in
  check_bool "divergence detected" false (Detcheck.ok report);
  (* Every non-reference run diverges in its counters, output, answer
     and stream, and the second configuration's anchor also diverges
     canonically. *)
  check_bool "multiple divergences" true (List.length report.Detcheck.divergences > 3);
  check_bool "det-counters compared" true
    (List.exists (fun d -> d.Detcheck.quantity = "det-counters") report.Detcheck.divergences);
  match
    List.find_opt (fun d -> d.Detcheck.quantity = "trace-stream") report.Detcheck.divergences
  with
  | Some { Detcheck.first_line = Some l; _ } ->
      check_int "in round 1" 1 l.Detcheck.round;
      check_bool "names the execute-done line" true
        (String.starts_with ~prefix:"execute-done round=1 " l.Detcheck.got_line
        && String.starts_with ~prefix:"execute-done round=1 " l.Detcheck.expected_line
        && l.Detcheck.got_line <> l.Detcheck.expected_line)
  | Some { Detcheck.first_line = None; _ } -> Alcotest.fail "trace-stream names no line"
  | None -> Alcotest.fail "no trace-stream divergence"

let test_positive_control () =
  check_bool "seed perturbation diverges (det)" true
    (Detcheck.seeds_distinguished ~seed:11 (Galois.Policy.det 2))

let test_gen_is_pure () =
  (* Same seed, fresh rows: identical digests run to run. *)
  let observe (Detcheck.Replay_cases.Case c) =
    Galois.Pool.with_pool ~domains:2 (fun pool ->
        let out, report =
          Galois.Run.solve ~pool ~policy:(Galois.Policy.det 2) (c.fresh ~static_id:false ())
        in
        (report.stats, c.output_digest out))
  in
  let a, out_a = observe (Detcheck.Replay_cases.gen ~seed:42) in
  let b, out_b = observe (Detcheck.Replay_cases.gen ~seed:42) in
  check_bool "sched digest reproducible" true (D.equal a.digest b.digest);
  check_bool "output digest reproducible" true (D.equal out_a out_b);
  check_int "commits reproducible" a.commits b.commits;
  check_bool "det run has a digest" false (D.is_absent a.digest)

let test_params_cover_topologies () =
  (* The random parameter space actually reaches every topology: a
     generated row is named "gen(seed=S,TOPOLOGY,...)". *)
  let seen = Hashtbl.create 8 in
  for seed = 0 to 63 do
    let (Detcheck.Replay_cases.Case c) = Detcheck.Replay_cases.gen ~seed in
    Hashtbl.replace seen (List.nth (String.split_on_char ',' c.name) 1) ()
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
    Alcotest.test_case "repeated row collapses under static ids" `Quick
      test_repeated_row_collapses;
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
