(* End-to-end tests of the runtime on small synthetic Galois programs. *)

let check_int = Alcotest.(check int)

(* --- Bucket-append program: n tasks, task i appends i to bucket
   (i mod k). Conflicts happen exactly between tasks sharing a bucket. *)

type buckets = { locks : Galois.Lock.t array; cells : int list ref array }

let make_buckets k =
  { locks = Galois.Lock.create_array k; cells = Array.init k (fun _ -> ref []) }

let bucket_operator b k ctx i =
  let j = i mod k in
  Galois.Context.acquire ctx b.locks.(j);
  Galois.Context.failsafe ctx;
  b.cells.(j) := i :: !(b.cells.(j))

let run_buckets policy n k =
  let b = make_buckets k in
  let report =
    Galois.Run.make ~operator:(bucket_operator b k) (Array.init n Fun.id)
    |> Galois.Run.policy policy
    |> Galois.Run.exec
  in
  (b, report)

let test_serial_buckets () =
  let n = 100 and k = 7 in
  let b, report = run_buckets Galois.Policy.serial n k in
  check_int "commits" n report.stats.commits;
  check_int "aborts" 0 report.stats.aborts;
  (* Serial executes in order, so each bucket holds its items in
     descending order (prepends). *)
  Array.iteri
    (fun j cell ->
      let expected = List.rev (List.filter (fun i -> i mod k = j) (List.init n Fun.id)) in
      Alcotest.(check (list int)) (Printf.sprintf "bucket %d" j) expected !cell)
    b.cells

let multiset l = List.sort compare l

let test_nondet_buckets_complete () =
  let n = 500 and k = 13 in
  let b, report = run_buckets (Galois.Policy.nondet 4) n k in
  check_int "commits" n report.stats.commits;
  let all = multiset (List.concat_map (fun c -> !c) (Array.to_list b.cells)) in
  Alcotest.(check (list int)) "every task ran exactly once" (List.init n Fun.id) all

let test_det_buckets_complete () =
  let n = 500 and k = 13 in
  let b, report = run_buckets (Galois.Policy.det 4) n k in
  check_int "commits" n report.stats.commits;
  Alcotest.(check bool) "rounds happened" true (report.stats.rounds > 0);
  let all = multiset (List.concat_map (fun c -> !c) (Array.to_list b.cells)) in
  Alcotest.(check (list int)) "every task ran exactly once" (List.init n Fun.id) all

let test_det_aborts_counted () =
  (* All tasks fight over a single lock: each round commits exactly one
     task, so aborts must be > 0 and commits = n. *)
  let n = 64 in
  let b, report = run_buckets (Galois.Policy.det 3) n 1 in
  check_int "commits" n report.stats.commits;
  Alcotest.(check bool) "high conflict causes failed selections" true (report.stats.aborts > 0);
  check_int "all in one bucket" n (List.length !(b.cells.(0)))

(* --- Task creation: item = depth; depth > 0 pushes two children.
   Exercises deterministic id assignment for dynamically created work. *)

let tree_operator counter_lock counter ctx depth =
  Galois.Context.acquire ctx counter_lock;
  Galois.Context.failsafe ctx;
  incr counter;
  if depth > 0 then begin
    Galois.Context.push ctx (depth - 1);
    Galois.Context.push ctx (depth - 1)
  end

let test_task_creation policy () =
  let depth = 5 in
  let lock = Galois.Lock.create () in
  let counter = ref 0 in
  let report =
    Galois.Run.make ~operator:(tree_operator lock counter) [| depth |]
    |> Galois.Run.policy policy
    |> Galois.Run.exec
  in
  let expected = (1 lsl (depth + 1)) - 1 in
  check_int "tree size" expected !counter;
  check_int "commits" expected report.stats.commits;
  check_int "created" (expected - 1) report.stats.created

(* --- Cautiousness enforcement. *)

let test_not_cautious_detected () =
  let l1 = Galois.Lock.create () and l2 = Galois.Lock.create () in
  let operator ctx () =
    Galois.Context.acquire ctx l1;
    Galois.Context.failsafe ctx;
    Galois.Context.acquire ctx l2
  in
  match Galois.Run.exec (Galois.Run.make ~operator [| () |]) with
  | _ -> Alcotest.fail "expected Not_cautious"
  | exception Galois.Context.Not_cautious -> ()

(* --- Continuation optimization: saved state must reappear at commit;
   and the final output must not depend on the optimization. *)

let test_continuation_state_reused () =
  let n = 200 in
  let locks = Galois.Lock.create_array n in
  let reused = Atomic.make 0 and computed = Atomic.make 0 in
  let out = Array.make n 0 in
  let operator ctx i =
    let v =
      match Galois.Context.saved ctx with
      | Some v ->
          Atomic.incr reused;
          v
      | None ->
          Galois.Context.acquire ctx locks.(i);
          Atomic.incr computed;
          let v = (i * 7) + 1 in
          Galois.Context.save ctx v;
          v
    in
    Galois.Context.failsafe ctx;
    out.(i) <- v
  in
  let policy =
    Galois.Policy.det 2
      ~options:{ Galois.Policy.default_det with continuation = true }
  in
  let report =
    Galois.Run.make ~operator (Array.init n Fun.id) |> Galois.Run.policy policy |> Galois.Run.exec
  in
  check_int "commits" n report.stats.commits;
  (* Disjoint neighborhoods: every task commits in its first round, and
     every commit reuses the state saved at inspection. *)
  check_int "every commit reused saved state" n (Atomic.get reused);
  Array.iteri (fun i v -> check_int (Printf.sprintf "out %d" i) ((i * 7) + 1) v) out

let test_continuation_does_not_change_output () =
  let run continuation =
    let k = 5 and n = 100 in
    let b = make_buckets k in
    let policy =
      Galois.Policy.det 3 ~options:{ Galois.Policy.default_det with continuation }
    in
    let _ =
      Galois.Run.make ~operator:(bucket_operator b k) (Array.init n Fun.id)
      |> Galois.Run.policy policy
      |> Galois.Run.exec
    in
    Array.map (fun c -> !c) b.cells
  in
  let with_cont = run true and without = run false in
  Array.iteri
    (fun j cell -> Alcotest.(check (list int)) (Printf.sprintf "bucket %d" j) cell without.(j))
    with_cont

(* --- validate mode: defeat flags must agree with mark re-verification. *)

let test_validate_mode () =
  let k = 3 and n = 200 in
  let b = make_buckets k in
  let policy =
    Galois.Policy.det 4 ~options:{ Galois.Policy.default_det with validate = true }
  in
  let report =
    Galois.Run.make ~operator:(bucket_operator b k) (Array.init n Fun.id)
    |> Galois.Run.policy policy
    |> Galois.Run.exec
  in
  check_int "commits under validation" n report.stats.commits

(* --- static ids: duplicate pushes within a generation collapse. *)

let test_static_id_dedup () =
  (* Initial tasks 0..9; every task pushes item 100 (same static id). The
     pushed task must execute exactly once (per generation). *)
  let executions = ref 0 and dup_executions = ref 0 in
  let lock = Galois.Lock.create () in
  let operator ctx i =
    Galois.Context.acquire ctx lock;
    Galois.Context.failsafe ctx;
    incr executions;
    if i < 100 then Galois.Context.push ctx 100 else incr dup_executions
  in
  let report =
    Galois.Run.make ~operator (Array.init 10 Fun.id)
    |> Galois.Run.policy (Galois.Policy.det 2)
    |> Galois.Run.static_id Fun.id
    |> Galois.Run.exec
  in
  check_int "initial + one deduplicated child" 11 !executions;
  check_int "task 100 ran once" 1 !dup_executions;
  check_int "commits" 11 report.stats.commits

(* --- schedule recording sanity. *)

let test_recording () =
  let k = 4 and n = 50 in
  let b = make_buckets k in
  let report =
    Galois.Run.make ~operator:(bucket_operator b k) (Array.init n Fun.id)
    |> Galois.Run.policy (Galois.Policy.det 2)
    |> Galois.Run.record
    |> Galois.Run.exec
  in
  match report.schedule with
  | Some (Galois.Schedule.Rounds rounds) ->
      check_int "recorded rounds match stats" report.stats.rounds (List.length rounds);
      let committed = List.length (Galois.Schedule.committed_tasks (Galois.Schedule.Rounds rounds)) in
      check_int "recorded commits" n committed
  | _ -> Alcotest.fail "expected round-structured schedule"

let test_recording_nondet () =
  let k = 4 and n = 50 in
  let b = make_buckets k in
  let report =
    Galois.Run.make ~operator:(bucket_operator b k) (Array.init n Fun.id)
    |> Galois.Run.policy (Galois.Policy.nondet 2)
    |> Galois.Run.record
    |> Galois.Run.exec
  in
  match report.schedule with
  | Some (Galois.Schedule.Flat attempts) ->
      let committed = List.length (List.filter (fun r -> r.Galois.Schedule.committed) attempts) in
      check_int "recorded commits" n committed
  | _ -> Alcotest.fail "expected flat schedule"

(* --- Inspected neighborhoods reach record and validate. Plain det runs
   only count inspect-phase acquisitions; recording and validation must
   still see every location. Item i acquires locks i and i+1 (mod n). *)

let ring_run n policy =
  let locks = Galois.Lock.create_array n in
  let operator ctx i =
    Galois.Context.acquire ctx locks.(i);
    Galois.Context.acquire ctx locks.((i + 1) mod n);
    Galois.Context.failsafe ctx
  in
  (locks, Galois.Run.make ~operator (Array.init n Fun.id) |> Galois.Run.policy policy)

let test_record_validate_see_neighborhoods () =
  let n = 40 in
  let locks, run = ring_run n (Galois.Policy.det 2) in
  let base = Galois.Lock.id locks.(0) in
  let report = run |> Galois.Run.record |> Galois.Run.exec in
  (match report.schedule with
  | Some (Galois.Schedule.Rounds rounds as s) ->
      let first r =
        match Array.map (fun lid -> lid - base) r.Galois.Schedule.locks with
        | [| i; j |] when i >= 0 && i < n && j = (i + 1) mod n ->
            check_int "acquires" 2 r.Galois.Schedule.acquires;
            i
        | lids ->
            Alcotest.failf "record locks [%s]"
              (String.concat ";" (Array.to_list (Array.map string_of_int lids)))
      in
      List.iter (Array.iter (fun r -> ignore (first r))) rounds;
      Alcotest.(check (list int))
        "each item commits once with its own neighborhood" (List.init n Fun.id)
        (List.sort compare (List.map first (Galois.Schedule.committed_tasks s)))
  | _ -> Alcotest.fail "expected round-structured schedule");
  let validate =
    Galois.Policy.det 2 ~options:{ Galois.Policy.default_det with validate = true }
  in
  let plain = (Galois.Run.exec (snd (ring_run n (Galois.Policy.det 2)))).stats.digest in
  Alcotest.(check int64) "validate=on digest = plain digest" plain
    (Galois.Run.exec (snd (ring_run n validate))).stats.digest

(* --- the Run builder's trace capture and sinks. *)

let test_run_trace_capture () =
  let b = make_buckets 5 in
  let report =
    Galois.Run.make ~operator:(bucket_operator b 5) (Array.init 80 Fun.id)
    |> Galois.Run.policy (Galois.Policy.det 3)
    |> Galois.Run.trace
    |> Galois.Run.exec
  in
  match report.trace with
  | None -> Alcotest.fail "trace requested but absent"
  | Some events ->
      Alcotest.(check bool) "events captured" true (List.length events > 4);
      (match List.hd events with
      | { Obs.event = Obs.Run_begin { threads; tasks; _ }; _ } ->
          check_int "run_begin threads" 3 threads;
          check_int "run_begin tasks" 80 tasks
      | _ -> Alcotest.fail "first event must be Run_begin");
      (match List.nth events (List.length events - 1) with
      | { Obs.event = Obs.Run_end { commits; rounds; _ }; _ } ->
          check_int "run_end commits" report.stats.commits commits;
          check_int "run_end rounds" report.stats.rounds rounds
      | _ -> Alcotest.fail "last event must be Run_end");
      (* Timestamps are monotone within a run. *)
      let rec monotone = function
        | a :: (b :: _ as rest) -> a.Obs.at_s <= b.Obs.at_s && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "timestamps monotone" true (monotone events)

let test_run_trace_truncation_fails () =
  (* A det:1 chain of 10,000 single-task rounds emits more events than
     the capture ring holds. Returning the surviving suffix would pass it
     off as the whole stream, so exec must fail and say how many events
     it lost. *)
  let lock = Galois.Lock.create () in
  let operator ctx i =
    Galois.Context.acquire ctx lock;
    Galois.Context.failsafe ctx;
    if i < 9_999 then Galois.Context.push ctx (i + 1)
  in
  match
    Galois.Run.make ~operator [| 0 |]
    |> Galois.Run.policy (Galois.Policy.det 1)
    |> Galois.Run.trace
    |> Galois.Run.exec
  with
  | _ -> Alcotest.fail "truncated trace returned as complete"
  | exception Failure msg ->
      let dropped =
        Scanf.sscanf msg "Galois.Run.trace: capture ring dropped %d events" Fun.id
      in
      Alcotest.(check bool) "names a positive dropped count" true (dropped > 0)

let test_no_trace_by_default () =
  let b = make_buckets 5 in
  let report =
    Galois.Run.make ~operator:(bucket_operator b 5) (Array.init 20 Fun.id)
    |> Galois.Run.policy (Galois.Policy.det 2)
    |> Galois.Run.exec
  in
  Alcotest.(check bool) "no trace" true (report.trace = None);
  Alcotest.(check bool) "no schedule" true (report.schedule = None)

(* Phase times travel only as [Phase_time] events: a traced det run
   emits one non-negative Inspect and one Select per [Round_begin], each
   naming that round; serial and nondet runs emit a single Execute. *)
let test_phase_time_events () =
  let phases policy =
    let b = make_buckets 7 in
    let report =
      Galois.Run.make ~operator:(bucket_operator b 7) (Array.init 300 Fun.id)
      |> Galois.Run.policy policy
      |> Galois.Run.trace
      |> Galois.Run.exec
    in
    let events = List.map (fun (s : Obs.stamped) -> s.event) (Option.get report.trace) in
    let rounds = List.filter_map (function Obs.Round_begin r -> Some r.round | _ -> None) events in
    let times =
      List.filter_map
        (function
          | Obs.Phase_time p ->
              Alcotest.(check bool) "non-negative phase time" true (p.dt_s >= 0.0);
              Some (p.round, p.phase)
          | _ -> None)
        events
    in
    (rounds, times)
  in
  let rounds, times = phases (Galois.Policy.det 2) in
  Alcotest.(check bool) "det ran rounds" true (List.length rounds > 1);
  let expected = List.concat_map (fun r -> [ (r, Obs.Inspect); (r, Obs.Select) ]) rounds in
  Alcotest.(check bool) "det: one Inspect and one Select per round" true (times = expected);
  List.iter
    (fun policy ->
      let what = Fmt.str "%a: one Execute" Galois.Policy.pp policy in
      let rounds, times = phases policy in
      Alcotest.(check bool) what true (rounds = [] && times = [ (0, Obs.Execute) ]))
    [ Galois.Policy.serial; Galois.Policy.nondet 2 ]

let test_trace_stream_thread_invariant () =
  (* The deterministic subset of the event stream is byte-identical for
     any thread count — the per-run view of the paper's portability
     claim (detcheck sweeps the same property over its whole lattice). *)
  let trace_at t =
    let b = make_buckets 11 in
    let report =
      Galois.Run.make ~operator:(bucket_operator b 11) (Array.init 200 Fun.id)
      |> Galois.Run.policy (Galois.Policy.det t)
      |> Galois.Run.trace
      |> Galois.Run.exec
    in
    Obs.deterministic_lines (Option.value ~default:[] report.trace)
  in
  let reference = trace_at 1 in
  Alcotest.(check bool) "stream non-empty" true (String.length reference > 0);
  List.iter
    (fun t ->
      Alcotest.(check string)
        (Printf.sprintf "byte-identical at %d threads" t)
        reference (trace_at t))
    [ 2; 4; 8 ]

let test_sinks_receive_and_survive () =
  (* Two sinks both see the bracketed stream; exec never closes them. *)
  let closed = ref false in
  let mem = Obs.Memory.create () in
  let counting = ref 0 in
  let probe =
    { Obs.emit = (fun _ -> incr counting); close = (fun () -> closed := true) }
  in
  let b = make_buckets 5 in
  let _ =
    Galois.Run.make ~operator:(bucket_operator b 5) (Array.init 30 Fun.id)
    |> Galois.Run.policy (Galois.Policy.det 2)
    |> Galois.Run.sink (Obs.Memory.sink mem)
    |> Galois.Run.sink probe
    |> Galois.Run.exec
  in
  let n = List.length (Obs.Memory.contents mem) in
  Alcotest.(check bool) "memory sink saw events" true (n > 2);
  check_int "both sinks see every event" n !counting;
  Alcotest.(check bool) "user sinks not closed" false !closed

(* --- Run.solve: an app's plan executed with the wrappers' flags. *)

let bucket_plan n k =
  let b = make_buckets k in
  (Galois.Run.make ~operator:(bucket_operator b k) (Array.init n Fun.id), fun () -> b.cells)

let test_solve_result_and_record () =
  let cells, report = Galois.Run.solve ~policy:(Galois.Policy.det 2) (bucket_plan 40 5) in
  check_int "reads the world after the run" 40
    (Array.fold_left (fun a c -> a + List.length !c) 0 cells);
  Alcotest.(check bool) "no schedule without record" true (report.schedule = None);
  Alcotest.(check bool) "no audit without audit" true (report.audit = None);
  List.iter
    (fun policy ->
      let _, report = Galois.Run.solve ~record:true ~policy (bucket_plan 40 5) in
      Alcotest.(check bool)
        (Fmt.str "schedule recorded under %a" Galois.Policy.pp policy)
        true (report.schedule <> None))
    [ Galois.Policy.serial; Galois.Policy.nondet 2; Galois.Policy.det 2 ]

let test_solve_audit () =
  let _, report = Galois.Run.solve ~audit:true ~policy:(Galois.Policy.det 2) (bucket_plan 40 5) in
  (match report.audit with
  | Some a -> Alcotest.(check bool) "clean audit" true (Galois.Audit.clean a)
  | None -> Alcotest.fail "audit requested but absent");
  Alcotest.check_raises "audit under serial"
    (Invalid_argument "Galois.Run: audit requires a det policy") (fun () ->
      ignore (Galois.Run.solve ~audit:true ~policy:Galois.Policy.serial (bucket_plan 4 2)))

let test_solve_sink_brackets () =
  let mem = Obs.Memory.create () in
  let _, report =
    Galois.Run.solve ~sink:(Obs.Memory.sink mem) ~policy:(Galois.Policy.det 2)
      (bucket_plan 30 5)
  in
  let events = Obs.Memory.contents mem in
  (match events with
  | { Obs.event = Obs.Run_begin { tasks; _ }; _ } :: _ -> check_int "run_begin tasks" 30 tasks
  | _ -> Alcotest.fail "first event must be Run_begin");
  match List.rev events with
  | { Obs.event = Obs.Run_end { commits; _ }; _ } :: _ ->
      check_int "run_end commits" report.stats.commits commits
  | _ -> Alcotest.fail "last event must be Run_end"

let test_solve_undersized_pool () =
  Galois.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.check_raises "pool smaller than det:2"
        (Invalid_argument "Galois.Run: pool smaller than policy thread count") (fun () ->
          ignore (Galois.Run.solve ~pool ~policy:(Galois.Policy.det 2) (bucket_plan 4 2))))

(* --- policy parsing round-trips. *)

let test_policy_parsing () =
  let roundtrip s =
    match Galois.Policy.of_string s with
    | Ok p -> Galois.Policy.to_string p
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "serial" "serial" (roundtrip "serial");
  Alcotest.(check string) "nondet:8" "nondet:8" (roundtrip "nondet:8");
  Alcotest.(check string) "det:4" "det:4" (roundtrip "det:4");
  (match Galois.Policy.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus policy accepted");
  match Galois.Policy.of_string "det:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative threads accepted"

let suite =
  [
    Alcotest.test_case "serial buckets in order" `Quick test_serial_buckets;
    Alcotest.test_case "nondet completes all tasks" `Quick test_nondet_buckets_complete;
    Alcotest.test_case "det completes all tasks" `Quick test_det_buckets_complete;
    Alcotest.test_case "det counts failed selections" `Quick test_det_aborts_counted;
    Alcotest.test_case "serial task creation" `Quick (test_task_creation Galois.Policy.serial);
    Alcotest.test_case "nondet task creation" `Quick
      (test_task_creation (Galois.Policy.nondet 4));
    Alcotest.test_case "det task creation" `Quick (test_task_creation (Galois.Policy.det 4));
    Alcotest.test_case "cautiousness violations detected" `Quick test_not_cautious_detected;
    Alcotest.test_case "continuation state reused at commit" `Quick
      test_continuation_state_reused;
    Alcotest.test_case "continuation does not change output" `Quick
      test_continuation_does_not_change_output;
    Alcotest.test_case "validate mode agrees with flags" `Quick test_validate_mode;
    Alcotest.test_case "static ids deduplicate pushes" `Quick test_static_id_dedup;
    Alcotest.test_case "det schedule recording" `Quick test_recording;
    Alcotest.test_case "nondet schedule recording" `Quick test_recording_nondet;
    Alcotest.test_case "record and validate see inspected neighborhoods" `Quick
      test_record_validate_see_neighborhoods;
    Alcotest.test_case "Run trace capture brackets the run" `Quick test_run_trace_capture;
    Alcotest.test_case "Run trace fails on a truncated ring" `Quick
      test_run_trace_truncation_fails;
    Alcotest.test_case "no trace or schedule by default" `Quick test_no_trace_by_default;
    Alcotest.test_case "phase time events per round" `Quick test_phase_time_events;
    Alcotest.test_case "deterministic trace stream thread-invariant" `Quick
      test_trace_stream_thread_invariant;
    Alcotest.test_case "sinks receive events and are not closed" `Quick
      test_sinks_receive_and_survive;
    Alcotest.test_case "Run.solve reads the result; records on request" `Quick
      test_solve_result_and_record;
    Alcotest.test_case "Run.solve audits on request, det only" `Quick test_solve_audit;
    Alcotest.test_case "Run.solve sink sees Run_begin..Run_end" `Quick
      test_solve_sink_brackets;
    Alcotest.test_case "Run.solve rejects an undersized pool" `Quick
      test_solve_undersized_pool;
    Alcotest.test_case "policy parsing" `Quick test_policy_parsing;
  ]
