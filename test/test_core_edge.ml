(* Edge cases of the core runtime: empty pools, single tasks, scheduler
   option matrices, pool handling, stats algebra, schedule accessors. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let all_policies =
  [
    ("serial", Galois.Policy.serial);
    ("nondet1", Galois.Policy.nondet 1);
    ("nondet3", Galois.Policy.nondet 3);
    ("det1", Galois.Policy.det 1);
    ("det3", Galois.Policy.det 3);
  ]

let noop_operator ctx () = Galois.Context.failsafe ctx

let exec policy ~operator items =
  Galois.Run.make ~operator items |> Galois.Run.policy policy |> Galois.Run.exec

let exec_on pool policy ~operator items =
  Galois.Run.make ~operator items |> Galois.Run.policy policy |> Galois.Run.pool pool
  |> Galois.Run.exec

let test_empty_pool () =
  List.iter
    (fun (name, policy) ->
      let report = exec policy ~operator:noop_operator [||] in
      check_int (name ^ " commits") 0 report.stats.commits;
      check_int (name ^ " aborts") 0 report.stats.aborts)
    all_policies

let test_single_task () =
  List.iter
    (fun (name, policy) ->
      let hit = ref 0 in
      let operator ctx () =
        Galois.Context.failsafe ctx;
        incr hit
      in
      let report = exec policy ~operator [| () |] in
      check_int (name ^ " ran once") 1 !hit;
      check_int (name ^ " commits") 1 report.stats.commits)
    all_policies

let test_task_without_failsafe () =
  (* A fully pure task (no failsafe at all) must commit under every
     policy. *)
  List.iter
    (fun (name, policy) ->
      let l = Galois.Lock.create () in
      let operator ctx () = Galois.Context.acquire ctx l in
      let report = exec policy ~operator [| (); (); () |] in
      check_int (name ^ " pure tasks commit") 3 report.stats.commits)
    all_policies

let bucket_run ~options threads n k =
  let locks = Galois.Lock.create_array k in
  let cells = Array.init k (fun _ -> ref []) in
  let operator ctx i =
    Galois.Context.acquire ctx locks.(i mod k);
    Galois.Context.failsafe ctx;
    cells.(i mod k) := i :: !(cells.(i mod k))
  in
  let report = exec (Galois.Policy.det threads ~options) ~operator (Array.init n Fun.id) in
  (Array.map (fun c -> List.rev !c) cells, report)

let det_option_matrix =
  [
    ("defaults", Galois.Policy.default_det);
    ("no spread", { Galois.Policy.default_det with spread = 1 });
    ("window 1", { Galois.Policy.default_det with initial_window = Some 1 });
    ("window 7", { Galois.Policy.default_det with initial_window = Some 7 });
    ("low target", { Galois.Policy.default_det with target_ratio = 0.25 });
    ("validate", { Galois.Policy.default_det with validate = true });
    ("no continuation", { Galois.Policy.default_det with continuation = false });
    ( "everything off",
      {
        Galois.Policy.target_ratio = 0.5;
        initial_window = Some 3;
        spread = 1;
        continuation = false;
        validate = true;
        priority = Galois.Policy.Prio_off;
      } );
  ]

let test_det_option_matrix_portable () =
  (* For EVERY option combination, the output must still be
     thread-portable (options may change the schedule, but never make it
     timing-dependent). *)
  List.iter
    (fun (name, options) ->
      let ref_out, ref_report = bucket_run ~options 1 150 7 in
      let out3, report3 = bucket_run ~options 3 150 7 in
      check_int (name ^ ": commits") 150 report3.stats.commits;
      check_int (name ^ ": rounds equal") ref_report.stats.rounds report3.stats.rounds;
      if ref_out <> out3 then Alcotest.failf "%s: output differs across threads" name)
    det_option_matrix

let test_det_window_floor () =
  (* An unreachable target ratio keeps shrinking the window, whose floor
     is the last round's commit count plus one: from an initial window
     of 1, every round inspects one task and commits it, so the window
     stays at 1 and the run takes one round per task — and still
     completes every task exactly once. *)
  let out, report =
    bucket_run ~options:{ Galois.Policy.default_det with initial_window = Some 1; target_ratio = 2.0 }
      2 40 3
  in
  check_int "commits" 40 report.stats.commits;
  check_int "one round per task" 40 report.stats.rounds;
  check_int "every task appears once" 40 (Array.fold_left (fun a c -> a + List.length c) 0 out)

let test_runtime_rejects_small_pool () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "pool too small"
        (Invalid_argument "Galois.Run: pool smaller than policy thread count") (fun () ->
          ignore
            (Galois.Run.make ~operator:noop_operator [| () |]
            |> Galois.Run.policy (Galois.Policy.nondet 4)
            |> Galois.Run.pool pool
            |> Galois.Run.exec)))

let test_policy_threads_and_determinism () =
  check_int "serial threads" 1 (Galois.Policy.threads Galois.Policy.serial);
  check_int "nondet threads" 8 (Galois.Policy.threads (Galois.Policy.nondet 8));
  check_int "det threads" 5 (Galois.Policy.threads (Galois.Policy.det 5))

let test_stats_algebra () =
  let z = Galois.Stats.zero 4 in
  check_int "zero commits" 0 z.commits;
  Alcotest.(check (float 0.0)) "abort ratio of zero" 0.0 (Galois.Stats.abort_ratio z);
  let locks = Galois.Lock.create_array 1 in
  let operator ctx i =
    Galois.Context.acquire ctx locks.(0);
    Galois.Context.failsafe ctx;
    ignore i
  in
  let a = (exec Galois.Policy.serial ~operator (Array.init 5 Fun.id)).stats in
  let b = (exec Galois.Policy.serial ~operator (Array.init 7 Fun.id)).stats in
  let s = Galois.Stats.add a b in
  check_int "summed commits" 12 s.commits;
  check_int "summed acquires" (a.acquired + b.acquired) s.acquired

let test_schedule_accessors () =
  let record committed =
    { Galois.Schedule.acquires = 2; inspect_work = 3; commit_work = 4; committed; locks = [| 0; 1 |] }
  in
  let rounds = Galois.Schedule.Rounds [ [| record true; record false |]; [| record true |] ] in
  check_int "committed" 2 (List.length (Galois.Schedule.committed_tasks rounds));
  let flat = Galois.Schedule.Flat [ record true; record false ] in
  check_int "flat committed" 1 (List.length (Galois.Schedule.committed_tasks flat))

let test_register_new_semantics () =
  (* Direct mode: a fresh lock is claimed and auto-released with the
     neighborhood; registering a non-fresh lock is a programming error. *)
  let fresh = Galois.Lock.create () in
  let taken = Galois.Lock.create () in
  ignore (Galois.Lock.try_claim taken ~stamp:(Galois.Lock.new_epoch ()) 99);
  let operator ctx () =
    Galois.Context.failsafe ctx;
    Galois.Context.register_new ctx fresh;
    check_bool "claimed during task" true (Galois.Lock.mark fresh <> 0)
  in
  let _ = exec Galois.Policy.serial ~operator [| () |] in
  check_int "released after task" 0 (Galois.Lock.mark fresh);
  let bad_operator ctx () =
    Galois.Context.failsafe ctx;
    Galois.Context.register_new ctx taken
  in
  match exec Galois.Policy.serial ~operator:bad_operator [| () |] with
  | _ -> Alcotest.fail "non-fresh lock accepted"
  | exception Invalid_argument _ -> ()

let test_push_order_preserved_serial () =
  (* Children run in push order under the serial policy (FIFO). *)
  let log = ref [] in
  let operator ctx i =
    Galois.Context.failsafe ctx;
    log := i :: !log;
    if i = 0 then List.iter (fun c -> Galois.Context.push ctx c) [ 10; 20; 30 ]
  in
  let _ = exec Galois.Policy.serial ~operator [| 0; 1 |] in
  Alcotest.(check (list int)) "fifo with children appended" [ 0; 1; 10; 20; 30 ]
    (List.rev !log)

let test_det_children_ordering () =
  (* Deterministic child ids follow (parent id, push index): with one
     lock forcing serialization, generation 2 must run children sorted
     by parent then push order, independent of threads. *)
  let run threads =
    let l = Galois.Lock.create () in
    let log = ref [] in
    let operator ctx (tag, i) =
      Galois.Context.acquire ctx l;
      Galois.Context.failsafe ctx;
      log := (tag, i) :: !log;
      if tag = 0 then begin
        Galois.Context.push ctx (1, (i * 10) + 1);
        Galois.Context.push ctx (1, (i * 10) + 2)
      end
    in
    let _ = exec (Galois.Policy.det threads) ~operator (Array.init 4 (fun i -> (0, i))) in
    List.rev !log
  in
  let a = run 1 and b = run 3 in
  if a <> b then Alcotest.fail "child execution order differs across threads";
  (* All 8 children ran. *)
  check_int "total executions" 12 (List.length a)

let test_lock_ids_monotone () =
  let a = Galois.Lock.create () in
  let b = Galois.Lock.create () in
  check_bool "ids increase" true (Galois.Lock.id b > Galois.Lock.id a)

(* Deterministic operator failure: ranks 1 and 16 of 64 initial items
   raise distinct exceptions in the first window of 32 (spread 16 puts
   rank 16 at window position 1, ahead of rank 1). The phase still runs
   the other 30 tasks, then re-raises the lowest-id raising task's
   exception — rank 1's — at every thread count, inline or dispatched,
   and the pool stays usable. [commit] moves the raise past the
   failsafe point, into selectAndExec. *)
exception Raised of int

let test_det_failure_lowest_id () =
  let attempt ?pool ~commit threads =
    let locks = Galois.Lock.create_array 64 and finished = Atomic.make 0 in
    let step i =
      if i = 1 || i = 16 then raise (Raised i);
      Atomic.incr finished
    in
    let operator ctx i =
      Galois.Context.acquire ctx locks.(i);
      if not commit then step i;
      Galois.Context.failsafe ctx;
      if commit then step i
    in
    match
      Galois.Run.make ~operator (Array.init 64 Fun.id)
      |> Galois.Run.policy (Galois.Policy.det threads)
      |> Galois.Run.opt Galois.Run.pool pool
      |> Galois.Run.exec
    with
    | _ -> Alcotest.failf "det:%d run with raising operators returned" threads
    | exception Raised r -> (r, Atomic.get finished)
  in
  let expect = Alcotest.(check (pair int int)) in
  List.iter
    (fun commit ->
      let phase = if commit then "commit" else "inspect" in
      expect (phase ^ ": det:1") (1, 30) (attempt ~commit 1);
      expect (phase ^ ": det:2") (1, 30) (attempt ~commit 2);
      Galois.Pool.with_pool ~domains:4 (fun pool ->
          expect (phase ^ ": det:2 on 4 domains") (1, 30) (attempt ~pool ~commit 2);
          let report = exec_on pool (Galois.Policy.det 2) ~operator:noop_operator [| (); () |] in
          check_int (phase ^ ": pool reusable") 2 report.stats.commits))
    [ false; true ]

(* A raising operator under nondet: the failing worker aborts the
   workset, so the others leave [Workset.take] instead of waiting for a
   task that will never complete; the run re-raises and the shared pool
   stays usable. *)
let test_nondet_failure_raises () =
  let operator ctx i =
    Galois.Context.failsafe ctx;
    if i = 137 then raise (Raised i)
  in
  Galois.Pool.with_pool ~domains:4 @@ fun pool ->
  List.iter
    (fun threads ->
      match exec_on pool (Galois.Policy.nondet threads) ~operator (Array.init 200 Fun.id) with
      | _ -> Alcotest.failf "nondet:%d run with a raising operator returned" threads
      | exception Raised r -> check_int (Printf.sprintf "nondet:%d raises" threads) 137 r)
    [ 2; 4 ];
  let report = exec_on pool (Galois.Policy.nondet 4) ~operator:noop_operator (Array.make 50 ()) in
  check_int "pool reusable" 50 report.stats.commits

(* A phase no second worker could take a chunk of runs inline on the
   caller, so it books no pool wait: a det:2 chain (every window is one
   task) leaves worker 1 idle with all-zero counters, and det:1 on a
   two-domain pool books nothing either. Wider windows still dispatch,
   and dispatching never moves the schedule digest. *)
let test_det_inline_phases () =
  let waits (s : Galois.Stats.t) = s.spins + s.parks in
  let lock = Galois.Lock.create () in
  let chain ctx i =
    Galois.Context.acquire ctx lock;
    Galois.Context.failsafe ctx;
    if i < 40 then Galois.Context.push ctx (i + 1)
  in
  Galois.Pool.with_pool ~domains:2 @@ fun pool ->
  let mem = Obs.Memory.create () in
  let report =
    Galois.Run.make ~operator:chain [| 0 |]
    |> Galois.Run.policy (Galois.Policy.det 2)
    |> Galois.Run.pool pool
    |> Galois.Run.sink (Obs.Memory.sink mem)
    |> Galois.Run.exec
  in
  check_int "chain commits" 41 report.stats.commits;
  check_int "det:2 chain waits" 0 (waits report.stats);
  let worker1 =
    List.filter_map
      (function
        | { Obs.event = Obs.Worker_counters c; _ } when c.worker = 1 -> Some c | _ -> None)
      (Obs.Memory.contents mem)
  in
  (match worker1 with
  | [ c ] ->
      List.iter
        (fun (f : Obs.counter) -> check_int ("worker 1 " ^ f.name) 0 (f.get c))
        Obs.counter_table
  | l -> Alcotest.failf "expected one worker-1 counters event, got %d" (List.length l));
  let det1 = exec_on pool (Galois.Policy.det 1) ~operator:chain [| 0 |] in
  check_int "det:1 chain waits on 2 domains" 0 (waits det1.stats);
  let g = Graphlib.Generators.kout ~seed:5 ~n:2000 ~k:5 () in
  let bfs threads =
    snd (Galois.Run.solve ~pool ~policy:(Galois.Policy.det threads) (Apps.Bfs.plan g ~source:0))
  in
  let b1 = bfs 1 and b2 = bfs 2 in
  check_int "det:1 bfs waits" 0 (waits b1.stats);
  check_bool "det:2 bfs dispatches" true (waits b2.stats > 0);
  check_bool "bfs digests equal" true (Galois.Trace_digest.equal b1.stats.digest b2.stats.digest)

let suite =
  [
    Alcotest.test_case "empty task pool" `Quick test_empty_pool;
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "task without failsafe commits" `Quick test_task_without_failsafe;
    Alcotest.test_case "det option matrix stays portable" `Quick test_det_option_matrix_portable;
    Alcotest.test_case "window shrink floors at minimum" `Quick test_det_window_floor;
    Alcotest.test_case "runtime rejects undersized pool" `Quick test_runtime_rejects_small_pool;
    Alcotest.test_case "policy accessors" `Quick test_policy_threads_and_determinism;
    Alcotest.test_case "stats algebra" `Quick test_stats_algebra;
    Alcotest.test_case "schedule accessors" `Quick test_schedule_accessors;
    Alcotest.test_case "register_new semantics" `Quick test_register_new_semantics;
    Alcotest.test_case "serial push order" `Quick test_push_order_preserved_serial;
    Alcotest.test_case "det child ordering portable" `Quick test_det_children_ordering;
    Alcotest.test_case "lock ids monotone" `Quick test_lock_ids_monotone;
    Alcotest.test_case "det failure raises lowest id" `Quick test_det_failure_lowest_id;
    Alcotest.test_case "nondet failure raises, pool reusable" `Quick test_nondet_failure_raises;
    Alcotest.test_case "det inline phases book no waits" `Quick test_det_inline_phases;
  ]
