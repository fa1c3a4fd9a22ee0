(* The paper's central claims, as executable properties:

   - portability: the deterministic scheduler produces identical output
     for every thread count;
   - the non-deterministic scheduler produces *a* serializable outcome
     (all tasks execute exactly once; effects of conflicting tasks are
     consistent);
   - determinism holds for arbitrary (randomly generated) conflict
     structures, including dynamically created tasks. *)

let check_int = Alcotest.(check int)

let exec policy ~operator items =
  Galois.Run.make ~operator items |> Galois.Run.policy policy |> Galois.Run.exec

(* A task universe with random neighborhoods: task i acquires a set of
   bucket locks determined by [neigh i] and appends itself to every
   bucket it locked. The final bucket contents are the output. *)
let run_random_app ~policy ~n ~k ~neigh =
  let locks = Galois.Lock.create_array k in
  let cells = Array.init k (fun _ -> ref []) in
  let operator ctx i =
    let ns = neigh i in
    List.iter (fun j -> Galois.Context.acquire ctx locks.(j)) ns;
    Galois.Context.failsafe ctx;
    List.iter (fun j -> cells.(j) := i :: !(cells.(j))) ns
  in
  let report = exec policy ~operator (Array.init n Fun.id) in
  (Array.map (fun c -> List.rev !c) cells, report)

let neigh_of_seed seed k i =
  (* 1-3 pseudo-random buckets per task, deterministic in (seed, i). *)
  let g = Parallel.Splitmix.create ((seed * 1_000_003) + i) in
  let count = 1 + Parallel.Splitmix.int g 3 in
  List.sort_uniq compare (List.init count (fun _ -> Parallel.Splitmix.int g k))

let output_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

let test_det_portable_across_threads () =
  let n = 400 and k = 37 and seed = 17 in
  let neigh = neigh_of_seed seed k in
  let reference, _ = run_random_app ~policy:(Galois.Policy.det 1) ~n ~k ~neigh in
  List.iter
    (fun threads ->
      let out, report = run_random_app ~policy:(Galois.Policy.det threads) ~n ~k ~neigh in
      check_int (Printf.sprintf "commits at %d threads" threads) n report.stats.commits;
      if not (output_equal reference out) then
        Alcotest.failf "deterministic output differs at %d threads" threads)
    [ 2; 3; 4; 7 ]

let test_det_rounds_identical_across_threads () =
  (* Not just the output: the round structure itself (window contents,
     commit decisions) must be thread-independent. *)
  let n = 300 and k = 11 and seed = 99 in
  let neigh = neigh_of_seed seed k in
  let shape threads =
    let _, report =
      run_random_app ~policy:(Galois.Policy.det threads) ~n ~k ~neigh
    in
    (report.stats.rounds, report.stats.generations, report.stats.aborts)
  in
  let show (r, g, a) = Printf.sprintf "(rounds=%d, generations=%d, aborts=%d)" r g a in
  let r1 = shape 1 in
  List.iter
    (fun t ->
      let rt = shape t in
      if rt <> r1 then
        Alcotest.failf "round structure differs at %d threads: %s vs %s" t (show rt) (show r1))
    [ 2; 4 ]

let test_nondet_executes_exactly_once () =
  let n = 400 and k = 5 and seed = 3 in
  let neigh = neigh_of_seed seed k in
  let out, report = run_random_app ~policy:(Galois.Policy.nondet 4) ~n ~k ~neigh in
  check_int "commits" n report.stats.commits;
  (* Every task appears exactly once per bucket it selected. *)
  let counts = Hashtbl.create 64 in
  Array.iteri
    (fun j items ->
      List.iter
        (fun i ->
          let key = (i, j) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        items)
    out;
  Hashtbl.iter
    (fun (i, j) c -> if c <> 1 then Alcotest.failf "task %d appended %d times to bucket %d" i c j)
    counts

(* MIS on a cycle: the classic test that committed tasks in one round are
   truly independent. Output checked for independence and maximality —
   and for thread-portability under det. *)
let run_mis ~policy n =
  let locks = Galois.Lock.create_array n in
  let in_mis = Array.make n false in
  let removed = Array.make n false in
  let operator ctx i =
    let l = (i + n - 1) mod n and r = (i + 1) mod n in
    Galois.Context.acquire ctx locks.(i);
    Galois.Context.acquire ctx locks.(l);
    Galois.Context.acquire ctx locks.(r);
    Galois.Context.failsafe ctx;
    if (not removed.(i)) && (not in_mis.(l)) && not in_mis.(r) then begin
      in_mis.(i) <- true;
      removed.(l) <- true;
      removed.(r) <- true
    end
  in
  let _ = exec policy ~operator (Array.init n Fun.id) in
  (Array.copy in_mis, Array.copy removed)

let assert_valid_mis n in_mis =
  for i = 0 to n - 1 do
    let r = (i + 1) mod n in
    if in_mis.(i) && in_mis.(r) then Alcotest.failf "adjacent nodes %d,%d both in MIS" i r
  done;
  for i = 0 to n - 1 do
    let l = (i + n - 1) mod n and r = (i + 1) mod n in
    if (not in_mis.(i)) && (not in_mis.(l)) && not in_mis.(r) then
      Alcotest.failf "node %d could be added: not maximal" i
  done

let test_mis_valid_all_policies () =
  let n = 257 in
  List.iter
    (fun policy ->
      let in_mis, _ = run_mis ~policy n in
      assert_valid_mis n in_mis)
    [ Galois.Policy.serial; Galois.Policy.nondet 4; Galois.Policy.det 4 ]

let test_mis_det_portable () =
  let n = 257 in
  let ref_mis, _ = run_mis ~policy:(Galois.Policy.det 1) n in
  List.iter
    (fun t ->
      let mis, _ = run_mis ~policy:(Galois.Policy.det t) n in
      if mis <> ref_mis then Alcotest.failf "MIS differs at %d threads" t)
    [ 2; 3; 5 ]

(* Dynamic task creation determinism: tasks push children whose effects
   land in a shared log; the log contents (per bucket) must be
   thread-independent under det. *)
let run_dynamic ~policy n k =
  let locks = Galois.Lock.create_array k in
  let cells = Array.init k (fun _ -> ref []) in
  let operator ctx (gen, i) =
    let j = (i * 31) mod k in
    Galois.Context.acquire ctx locks.(j);
    Galois.Context.failsafe ctx;
    cells.(j) := ((gen * 10_000) + i) :: !(cells.(j));
    if gen < 2 then begin
      Galois.Context.push ctx (gen + 1, (i * 2) mod n);
      if i mod 3 = 0 then Galois.Context.push ctx (gen + 1, ((i * 2) + 1) mod n)
    end
  in
  let _ = exec policy ~operator (Array.init n (fun i -> (0, i))) in
  Array.map (fun c -> List.rev !c) cells

let test_dynamic_det_portable () =
  let n = 120 and k = 17 in
  let reference = run_dynamic ~policy:(Galois.Policy.det 1) n k in
  List.iter
    (fun t ->
      let out = run_dynamic ~policy:(Galois.Policy.det t) n k in
      if not (output_equal reference out) then
        Alcotest.failf "dynamic-task output differs at %d threads" t)
    [ 2; 4 ]

(* Property: for random seeds and sizes, det output at 3 threads equals
   det output at 1 thread. *)
let prop_det_portable =
  QCheck.Test.make ~name:"det output thread-independent (random apps)" ~count:25
    QCheck.(triple (int_range 1 200) (int_range 1 40) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let neigh = neigh_of_seed seed k in
      let a, _ = run_random_app ~policy:(Galois.Policy.det 1) ~n ~k ~neigh in
      let b, _ = run_random_app ~policy:(Galois.Policy.det 3) ~n ~k ~neigh in
      output_equal a b)

(* Property: nondet executes every task exactly once for random apps. *)
let prop_nondet_complete =
  QCheck.Test.make ~name:"nondet executes all tasks (random apps)" ~count:25
    QCheck.(triple (int_range 1 200) (int_range 1 40) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let neigh = neigh_of_seed seed k in
      let _, report = run_random_app ~policy:(Galois.Policy.nondet 3) ~n ~k ~neigh in
      report.stats.commits = n)

(* §3.3 static-id fast path: duplicate pushes of one task id must
   collapse to a single committed task. Six parents (disjoint locks, so
   they commit in the same round) each push the same child key; with
   [static_id] the child runs once, without it six times. Verified at 1
   and 4 threads — collapsing happens in the sequential generation sort,
   so it must not depend on which worker pushed first. *)
let run_duplicate_push ~threads ~use_static_id =
  let parents = 6 and child_key = 7 in
  let locks = Galois.Lock.create_array 8 in
  let cells = Array.init 8 (fun _ -> ref []) in
  let operator ctx (kind, k) =
    Galois.Context.acquire ctx locks.(k);
    Galois.Context.failsafe ctx;
    cells.(k) := ((kind * 100) + k) :: !(cells.(k));
    if kind = 0 then Galois.Context.push ctx (1, child_key)
  in
  let static_id = if use_static_id then Some (fun (kind, k) -> (kind * 1000) + k) else None in
  let report =
    Galois.Run.make ~operator (Array.init parents (fun i -> (0, i)))
    |> Galois.Run.policy (Galois.Policy.det threads)
    |> Galois.Run.opt Galois.Run.static_id static_id
    |> Galois.Run.exec
  in
  (report.stats.commits, List.length !(cells.(child_key)))

let test_static_id_collapses_duplicate_pushes () =
  List.iter
    (fun threads ->
      let commits, child_runs = run_duplicate_push ~threads ~use_static_id:true in
      check_int (Printf.sprintf "child committed once at %d threads" threads) 1 child_runs;
      check_int (Printf.sprintf "commits at %d threads" threads) 7 commits;
      (* Contrast: without static ids, each push is a distinct task. *)
      let commits', child_runs' = run_duplicate_push ~threads ~use_static_id:false in
      check_int (Printf.sprintf "children without static ids at %d threads" threads) 6
        child_runs';
      check_int (Printf.sprintf "commits without static ids at %d threads" threads) 12 commits')
    [ 1; 4 ]

let test_static_id_collapses_duplicate_seeds () =
  (* Duplicates already in the initial pool collapse the same way. *)
  let locks = Galois.Lock.create_array 4 in
  let hits = ref 0 in
  let operator ctx k =
    Galois.Context.acquire ctx locks.(k);
    Galois.Context.failsafe ctx;
    incr hits
  in
  let report =
    Galois.Run.make ~operator [| 3; 3; 3; 1 |]
    |> Galois.Run.policy (Galois.Policy.det 1)
    |> Galois.Run.static_id Fun.id
    |> Galois.Run.exec
  in
  check_int "distinct keys commit" 2 report.stats.commits;
  check_int "operator ran once per key" 2 !hits

let suite =
  [
    Alcotest.test_case "det output portable across threads" `Quick
      test_det_portable_across_threads;
    Alcotest.test_case "det round structure portable" `Quick
      test_det_rounds_identical_across_threads;
    Alcotest.test_case "nondet executes exactly once" `Quick test_nondet_executes_exactly_once;
    Alcotest.test_case "MIS valid under all policies" `Quick test_mis_valid_all_policies;
    Alcotest.test_case "MIS portable under det" `Quick test_mis_det_portable;
    Alcotest.test_case "dynamic tasks portable under det" `Quick test_dynamic_det_portable;
    Alcotest.test_case "static ids collapse duplicate pushes" `Quick
      test_static_id_collapses_duplicate_pushes;
    Alcotest.test_case "static ids collapse duplicate seeds" `Quick
      test_static_id_collapses_duplicate_seeds;
    QCheck_alcotest.to_alcotest prop_det_portable;
    QCheck_alcotest.to_alcotest prop_nondet_complete;
  ]
