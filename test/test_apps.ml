(* End-to-end application tests: each benchmark's Galois program (its
   [plan], solved under det:3), its PBBS-style deterministic variant and
   its sequential baseline must all agree on the problem's answer. That
   every app gives one answer under every policy, and one output at
   every det thread count, is one table test over every app row. *)

module Csr = Graphlib.Csr
module Gen = Graphlib.Generators
module Point = Geometry.Point

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let policies = [ ("serial", Galois.Policy.serial); ("nondet", Galois.Policy.nondet 3); ("det", Galois.Policy.det 3) ]
let det = Galois.Policy.det 3

(* --- every app row ------------------------------------------------------ *)

(* Every row of the shared app table under serial, nondet:3, det:1 and
   det:3 on one pool: all four runs give the same answer (canonical
   digest), and the two det runs the same output, bit for bit. *)
let test_table_policies_agree () =
  let module D = Galois.Trace_digest in
  Parallel.Domain_pool.with_pool 3 @@ fun pool ->
  List.iter
    (fun (Detcheck.Replay_cases.Case c) ->
      let run policy =
        let out, report = Galois.Run.solve ~pool ~policy (c.fresh ~static_id:false ()) in
        (c.canonical_digest out ~commits:report.stats.commits, c.output_digest out)
      in
      let serial, _ = run Galois.Policy.serial in
      let nondet, _ = run (Galois.Policy.nondet 3) in
      let det1, out1 = run (Galois.Policy.det 1) in
      let det3, out3 = run (Galois.Policy.det 3) in
      List.iter
        (fun (name, answer) ->
          if not (D.equal serial answer) then
            Alcotest.failf "%s: the %s answer differs from serial" c.name name)
        [ ("nondet:3", nondet); ("det:1", det1); ("det:3", det3) ];
      if not (D.equal out1 out3) then Alcotest.failf "%s: det:1 and det:3 outputs differ" c.name)
    (Detcheck.Replay_cases.all ~n:300 ~points:90 ~seed:2014)

(* --- bfs -------------------------------------------------------------- *)

let bfs_graph () = Gen.kout ~seed:5 ~n:3000 ~k:5 ()

let test_bfs_all_variants_agree () =
  let g = bfs_graph () in
  let reference = Apps.Bfs.serial g ~source:0 in
  check_bool "serial result validates" true (Apps.Bfs.validate g ~source:0 reference);
  let dist, report = Galois.Run.solve ~policy:det (Apps.Bfs.plan g ~source:0) in
  check_bool "det commits > 0" true (report.stats.commits > 0);
  if dist <> reference then Alcotest.fail "bfs det differs from serial";
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let dist, _, _ = Apps.Bfs.pbbs ~pool g ~source:0 in
      if dist <> reference then Alcotest.fail "pbbs bfs differs from serial")

(* Allocation gates for the det scheduler's hot path and the
   label-propagation operators: one det:1 solve on a small kout input
   (the costbench bfs-kout shape, n = 8,192) must stay below 8 minor
   words per commit, building the plan included. bfs reads about 1.7,
   sssp 1.0 under prio=off and 3.1 under prio=auto, cc 3.3; with task
   tuples and iteration closures they read 12, 16, 17 and 45, so a
   regression of that size fails them. The 1-domain pool runs the
   solve on this domain, whose exact count [Gc.minor_words] gives;
   [Gc.quick_stat] lags by whatever the minor heap holds, up to its
   size. *)
let check_det1_allocation name ?options plan =
  Parallel.Domain_pool.with_pool 1 @@ fun pool ->
  let w0 = Gc.minor_words () in
  let _, report = Galois.Run.solve ~pool ~policy:(Galois.Policy.det ?options 1) (plan ()) in
  let per_commit = (Gc.minor_words () -. w0) /. float_of_int report.stats.commits in
  if per_commit >= 8.0 then
    Alcotest.failf "det:1 %s allocates %.1f minor words per commit (limit 8)" name per_commit

let alloc_graph () = Gen.kout ~seed:2014 ~n:8192 ~k:5 ()

let test_bfs_allocation () =
  let g = alloc_graph () in
  check_det1_allocation "bfs" (fun () -> Apps.Bfs.plan g ~source:0)

let test_sssp_allocation () =
  let g = alloc_graph () in
  let w = Graphlib.Graph_io.random_weights ~seed:2015 g in
  List.iter
    (fun (name, priority) ->
      let options = Galois.Policy.Det_options.make ~priority () in
      check_det1_allocation ("sssp " ^ name) ~options (fun () -> Apps.Sssp.plan g w ~source:0))
    [ ("prio=off", Galois.Policy.Prio_off); ("prio=auto", Galois.Policy.Prio_auto) ]

let test_cc_allocation () =
  let g = Csr.symmetrize (alloc_graph ()) in
  check_det1_allocation "cc" (fun () -> Apps.Cc.plan g)

(* Wasted-work gate for the window controller: det:2 boruvka on the
   input of [galois_run mst -n 400] (the costbench boruvka-hotspot
   shape), where every task contends on the giant component's root and
   about two tasks commit per round. With the window's shrink floor at
   the last round's commit count it inspects about 1.7 tasks per commit
   in about 430 rounds; a constant floor such as 32 would re-inspect
   about 30 doomed tasks every round (16.3 inspections per commit).
   Most of those rounds' windows fit one chunk, so their phases run
   inline on the caller. Each dispatched phase books exactly one pool
   wait per worker: 72 in all (36 phases), where dispatching all 862
   phases would book 1,724. *)
let test_boruvka_hotspot_waste () =
  let g = Csr.symmetrize (Gen.kout ~seed:2014 ~n:400 ~k:4 ()) in
  let w = Graphlib.Graph_io.undirected_random_weights ~seed:2015 g in
  Parallel.Domain_pool.with_pool 2 @@ fun pool ->
  let forest, report = Galois.Run.solve ~pool ~policy:(Galois.Policy.det 2) (Apps.Boruvka.plan g w) in
  check_bool "forest valid" true (Apps.Boruvka.validate g forest);
  let stats = report.stats in
  let per_commit = float_of_int stats.inspected /. float_of_int stats.commits in
  if per_commit > 3.0 then
    Alcotest.failf "det:2 boruvka inspects %.2f tasks per commit (limit 3)" per_commit;
  if stats.rounds > 470 then
    Alcotest.failf "det:2 boruvka takes %d rounds (limit 470)" stats.rounds;
  if stats.spins + stats.parks > 100 then
    Alcotest.failf "det:2 boruvka books %d pool waits (limit 100)" (stats.spins + stats.parks)

let test_bfs_disconnected () =
  (* Nodes unreachable from the source stay at [unreached]. *)
  let g = Csr.of_edges ~n:5 [| (0, 1); (1, 2); (3, 4) |] in
  let dist = Apps.Bfs.serial g ~source:0 in
  check_int "reached" 2 dist.(2);
  check_bool "unreached" true (dist.(3) = Apps.Bfs.unreached && dist.(4) = Apps.Bfs.unreached);
  List.iter
    (fun (name, policy) ->
      let d, _ = Galois.Run.solve ~policy (Apps.Bfs.plan g ~source:0) in
      if d <> dist then Alcotest.failf "bfs %s differs on disconnected graph" name)
    policies

(* --- sssp ------------------------------------------------------------- *)

let test_sssp_weight_plane_equivalent () =
  (* Weights from a catalog-side array and the same values embedded in
     the graph's off-heap plane must produce identical distances AND
     identical schedules — the schedule depends on weight values only,
     not on where they are stored. *)
  let g = Gen.kout ~seed:7 ~n:2000 ~k:5 () in
  let w = Graphlib.Graph_io.random_weights ~seed:8 g in
  let gw = Graphlib.Graph_io.attach_random_weights ~seed:8 g in
  let dist_arr, rep_arr = Galois.Run.solve ~policy:det (Apps.Sssp.plan g w ~source:0) in
  let dist_pl, rep_pl = Galois.Run.solve ~policy:det (Apps.Sssp.plan_weighted gw ~source:0) in
  if dist_arr <> dist_pl then Alcotest.fail "sssp distances differ by weight source";
  check_bool "schedule digests equal" true
    (Galois.Trace_digest.equal rep_arr.stats.digest rep_pl.stats.digest)

(* --- mis -------------------------------------------------------------- *)

let mis_graph () = Csr.symmetrize (Gen.kout ~seed:11 ~n:2000 ~k:4 ())

let test_mis_all_valid () =
  let g = mis_graph () in
  let serial_mis = Apps.Mis.serial g in
  check_bool "serial maximal independent" true (Apps.Mis.is_maximal_independent g serial_mis);
  let in_mis, _ = Galois.Run.solve ~policy:det (Apps.Mis.plan g) in
  check_bool "det maximal independent" true (Apps.Mis.is_maximal_independent g in_mis)

let test_mis_pbbs_lexicographic () =
  (* PBBS deterministic reservations = sequential greedy in index
     order. *)
  let g = mis_graph () in
  let serial_mis = Apps.Mis.serial g in
  Parallel.Domain_pool.with_pool 4 (fun pool ->
      let in_mis, _ = Apps.Mis.pbbs ~pool g in
      if in_mis <> serial_mis then Alcotest.fail "pbbs MIS differs from lexicographic greedy")

(* --- pfp -------------------------------------------------------------- *)

let test_pfp_flow_value () =
  let g, caps, source, sink = Gen.flow_network ~seed:3 ~n:300 ~k:4 () in
  let reference =
    let net = Apps.Flow_network.of_graph g caps ~source ~sink in
    (Apps.Pfp.serial net).Apps.Pfp.flow_value
  in
  check_bool "positive flow" true (reference > 0);
  List.iter
    (fun (name, policy) ->
      let net = Apps.Flow_network.of_graph g caps ~source ~sink in
      let result = Apps.Pfp.galois ~policy net in
      check_int (Printf.sprintf "pfp %s flow value" name) reference result.Apps.Pfp.flow_value;
      let ok, sink_flow = Apps.Flow_network.check_flow net in
      check_bool (name ^ " conservation") true ok;
      check_int (name ^ " balance at sink") reference sink_flow)
    policies

let test_pfp_small_known () =
  (* s -> a -> t with caps 3, 2: max flow 2; plus s -> t cap 1: total 3. *)
  let g = Csr.of_edges ~n:3 [| (0, 1); (1, 2); (0, 2) |] in
  let caps = [| 3; 2; 1 |] in
  let net = Apps.Flow_network.of_graph g caps ~source:0 ~sink:2 in
  check_int "known max flow" 3 (Apps.Pfp.serial net).Apps.Pfp.flow_value

(* --- dt --------------------------------------------------------------- *)

let dt_points n = Point.random_unit_square ~seed:31 n

let assert_mesh_good name mesh npoints =
  (match Mesh.check_consistency mesh with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e);
  check_int (name ^ ": no Delaunay violations") 0 (Mesh.delaunay_violations mesh);
  (* All real points appear. *)
  let seen = Hashtbl.create 64 in
  List.iter (fun tri -> Array.iter (fun v -> Hashtbl.replace seen v ()) tri.Mesh.v)
    (Mesh.triangles mesh);
  for pid = 0 to npoints - 1 do
    if not (Hashtbl.mem seen pid) then Alcotest.failf "%s: point %d missing" name pid
  done

let test_dt_variants () =
  let n = 300 in
  let pts = dt_points n in
  let serial_mesh = Apps.Dt.serial pts in
  assert_mesh_good "serial" serial_mesh n;
  let canon = Apps.Dt.canonical serial_mesh in
  let mesh, _ = Galois.Run.solve ~policy:det (Apps.Dt.plan pts) in
  assert_mesh_good "det" mesh n;
  (* The Delaunay triangulation of points in general position is
     unique, so every variant must produce the same triangles. *)
  if Apps.Dt.canonical mesh <> canon then Alcotest.fail "dt det differs";
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let mesh, _ = Apps.Dt.pbbs ~pool pts in
      assert_mesh_good "pbbs" mesh n;
      if Apps.Dt.canonical mesh <> canon then Alcotest.fail "dt pbbs differs")

(* --- dmr -------------------------------------------------------------- *)

let dmr_input () =
  let pts = Point.random_unit_square ~seed:41 150 in
  Apps.Dt.serial pts

let test_dmr_variants () =
  let cfg = Apps.Dmr.default_config in
  let run_one name runner =
    let mesh = dmr_input () in
    let before = Mesh.triangle_count mesh in
    runner mesh;
    (match Mesh.check_consistency mesh with
    | Ok () -> ()
    | Error e -> Alcotest.failf "dmr %s: %s" name e);
    check_bool (name ^ ": refined") true (Apps.Dmr.refined cfg mesh);
    check_bool (name ^ ": grew") true (Mesh.triangle_count mesh >= before)
  in
  run_one "det" (fun mesh -> ignore (Galois.Run.solve ~policy:det (Apps.Dmr.plan mesh)));
  run_one "pbbs" (fun mesh ->
      Parallel.Domain_pool.with_pool 3 (fun pool -> ignore (Apps.Dmr.pbbs ~pool mesh)))

(* --- PARSEC kernels --------------------------------------------------- *)

let test_blackscholes () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let options = Apps.Blackscholes.generate ~seed:2 5000 in
      let prices, profile = Apps.Blackscholes.run ~pool options in
      check_int "priced all" 5000 (Array.length prices);
      check_bool "prices finite and nonnegative" true
        (Array.for_all (fun p -> Float.is_finite p && p >= -1e-9) prices);
      check_int "tasks" 5000 profile.Apps.Kernel_profile.tasks;
      (* Defining characteristic: atomics orders of magnitude below
         tasks. *)
      check_bool "few atomics" true (profile.Apps.Kernel_profile.atomics * 100 < 5000))

let test_blackscholes_put_call_parity () =
  let base = Apps.Blackscholes.generate ~seed:4 1 in
  let o = base.(0) in
  let prices, _ =
    Parallel.Domain_pool.with_pool 1 (fun pool ->
        Apps.Blackscholes.run ~pool [| { o with call = true }; { o with call = false } |])
  in
  let call = prices.(0) and put = prices.(1) in
  let parity =
    call -. put
    -. (o.Apps.Blackscholes.spot
       -. (o.Apps.Blackscholes.strike *. exp (-.o.Apps.Blackscholes.rate *. o.Apps.Blackscholes.maturity)))
  in
  check_bool "put-call parity" true (Float.abs parity < 1e-6)

let test_bodytrack () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let result = Apps.Bodytrack.run ~pool () in
      check_bool "tracks the hidden state" true (result.Apps.Bodytrack.mean_error < 0.5);
      check_bool "coarse tasks, few atomics" true
        (result.Apps.Bodytrack.profile.Apps.Kernel_profile.atomics
         < result.Apps.Bodytrack.profile.Apps.Kernel_profile.tasks))

let test_freqmine () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let total, profile = Apps.Freqmine.run ~pool () in
      check_bool "found frequent itemsets" true (total > 0);
      check_bool "irregular task sizes" true
        (Array.length profile.Apps.Kernel_profile.task_costs > 0))

let test_freqmine_deterministic () =
  Parallel.Domain_pool.with_pool 1 (fun p1 ->
      Parallel.Domain_pool.with_pool 3 (fun p3 ->
          let a, _ = Apps.Freqmine.run ~pool:p1 () in
          let b, _ = Apps.Freqmine.run ~pool:p3 () in
          check_int "same itemset count across thread counts" a b))

(* Regression for the order-dependence bug detlint found: [mine] used to
   gather frequent items with [Hashtbl.fold], so the recursion order —
   and on another stdlib's bucket layout, potentially the count — hung
   off hash internals. The frequent list is now pinned by item id, and
   these exact totals pin it in place. *)
let test_freqmine_pinned_output () =
  Parallel.Domain_pool.with_pool 2 (fun pool ->
      let total, _ = Apps.Freqmine.run ~pool () in
      check_int "default-config itemset count pinned" 2878 total;
      let config =
        {
          Apps.Freqmine.default_config with
          transactions = 500;
          items = 60;
          min_support = 12;
          seed = 5;
        }
      in
      let small, _ = Apps.Freqmine.run ~config ~pool () in
      check_int "small-config itemset count pinned" 1845 small)

let suite =
  [
    Alcotest.test_case "table: every app agrees across policies" `Quick test_table_policies_agree;
    Alcotest.test_case "bfs: all variants agree" `Quick test_bfs_all_variants_agree;
    Alcotest.test_case "bfs: disconnected graph" `Quick test_bfs_disconnected;
    Alcotest.test_case "bfs: det:1 allocation per commit" `Quick test_bfs_allocation;
    Alcotest.test_case "sssp: det:1 allocation per commit" `Quick test_sssp_allocation;
    Alcotest.test_case "cc: det:1 allocation per commit" `Quick test_cc_allocation;
    Alcotest.test_case "boruvka: det:2 hot-spot inspections per commit" `Quick
      test_boruvka_hotspot_waste;
    Alcotest.test_case "sssp: weight plane = weight array" `Quick
      test_sssp_weight_plane_equivalent;
    Alcotest.test_case "mis: all variants valid" `Quick test_mis_all_valid;
    Alcotest.test_case "mis: pbbs is lexicographic greedy" `Quick test_mis_pbbs_lexicographic;
    Alcotest.test_case "pfp: flow values agree" `Quick test_pfp_flow_value;
    Alcotest.test_case "pfp: known small instance" `Quick test_pfp_small_known;
    Alcotest.test_case "dt: all variants produce the Delaunay mesh" `Quick test_dt_variants;
    Alcotest.test_case "dmr: all variants refine" `Quick test_dmr_variants;
    Alcotest.test_case "blackscholes" `Quick test_blackscholes;
    Alcotest.test_case "blackscholes put-call parity" `Quick test_blackscholes_put_call_parity;
    Alcotest.test_case "bodytrack particle filter" `Quick test_bodytrack;
    Alcotest.test_case "freqmine fp-growth" `Quick test_freqmine;
    Alcotest.test_case "freqmine deterministic" `Quick test_freqmine_deterministic;
    Alcotest.test_case "freqmine output pinned (order-independence)" `Quick
      test_freqmine_pinned_output;
  ]
