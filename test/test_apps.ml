(* End-to-end application tests: each benchmark's Galois program (under
   serial, non-deterministic and deterministic policies), its PBBS-style
   deterministic variant, and its sequential baseline must all agree on
   the problem's answer — and the deterministic variants must be
   thread-portable. *)

module Csr = Graphlib.Csr
module Gen = Graphlib.Generators
module Point = Geometry.Point

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let policies = [ ("serial", Galois.Policy.serial); ("nondet", Galois.Policy.nondet 3); ("det", Galois.Policy.det 3) ]

(* --- bfs -------------------------------------------------------------- *)

let bfs_graph () = Gen.kout ~seed:5 ~n:3000 ~k:5 ()

let test_bfs_all_variants_agree () =
  let g = bfs_graph () in
  let reference = Apps.Bfs.serial g ~source:0 in
  check_bool "serial result validates" true (Apps.Bfs.validate g ~source:0 reference);
  List.iter
    (fun (name, policy) ->
      let dist, report = Apps.Bfs.galois ~policy g ~source:0 in
      check_bool (name ^ " commits > 0") true (report.stats.commits > 0);
      if dist <> reference then Alcotest.failf "bfs %s differs from serial" name)
    policies;
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let dist, _, _ = Apps.Bfs.pbbs ~pool g ~source:0 in
      if dist <> reference then Alcotest.fail "pbbs bfs differs from serial")

(* Allocation gate for the det scheduler's hot path: det:1 bfs on a
   small kout input (the costbench bfs-kout shape) must stay below a
   pinned number of minor words per commit (about 21 on this input).
   The bfs operator itself allocates its task tuples and iteration
   closures; a per-task record or a per-commit box in the scheduler
   pushes it over. *)
let test_bfs_allocation () =
  let g = Gen.kout ~seed:2014 ~n:8192 ~k:5 () in
  Galois.Pool.with_pool ~domains:1 @@ fun pool ->
  let g0 = Gc.quick_stat () in
  let _, report = Apps.Bfs.galois ~pool ~policy:(Galois.Policy.det 1) g ~source:0 in
  let g1 = Gc.quick_stat () in
  let per_commit = (g1.minor_words -. g0.minor_words) /. float_of_int report.stats.commits in
  if per_commit >= 32.0 then
    Alcotest.failf "det:1 bfs allocates %.1f minor words per commit (limit 32)" per_commit

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
  Galois.Pool.with_pool ~domains:2 @@ fun pool ->
  let forest, report = Apps.Boruvka.galois ~pool ~policy:(Galois.Policy.det 2) g w in
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
      let d, _ = Apps.Bfs.galois ~policy g ~source:0 in
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
  let policy = Galois.Policy.det 3 in
  let dist_arr, rep_arr = Apps.Sssp.galois ~policy g w ~source:0 in
  let dist_pl, rep_pl = Apps.Sssp.galois_weighted ~policy gw ~source:0 in
  if dist_arr <> dist_pl then Alcotest.fail "sssp distances differ by weight source";
  check_bool "schedule digests equal" true
    (Galois.Trace_digest.equal rep_arr.stats.digest rep_pl.stats.digest)

(* --- mis -------------------------------------------------------------- *)

let mis_graph () = Csr.symmetrize (Gen.kout ~seed:11 ~n:2000 ~k:4 ())

let test_mis_all_valid () =
  let g = mis_graph () in
  let serial_mis = Apps.Mis.serial g in
  check_bool "serial maximal independent" true (Apps.Mis.is_maximal_independent g serial_mis);
  List.iter
    (fun (name, policy) ->
      let in_mis, _ = Apps.Mis.galois ~policy g in
      check_bool (name ^ " maximal independent") true (Apps.Mis.is_maximal_independent g in_mis))
    policies

let test_mis_pbbs_lexicographic () =
  (* PBBS deterministic reservations = sequential greedy in index
     order. *)
  let g = mis_graph () in
  let serial_mis = Apps.Mis.serial g in
  Parallel.Domain_pool.with_pool 4 (fun pool ->
      let in_mis, _ = Apps.Mis.pbbs ~pool g in
      if in_mis <> serial_mis then Alcotest.fail "pbbs MIS differs from lexicographic greedy")

let test_mis_det_portable () =
  let g = mis_graph () in
  let ref_mis, _ = Apps.Mis.galois ~policy:(Galois.Policy.det 1) g in
  List.iter
    (fun t ->
      let m, _ = Apps.Mis.galois ~policy:(Galois.Policy.det t) g in
      if m <> ref_mis then Alcotest.failf "det MIS differs at %d threads" t)
    [ 2; 4 ]

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
  List.iter
    (fun (name, policy) ->
      let mesh, _ = Apps.Dt.galois ~policy pts in
      assert_mesh_good name mesh n;
      (* The Delaunay triangulation of points in general position is
         unique, so every variant must produce the same triangles. *)
      if Apps.Dt.canonical mesh <> canon then Alcotest.failf "dt %s differs" name)
    policies;
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
  List.iter
    (fun (name, policy) -> run_one name (fun mesh -> ignore (Apps.Dmr.galois ~policy mesh)))
    policies;
  run_one "pbbs" (fun mesh ->
      Parallel.Domain_pool.with_pool 3 (fun pool -> ignore (Apps.Dmr.pbbs ~pool mesh)))

let test_dmr_det_portable () =
  let canon_at threads =
    let mesh = dmr_input () in
    ignore (Apps.Dmr.galois ~policy:(Galois.Policy.det threads) mesh);
    Apps.Dt.canonical mesh
  in
  let reference = canon_at 1 in
  List.iter
    (fun t -> if canon_at t <> reference then Alcotest.failf "dmr det differs at %d threads" t)
    [ 2; 4 ]

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
  let call = Apps.Blackscholes.price { o with call = true } in
  let put = Apps.Blackscholes.price { o with call = false } in
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
    Alcotest.test_case "bfs: all variants agree" `Quick test_bfs_all_variants_agree;
    Alcotest.test_case "bfs: disconnected graph" `Quick test_bfs_disconnected;
    Alcotest.test_case "bfs: det:1 allocation per commit" `Quick test_bfs_allocation;
    Alcotest.test_case "boruvka: det:2 hot-spot inspections per commit" `Quick
      test_boruvka_hotspot_waste;
    Alcotest.test_case "sssp: weight plane = weight array" `Quick
      test_sssp_weight_plane_equivalent;
    Alcotest.test_case "mis: all variants valid" `Quick test_mis_all_valid;
    Alcotest.test_case "mis: pbbs is lexicographic greedy" `Quick test_mis_pbbs_lexicographic;
    Alcotest.test_case "mis: det portable" `Quick test_mis_det_portable;
    Alcotest.test_case "pfp: flow values agree" `Quick test_pfp_flow_value;
    Alcotest.test_case "pfp: known small instance" `Quick test_pfp_small_known;
    Alcotest.test_case "dt: all variants produce the Delaunay mesh" `Quick test_dt_variants;
    Alcotest.test_case "dmr: all variants refine" `Quick test_dmr_variants;
    Alcotest.test_case "dmr: det portable" `Quick test_dmr_det_portable;
    Alcotest.test_case "blackscholes" `Quick test_blackscholes;
    Alcotest.test_case "blackscholes put-call parity" `Quick test_blackscholes_put_call_parity;
    Alcotest.test_case "bodytrack particle filter" `Quick test_bodytrack;
    Alcotest.test_case "freqmine fp-growth" `Quick test_freqmine;
    Alcotest.test_case "freqmine deterministic" `Quick test_freqmine_deterministic;
    Alcotest.test_case "freqmine output pinned (order-independence)" `Quick
      test_freqmine_pinned_output;
  ]
