(* Tests for the extended application set: connected components, SSSP,
   Boruvka MSF, triangle counting — plus the new graph substrates
   (union-find, I/O, weights). *)

module Csr = Graphlib.Csr
module Gen = Graphlib.Generators
module Uf = Graphlib.Union_find

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let policies =
  [ ("serial", Galois.Policy.serial); ("nondet", Galois.Policy.nondet 3); ("det", Galois.Policy.det 3) ]

(* --- union-find ------------------------------------------------------ *)

let test_union_find_basics () =
  let uf = Uf.create 10 in
  check_int "initially 10 components" 10 (Uf.components uf);
  check_bool "union joins" true (Uf.union uf 0 1);
  check_bool "redundant union" false (Uf.union uf 1 0);
  check_bool "same" true (Uf.same uf 0 1);
  check_bool "not same" false (Uf.same uf 0 2);
  ignore (Uf.union uf 2 3);
  ignore (Uf.union uf 1 3);
  check_bool "transitive" true (Uf.same uf 0 2);
  check_int "components" 7 (Uf.components uf)

let test_union_find_readonly () =
  let uf = Uf.create 6 in
  ignore (Uf.union uf 0 1);
  ignore (Uf.union uf 1 2);
  check_int "readonly root agrees" (Uf.find uf 2) (Uf.find_readonly uf 2)

let prop_union_find_partition =
  QCheck.Test.make ~name:"union-find partitions consistently" ~count:100
    QCheck.(pair (int_range 2 40) (list_of_size Gen.(int_range 0 80) (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let uf = Uf.create n in
      let pairs = List.map (fun (a, b) -> (a mod n, b mod n)) pairs in
      List.iter (fun (a, b) -> ignore (Uf.union uf a b)) pairs;
      (* same is an equivalence relation consistent with find *)
      List.for_all (fun (a, b) -> Uf.same uf a b = (Uf.find uf a = Uf.find uf b)) pairs)

(* --- graph I/O -------------------------------------------------------- *)

let test_graph_io_roundtrip () =
  let g = Gen.kout ~seed:12 ~n:50 ~k:4 () in
  let path = Filename.temp_file "galois" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graphlib.Graph_io.save_edges path g;
      let g' = Graphlib.Graph_io.load_edges path in
      check_int "nodes" (Csr.nodes g) (Csr.nodes g');
      check_int "edges" (Csr.edges g) (Csr.edges g');
      for u = 0 to Csr.nodes g - 1 do
        let succ h = List.sort compare (Csr.fold_succ h u (fun acc v -> v :: acc) []) in
        if succ g <> succ g' then Alcotest.failf "adjacency differs at %d" u
      done)

let test_graph_io_rejects_garbage () =
  let path = Filename.temp_file "galois" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# junk\nnot a header\n";
      close_out oc;
      match Graphlib.Graph_io.load_edges path with
      | _ -> Alcotest.fail "garbage accepted"
      | exception Failure _ -> ())

let test_random_weights () =
  let g = Gen.kout ~seed:3 ~n:30 ~k:3 () in
  let w = Graphlib.Graph_io.random_weights ~seed:5 ~max_weight:10 g in
  check_int "one weight per edge" (Csr.edges g) (Array.length w);
  check_bool "in range" true (Array.for_all (fun x -> x >= 1 && x <= 10) w);
  let w' = Graphlib.Graph_io.random_weights ~seed:5 ~max_weight:10 g in
  check_bool "deterministic" true (w = w')

let test_undirected_weights () =
  let g = Csr.symmetrize (Gen.kout ~seed:8 ~n:40 ~k:3 ()) in
  let w = Graphlib.Graph_io.undirected_random_weights ~seed:9 g in
  let edges = Csr.all_edges g in
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun e (u, v) ->
      let key = (min u v, max u v) in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.add tbl key w.(e)
      | Some prev -> check_int "both directions equal" prev w.(e))
    edges

(* --- connected components --------------------------------------------- *)

let cc_graph () =
  (* Several components: disjoint random blobs plus isolated nodes. *)
  let edges = ref [] in
  let rng = Parallel.Splitmix.create 77 in
  List.iter
    (fun (base, size) ->
      for _ = 1 to size * 2 do
        let u = base + Parallel.Splitmix.int rng size in
        let v = base + Parallel.Splitmix.int rng size in
        if u <> v then edges := (u, v) :: !edges
      done)
    [ (0, 40); (40, 25); (65, 10) ];
  Csr.symmetrize (Csr.of_edges ~n:80 (Array.of_list !edges))

let test_cc_variants_agree () =
  let g = cc_graph () in
  let reference = Apps.Cc.serial g in
  check_bool "serial validates" true (Apps.Cc.validate g reference);
  List.iter
    (fun (name, policy) ->
      let label, _ = Apps.Cc.galois ~policy g in
      if label <> reference then Alcotest.failf "cc %s differs from union-find" name)
    policies

let test_cc_counts_components () =
  let g = cc_graph () in
  let label = Apps.Cc.serial g in
  (* 3 blobs (likely internally connected) + 5 isolated nodes 75..79:
     count = components of union-find ground truth. *)
  let uf = Uf.create (Csr.nodes g) in
  Array.iter (fun (u, v) -> ignore (Uf.union uf u v)) (Csr.all_edges g);
  check_int "component count" (Uf.components uf) (Apps.Cc.count_components label)

(* --- SSSP -------------------------------------------------------------- *)

let test_sssp_variants_agree () =
  let g = Gen.kout ~seed:21 ~n:800 ~k:4 () in
  let w = Graphlib.Graph_io.random_weights ~seed:22 ~max_weight:20 g in
  let reference = Apps.Sssp.serial g w ~source:0 in
  check_bool "dijkstra validates" true (Apps.Sssp.validate g w ~source:0 reference);
  List.iter
    (fun (name, policy) ->
      let dist, _ = Apps.Sssp.galois ~policy g w ~source:0 in
      if dist <> reference then Alcotest.failf "sssp %s differs from dijkstra" name)
    policies

let test_sssp_weight_mismatch () =
  let g = Gen.kout ~seed:21 ~n:10 ~k:2 () in
  Alcotest.check_raises "bad weights" (Invalid_argument "Sssp.galois: weight array size mismatch")
    (fun () ->
      ignore (Apps.Sssp.galois ~policy:Galois.Policy.serial g [| 1 |] ~source:0))

let test_sssp_unit_weights_equal_bfs () =
  let g = Gen.kout ~seed:25 ~n:500 ~k:5 () in
  let w = Array.make (Csr.edges g) 1 in
  let sssp = Apps.Sssp.serial g w ~source:0 in
  let bfs = Apps.Bfs.serial g ~source:0 in
  check_bool "unit-weight sssp = bfs" true (sssp = bfs)

(* --- Boruvka MSF ------------------------------------------------------- *)

let msf_graph () = Csr.symmetrize (Gen.kout ~seed:31 ~n:300 ~k:3 ())

let test_boruvka_weight_matches_kruskal () =
  let g = msf_graph () in
  let w = Graphlib.Graph_io.undirected_random_weights ~seed:32 ~max_weight:50 g in
  let reference = Apps.Boruvka.serial g w in
  check_bool "kruskal forest valid" true (Apps.Boruvka.validate g reference);
  List.iter
    (fun (name, policy) ->
      let forest, _ = Apps.Boruvka.galois ~policy g w in
      check_bool (name ^ " forest valid") true (Apps.Boruvka.validate g forest);
      check_int (name ^ " total weight")
        reference.Apps.Boruvka.total_weight forest.Apps.Boruvka.total_weight)
    policies

let test_boruvka_edge_count () =
  let g = msf_graph () in
  let w = Graphlib.Graph_io.undirected_random_weights ~seed:33 g in
  let forest = Apps.Boruvka.serial g w in
  let uf = Uf.create (Csr.nodes g) in
  Array.iter (fun (u, v) -> ignore (Uf.union uf u v)) (Csr.all_edges g);
  check_int "n - components edges" (Csr.nodes g - Uf.components uf)
    (List.length forest.Apps.Boruvka.parent_edge)

(* Self-loops, parallel edges, an isolated vertex (5) and two
   disconnected parts, {0,1,2,3} and {4,6}, with every weight tied: the
   per-vertex heaps must leave the loops out and each union must drop
   the edges it made internal. *)
let test_boruvka_edge_cases () =
  let undirected = [ (0, 0); (0, 1); (1, 0); (1, 2); (2, 3); (3, 0); (1, 3); (4, 6); (6, 6); (6, 4) ] in
  let both = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) undirected in
  let g = Csr.of_edges ~n:7 (Array.of_list both) in
  let w = Array.make (Csr.edges g) 5 in
  let reference = Apps.Boruvka.serial g w in
  check_int "kruskal picks n - components edges" 4 (List.length reference.Apps.Boruvka.parent_edge);
  List.iter
    (fun (name, policy) ->
      let forest, _ = Apps.Boruvka.galois ~policy g w in
      check_bool (name ^ " forest valid") true (Apps.Boruvka.validate g forest);
      check_int (name ^ " total weight")
        reference.Apps.Boruvka.total_weight forest.Apps.Boruvka.total_weight)
    [
      ("serial", Galois.Policy.serial);
      ("nondet:2", Galois.Policy.nondet 2);
      ("det:1", Galois.Policy.det 1);
      ("det:2", Galois.Policy.det 2);
    ]

(* Small random symmetric graphs, down to one vertex and no edges: the
   forest matches Kruskal and validates at det:1 and det:4, and the two
   schedules are the same. *)
let test_boruvka_random_graphs () =
  Galois.Pool.with_pool ~domains:4 @@ fun pool ->
  let solve t g w =
    let forest, report = Apps.Boruvka.galois ~record:true ~pool ~policy:(Galois.Policy.det t) g w in
    (forest, Galois.Schedule.digest (Option.get report.schedule))
  in
  let prop (n, k, seed) =
    let g = Csr.symmetrize (Gen.kout ~seed ~n ~k:(min k (n - 1)) ()) in
    let w = Graphlib.Graph_io.undirected_random_weights ~seed:(seed + 1) ~max_weight:8 g in
    let reference = (Apps.Boruvka.serial g w).total_weight in
    let ok (forest : Apps.Boruvka.forest) =
      forest.total_weight = reference && Apps.Boruvka.validate g forest
    in
    let f1, d1 = solve 1 g w and f4, d4 = solve 4 g w in
    ok f1 && ok f4 && Galois.Trace_digest.equal d1 d4
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"boruvka random graphs" ~count:100
       QCheck.(triple (int_range 1 30) (int_range 0 4) small_nat)
       prop)

(* Inspection reads the root's heap top without allocating, so the
   allocation per commit stays small even when every task contends on
   one giant component (the costbench boruvka-hotspot input). *)
let test_boruvka_allocation () =
  let g = Csr.symmetrize (Gen.kout ~seed:2014 ~n:400 ~k:4 ()) in
  let w = Graphlib.Graph_io.undirected_random_weights ~seed:2015 g in
  Galois.Pool.with_pool ~domains:1 @@ fun pool ->
  let g0 = Gc.quick_stat () in
  let _, report = Apps.Boruvka.galois ~pool ~policy:(Galois.Policy.det 1) g w in
  let g1 = Gc.quick_stat () in
  let per_commit = (g1.minor_words -. g0.minor_words) /. float_of_int report.stats.commits in
  if per_commit >= 2_000.0 then
    Alcotest.failf "det:1 boruvka allocates %.0f minor words per commit (limit 2,000)" per_commit

(* --- pagerank ----------------------------------------------------------- *)

let test_pagerank_converges () =
  let g = Gen.kout ~seed:51 ~n:500 ~k:5 () in
  let reference = Apps.Pagerank.serial g in
  List.iter
    (fun (name, policy) ->
      let ranks, report = Apps.Pagerank.galois ~policy g in
      check_bool (name ^ " all tasks processed") true (report.stats.commits >= 500);
      let diff = Apps.Pagerank.max_abs_diff ranks reference in
      if diff > 0.01 then Alcotest.failf "pagerank %s off by %f" name diff)
    policies

let test_pagerank_det_portable () =
  let g = Gen.kout ~seed:52 ~n:400 ~k:4 () in
  let run t =
    let r, _ = Apps.Pagerank.galois ~policy:(Galois.Policy.det t) g in
    r
  in
  let reference = run 1 in
  List.iter
    (fun t ->
      (* Fixed-point arithmetic: deterministic runs must agree exactly,
         bit for bit. *)
      if run t <> reference then Alcotest.failf "pagerank det differs at %d threads" t)
    [ 2; 4 ]

let test_pagerank_sink_nodes () =
  (* Graph with a sink (no out-edges): residual there accumulates into
     rank and propagation still terminates. *)
  let g = Csr.of_edges ~n:3 [| (0, 2); (1, 2) |] in
  let ranks, _ = Apps.Pagerank.galois ~policy:Galois.Policy.serial g in
  check_bool "sink has the largest rank" true (ranks.(2) > ranks.(0) && ranks.(2) > ranks.(1))

(* --- triangle counting ------------------------------------------------- *)

let test_triangles_known () =
  (* A 4-clique has exactly 4 triangles. *)
  let g =
    Csr.symmetrize (Csr.of_edges ~n:4 [| (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) |])
  in
  check_int "4-clique" 4 (Apps.Triangles.serial g);
  (* A 4-cycle has none. *)
  let c = Csr.symmetrize (Csr.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3); (3, 0) |]) in
  check_int "4-cycle" 0 (Apps.Triangles.serial c)

let test_triangles_variants_agree () =
  let g = Csr.symmetrize (Gen.rmat ~seed:35 ~scale:8 ~edge_factor:6 ()) in
  let reference = Apps.Triangles.serial g in
  check_bool "some triangles exist" true (reference > 0);
  List.iter
    (fun (name, policy) ->
      let total, report = Apps.Triangles.galois ~policy g in
      check_int (name ^ " count") reference total;
      check_int (name ^ " all commit") (Csr.nodes g) report.stats.commits)
    policies

let suite =
  [
    Alcotest.test_case "union-find basics" `Quick test_union_find_basics;
    Alcotest.test_case "union-find readonly find" `Quick test_union_find_readonly;
    QCheck_alcotest.to_alcotest prop_union_find_partition;
    Alcotest.test_case "graph io roundtrip" `Quick test_graph_io_roundtrip;
    Alcotest.test_case "graph io rejects garbage" `Quick test_graph_io_rejects_garbage;
    Alcotest.test_case "random weights" `Quick test_random_weights;
    Alcotest.test_case "undirected weights symmetric" `Quick test_undirected_weights;
    Alcotest.test_case "cc: all variants agree" `Quick test_cc_variants_agree;
    Alcotest.test_case "cc: component count" `Quick test_cc_counts_components;
    Alcotest.test_case "sssp: all variants agree with dijkstra" `Quick test_sssp_variants_agree;
    Alcotest.test_case "sssp: weight validation" `Quick test_sssp_weight_mismatch;
    Alcotest.test_case "sssp: unit weights = bfs" `Quick test_sssp_unit_weights_equal_bfs;
    Alcotest.test_case "boruvka: weight matches kruskal" `Quick
      test_boruvka_weight_matches_kruskal;
    Alcotest.test_case "boruvka: forest size" `Quick test_boruvka_edge_count;
    Alcotest.test_case "boruvka: loops, parallel edges, ties" `Quick test_boruvka_edge_cases;
    Alcotest.test_case "boruvka: random graphs, det:1 = det:4" `Quick test_boruvka_random_graphs;
    Alcotest.test_case "boruvka: det:1 allocation per commit" `Quick test_boruvka_allocation;
    Alcotest.test_case "pagerank: converges to power iteration" `Quick test_pagerank_converges;
    Alcotest.test_case "pagerank: det bit-portable" `Quick test_pagerank_det_portable;
    Alcotest.test_case "pagerank: sink nodes" `Quick test_pagerank_sink_nodes;
    Alcotest.test_case "triangles: known graphs" `Quick test_triangles_known;
    Alcotest.test_case "triangles: variants agree" `Quick test_triangles_variants_agree;
  ]
