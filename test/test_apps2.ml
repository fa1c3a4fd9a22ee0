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

let det = Galois.Policy.det 3

(* --- union-find ------------------------------------------------------ *)

let test_union_find_basics () =
  let uf = Uf.create 10 in
  check_int "initially 10 components" 10 (Uf.components uf);
  check_bool "union joins" true (Uf.union uf 0 1);
  check_bool "redundant union" false (Uf.union uf 1 0);
  check_bool "same" true (Uf.find uf 0 = Uf.find uf 1);
  check_bool "not same" false (Uf.find uf 0 = Uf.find uf 2);
  ignore (Uf.union uf 2 3);
  ignore (Uf.union uf 1 3);
  check_bool "transitive" true (Uf.find uf 0 = Uf.find uf 2);
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
      (* every united pair shares a root *)
      List.for_all (fun (a, b) -> Uf.find uf a = Uf.find uf b) pairs)

(* --- graph I/O -------------------------------------------------------- *)

let test_graph_io_roundtrip () =
  let g = Gen.kout ~seed:12 ~n:50 ~k:4 () in
  let path = Filename.temp_file "galois" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graphlib.Graph_io.save_edges path g;
      let g' = Graphlib.Graph_io.load path in
      check_int "nodes" (Csr.nodes g) (Csr.nodes g');
      check_int "edges" (Csr.edges g) (Csr.edges g');
      for u = 0 to Csr.nodes g - 1 do
        let succ h =
          List.sort compare
            (List.init (Csr.out_degree h u) (fun i -> Csr.target h (Csr.first_edge h u + i)))
        in
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
      match Graphlib.Graph_io.load path with
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
  let label, _ = Galois.Run.solve ~policy:det (Apps.Cc.plan g) in
  if label <> reference then Alcotest.fail "cc det differs from union-find"

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
  let dist, _ = Galois.Run.solve ~policy:det (Apps.Sssp.plan g w ~source:0) in
  if dist <> reference then Alcotest.fail "sssp det differs from dijkstra"

let test_sssp_weight_mismatch () =
  let g = Gen.kout ~seed:21 ~n:10 ~k:2 () in
  Alcotest.check_raises "bad weights" (Invalid_argument "Sssp.plan: weight array size mismatch")
    (fun () -> ignore (Apps.Sssp.plan g [| 1 |] ~source:0));
  Alcotest.check_raises "no weight plane"
    (Invalid_argument "Sssp.plan_weighted: graph has no weight plane") (fun () ->
      ignore (Apps.Sssp.plan_weighted g ~source:0))

(* A distance past the packed task range makes every policy raise; none
   may answer with a wrapped distance. On 4,096 nodes the node field
   takes 12 bits, so distances stop at 2^50 - 1: two edges of weight
   3 * 2^48 pass it on the second hop, and a weight of [max_int] after
   a weight of 1 overflows the int sum itself. *)
let test_sssp_distance_out_of_range () =
  let g = Csr.of_edges ~n:4096 [| (0, 1); (1, 2) |] in
  let refused = Invalid_argument "Dist_task.pack: node or distance out of range" in
  List.iter
    (fun weights ->
      List.iter
        (fun (name, policy) ->
          Alcotest.check_raises name refused (fun () ->
              ignore (Galois.Run.solve ~policy (Apps.Sssp.plan g weights ~source:0))))
        [
          ("serial", Galois.Policy.serial);
          ("nondet:2", Galois.Policy.nondet 2);
          ("det:2", Galois.Policy.det 2);
        ])
    [ [| 3 lsl 48; 3 lsl 48 |]; [| 1; max_int |] ]

(* [pack] round-trips through [node] and [dist] at both ends of both
   fields, for node widths 0 to 62 (the width of [nodes = 2^(bits-1) + 1]
   is [bits]), and refuses one past either end. *)
let prop_dist_task_roundtrip =
  QCheck.Test.make ~name:"Dist_task pack/node/dist round-trip at the width edges" ~count:200
    QCheck.(pair (int_range 0 62) (pair bool bool))
    (fun (bits, (top_node, top_dist)) ->
      let nodes = if bits = 0 then 1 else (1 lsl (bits - 1)) + 1 in
      let c = Apps.Dist_task.codec ~nodes in
      let max_node = if bits = 62 then max_int else (1 lsl bits) - 1 in
      let max_dist = max_int lsr bits in
      let node = if top_node then max_node else 0 in
      let dist = if top_dist then max_dist else 0 in
      let x = Apps.Dist_task.pack c ~node ~dist in
      let refuses ~node ~dist =
        match Apps.Dist_task.pack c ~node ~dist with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      x >= 0
      && Apps.Dist_task.node c x = node
      && Apps.Dist_task.dist c x = dist
      && refuses ~node:(-1) ~dist
      && refuses ~node ~dist:(-1)
      && (bits = 62 || refuses ~node:(max_node + 1) ~dist)
      && (bits = 0 || refuses ~node ~dist:(max_dist + 1)))

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
  let forest, _ = Galois.Run.solve ~policy:det (Apps.Boruvka.plan g w) in
  check_bool "det forest valid" true (Apps.Boruvka.validate g forest);
  check_int "det total weight" reference.Apps.Boruvka.total_weight forest.Apps.Boruvka.total_weight

let test_boruvka_weight_mismatch () =
  let g = msf_graph () in
  Alcotest.check_raises "short weights"
    (Invalid_argument "Boruvka.plan: weight array size mismatch") (fun () ->
      ignore (Apps.Boruvka.plan g [| 1 |]))

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
      let forest, _ = Galois.Run.solve ~policy (Apps.Boruvka.plan g w) in
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
  Parallel.Domain_pool.with_pool 4 @@ fun pool ->
  let solve t g w =
    let forest, report =
      Galois.Run.solve ~record:true ~pool ~policy:(Galois.Policy.det t) (Apps.Boruvka.plan g w)
    in
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
  Parallel.Domain_pool.with_pool 1 @@ fun pool ->
  let g0 = Gc.quick_stat () in
  let _, report = Galois.Run.solve ~pool ~policy:(Galois.Policy.det 1) (Apps.Boruvka.plan g w) in
  let g1 = Gc.quick_stat () in
  let per_commit = (g1.minor_words -. g0.minor_words) /. float_of_int report.stats.commits in
  if per_commit >= 2_000.0 then
    Alcotest.failf "det:1 boruvka allocates %.0f minor words per commit (limit 2,000)" per_commit

(* --- pagerank ----------------------------------------------------------- *)

(* Every rank within 1% of the power iteration's, at a size where the
   ranks are large enough that an absolute bound of 0.01 fails. *)
let test_pagerank_converges () =
  List.iter
    (fun n ->
      let g = Gen.kout ~seed:51 ~n ~k:5 () in
      let reference = Apps.Pagerank.serial g in
      List.iter
        (fun (name, policy) ->
          let ranks, report = Galois.Run.solve ~policy (Apps.Pagerank.plan g) in
          check_bool (name ^ " all tasks processed") true (report.stats.commits >= n);
          let diff = Apps.Pagerank.max_rel_diff ~reference ranks in
          if diff > 0.01 then Alcotest.failf "pagerank %s n=%d off by %.4f of a rank" name n diff)
        policies)
    [ 500; 10_000 ]

let test_pagerank_sink_nodes () =
  (* Graph with a sink (no out-edges): residual there accumulates into
     rank and propagation still terminates. *)
  let g = Csr.of_edges ~n:3 [| (0, 2); (1, 2) |] in
  let ranks, _ = Galois.Run.solve ~policy:Galois.Policy.serial (Apps.Pagerank.plan g) in
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
  let total, report = Galois.Run.solve ~policy:det (Apps.Triangles.plan g) in
  check_int "det count" reference total;
  check_int "det all commit" (Csr.nodes g) report.stats.commits

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
    Alcotest.test_case "sssp: a distance past the packed range raises" `Quick
      test_sssp_distance_out_of_range;
    QCheck_alcotest.to_alcotest prop_dist_task_roundtrip;
    Alcotest.test_case "boruvka: weight matches kruskal" `Quick
      test_boruvka_weight_matches_kruskal;
    Alcotest.test_case "boruvka: weight validation" `Quick test_boruvka_weight_mismatch;
    Alcotest.test_case "boruvka: forest size" `Quick test_boruvka_edge_count;
    Alcotest.test_case "boruvka: loops, parallel edges, ties" `Quick test_boruvka_edge_cases;
    Alcotest.test_case "boruvka: random graphs, det:1 = det:4" `Quick test_boruvka_random_graphs;
    Alcotest.test_case "boruvka: det:1 allocation per commit" `Quick test_boruvka_allocation;
    Alcotest.test_case "pagerank: converges to power iteration" `Quick test_pagerank_converges;
    Alcotest.test_case "pagerank: sink nodes" `Quick test_pagerank_sink_nodes;
    Alcotest.test_case "triangles: known graphs" `Quick test_triangles_known;
    Alcotest.test_case "triangles: variants agree" `Quick test_triangles_variants_agree;
  ]
