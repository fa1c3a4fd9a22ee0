module Csr = Graphlib.Csr
module Gen = Graphlib.Generators

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [u]'s successors in edge order. *)
let succ g u = List.init (Csr.out_degree g u) (fun i -> Csr.target g (Csr.first_edge g u + i))

let test_of_adjacency () =
  let g = Csr.of_adjacency [| [ 1; 2 ]; [ 2 ]; [] |] in
  check_int "nodes" 3 (Csr.nodes g);
  check_int "edges" 3 (Csr.edges g);
  check_int "deg 0" 2 (Csr.out_degree g 0);
  check_int "deg 2" 0 (Csr.out_degree g 2);
  Alcotest.(check (list int)) "succ of 0" [ 1; 2 ] (succ g 0)

let test_of_edges () =
  let g = Csr.of_edges ~n:4 [| (0, 1); (2, 3); (0, 3); (1, 0) |] in
  check_int "edges" 4 (Csr.edges g);
  check_int "deg 0" 2 (Csr.out_degree g 0);
  check_bool "0 -> 3" true (Csr.exists_succ g 0 (fun v -> v = 3));
  check_bool "3 has no succ" false (Csr.exists_succ g 3 (fun _ -> true))

let test_of_edges_rejects_bad () =
  Alcotest.check_raises "out of range" (Invalid_argument "Csr.of_edges: node out of range")
    (fun () -> ignore (Csr.of_edges ~n:2 [| (0, 5) |]))

let test_symmetrize () =
  let g = Csr.of_edges ~n:4 [| (0, 1); (1, 0); (2, 2); (1, 3) |] in
  let s = Csr.symmetrize g in
  check_bool "symmetric" true (Csr.is_symmetric s);
  check_bool "self loop dropped" false (Csr.exists_succ s 2 (fun v -> v = 2));
  check_bool "0-1 single edge each way" true (Csr.out_degree s 0 = 1);
  check_bool "3 -> 1 added" true (Csr.exists_succ s 3 (fun v -> v = 1))

let test_edge_range_targets () =
  let g = Csr.of_adjacency [| [ 2; 1 ]; []; [ 0 ] |] in
  let edges = ref [] in
  Csr.iter_succ_edges g 0 (fun e v -> edges := (e, v) :: !edges);
  Alcotest.(check (list (pair int int))) "edge ids and targets of 0" [ (0, 2); (1, 1) ]
    (List.rev !edges);
  check_int "first edge of 2" 2 (Csr.first_edge g 2);
  check_int "end edge of 2" 3 (Csr.end_edge g 2);
  check_int "empty range of 1" (Csr.first_edge g 1) (Csr.end_edge g 1);
  Alcotest.check_raises "first_edge checks the node"
    (Invalid_argument "Csr.first_edge: node out of bounds") (fun () ->
      ignore (Csr.first_edge g 3));
  Alcotest.check_raises "end_edge checks the node"
    (Invalid_argument "Csr.end_edge: node out of bounds") (fun () -> ignore (Csr.end_edge g (-1)));
  Alcotest.check_raises "target checks the edge"
    (Invalid_argument "Csr.target: edge index out of bounds") (fun () -> ignore (Csr.target g 3))

let test_kout_degrees () =
  let g = Gen.kout ~seed:3 ~n:100 ~k:5 () in
  check_int "nodes" 100 (Csr.nodes g);
  check_int "edges" 500 (Csr.edges g);
  for u = 0 to 99 do
    check_int "degree" 5 (Csr.out_degree g u);
    check_bool "no self loop" false (Csr.exists_succ g u (fun v -> v = u));
    (* distinct targets *)
    check_int "distinct" 5 (List.length (List.sort_uniq compare (succ g u)))
  done

let test_kout_deterministic () =
  let a = Gen.kout ~seed:42 ~n:50 ~k:3 () and b = Gen.kout ~seed:42 ~n:50 ~k:3 () in
  for u = 0 to 49 do
    if succ a u <> succ b u then Alcotest.failf "kout differs at node %d" u
  done

let test_kout_rejects_bad () =
  Alcotest.check_raises "k >= n" (Invalid_argument "Generators.kout: need 0 <= k < n") (fun () ->
      ignore (Gen.kout ~n:3 ~k:3 ()))

let test_grid () =
  let g = Gen.grid2d ~rows:3 ~cols:4 in
  check_int "nodes" 12 (Csr.nodes g);
  check_bool "symmetric" true (Csr.is_symmetric g);
  (* Corner has degree 2, interior 4. *)
  check_int "corner degree" 2 (Csr.out_degree g 0);
  check_int "interior degree" 4 (Csr.out_degree g 5)

let test_rmat () =
  let g = Gen.rmat ~seed:5 ~scale:8 ~edge_factor:4 () in
  check_int "nodes" 256 (Csr.nodes g);
  check_int "edges" 1024 (Csr.edges g)

let test_flow_network_gen () =
  let g, caps, s, t = Gen.flow_network ~seed:1 ~n:20 ~k:3 () in
  check_int "caps size" (Csr.edges g) (Array.length caps);
  check_bool "caps positive" true (Array.for_all (fun c -> c > 0) caps);
  check_int "source" 0 s;
  check_int "sink" 19 t

(* Property: symmetrize is idempotent. *)
let prop_symmetrize_idempotent =
  QCheck.Test.make ~name:"symmetrize idempotent" ~count:50
    QCheck.(pair (int_range 2 30) (int_range 0 60))
    (fun (n, m) ->
      let g = Parallel.Splitmix.create (n + (m * 1000)) in
      let edges =
        Array.init m (fun _ -> (Parallel.Splitmix.int g n, Parallel.Splitmix.int g n))
      in
      let s = Csr.symmetrize (Csr.of_edges ~n edges) in
      let s2 = Csr.symmetrize s in
      Csr.edges s = Csr.edges s2 && Csr.is_symmetric s)

(* ------------------------------------------------------------------ *)
(* Off-heap substrate: planes, builders, binary format                 *)
(* ------------------------------------------------------------------ *)

module Plane = Graphlib.Plane
module Io = Graphlib.Graph_io

let test_plane_sizing () =
  (* Width selection flips exactly at the 31-bit boundary. *)
  let small = Plane.create ~max_value:Plane.i32_max 4 in
  check_int "4B below boundary" 4 (Plane.bytes_per_value small);
  let big = Plane.create ~max_value:(Plane.i32_max + 1) 4 in
  check_int "8B above boundary" 8 (Plane.bytes_per_value big);
  (* Values round-trip at both widths, including the extremes. *)
  let round_trip label vals =
    let p = Plane.create ~max_value:(Array.fold_left max 0 vals) (Array.length vals) in
    Array.iteri (Plane.unsafe_set p) vals;
    Alcotest.(check (array int)) label vals (Plane.to_array p)
  in
  round_trip "4B round-trip" [| 0; 1; 0xFFFF; 0x10000; Plane.i32_max |];
  round_trip "8B round-trip" [| 0; Plane.i32_max + 1; max_int |]

let test_builder_matches_of_adjacency () =
  (* The streaming builder must reproduce of_adjacency's adjacency
     order exactly when fed the same edges in the same order. *)
  let n = 37 in
  let rng = Parallel.Splitmix.create 90125 in
  let m = 300 in
  let edges =
    Array.init m (fun _ ->
        (Parallel.Splitmix.int rng n, Parallel.Splitmix.int rng n))
  in
  let adj = Array.make n [] in
  Array.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
  let adj = Array.map List.rev adj in
  let via_adj = Csr.of_adjacency adj in
  let via_edges = Csr.of_edges ~n edges in
  let b = Csr.Builder.create ~n () in
  Array.iter (fun (u, v) -> Csr.Builder.add_edge b u v) edges;
  let via_builder = Csr.Builder.build b in
  check_bool "of_edges = of_adjacency" true (Csr.equal via_adj via_edges);
  check_bool "builder = of_adjacency" true (Csr.equal via_adj via_builder)

let prop_builder_matches_of_adjacency =
  QCheck.Test.make ~name:"builder adjacency order = of_adjacency" ~count:100
    QCheck.(pair (int_range 1 40) (int_range 0 120))
    (fun (n, m) ->
      let rng = Parallel.Splitmix.create ((n * 1009) + m) in
      let edges =
        Array.init m (fun _ ->
            (Parallel.Splitmix.int rng n, Parallel.Splitmix.int rng n))
      in
      let adj = Array.make n [] in
      Array.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
      let via_adj = Csr.of_adjacency (Array.map List.rev adj) in
      let b = Csr.Builder.create ~n () in
      Array.iter (fun (u, v) -> Csr.Builder.add_edge b u v) edges;
      Csr.equal via_adj (Csr.Builder.build b))

let with_temp f =
  let path = Filename.temp_file "test_graph" ".gcsr" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_binary_roundtrip () =
  with_temp (fun path ->
      let g = Gen.kout ~seed:11 ~n:300 ~k:4 () in
      Io.save_binary path g;
      check_bool "unweighted round-trip" true (Csr.equal g (Io.load path));
      let w = Io.attach_random_weights ~seed:12 ~max_weight:77 g in
      Io.save_binary path w;
      let w' = Io.load path in
      check_bool "weighted round-trip" true (Csr.equal w w');
      check_bool "weights survive" true (Csr.weighted w'))

let test_binary_rejects_corruption () =
  with_temp (fun path ->
      let g = Gen.kout ~seed:13 ~n:200 ~k:3 () in
      Io.save_binary path g;
      let bytes =
        In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
      in
      let expect_corrupt label bytes =
        with_temp (fun path' ->
            Out_channel.with_open_bin path' (fun oc ->
                Out_channel.output_bytes oc bytes);
            match Io.load path' with
            | _ -> Alcotest.failf "%s: corrupt file accepted" label
            | exception Failure msg ->
                check_bool
                  (label ^ ": error is tagged")
                  true
                  (String.length msg >= 7 && String.sub msg 0 8 = "Graph_io"))
      in
      (* Flip one payload bit. *)
      let flipped = Bytes.copy bytes in
      let mid = Bytes.length flipped / 2 in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
      expect_corrupt "bit flip" flipped;
      (* Truncate. *)
      expect_corrupt "truncation" (Bytes.sub bytes 0 (Bytes.length bytes - 9));
      (* Wrong magic. *)
      let bad_magic = Bytes.copy bytes in
      Bytes.set bad_magic 0 'X';
      expect_corrupt "bad magic" bad_magic)

let test_text_weighted_roundtrip () =
  with_temp (fun path ->
      let g =
        Io.attach_random_weights ~seed:21 ~max_weight:9 (Gen.kout ~seed:20 ~n:60 ~k:3 ())
      in
      Io.save_edges path g;
      let g' = Io.load path in
      check_bool "weighted text round-trip" true (Csr.equal g g'))

let test_attach_matches_random_weights () =
  let g = Gen.kout ~seed:31 ~n:120 ~k:4 () in
  let arr = Io.random_weights ~seed:32 ~max_weight:50 g in
  let att = Io.attach_random_weights ~seed:32 ~max_weight:50 g in
  match Csr.weights_array att with
  | None -> Alcotest.fail "attach_random_weights left the graph unweighted"
  | Some w -> Alcotest.(check (array int)) "same weight sequence" arr w

let test_mem_edge () =
  let g = Csr.symmetrize (Gen.kout ~seed:41 ~n:150 ~k:4 ()) in
  (* Symmetrized adjacency is sorted: mem_edge takes the binary-search
     path. Cross-check every pair against a linear scan. *)
  for u = 0 to Csr.nodes g - 1 do
    for v = 0 to Csr.nodes g - 1 do
      let linear = Csr.exists_succ g u (fun w -> w = v) in
      if Csr.mem_edge g u v <> linear then
        Alcotest.failf "mem_edge disagrees with scan at (%d, %d)" u v
    done
  done

let test_uniform_generator () =
  let g = Gen.uniform ~seed:51 ~n:500 ~m:2500 () in
  check_int "nodes" 500 (Csr.nodes g);
  check_int "edges" 2500 (Csr.edges g);
  Csr.iter_edges g (fun u v ->
      if u = v then Alcotest.failf "self loop at %d" u);
  let g' = Gen.uniform ~seed:51 ~n:500 ~m:2500 () in
  check_bool "deterministic" true (Csr.equal g g')

let test_graph_off_heap () =
  let g = Gen.kout ~seed:61 ~n:10_000 ~k:5 () in
  check_bool "planes are 4B here" true
    (Plane.bytes_per_value (Csr.targets_plane g) = 4);
  (* (n+1) offsets + m targets at 4 bytes. *)
  check_int "payload bytes" ((10_001 * 4) + (50_000 * 4)) (Csr.memory_bytes g)

let suite =
  [
    Alcotest.test_case "of_adjacency" `Quick test_of_adjacency;
    Alcotest.test_case "of_edges" `Quick test_of_edges;
    Alcotest.test_case "of_edges range check" `Quick test_of_edges_rejects_bad;
    Alcotest.test_case "symmetrize" `Quick test_symmetrize;
    Alcotest.test_case "edge ranges" `Quick test_edge_range_targets;
    Alcotest.test_case "kout degrees/self-loops/distinctness" `Quick test_kout_degrees;
    Alcotest.test_case "kout deterministic" `Quick test_kout_deterministic;
    Alcotest.test_case "kout argument check" `Quick test_kout_rejects_bad;
    Alcotest.test_case "grid2d" `Quick test_grid;
    Alcotest.test_case "rmat sizes" `Quick test_rmat;
    Alcotest.test_case "flow network generator" `Quick test_flow_network_gen;
    QCheck_alcotest.to_alcotest prop_symmetrize_idempotent;
    Alcotest.test_case "plane width selection" `Quick test_plane_sizing;
    Alcotest.test_case "builder = of_adjacency" `Quick test_builder_matches_of_adjacency;
    QCheck_alcotest.to_alcotest prop_builder_matches_of_adjacency;
    Alcotest.test_case "binary round-trip" `Quick test_binary_roundtrip;
    Alcotest.test_case "binary corruption rejected" `Quick test_binary_rejects_corruption;
    Alcotest.test_case "weighted text round-trip" `Quick test_text_weighted_roundtrip;
    Alcotest.test_case "attach_random_weights sequence" `Quick test_attach_matches_random_weights;
    Alcotest.test_case "mem_edge binary search" `Quick test_mem_edge;
    Alcotest.test_case "uniform generator" `Quick test_uniform_generator;
    Alcotest.test_case "graph lives off-heap" `Quick test_graph_off_heap;
  ]
