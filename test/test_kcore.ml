(* k-core decomposition: the serial Matula–Beck peeling against known
   answers, the h-index update rule, and the Galois h-index fixpoint
   agreeing with the peeling under every policy — ordered and not —
   at several thread counts. *)

module Csr = Graphlib.Csr
module K = Apps.Kcore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_cores = Alcotest.(check (array int))

(* Symmetric adjacency builder for hand-made graphs. *)
let sym_graph edges n =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  Csr.of_adjacency (Array.map List.rev adj)

let test_serial_known () =
  (* Triangle {0,1,2} with a pendant 3 hanging off 0: the triangle is
     the 2-core, the pendant is 1-core. *)
  let g = sym_graph [ (0, 1); (1, 2); (0, 2); (0, 3) ] 4 in
  check_cores "triangle+pendant" [| 2; 2; 2; 1 |] (K.serial g);
  (* A 4-clique: everyone has coreness 3. *)
  let clique =
    sym_graph [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] 4
  in
  check_cores "4-clique" [| 3; 3; 3; 3 |] (K.serial clique);
  (* A path: every vertex peels at degree <= 1. *)
  let path = sym_graph [ (0, 1); (1, 2); (2, 3) ] 4 in
  check_cores "path" [| 1; 1; 1; 1 |] (K.serial path);
  (* Isolated vertices have coreness 0; the empty graph works. *)
  check_cores "isolated" [| 0; 0 |] (K.serial (Csr.of_adjacency [| []; [] |]));
  check_cores "empty" [||] (K.serial (Csr.of_adjacency [||]))

let test_h_index () =
  (* Star: center sees 4 leaves with estimate 1 -> h-index 1. *)
  let g = sym_graph [ (0, 1); (0, 2); (0, 3); (0, 4) ] 5 in
  let counts = Array.make 8 0 in
  let est = [| 4; 1; 1; 1; 1 |] in
  check_int "star center" 1 (K.h_index ~counts g est 0);
  check_int "leaf" 1 (K.h_index ~counts g est 1);
  (* Estimates above the degree are capped by it. *)
  let est = [| 4; 9; 9; 9; 9 |] in
  check_int "capped at degree" 4 (K.h_index ~counts g est 0);
  (* Scratch is re-zeroed between calls. *)
  check_int "scratch reusable" 4 (K.h_index ~counts g est 0)

let policies =
  let det ?(priority = Galois.Policy.Prio_off) t =
    Galois.Policy.det ~options:(Galois.Policy.Det_options.make ~priority ()) t
  in
  [
    ("det:1", det 1);
    ("det:4", det 4);
    ("det:4[prio=auto]", det ~priority:Galois.Policy.Prio_auto 4);
    ("det:1[prio=auto]", det ~priority:Galois.Policy.Prio_auto 1);
    ("det:2[prio=delta:2]", det ~priority:(Galois.Policy.Prio_delta 2) 2);
    ("nondet:4", Galois.Policy.nondet 4);
  ]

let test_galois_matches_serial () =
  let g = Csr.symmetrize (Graphlib.Generators.kout ~seed:11 ~n:1500 ~k:5 ()) in
  let reference = K.serial g in
  List.iter
    (fun (name, policy) ->
      let core, _ = Galois.Run.solve ~policy (K.plan g) in
      check_cores (name ^ " equals peeling") reference core)
    policies;
  check_bool "validate agrees" true (K.validate g reference)

let test_ordered_digests_thread_invariant () =
  let g = Csr.symmetrize (Graphlib.Generators.kout ~seed:13 ~n:800 ~k:4 ()) in
  let digest ?(priority = Galois.Policy.Prio_auto) t =
    let _, report =
      Galois.Run.solve
        ~policy:
          (Galois.Policy.det ~options:(Galois.Policy.Det_options.make ~priority ()) t)
        (K.plan g)
    in
    (report.Galois.Run.stats.digest, report.Galois.Run.stats.buckets)
  in
  let d1, b1 = digest 1 and d2, b2 = digest 2 and d4, b4 = digest 4 in
  check_bool "digest 1=2" true (Galois.Trace_digest.equal d1 d2);
  check_bool "digest 1=4" true (Galois.Trace_digest.equal d1 d4);
  let delta, _ = digest ~priority:(Galois.Policy.Prio_delta 2) 4 in
  check_bool "kcore delta changes the schedule" false (Galois.Trace_digest.equal d4 delta);
  check_bool "buckets opened" true (b1 > 0);
  check_int "bucket count invariant" b1 b2;
  check_int "bucket count invariant (4)" b1 b4

let suite =
  [
    Alcotest.test_case "serial peeling on known graphs" `Quick test_serial_known;
    Alcotest.test_case "h-index update rule" `Quick test_h_index;
    Alcotest.test_case "galois fixpoint equals peeling" `Quick test_galois_matches_serial;
    Alcotest.test_case "ordered digests thread-invariant" `Quick
      test_ordered_digests_thread_invariant;
  ]
