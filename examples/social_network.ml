(* Graph analytics on a social-network-shaped (R-MAT) graph:

   - breadth-first search from a seed user ("degrees of separation");
   - a maximal independent set ("mutually non-adjacent moderator set").

   Both are the paper's benchmarks used as a library would use them. An
   optional argv[1] picks the policy, e.g.:

     dune exec examples/social_network.exe -- det:4
     dune exec examples/social_network.exe -- nondet:8 *)

let () =
  let policy =
    match Sys.argv with
    | [| _; p |] -> (
        match Galois.Policy.of_string p with
        | Ok p -> p
        | Error e ->
            prerr_endline e;
            exit 2)
    | _ -> Galois.Policy.det 4
  in
  Fmt.pr "Building an R-MAT graph (2^12 users)...@.";
  let g = Graphlib.Generators.rmat ~seed:7 ~scale:12 ~edge_factor:8 () in
  let sym = Graphlib.Csr.symmetrize g in
  Fmt.pr "  %d users, %d follows (%d symmetric edges)@." (Graphlib.Csr.nodes g)
    (Graphlib.Csr.edges g) (Graphlib.Csr.edges sym);

  Fmt.pr "@.BFS from user 0 under %a:@." Galois.Policy.pp policy;
  let dist, report = Galois.Run.solve ~policy (Apps.Bfs.plan sym ~source:0) in
  let histogram = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      if d <> Apps.Bfs.unreached then
        Hashtbl.replace histogram d (1 + Option.value ~default:0 (Hashtbl.find_opt histogram d)))
    dist;
  let levels = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram []) in
  List.iter (fun (level, count) -> Fmt.pr "  %d hops: %d users@." level count) levels;
  Fmt.pr "  (%d tasks committed, %d aborted)@." report.stats.commits report.stats.aborts;

  Fmt.pr "@.Maximal independent set under %a:@." Galois.Policy.pp policy;
  let in_mis, report = Galois.Run.solve ~policy (Apps.Mis.plan sym) in
  let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_mis in
  Fmt.pr "  %d mutually non-adjacent users selected (valid=%b)@." size
    (Apps.Mis.is_maximal_independent sym in_mis);
  Fmt.pr "  (%d tasks committed, %d aborted, %d rounds)@." report.stats.commits
    report.stats.aborts report.stats.rounds
