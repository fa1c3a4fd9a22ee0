(* Delaunay mesh refinement, end to end:

   1. generate random points;
   2. Delaunay-triangulate them (a Galois program);
   3. refine all skinny triangles (another Galois program), under the
      deterministic scheduler at several thread counts;
   4. show that the refined meshes are identical — the paper's
      portability property — and pass the geometric validity checks.

   Run with: dune exec examples/mesh_refinement.exe *)

let refine_at threads =
  let points = Geometry.Point.random_unit_square ~seed:99 800 in
  let mesh = Apps.Dt.serial points in
  let before = Mesh.triangle_count mesh in
  let report = Apps.Dmr.galois ~policy:(Galois.Policy.det threads) mesh in
  (mesh, before, report)

let () =
  Fmt.pr "Refining a Delaunay mesh deterministically at 1, 2 and 4 threads...@.";
  let results = List.map (fun t -> (t, refine_at t)) [ 1; 2; 4 ] in
  List.iter
    (fun (t, (mesh, before, report)) ->
      (match Mesh.check_consistency mesh with
      | Ok () -> ()
      | Error e -> failwith e);
      Fmt.pr "  %d thread(s): %d -> %d triangles, %d rounds, refined=%b@." t before
        (Mesh.triangle_count mesh) report.Galois.Run.stats.rounds
        (Apps.Dmr.refined Apps.Dmr.default_config mesh))
    results;
  (* Canonical triangle sets must be identical: same mesh, bit for bit,
     regardless of thread count. *)
  let canon (_, (mesh, _, _)) = Apps.Dt.canonical mesh in
  let reference = canon (List.hd results) in
  let all_equal = List.for_all (fun r -> canon r = reference) results in
  Fmt.pr "@.Identical refined meshes across thread counts: %b@." all_equal;
  if not all_equal then exit 1
