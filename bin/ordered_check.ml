(* Ordered-scheduling smoke (@ordered-smoke).

   Two apps exercise the soft-priority (delta-stepping bucket)
   scheduler end to end:

   - sssp on a weighted R-MAT graph: prio=auto must produce exactly
     the prio=off distances (both equal to Dijkstra), each policy's
     schedule digest must be thread-count invariant, and the ordered
     run must cut work_units by at least MIN_DROP percent versus the
     unordered run — the delta-stepping payoff.

   - kcore on a symmetrized kout graph: coreness must equal the serial
     Matula-Beck peeling under prio=auto and prio=delta at every
     thread count, again with thread-invariant digests.

   Usage: ordered_check [--scale N] [--min-drop PCT]. *)

module D = Galois.Trace_digest

let failures = ref 0

let check name ok =
  if ok then Fmt.pr "  ok: %s@." name
  else begin
    incr failures;
    Fmt.pr "  FAIL: %s@." name
  end

let det ?(priority = Galois.Policy.Prio_off) threads =
  Galois.Policy.det ~options:(Galois.Policy.Det_options.make ~priority ()) threads

let () =
  let scale = ref 13 in
  let min_drop = ref 25.0 in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := int_of_string v;
        parse rest
    | "--min-drop" :: v :: rest ->
        min_drop := float_of_string v;
        parse rest
    | arg :: _ -> failwith (Printf.sprintf "ordered_check: unknown argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));

  (* --- sssp: correctness, digest invariance, work-unit drop -------- *)
  let g =
    Graphlib.Graph_io.attach_random_weights ~seed:2015 ~max_weight:100
      (Graphlib.Generators.rmat ~seed:2014 ~scale:!scale ~edge_factor:8 ())
  in
  let weights =
    match Graphlib.Csr.weights_array g with Some w -> w | None -> assert false
  in
  let reference = Apps.Sssp.serial g weights ~source:0 in
  let run_sssp policy =
    let dist, report = Apps.Sssp.galois_weighted ~policy g ~source:0 in
    (dist, report.Galois.Run.stats)
  in
  Fmt.pr "sssp: weighted rmat scale=%d (%d nodes, %d edges)@." !scale
    (Graphlib.Csr.nodes g) (Graphlib.Csr.edges g);
  let dist_off, off4 = run_sssp (det 4) in
  let _, off1 = run_sssp (det 1) in
  let dist_auto, auto4 = run_sssp (det ~priority:Galois.Policy.Prio_auto 4) in
  let _, auto1 = run_sssp (det ~priority:Galois.Policy.Prio_auto 1) in
  let _, auto2 = run_sssp (det ~priority:Galois.Policy.Prio_auto 2) in
  check "prio=off distances match Dijkstra" (dist_off = reference);
  check "prio=auto distances match Dijkstra" (dist_auto = reference);
  check "prio=off digest thread-invariant" (D.equal off4.digest off1.digest);
  check "prio=auto digest thread-invariant (1,2,4)"
    (D.equal auto4.digest auto1.digest && D.equal auto4.digest auto2.digest);
  check "prio=auto actually bucketizes" (auto4.buckets > 0 && off4.buckets = 0);
  check "prio=off and prio=auto schedules differ" (not (D.equal off4.digest auto4.digest));
  let drop =
    100.0 *. (1.0 -. (float_of_int auto4.work_units /. float_of_int off4.work_units))
  in
  Fmt.pr "  work_units: off=%d auto=%d drop=%.1f%% (floor %.1f%%)@." off4.work_units
    auto4.work_units drop !min_drop;
  check "ordered work-unit drop meets floor" (drop >= !min_drop);

  (* --- kcore: fixpoint equals peeling at every thread count -------- *)
  let g2 =
    Graphlib.Csr.symmetrize (Graphlib.Generators.kout ~seed:2016 ~n:4000 ~k:5 ())
  in
  let core_ref = Apps.Kcore.serial g2 in
  let run_kcore policy =
    let core, report = Apps.Kcore.galois ~policy g2 in
    (core, report.Galois.Run.stats)
  in
  Fmt.pr "kcore: symmetrized kout (%d nodes, %d edges)@." (Graphlib.Csr.nodes g2)
    (Graphlib.Csr.edges g2);
  let c_auto4, k4 = run_kcore (det ~priority:Galois.Policy.Prio_auto 4) in
  let c_auto1, k1 = run_kcore (det ~priority:Galois.Policy.Prio_auto 1) in
  let c_delta, kd = run_kcore (det ~priority:(Galois.Policy.Prio_delta 2) 4) in
  let c_off, _ = run_kcore (det 4) in
  check "prio=auto coreness matches peeling (4 threads)" (c_auto4 = core_ref);
  check "prio=auto coreness matches peeling (1 thread)" (c_auto1 = core_ref);
  check "prio=delta:2 coreness matches peeling" (c_delta = core_ref);
  check "prio=off coreness matches peeling" (c_off = core_ref);
  check "kcore prio=auto digest thread-invariant" (D.equal k4.digest k1.digest);
  check "kcore delta changes the schedule" (not (D.equal k4.digest kd.digest));

  if !failures > 0 then begin
    Fmt.pr "ordered-check: %d failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr "ordered-check: all checks passed@."
