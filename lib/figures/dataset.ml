(* Run every benchmark in every variant once, with schedule recording,
   and keep the artifacts the figures need. Runs use a small real thread
   count (the container is single-core; deterministic schedules are
   thread-independent anyway), and the machine simulator projects the
   recorded schedules onto the paper's machines. *)

module Gen = Graphlib.Generators
module Point = Geometry.Point

type app = {
  name : string;
  serial : Galois.Run.report;  (* in-order execution, Flat schedule *)
  nondet : Galois.Run.report;
  det : Galois.Run.report;
  det_nocont : Galois.Run.report;  (* continuation optimization off *)
  pbbs : Detreserve.stats option;  (* handwritten deterministic variant *)
}

type kernel = { kname : string; profile : Apps.Kernel_profile.t }

type t = { apps : app list; kernels : kernel list; scale : Scale.t }

let run_threads = 2

(* The speculative variant is recorded single-threaded: at paper scale
   tasks outnumber threads by ~10^5 and abort ratios are essentially
   zero (§5.1); tiny inputs on two threads would instead record
   artificially inflated abort work. Parallel correctness of the
   speculative scheduler is exercised separately by the test suite. *)
let nondet_policy = Galois.Policy.nondet 1
let det_policy = Galois.Policy.det run_threads

let det_nocont_policy =
  Galois.Policy.det run_threads
    ~options:{ Galois.Policy.default_det with continuation = false }

let collect_bfs pool (s : Scale.t) =
  let g = Gen.kout ~seed:s.seed ~n:s.bfs_nodes ~k:s.bfs_degree () in
  let run policy =
    let _, report = Apps.Bfs.galois ~record:true ~policy ~pool g ~source:0 in
    report
  in
  let serial = run Galois.Policy.serial in
  let nondet = run nondet_policy in
  let det = run det_policy in
  let det_nocont = run det_nocont_policy in
  (* detBFS has no speculation; represent its rounds via level count. *)
  let _, _, levels = Apps.Bfs.pbbs ~pool:(Galois.Pool.domain_pool pool) g ~source:0 in
  let commits = s.bfs_nodes in
  let pbbs = Some { Detreserve.rounds = levels; commits; retries = 0; time_s = 0.0 } in
  { name = "bfs"; serial; nondet; det; det_nocont; pbbs }

let collect_mis pool (s : Scale.t) =
  let g = Graphlib.Csr.symmetrize (Gen.kout ~seed:(s.seed + 1) ~n:s.mis_nodes ~k:s.mis_degree ()) in
  let run policy =
    let _, report = Apps.Mis.galois ~record:true ~policy ~pool g in
    report
  in
  let serial = run Galois.Policy.serial in
  let nondet = run nondet_policy in
  let det = run det_policy in
  let det_nocont = run det_nocont_policy in
  let _, stats = Apps.Mis.pbbs ~granularity:(max 64 (s.mis_nodes / 20)) ~pool:(Galois.Pool.domain_pool pool) g in
  { name = "mis"; serial; nondet; det; det_nocont; pbbs = Some stats }

let collect_dt pool (s : Scale.t) =
  let pts = Point.random_unit_square ~seed:(s.seed + 2) s.dt_points in
  let run policy =
    let _, report = Apps.Dt.galois ~record:true ~policy ~pool pts in
    report
  in
  let serial = run Galois.Policy.serial in
  let nondet = run nondet_policy in
  let det = run det_policy in
  let det_nocont = run det_nocont_policy in
  let _, stats = Apps.Dt.pbbs ~granularity:(max 64 (s.dt_points / 20)) ~pool:(Galois.Pool.domain_pool pool) pts in
  { name = "dt"; serial; nondet; det; det_nocont; pbbs = Some stats }

let collect_dmr pool (s : Scale.t) =
  let fresh_mesh () =
    Apps.Dt.serial (Point.random_unit_square ~seed:(s.seed + 3) s.dmr_points)
  in
  let run policy = Apps.Dmr.galois ~record:true ~policy ~pool (fresh_mesh ()) in
  let serial = run Galois.Policy.serial in
  let nondet = run nondet_policy in
  let det = run det_policy in
  let det_nocont = run det_nocont_policy in
  let stats = Apps.Dmr.pbbs ~granularity:256 ~pool:(Galois.Pool.domain_pool pool) (fresh_mesh ()) in
  { name = "dmr"; serial; nondet; det; det_nocont; pbbs = Some stats }

let collect_pfp pool (s : Scale.t) =
  let instance () = Gen.flow_network ~seed:(s.seed + 4) ~n:s.pfp_nodes ~k:s.pfp_degree () in
  let run policy =
    let g, caps, source, sink = instance () in
    let net = Apps.Flow_network.of_graph g caps ~source ~sink in
    let result = Apps.Pfp.galois ~record:true ~policy ~pool net in
    { Galois.Run.stats = result.Apps.Pfp.stats;
      schedule = result.Apps.Pfp.schedule;
      trace = None;
      audit = None }
  in
  let serial = run Galois.Policy.serial in
  let nondet = run nondet_policy in
  let det = run det_policy in
  let det_nocont = run det_nocont_policy in
  (* The PBBS suite has no preflow-push program (paper §4.1). *)
  { name = "pfp"; serial; nondet; det; det_nocont; pbbs = None }

let collect_kernels pool (s : Scale.t) =
  let _, bs = Apps.Blackscholes.run ~pool:(Galois.Pool.domain_pool pool) (Apps.Blackscholes.generate ~seed:s.seed s.blackscholes_options) in
  let bt = (Apps.Bodytrack.run ~config:s.bodytrack ~pool:(Galois.Pool.domain_pool pool) ()).Apps.Bodytrack.profile in
  let _, fm = Apps.Freqmine.run ~config:s.freqmine ~pool:(Galois.Pool.domain_pool pool) () in
  [
    { kname = "blackscholes"; profile = bs };
    { kname = "bodytrack"; profile = bt };
    { kname = "freqmine"; profile = fm };
  ]

let collect (s : Scale.t) =
  Galois.Pool.with_pool ~domains:run_threads (fun pool ->
      let apps =
        [
          collect_bfs pool s;
          collect_mis pool s;
          collect_dt pool s;
          collect_dmr pool s;
          collect_pfp pool s;
        ]
      in
      let kernels = collect_kernels pool s in
      { apps; kernels; scale = s })

let find t name = List.find (fun a -> a.name = name) t.apps
