(* Run every benchmark in every variant once, with schedule recording,
   and keep the artifacts the figures need. Runs use a small real thread
   count ([run_threads] = 2; deterministic schedules are
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

(* The four recorded variants of one app, in the order serial, nondet,
   det, det-nocont; [pbbs] runs after them. *)
let variants name (run : Galois.Policy.t -> Galois.Run.report) ~pbbs =
  let serial = run Galois.Policy.serial in
  let nondet = run nondet_policy in
  let det = run det_policy in
  let det_nocont = run det_nocont_policy in
  { name; serial; nondet; det; det_nocont; pbbs = pbbs () }

let collect_bfs pool (s : Scale.t) =
  let g = Gen.kout ~seed:s.seed ~n:s.bfs_nodes ~k:s.bfs_degree () in
  variants "bfs"
    (fun policy -> snd (Galois.Run.solve ~record:true ~policy ~pool (Apps.Bfs.plan g ~source:0)))
    ~pbbs:(fun () ->
      (* detBFS has no speculation; represent its rounds via level count. *)
      let _, _, levels = Apps.Bfs.pbbs ~pool g ~source:0 in
      Some { Detreserve.rounds = levels; commits = s.bfs_nodes; retries = 0; time_s = 0.0 })

let collect_mis pool (s : Scale.t) =
  let g = Graphlib.Csr.symmetrize (Gen.kout ~seed:(s.seed + 1) ~n:s.mis_nodes ~k:s.mis_degree ()) in
  variants "mis"
    (fun policy -> snd (Galois.Run.solve ~record:true ~policy ~pool (Apps.Mis.plan g)))
    ~pbbs:(fun () ->
      let granularity = max 64 (s.mis_nodes / 20) in
      Some (snd (Apps.Mis.pbbs ~granularity ~pool g)))

let collect_dt pool (s : Scale.t) =
  let pts = Point.random_unit_square ~seed:(s.seed + 2) s.dt_points in
  variants "dt"
    (fun policy -> snd (Galois.Run.solve ~record:true ~policy ~pool (Apps.Dt.plan pts)))
    ~pbbs:(fun () ->
      let granularity = max 64 (s.dt_points / 20) in
      Some (snd (Apps.Dt.pbbs ~granularity ~pool pts)))

let collect_dmr pool (s : Scale.t) =
  let fresh_mesh () =
    Apps.Dt.serial (Point.random_unit_square ~seed:(s.seed + 3) s.dmr_points)
  in
  variants "dmr"
    (fun policy ->
      snd (Galois.Run.solve ~record:true ~policy ~pool (Apps.Dmr.plan (fresh_mesh ()))))
    ~pbbs:(fun () ->
      Some (Apps.Dmr.pbbs ~granularity:256 ~pool (fresh_mesh ())))

let collect_pfp pool (s : Scale.t) =
  let instance () = Gen.flow_network ~seed:(s.seed + 4) ~n:s.pfp_nodes ~k:s.pfp_degree () in
  variants "pfp"
    (fun policy ->
      let g, caps, source, sink = instance () in
      let net = Apps.Flow_network.of_graph g caps ~source ~sink in
      let result = Apps.Pfp.galois ~record:true ~policy ~pool net in
      { Galois.Run.stats = result.Apps.Pfp.stats;
        schedule = result.Apps.Pfp.schedule;
        trace = None;
        audit = None })
    (* The PBBS suite has no preflow-push program (paper §4.1). *)
    ~pbbs:(fun () -> None)

let collect_kernels pool (s : Scale.t) =
  let _, bs = Apps.Blackscholes.run ~pool (Apps.Blackscholes.generate ~seed:s.seed s.blackscholes_options) in
  let bt = (Apps.Bodytrack.run ~config:s.bodytrack ~pool ()).Apps.Bodytrack.profile in
  let _, fm = Apps.Freqmine.run ~config:s.freqmine ~pool () in
  [
    { kname = "blackscholes"; profile = bs };
    { kname = "bodytrack"; profile = bt };
    { kname = "freqmine"; profile = fm };
  ]

let collect (s : Scale.t) =
  Parallel.Domain_pool.with_pool run_threads (fun pool ->
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
