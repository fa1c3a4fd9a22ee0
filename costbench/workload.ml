(* The four workloads. Each builds its input from the seed alone and
   exposes one timed unit under det, nondet and serial scheduling, plus
   an executor for the open loop. Every output is checked against the
   serial answer, and every det run against the first det run of the
   same job (schedule digest for the batch apps, rendered response for
   the service), so a rep that is fast but wrong counts as a failure. *)

module Csr = Graphlib.Csr
module D = Galois.Trace_digest

type scale = Full | Tiny

(* One call of a runner. [secs] is the timed work, which starts at [t0]
   (Obs clock); the checks after it are not timed. *)
type run = { t0 : float; secs : float; checked : int; wrong : int; commits : int }

(* The open loop submits jobs one at a time, each with its own event
   sink; [drain] executes everything submitted so far and returns each
   executed job's id and seconds from submission to completion. *)
type executor = {
  submit : sink:Obs.sink -> int -> unit;
  drain : unit -> (int * float) list * run;
}

type instance = {
  graph : Csr.t;  (** the input the plane-read probe walks *)
  graph_bytes : int;
  graph_build_s : float;  (** the generator call alone *)
  per_unit : int;  (** jobs in one timed unit: one solve, or a batch of queries *)
  det : ?sink:(int -> Obs.sink) -> pool:Galois.Pool.t -> threads:int -> int -> run;
      (** unit [u] at det:[threads]; [sink k] receives job [k]'s events *)
  nondet : pool:Galois.Pool.t -> int -> run;
  serial : int -> run;
  executor : pool:Galois.Pool.t -> executor;  (** at det:[threads] *)
  rounds : int -> int;  (** rounds job [j] took when first run, 0 if not run yet *)
}

let now () = Unix.gettimeofday ()

(* Parallel runs use both domains of the benchmark's pool. *)
let threads = 2

let timed f =
  let t0 = now () and c0 = Galois.Clock.now_s () in
  let v = f () in
  (v, t0, Galois.Clock.elapsed_s c0)

(* A runner call that checked one output. *)
let one ~t0 ~secs ~ok ~commits =
  { t0; secs; checked = 1; wrong = (if ok then 0 else 1); commits }

(* A batch workload: one job is one solve of the whole input. *)
let batch ~graph ~graph_build_s ~det_policy ~solve ~serial ~equal =
  let reference = lazy (serial ()) in
  (* digest and rounds of the first det solve *)
  let first = ref None in
  let solve_det ?sink ~pool ~threads () =
    let (out, (report : Galois.Runtime.report)), t0, secs =
      timed (fun () -> solve ?sink ~pool (det_policy threads))
    in
    let s = report.stats in
    let same_schedule =
      match !first with
      | None ->
          first := Some (s.digest, s.rounds);
          true
      | Some (d, _) -> D.equal d s.digest
    in
    one ~t0 ~secs ~ok:(same_schedule && equal out (Lazy.force reference)) ~commits:s.commits
  in
  let executor ~pool =
    let queue = Queue.create () in
    let submit ~sink j = Queue.add (j, sink, now ()) queue in
    let drain () =
      let t0 = now () in
      let rec go acc busy checked wrong commits =
        match Queue.take_opt queue with
        | None -> (List.rev acc, { t0; secs = busy; checked; wrong; commits })
        | Some (j, sink, submitted) ->
            let r = solve_det ~sink ~pool ~threads () in
            go
              ((j, r.t0 +. r.secs -. submitted) :: acc)
              (busy +. r.secs) (checked + r.checked) (wrong + r.wrong) (commits + r.commits)
      in
      go [] 0.0 0 0 0
    in
    { submit; drain }
  in
  {
    graph;
    graph_bytes = Csr.memory_bytes graph;
    graph_build_s;
    per_unit = 1;
    det =
      (fun ?sink ~pool ~threads _ ->
        solve_det ?sink:(Option.map (fun f -> f 0) sink) ~pool ~threads ());
    nondet =
      (fun ~pool _ ->
        let (out, _), t0, secs =
          timed (fun () -> solve ?sink:None ~pool (Galois.Policy.nondet threads))
        in
        one ~t0 ~secs ~ok:(equal out (Lazy.force reference)) ~commits:0);
    serial =
      (fun _ ->
        let out, t0, secs = timed serial in
        one ~t0 ~secs ~ok:(equal out (Lazy.force reference)) ~commits:0);
    executor;
    rounds = (fun _ -> match !first with Some (_, r) -> r | None -> 0);
  }

let bfs_kout ~seed scale =
  let n = match scale with Full -> 65_536 | Tiny -> 2_000 in
  let g, _, graph_build_s = timed (fun () -> Graphlib.Generators.kout ~seed ~n ~k:5 ()) in
  batch ~graph:g ~graph_build_s
    ~det_policy:(fun t -> Galois.Policy.det t)
    ~solve:(fun ?sink ~pool policy -> Apps.Bfs.galois ?sink ~policy ~pool g ~source:0)
    ~serial:(fun () -> Apps.Bfs.serial g ~source:0)
    ~equal:( = )

let sssp_rmat_prio ~seed scale =
  let scale_log = match scale with Full -> 14 | Tiny -> 9 in
  let g, _, graph_build_s =
    timed (fun () -> Graphlib.Generators.rmat ~seed ~scale:scale_log ~edge_factor:8 ())
  in
  let g = Graphlib.Graph_io.attach_random_weights ~seed:(seed + 1) ~max_weight:100 g in
  (* Dijkstra reads a heap array; the Galois runs read the weight plane. *)
  let w = Option.get (Csr.weights_array g) in
  let options = Galois.Policy.Det_options.make ~priority:Galois.Policy.Prio_auto () in
  batch ~graph:g ~graph_build_s
    ~det_policy:(fun t -> Galois.Policy.det ~options t)
    ~solve:(fun ?sink ~pool policy -> Apps.Sssp.galois_weighted ?sink ~policy ~pool g ~source:0)
    ~serial:(fun () -> Apps.Sssp.serial g w ~source:0)
    ~equal:( = )

let boruvka_hotspot ~seed scale =
  let n = match scale with Full -> 400 | Tiny -> 60 in
  let g, _, graph_build_s = timed (fun () -> Graphlib.Generators.kout ~seed ~n ~k:4 ()) in
  let g = Csr.symmetrize g in
  let w = Graphlib.Graph_io.undirected_random_weights ~seed:(seed + 1) g in
  (* With tied weights the forest's edges depend on which direction of
     an undirected edge a component scans first; its weight does not. *)
  batch ~graph:g ~graph_build_s
    ~det_policy:(fun t -> Galois.Policy.det t)
    ~solve:(fun ?sink ~pool policy -> Apps.Boruvka.galois ?sink ~policy ~pool g w)
    ~serial:(fun () -> Apps.Boruvka.serial g w)
    ~equal:(fun (a : Apps.Boruvka.forest) (b : Apps.Boruvka.forest) ->
      a.total_weight = b.total_weight && Apps.Boruvka.validate g a)

(* The service: one job is one query. A unit is a closed-loop batch of
   queries submitted to a fresh server and drained once; the nondet and
   serial units answer the same queries by calling the apps directly,
   and every path folds the output into the response's output digest. *)
let serve_mixed ~seed scale =
  let module S = Service.Server in
  let module Q = Service.Query in
  let nodes, count, per_unit =
    match scale with Full -> (2_000, 600, 32) | Tiny -> (200, 96, 8)
  in
  let catalog, _, graph_build_s =
    timed (fun () -> Service.Catalog.synthetic ~seed ~nodes ())
  in
  let queries = Array.of_list (Detcheck.Service_case.queries ~seed ~nodes ~count) in
  (* Every unit holds the mix exactly: half bfs, a quarter sssp, a
     quarter cc, each kind taken in list order. A unit then asks for the
     same kinds of work whatever the seed, and [order] lists the query
     indices unit by unit. *)
  let of_kind keep =
    Array.of_list (List.filter (fun i -> keep queries.(i)) (List.init count Fun.id))
  in
  let bfs = of_kind (function Q.Bfs _ -> true | _ -> false)
  and sssp = of_kind (function Q.Sssp _ -> true | _ -> false)
  and cc = of_kind (function Q.Cc _ -> true | _ -> false) in
  let half = per_unit / 2 and quarter = per_unit / 4 in
  let units =
    min (Array.length bfs / half) (min (Array.length sssp / quarter) (Array.length cc / quarter))
  in
  let order =
    Array.concat
      (List.init units (fun u ->
           let unit =
             Array.concat
               [ Array.sub bfs (u * half) half; Array.sub sssp (u * quarter) quarter;
                 Array.sub cc (u * quarter) quarter ]
           in
           Array.sort compare unit;
           unit))
  in
  let query_of u k = order.(((u mod units) * per_unit) + k) in
  let job_query j = order.(j mod Array.length order) in
  let entry q = Option.get (Service.Catalog.find catalog (Q.graph q)) in
  let digest_ints a = Array.fold_left D.fold_int D.seed a in
  let serial_output q =
    let e = entry q in
    match q with
    | Q.Bfs { source; _ } -> Apps.Bfs.serial e.graph ~source
    | Q.Sssp { source; _ } -> Apps.Sssp.serial e.graph (Option.get e.weights) ~source
    | Q.Cc _ -> Apps.Cc.serial e.graph
  in
  let nondet_output ~pool q =
    let policy = Galois.Policy.nondet threads in
    let e = entry q in
    match q with
    | Q.Bfs { source; _ } -> fst (Apps.Bfs.galois ~policy ~pool e.graph ~source)
    | Q.Sssp { source; _ } ->
        fst (Apps.Sssp.galois ~policy ~pool e.graph (Option.get e.weights) ~source)
    | Q.Cc _ -> fst (Apps.Cc.galois ~policy ~pool e.graph)
  in
  let references = Hashtbl.create count in
  let reference i =
    match Hashtbl.find_opt references i with
    | Some d -> d
    | None ->
        let d = digest_ints (serial_output queries.(i)) in
        Hashtbl.add references i d;
        d
  in
  (* query index -> rendered outcome (job id blanked) and rounds of the
     first det answer; later answers must render identically whatever
     the pool size or batching *)
  let seen = Hashtbl.create count in
  let right i (r : S.response) =
    match r.outcome with
    | S.Done { output_digest; rounds; _ } ->
        let line = S.render { r with job = 0 } in
        let consistent =
          match Hashtbl.find_opt seen i with
          | None ->
              Hashtbl.add seen i (line, rounds);
              true
          | Some (l, _) -> String.equal l line
        in
        consistent && D.equal output_digest (reference i)
    | S.Rejected _ | S.Failed _ -> false
  in
  let tally ~index responses =
    List.fold_left
      (fun (wrong, commits) (r : S.response) ->
        let commits =
          match r.outcome with S.Done { commits = c; _ } -> commits + c | _ -> commits
        in
        ((if right (index r.job) r then wrong else wrong + 1), commits))
      (0, 0) responses
  in
  let det ?sink ~pool ~threads u =
    let server, t0, secs =
      timed (fun () ->
          let server = S.create ~threads ~catalog pool in
          for k = 0 to per_unit - 1 do
            let sink = match sink with Some f -> f k | None -> Obs.null in
            ignore (S.submit ~sink server queries.(query_of u k))
          done;
          ignore (S.drain server);
          server)
    in
    let responses = S.responses server in
    let wrong, commits = tally ~index:(query_of u) responses in
    let wrong = wrong + (per_unit - List.length responses) in
    { t0; secs; checked = per_unit; wrong; commits }
  in
  let direct output u =
    let outs, t0, secs =
      timed (fun () -> Array.init per_unit (fun k -> digest_ints (output queries.(query_of u k))))
    in
    let wrong = ref 0 in
    Array.iteri (fun k d -> if not (D.equal d (reference (query_of u k))) then incr wrong) outs;
    { t0; secs; checked = per_unit; wrong = !wrong; commits = 0 }
  in
  let executor ~pool =
    let server = S.create ~threads ~catalog pool in
    let submit ~sink j = ignore (S.submit ~sink server queries.(job_query j)) in
    let drain () =
      let responses, t0, secs = timed (fun () -> S.drain server) in
      let wrong, commits = tally ~index:job_query responses in
      ( List.map (fun (r : S.response) -> (r.job, r.latency_s)) responses,
        { t0; secs; checked = List.length responses; wrong; commits } )
    in
    { submit; drain }
  in
  {
    graph = (Option.get (Service.Catalog.find catalog "kout")).graph;
    graph_bytes = Service.Catalog.total_graph_bytes catalog;
    graph_build_s;
    per_unit;
    det;
    nondet = (fun ~pool u -> direct (nondet_output ~pool) u);
    serial = direct serial_output;
    executor;
    rounds =
      (fun j -> match Hashtbl.find_opt seen (job_query j) with Some (_, r) -> r | None -> 0);
  }

let all =
  [
    ("bfs-kout", bfs_kout);
    ("sssp-rmat-prio", sssp_rmat_prio);
    ("boruvka-hotspot", boruvka_hotspot);
    ("serve-mixed", serve_mixed);
  ]
