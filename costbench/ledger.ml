(* Per-layer numbers from the event streams of traced jobs. Each job's
   events come from its own Obs.Memory sink; everything is read from the
   public event stream, so the program under test carries no benchmark
   code. Counts are per job, shares are over all jobs. *)

type summary = {
  mutable run_begin : float;
  mutable run_end : float;
  mutable rounds : int;
  mutable generations : int;
  mutable commits : int;
  mutable buckets : int;
  mutable windows : int;
  mutable window_sum : int;
  mutable inspect_s : float;
  mutable select_s : float;
  mutable gen_boundary_s : float;
  mutable aborted : int;
  mutable atomics : int;
  mutable work : int;
  mutable inspections : int;
  mutable chunks : int;
  mutable spins : int;
  mutable parks : int;
  mutable events : int;
  worker_work : (int, int) Hashtbl.t;
}

let summarize (events : Obs.stamped list) =
  let s =
    {
      run_begin = 0.0; run_end = 0.0; rounds = 0; generations = 0; commits = 0;
      buckets = 0; windows = 0; window_sum = 0; inspect_s = 0.0; select_s = 0.0;
      gen_boundary_s = 0.0; aborted = 0; atomics = 0; work = 0; inspections = 0;
      chunks = 0; spins = 0; parks = 0; events = 0; worker_work = Hashtbl.create 2;
    }
  in
  let prev = ref None in
  List.iter
    (fun (e : Obs.stamped) ->
      s.events <- s.events + 1;
      (match e.event with
      | Obs.Run_begin _ -> s.run_begin <- e.at_s
      | Obs.Run_end { commits; rounds; generations } ->
          s.run_end <- e.at_s;
          s.commits <- commits;
          s.rounds <- rounds;
          s.generations <- generations
      | Obs.Generation_begin _ -> (
          (* the gap that ends here is the generation boundary: draining
             the children, sorting and laying out the next generation *)
          match !prev with
          | Some p -> s.gen_boundary_s <- s.gen_boundary_s +. (e.at_s -. p)
          | None -> ())
      | Obs.Round_begin { window; _ } ->
          s.windows <- s.windows + 1;
          s.window_sum <- s.window_sum + window
      | Obs.Bucket_opened _ -> s.buckets <- s.buckets + 1
      | Obs.Phase_time { phase = Obs.Inspect; dt_s; _ } -> s.inspect_s <- s.inspect_s +. dt_s
      | Obs.Phase_time { dt_s; _ } -> s.select_s <- s.select_s +. dt_s
      | Obs.Worker_counters w ->
          s.aborted <- s.aborted + w.aborted;
          s.atomics <- s.atomics + w.atomics;
          s.work <- s.work + w.work;
          s.inspections <- s.inspections + w.inspections;
          s.chunks <- s.chunks + w.chunks;
          s.spins <- s.spins + w.spins;
          s.parks <- s.parks + w.parks;
          Hashtbl.replace s.worker_work w.worker w.work
      | _ -> ());
      prev := Some e.at_s)
    events;
  s

(* One traced job of the open loop, on the Obs clock. *)
type job = {
  due : float;
  submitted : float;
  latency : float;  (** submission to completion *)
  summary : summary;
}

(* [busy_s] is the executor's time for all the jobs together (the solve
   calls, or the server's drains), so [run.outside_s] is what the jobs
   cost outside the scheduler: plans, lock arrays, responses. *)
let metrics ~busy_s (jobs : job list) =
  let n = float_of_int (max 1 (List.length jobs)) in
  let total f = List.fold_left (fun acc j -> acc +. f j.summary) 0.0 jobs in
  let per_job f = total f /. n in
  let count f = per_job (fun s -> float_of_int (f s)) in
  let exec s = s.run_end -. s.run_begin in
  let commits = total (fun s -> float_of_int s.commits) in
  let work = total (fun s -> float_of_int s.work) in
  let inspections = total (fun s -> float_of_int s.inspections) in
  let windows = total (fun s -> float_of_int s.windows) in
  let worker_work = Hashtbl.create 2 in
  List.iter
    (fun j ->
      Hashtbl.iter
        (fun w v ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt worker_work w) in
          Hashtbl.replace worker_work w (prev + v))
        j.summary.worker_work)
    jobs;
  let per_worker = Hashtbl.fold (fun _ v acc -> float_of_int v :: acc) worker_work [] in
  let wait = List.map (fun j -> j.summary.run_begin -. j.due) jobs in
  let execs = List.map (fun j -> exec j.summary) jobs in
  let latency = List.map (fun j -> j.submitted -. j.due +. j.latency) jobs in
  let lag = List.map (fun j -> j.submitted -. j.due) jobs in
  [
    ("det_sched.rounds", count (fun s -> s.rounds));
    ("det_sched.generations", count (fun s -> s.generations));
    ("det_sched.buckets", count (fun s -> s.buckets));
    ("det_sched.commits", count (fun s -> s.commits));
    ("det_sched.aborts", count (fun s -> s.aborted));
    ("det_sched.commit_ratio", Sample.ratio commits inspections);
    ("det_sched.window_mean", Sample.ratio (total (fun s -> float_of_int s.window_sum)) windows);
    ("det_sched.inspect_s", per_job (fun s -> s.inspect_s));
    ("det_sched.select_s", per_job (fun s -> s.select_s));
    ("det_sched.glue_s", per_job (fun s -> exec s -. s.inspect_s -. s.select_s));
    ("det_sched.gen_boundary_s", per_job (fun s -> s.gen_boundary_s));
    ("run.outside_s", (busy_s -. total exec) /. n);
    ("lock.atomics_per_commit", Sample.ratio (total (fun s -> float_of_int s.atomics)) commits);
    ("domain_pool.spins", count (fun s -> s.spins));
    ("domain_pool.parks", count (fun s -> s.parks));
    ("domain_pool.chunks", count (fun s -> s.chunks));
    ( "domain_pool.imbalance",
      match per_worker with
      | [] -> 0.0
      | l -> Analysis.Summary.maximum l /. Analysis.Summary.mean l );
    ("apps.work_units", count (fun s -> s.work));
    ("apps.efficiency", Sample.ratio commits work);
    ("apps.inspections_per_commit", Sample.ratio inspections commits);
    ("job.gen_lag_p99_s", Sample.percentile lag 99.0);
    ("job.wait_p50_s", Sample.percentile wait 50.0);
    ("job.wait_p99_s", Sample.percentile wait 99.0);
    ("job.exec_p50_s", Sample.percentile execs 50.0);
    ("job.exec_p99_s", Sample.percentile execs 99.0);
    ("job.latency_p50_s", Sample.percentile latency 50.0);
    ("job.latency_p99_s", Sample.percentile latency 99.0);
    ("obs.events", count (fun s -> s.events));
  ]
