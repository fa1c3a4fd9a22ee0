(* The deterministic job server.

   Determinism at the service boundary (Aviram & Ford): an identical
   sequence of submissions must produce byte-identical responses no
   matter how large the worker pool is or how the submissions were
   grouped into arrival batches. The mechanisms:

   - job ids are assigned in submission order and are the only ordering
     the server ever uses;
   - [drain] takes one arrival batch — everything pending — and deals
     its jobs to [min lanes batch] lanes, one lane per pool worker in a
     single pool dispatch. A lane takes the next job index from an
     atomic counter and solves that job as one det:1 Galois run on the
     shared pool. Which lane runs which job depends on timing; nothing
     a job computes does, because a det run's output and schedule are
     the same at every thread count (the paper's portability). At one
     thread the scheduler never dispatches, so a lane never nests on
     the pool. With one lane the jobs run on the caller, undispatched;
   - a job's own sink is called by the lane running that job. The
     global sink sees no concurrent calls: each job's events are
     buffered on its lane (only when the global sink is not null), and
     the draining domain replays them, original stamps included, job
     by job in id order. The draining domain also records the
     responses — digest fold, counters, [responses] — in job-id order;
   - a query whose run raises is answered [Failed] with the exception's
     rendering, and the rest of its batch is still answered. The
     exception is deterministic: the DIG scheduler re-raises the
     lowest-id task's exception, and a sink raises at a fixed event;
   - rendered responses exclude everything timing-dependent (latency,
     batch number), so the response stream and the digest folded over
     it are functions of the submission sequence alone;
   - backpressure is deterministic: a submission is rejected iff the
     queue already holds [max_pending] jobs — a function of queue
     occupancy, never of wall-clock. [submit] refuses to run during a
     drain, where job ids would depend on which lane's sink got there
     first.

   Across *different* interleavings (the same jobs grouped into
   different arrival batches) the responses are still byte-identical as
   long as nothing is rejected, because every job's answer is a function
   of its query and they are recorded in id order either way; detcheck's
   service case checks exactly that. *)

module D = Galois.Trace_digest

type outcome =
  | Done of {
      summary : string;
      output_digest : D.t;
      sched_digest : D.t;
      commits : int;
      rounds : int;
    }
  | Rejected of { reason : string }
  | Failed of { reason : string }

type response = {
  job : int;
  query : Query.t;
  batch : int;
  outcome : outcome;
  latency_s : float;
}

let render_outcome = function
  | Done { summary; output_digest; sched_digest; commits; rounds } ->
      Printf.sprintf "ok %s output=%s sched=%s commits=%d rounds=%d" summary
        (D.to_hex output_digest) (D.to_hex sched_digest) commits rounds
  | Rejected { reason } -> "rejected " ^ reason
  | Failed { reason } -> "failed " ^ reason

let render r =
  Printf.sprintf "job=%d query=%s %s" r.job (Query.to_string r.query)
    (render_outcome r.outcome)

type job = { id : int; query : Query.t; sink : Obs.sink; submitted_s : float }

type t = {
  pool : Galois.Pool.t;
  catalog : Catalog.t;
  lanes : int;  (* jobs in flight *)
  max_pending : int;
  global_sink : Obs.sink;
  queue : job Queue.t;
  draining : bool Atomic.t;
  mutable next_job : int;
  mutable batches : int;
  mutable digest : D.t;
  mutable completed : int;
  mutable rejected : int;
  mutable failed : int;
  mutable latencies_rev : float list;
  mutable responses_rev : response list;
}

let create ?threads ?(max_pending = 1024) ?(sink = Obs.null) ~catalog pool =
  let lanes = match threads with Some t -> t | None -> Galois.Pool.size pool in
  if lanes < 1 then invalid_arg "Server.create: threads must be positive";
  if lanes > Galois.Pool.size pool then
    invalid_arg "Server.create: more threads than pool workers";
  if max_pending < 1 then invalid_arg "Server.create: max_pending must be positive";
  {
    pool;
    catalog;
    lanes;
    max_pending;
    global_sink = sink;
    queue = Queue.create ();
    draining = Atomic.make false;
    next_job = 0;
    batches = 0;
    digest = D.seed;
    completed = 0;
    rejected = 0;
    failed = 0;
    latencies_rev = [];
    responses_rev = [];
  }

let pending t = Queue.length t.queue

let record t r =
  t.digest <- D.fold_string t.digest (render r);
  t.responses_rev <- r :: t.responses_rev;
  match r.outcome with
  | Done _ ->
      t.completed <- t.completed + 1;
      t.latencies_rev <- r.latency_s :: t.latencies_rev
  | Rejected _ -> t.rejected <- t.rejected + 1
  | Failed _ ->
      t.failed <- t.failed + 1;
      t.latencies_rev <- r.latency_s :: t.latencies_rev

let submit ?(sink = Obs.null) t query =
  if Atomic.get t.draining then invalid_arg "Server.submit: called while draining";
  let id = t.next_job in
  t.next_job <- id + 1;
  if Queue.length t.queue >= t.max_pending then begin
    let r =
      {
        job = id;
        query;
        batch = t.batches;
        outcome =
          Rejected { reason = Printf.sprintf "queue-full(max=%d)" t.max_pending };
        latency_s = 0.0;
      }
    in
    record t r;
    `Rejected id
  end
  else begin
    Queue.add { id; query; sink; submitted_s = Galois.Clock.now_s () } t.queue;
    `Accepted id
  end

let digest_ints arr = Array.fold_left D.fold_int D.seed arr

(* One query = one det:1 Galois run on the shared pool. Every
   validation failure is detected from catalog metadata, so it renders
   deterministically; a run that raises is caught by [execute]. *)
let run_query t ~sink (q : Query.t) =
  match Catalog.find t.catalog (Query.graph q) with
  | None -> Failed { reason = "unknown-graph" }
  | Some entry -> (
      let g = entry.Catalog.graph in
      let n = Graphlib.Csr.nodes g in
      let policy = Galois.Policy.det 1 in
      let done_ ~summary ~output_digest (report : Galois.Run.report) =
        Done
          {
            summary;
            output_digest;
            sched_digest = report.stats.digest;
            commits = report.stats.commits;
            rounds = report.stats.rounds;
          }
      in
      match q with
      | Query.Bfs { source; _ } ->
          if source < 0 || source >= n then Failed { reason = "source-out-of-range" }
          else
            let dist, report =
              Galois.Run.solve ~policy ~pool:t.pool ~sink (Apps.Bfs.plan g ~source)
            in
            let reached =
              Array.fold_left
                (fun acc d -> if d = Apps.Bfs.unreached then acc else acc + 1)
                0 dist
            in
            done_
              ~summary:(Printf.sprintf "reached=%d" reached)
              ~output_digest:(digest_ints dist) report
      | Query.Sssp { source; _ } -> (
          if source < 0 || source >= n then Failed { reason = "source-out-of-range" }
          else
            (* Weights come from a catalog-side array or the graph's own
               off-heap weight plane (disk-loaded entries); the schedule
               depends on the values only, so the two sources answer
               identically. *)
            let plan =
              match entry.Catalog.weights with
              | Some w -> Some (Apps.Sssp.plan g w ~source)
              | None when Graphlib.Csr.weighted g -> Some (Apps.Sssp.plan_weighted g ~source)
              | None -> None
            in
            match plan with
            | None -> Failed { reason = "graph-has-no-weights" }
            | Some plan ->
                let dist, report = Galois.Run.solve ~policy ~pool:t.pool ~sink plan in
                let reached =
                  Array.fold_left
                    (fun acc d -> if d = Apps.Sssp.unreached then acc else acc + 1)
                    0 dist
                in
                done_
                  ~summary:(Printf.sprintf "reached=%d" reached)
                  ~output_digest:(digest_ints dist) report)
      | Query.Cc _ ->
          if not entry.Catalog.symmetric then
            Failed { reason = "graph-not-symmetric" }
          else
            let labels, report = Galois.Run.solve ~policy ~pool:t.pool ~sink (Apps.Cc.plan g) in
            done_
              ~summary:
                (Printf.sprintf "components=%d" (Apps.Cc.count_components labels))
              ~output_digest:(digest_ints labels) report)

let failed exn = Failed { reason = Printexc.to_string exn }

(* Runs on a lane: the job's outcome, its completion time, and the
   events the global sink is owed, newest first. *)
let execute t (j : job) =
  let owed = ref [] in
  let sink =
    if Obs.Sink.is_null t.global_sink then j.sink
    else Obs.Sink.tee { Obs.emit = (fun e -> owed := e :: !owed); close = ignore } j.sink
  in
  let outcome = try run_query t ~sink j.query with exn -> failed exn in
  (outcome, Galois.Clock.now_s (), !owed)

(* Lane [w] of [lanes] solves jobs until the batch runs out. *)
let lane t jobs results ~lanes ~next w =
  if w < lanes then begin
    let i = ref (Atomic.fetch_and_add next 1) in
    while !i < Array.length jobs do
      results.(!i) <- Some (execute t jobs.(!i));
      i := Atomic.fetch_and_add next 1
    done
  end

(* On the draining domain, in job-id order: replay the job's events
   into the global sink, then record its response. *)
let answer t ~batch (j : job) (outcome, done_s, owed) =
  let outcome =
    match List.iter t.global_sink.Obs.emit (List.rev owed) with
    | () -> outcome
    | exception exn -> failed exn
  in
  let r = { job = j.id; query = j.query; batch; outcome; latency_s = done_s -. j.submitted_s } in
  record t r;
  r

let drain t =
  if Atomic.get t.draining then invalid_arg "Server.drain: called while draining";
  if Queue.is_empty t.queue then []
  else begin
    (* The use-after-shutdown gate, before anything is popped. *)
    let pool = Galois.Pool.domain_pool t.pool in
    let batch = t.batches in
    t.batches <- batch + 1;
    let jobs = Array.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    let results = Array.make (Array.length jobs) None in
    let lanes = min t.lanes (Array.length jobs) and next = Atomic.make 0 in
    Atomic.set t.draining true;
    Fun.protect
      ~finally:(fun () -> Atomic.set t.draining false)
      (fun () ->
        if lanes = 1 then lane t jobs results ~lanes ~next 0
        else Parallel.Domain_pool.run pool (lane t jobs results ~lanes ~next);
        let responses = ref [] in
        Array.iteri
          (fun i j -> responses := answer t ~batch j (Option.get results.(i)) :: !responses)
          jobs;
        List.rev !responses)
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  submitted : int;
  completed : int;
  rejected : int;
  failed : int;
  batches : int;
  pending : int;
  digest : D.t;
}

let stats t =
  {
    submitted = t.next_job;
    completed = t.completed;
    rejected = t.rejected;
    failed = t.failed;
    batches = t.batches;
    pending = pending t;
    digest = t.digest;
  }

let digest (t : t) = t.digest
let responses t = List.rev t.responses_rev

let latencies t =
  let a = Array.of_list t.latencies_rev in
  Array.sort compare a;
  a

let percentile_latency_s t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Server.percentile_latency_s";
  let l = latencies t in
  let n = Array.length l in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    l.(max 0 (min (n - 1) (rank - 1)))
