(* The deterministic job server.

   Determinism at the service boundary (Aviram & Ford): an identical
   sequence of submissions must produce byte-identical responses no
   matter how large the worker pool is or how the submissions were
   grouped into arrival batches. The mechanisms:

   - job ids are assigned in submission order and are the only ordering
     the server ever uses;
   - [drain] executes one arrival batch — everything pending — in job-id
     order, each job as one deterministic Galois run on the shared
     pool (jobs are serialized; parallelism lives *inside* each run,
     where the DIG scheduler makes it schedule-deterministic);
   - rendered responses exclude everything timing-dependent (latency,
     batch number), so the response stream and the digest folded over
     it are functions of the submission sequence alone;
   - backpressure is deterministic: a submission is rejected iff the
     queue already holds [max_pending] jobs — a function of queue
     occupancy, never of wall-clock.

   Across *different* interleavings (the same jobs grouped into
   different arrival batches) the responses are still byte-identical as
   long as nothing is rejected, because execution order is id order
   either way; detcheck's service case checks exactly that. *)

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
  threads : int;
  max_pending : int;
  global_sink : Obs.sink;
  queue : job Queue.t;
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
  let threads = match threads with Some t -> t | None -> Galois.Pool.size pool in
  if threads < 1 then invalid_arg "Server.create: threads must be positive";
  if threads > Galois.Pool.size pool then
    invalid_arg "Server.create: more threads than pool workers";
  if max_pending < 1 then invalid_arg "Server.create: max_pending must be positive";
  {
    pool;
    catalog;
    threads;
    max_pending;
    global_sink = sink;
    queue = Queue.create ();
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

(* One query = one deterministic Galois run on the shared pool. Every
   failure mode is detected from catalog metadata (never by catching
   timing-dependent exceptions), so failures render deterministically
   too. *)
let run_query t ~sink (q : Query.t) =
  match Catalog.find t.catalog (Query.graph q) with
  | None -> Failed { reason = "unknown-graph" }
  | Some entry -> (
      let g = entry.Catalog.graph in
      let n = Graphlib.Csr.nodes g in
      let policy = Galois.Policy.det t.threads in
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
              Apps.Bfs.galois ~policy ~pool:t.pool ~sink g ~source
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
            let run =
              match entry.Catalog.weights with
              | Some w -> Some (fun () -> Apps.Sssp.galois ~policy ~pool:t.pool ~sink g w ~source)
              | None when Graphlib.Csr.weighted g ->
                  Some (fun () -> Apps.Sssp.galois_weighted ~policy ~pool:t.pool ~sink g ~source)
              | None -> None
            in
            match run with
            | None -> Failed { reason = "graph-has-no-weights" }
            | Some run ->
                let dist, report = run () in
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
            let labels, report = Apps.Cc.galois ~policy ~pool:t.pool ~sink g in
            done_
              ~summary:
                (Printf.sprintf "components=%d" (Apps.Cc.count_components labels))
              ~output_digest:(digest_ints labels) report)

let execute t ~batch (j : job) =
  let sink = Obs.Sink.tee t.global_sink j.sink in
  let outcome = run_query t ~sink j.query in
  let latency_s = Galois.Clock.now_s () -. j.submitted_s in
  { job = j.id; query = j.query; batch; outcome; latency_s }

let drain t =
  if Queue.is_empty t.queue then []
  else begin
    let batch = t.batches in
    t.batches <- batch + 1;
    (* Snapshot the batch size first: jobs admitted while this batch
       executes belong to the next one. *)
    let count = Queue.length t.queue in
    let responses = ref [] in
    for _ = 1 to count do
      let j = Queue.pop t.queue in
      let r = execute t ~batch j in
      record t r;
      responses := r :: !responses
    done;
    List.rev !responses
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
