(* galois-serve: the Galois-as-a-service driver.

   Builds the synthetic catalog once, spawns one persistent domain
   pool, and pushes a mixed bfs/sssp/cc workload through the
   deterministic job server in fixed-size arrival batches; each batch
   runs on up to --threads lanes, one det:1 query per lane at a time.
   Reports queries/sec, latency percentiles and the service digest —
   which is a function of the submission sequence only, so the same
   invocation prints the same digest at any --domains. *)

open Cmdliner

let pp_stats ppf (s : Service.Server.stats) =
  Fmt.pf ppf "submitted=%d completed=%d failed=%d rejected=%d batches=%d"
    s.submitted s.completed s.failed s.rejected s.batches

let run nodes seed requests batch domains threads max_pending trace verbose =
  if nodes < 1 then `Error (false, "--nodes must be >= 1")
  else if requests < 1 then `Error (false, "--requests must be >= 1")
  else if batch < 1 then `Error (false, "--batch must be >= 1")
  else
    try
      (* Global event sink: null unless --trace, so teeing it onto every
         job costs nothing by default. *)
      let sink =
        Obs.Sink.of_list
          (match trace with None -> [] | Some path -> [ Obs.Jsonl.file path ])
      in
      Fun.protect ~finally:(fun () -> Obs.close sink) @@ fun () ->
      Galois.Pool.with_pool ?domains @@ fun pool ->
      let lanes =
        match threads with Some t -> t | None -> Galois.Pool.size pool
      in
      let catalog = Service.Catalog.synthetic ~seed ~nodes () in
      let queries = Detcheck.Service_case.queries ~seed ~nodes ~count:requests in
      let server =
        Service.Server.create ~threads:lanes ~max_pending ~sink ~catalog pool
      in
      let show rs =
        if verbose then
          List.iter (fun r -> Fmt.pr "%s@." (Service.Server.render r)) rs
      in
      let t0 = Galois.Clock.now_s () in
      List.iteri
        (fun i q ->
          ignore (Service.Server.submit server q);
          if (i + 1) mod batch = 0 then show (Service.Server.drain server))
        queries;
      show (Service.Server.drain server);
      let wall_s = Galois.Clock.elapsed_s t0 in
      let stats = Service.Server.stats server in
      let qps =
        if wall_s <= 0.0 then 0.0 else float_of_int stats.completed /. wall_s
      in
      let pct = Service.Server.percentile_latency_s server in
      Fmt.pr "galois-serve: pool=%d lanes=%d det:1 catalog=[%s] %a@."
        (Galois.Pool.size pool) lanes
        (String.concat "," (Service.Catalog.names catalog))
        pp_stats stats;
      Fmt.pr "  wall=%.4fs queries/s=%.1f p50=%.3fms p99=%.3fms digest=%a@."
        wall_s qps
        (pct 50.0 *. 1e3)
        (pct 99.0 *. 1e3)
        Galois.Trace_digest.pp stats.digest;
      `Ok ()
    with Invalid_argument msg | Failure msg -> `Error (false, msg)

let nodes_arg =
  let doc = "Node count of each synthetic catalog graph." in
  Arg.(value & opt int 4_000 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Seed for both the catalog graphs and the query mix." in
  Arg.(value & opt int 2014 & info [ "seed" ] ~docv:"SEED" ~doc)

let requests_arg =
  let doc = "Number of queries to submit." in
  Arg.(value & opt int 500 & info [ "requests" ] ~docv:"N" ~doc)

let batch_arg =
  let doc = "Arrival batch size: drain after every $(docv) submissions." in
  Arg.(value & opt int 64 & info [ "batch" ] ~docv:"B" ~doc)

let domains_arg =
  let doc =
    "Worker pool size (default: the recommended domain count). The response \
     stream is byte-identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D" ~doc)

let threads_arg =
  let doc =
    "Queries in flight: each batch runs on $(docv) lanes, one det:1 query per lane at a \
     time (default: the pool size)."
  in
  Arg.(value & opt (some int) None & info [ "threads" ] ~docv:"T" ~doc)

let max_pending_arg =
  let doc = "Admission-queue capacity; beyond it submissions are rejected." in
  Arg.(value & opt int 1024 & info [ "max-pending" ] ~docv:"Q" ~doc)

let trace_arg =
  let doc = "Tee every job's deterministic event stream to $(docv) (JSONL)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let verbose_arg =
  let doc = "Print every response line as its batch drains." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let cmd =
  let doc = "serve deterministic Galois queries from a persistent domain pool" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads a graph catalog once, keeps a domain pool warm, and answers \
         batches of bfs/sssp/cc queries deterministically: identical \
         submission sequences produce byte-identical responses no matter the \
         pool size or how the arrivals were grouped into batches.";
      `S Manpage.s_examples;
      `P "galois-serve --requests 1000 --batch 64 --domains 4";
      `P "galois-serve --requests 32 --batch 8 --trace serve.jsonl -v";
    ]
  in
  let term =
    Term.(
      ret
        (const run $ nodes_arg $ seed_arg $ requests_arg $ batch_arg
       $ domains_arg $ threads_arg $ max_pending_arg $ trace_arg $ verbose_arg))
  in
  Cmd.v (Cmd.info "galois-serve" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval cmd)
