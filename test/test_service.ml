(* The service layer: the first-class pool (lifecycle, reuse,
   park/idle/wake), the sink combinators it leans on, the query grammar,
   the catalog, and the deterministic job server — byte-identical
   response streams across pool sizes, admission interleavings, and
   (for backpressure) identical submission sequences. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_lines = Alcotest.(check (list string))

let seed = 2014

(* ------------------------------------------------------------------ *)
(* Galois.Pool                                                         *)
(* ------------------------------------------------------------------ *)

let shut_down p =
  match Galois.Pool.domain_pool p with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_pool_lifecycle () =
  let p = Galois.Pool.create ~domains:2 () in
  check_int "size" 2 (Galois.Pool.size p);
  check_bool "live" false (shut_down p);
  Galois.Pool.shutdown p;
  check_bool "down" true (shut_down p);
  (* Idempotent: a second shutdown is a no-op, not an error. *)
  Galois.Pool.shutdown p;
  check_bool "still down" true (shut_down p)

let test_pool_use_after_shutdown () =
  let p = Galois.Pool.create ~domains:2 () in
  Galois.Pool.shutdown p;
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Galois.Pool: pool is shut down") (fun () ->
      ignore (Galois.Pool.domain_pool p));
  let g = Graphlib.Generators.kout ~seed ~n:50 ~k:3 () in
  Alcotest.check_raises "run on a dead pool"
    (Invalid_argument "Galois.Pool: pool is shut down") (fun () ->
      ignore (Galois.Run.solve ~pool:p ~policy:(Galois.Policy.det 2) (Apps.Bfs.plan g ~source:0)))

let test_pool_bad_domains () =
  Alcotest.check_raises "domains=0"
    (Invalid_argument "Galois.Pool.create: domains must be positive") (fun () ->
      ignore (Galois.Pool.create ~domains:0 ()))

let test_with_pool () =
  let size =
    Galois.Pool.with_pool ~domains:3 (fun p ->
        check_bool "live inside" false (shut_down p);
        Galois.Pool.size p)
  in
  check_int "returns the body's value" 3 size

(* A pool left idle between jobs parks its workers; each new job must
   wake them and produce the same deterministic answer. This is the
   serve-loop usage pattern: bursts separated by dead time. *)
let test_pool_idle_wake_stress () =
  let g = Graphlib.Generators.kout ~seed ~n:300 ~k:4 () in
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let run () =
        let dist, report =
          Galois.Run.solve ~pool ~policy:(Galois.Policy.det 2) (Apps.Bfs.plan g ~source:0)
        in
        (Array.to_list dist, Galois.Trace_digest.to_hex report.stats.digest)
      in
      let first = run () in
      for i = 1 to 5 do
        (* Long enough for the spin phase to give up and park. *)
        Unix.sleepf 0.03;
        let again = run () in
        check_bool (Printf.sprintf "wake %d identical" i) true (first = again)
      done)

(* ------------------------------------------------------------------ *)
(* Obs.Sink combinators                                                *)
(* ------------------------------------------------------------------ *)

let stamp event = { Obs.at_s = 0.0; event }
let round_begin r = stamp (Obs.Round_begin { round = r; window = 8 })

let test_sink_tee () =
  let a = Obs.Memory.create () and b = Obs.Memory.create () in
  let s = Obs.Sink.tee (Obs.Memory.sink a) (Obs.Memory.sink b) in
  s.emit (round_begin 1);
  s.emit (round_begin 2);
  Obs.close s;
  check_int "a sees both" 2 (List.length (Obs.Memory.contents a));
  check_int "b sees both" 2 (List.length (Obs.Memory.contents b))

let test_sink_null_collapse () =
  let m = Obs.Memory.create () in
  let s = Obs.Memory.sink m in
  check_bool "tee null left" true (Obs.Sink.tee Obs.null s == s);
  check_bool "tee null right" true (Obs.Sink.tee s Obs.null == s);
  check_bool "tee null null" true
    (Obs.Sink.is_null (Obs.Sink.tee Obs.null Obs.null));
  check_bool "of_list []" true (Obs.Sink.is_null (Obs.Sink.of_list []));
  check_bool "of_list [null; s]" true (Obs.Sink.of_list [ Obs.null; s ] == s);
  (* The null sink swallows everything without error. *)
  Obs.null.emit (round_begin 1);
  Obs.close Obs.null

let test_sink_of_list_fanout () =
  let ms = [ Obs.Memory.create (); Obs.Memory.create (); Obs.Memory.create () ] in
  let s = Obs.Sink.of_list (List.map Obs.Memory.sink ms) in
  s.emit (round_begin 1);
  List.iter (fun m -> check_int "each sees it" 1 (List.length (Obs.Memory.contents m))) ms

(* ------------------------------------------------------------------ *)
(* Service.Query                                                       *)
(* ------------------------------------------------------------------ *)

let test_query_spelling () =
  check_string "bfs" "bfs:kout:7"
    (Service.Query.to_string (Service.Query.Bfs { graph = "kout"; source = 7 }));
  check_string "sssp" "sssp:kout:0"
    (Service.Query.to_string (Service.Query.Sssp { graph = "kout"; source = 0 }));
  check_string "cc" "cc:sym" (Service.Query.to_string (Service.Query.Cc { graph = "sym" }))

(* ------------------------------------------------------------------ *)
(* Service.Catalog                                                     *)
(* ------------------------------------------------------------------ *)

let test_catalog_add_find () =
  let t = Service.Catalog.create () in
  let g = Graphlib.Generators.kout ~seed ~n:40 ~k:3 () in
  let e = Service.Catalog.add t ~name:"g" g in
  check_bool "kout is directed" false e.Service.Catalog.symmetric;
  check_bool "found" true (Service.Catalog.find t "g" <> None);
  check_bool "missing" true (Service.Catalog.find t "nope" = None);
  let sym = Graphlib.Csr.symmetrize g in
  let e2 = Service.Catalog.add t ~name:"s" sym in
  check_bool "symmetrized is symmetric" true e2.Service.Catalog.symmetric;
  check_lines "insertion order" [ "g"; "s" ] (Service.Catalog.names t);
  check_int "size" 2 (List.length (Service.Catalog.names t))

let test_catalog_rejects () =
  let t = Service.Catalog.create () in
  let g = Graphlib.Generators.kout ~seed ~n:40 ~k:3 () in
  ignore (Service.Catalog.add t ~name:"g" g);
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should raise" name
  in
  raises "duplicate" (fun () -> Service.Catalog.add t ~name:"g" g);
  raises "empty name" (fun () -> Service.Catalog.add t ~name:"" g);
  raises "colon in name" (fun () -> Service.Catalog.add t ~name:"a:b" g);
  raises "weight mismatch" (fun () ->
      Service.Catalog.add t ~name:"w" ~weights:[| 1; 2; 3 |] g)

(* ------------------------------------------------------------------ *)
(* Service.Server                                                      *)
(* ------------------------------------------------------------------ *)

let mixed_queries ~count = Detcheck.Service_case.queries ~seed ~nodes:200 ~count

(* Run [count] queries on a fresh pool of [domains] workers, draining
   after every [chunk] submissions; return the rendered response stream
   and the service digest. *)
let serve_session ~domains ~chunk ~count =
  Galois.Pool.with_pool ~domains (fun pool ->
      let catalog = Service.Catalog.synthetic ~seed ~nodes:200 () in
      let server = Service.Server.create ~catalog pool in
      List.iteri
        (fun i q ->
          (match Service.Server.submit server q with
          | `Accepted _ -> ()
          | `Rejected id -> Alcotest.failf "job %d rejected" id);
          if (i + 1) mod chunk = 0 then ignore (Service.Server.drain server))
        (mixed_queries ~count);
      ignore (Service.Server.drain server);
      ( List.map Service.Server.render (Service.Server.responses server),
        Galois.Trace_digest.to_hex (Service.Server.digest server) ))

let test_server_pool_size_invariance () =
  let lines1, d1 = serve_session ~domains:1 ~chunk:6 ~count:18 in
  let lines2, d2 = serve_session ~domains:2 ~chunk:6 ~count:18 in
  check_lines "responses byte-identical across pool sizes" lines1 lines2;
  check_string "service digest" d1 d2

let test_server_interleaving_invariance () =
  let all, d_all = serve_session ~domains:2 ~chunk:18 ~count:18 in
  let chunked, d_chunked = serve_session ~domains:2 ~chunk:5 ~count:18 in
  check_lines "responses byte-identical across batchings" all chunked;
  check_string "service digest" d_all d_chunked

(* Backpressure is a function of queue occupancy only: two identical
   submission sequences agree on which jobs get rejected, and the
   rejections are part of the recorded (and digested) stream. *)
let test_server_backpressure_deterministic () =
  let session () =
    Galois.Pool.with_pool ~domains:1 (fun pool ->
        let catalog = Service.Catalog.synthetic ~seed ~nodes:200 () in
        let server = Service.Server.create ~max_pending:3 ~catalog pool in
        let verdicts =
          List.map
            (fun q ->
              match Service.Server.submit server q with
              | `Accepted _ -> "a"
              | `Rejected _ -> "r")
            (mixed_queries ~count:8)
        in
        ignore (Service.Server.drain server);
        let stats = Service.Server.stats server in
        check_int "rejected" 5 stats.rejected;
        check_int "completed" 3 stats.completed;
        ( String.concat "" verdicts,
          List.map Service.Server.render (Service.Server.responses server),
          Galois.Trace_digest.to_hex (Service.Server.digest server) ))
  in
  let v1, lines1, d1 = session () in
  let v2, lines2, d2 = session () in
  check_string "admission pattern" "aaarrrrr" v1;
  check_string "identical patterns" v1 v2;
  check_lines "identical streams (rejects included)" lines1 lines2;
  check_string "identical digests" d1 d2

(* Two jobs, each with its own ring, under a global ring, on a pool of
   [domains]: returns the three rings' contents. *)
let per_job_session ~domains =
  Galois.Pool.with_pool ~domains (fun pool ->
      let catalog = Service.Catalog.synthetic ~seed ~nodes:150 () in
      let global = Obs.Memory.create () in
      let server = Service.Server.create ~sink:(Obs.Memory.sink global) ~catalog pool in
      let ma = Obs.Memory.create () and mb = Obs.Memory.create () in
      ignore
        (Service.Server.submit ~sink:(Obs.Memory.sink ma) server
           (Service.Query.Bfs { graph = "kout"; source = 0 }));
      ignore
        (Service.Server.submit ~sink:(Obs.Memory.sink mb) server
           (Service.Query.Cc { graph = "sym" }));
      ignore (Service.Server.drain server);
      (Obs.Memory.contents global, Obs.Memory.contents ma, Obs.Memory.contents mb))

let test_server_per_job_sinks () =
  let global, a, b = per_job_session ~domains:2 in
  let ca = List.length a and cb = List.length b in
  check_bool "job A traced" true (ca > 0);
  check_bool "job B traced" true (cb > 0);
  (* Isolation: each job sink saw only its own run; the global sink
     saw both, job A's events before job B's, although the two jobs ran
     on different lanes. *)
  check_int "global = A + B" (ca + cb) (List.length global);
  let lines = Obs.deterministic_lines in
  check_bool "different runs, different streams" true (lines a <> lines b);
  check_string "global = A then B" (lines a ^ lines b) (lines global);
  let global1, _, _ = per_job_session ~domains:1 in
  check_string "global lines pool-size invariant" (lines global1) (lines global);
  (* A lane runs its job at det:1 and never dispatches: no pool waits
     are booked to it. *)
  let counters =
    List.filter_map
      (fun (e : Obs.stamped) ->
        match e.event with Obs.Worker_counters c -> Some c | _ -> None)
      global
  in
  check_int "one worker per job" 2 (List.length counters);
  List.iter
    (fun (c : Obs.counters) ->
      check_int "spins" 0 c.spins;
      check_int "parks" 0 c.parks)
    counters

(* A job whose sink raises is answered [Failed] with the exception's
   rendering; the rest of its batch is answered as in a clean session,
   identically on pools of 1 and 2, and the pool serves the next drain. *)
let test_server_failing_query () =
  let queries = mixed_queries ~count:3 in
  let session ~domains ~faulty =
    Galois.Pool.with_pool ~domains (fun pool ->
        let catalog = Service.Catalog.synthetic ~seed ~nodes:200 () in
        let server = Service.Server.create ~catalog pool in
        let raising =
          {
            Obs.emit =
              (fun e ->
                match e.Obs.event with
                | Obs.Round_begin _ -> failwith "sink gave up"
                | _ -> ());
            close = ignore;
          }
        in
        List.iteri
          (fun i q ->
            let sink = if faulty && i = 1 then raising else Obs.null in
            ignore (Service.Server.submit ~sink server q))
          queries;
        let lines = List.map Service.Server.render (Service.Server.drain server) in
        ignore (Service.Server.submit server (List.hd queries));
        let later = Service.Server.drain server in
        check_int "later drain answers" 1 (List.length later);
        (match (List.hd later).outcome with
        | Service.Server.Done _ -> ()
        | _ -> Alcotest.fail "later drain should succeed");
        lines)
  in
  let clean = session ~domains:1 ~faulty:false in
  let f1 = session ~domains:1 ~faulty:true in
  let f2 = session ~domains:2 ~faulty:true in
  check_int "every job answered" 3 (List.length f1);
  check_string "job 0 as clean" (List.nth clean 0) (List.nth f1 0);
  check_string "job 2 as clean" (List.nth clean 2) (List.nth f1 2);
  check_string "job 1 failed"
    (Printf.sprintf "job=1 query=%s failed Failure(\"sink gave up\")"
       (Service.Query.to_string (List.nth queries 1)))
    (List.nth f1 1);
  check_lines "pool-size invariant" f1 f2

(* A sink that submits while its job runs is refused: its job's id
   would depend on which lane got there first. *)
let test_server_reentrant_submit () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let catalog = Service.Catalog.synthetic ~seed ~nodes:200 () in
      let server = Service.Server.create ~catalog pool in
      (* One sink for three jobs on two lanes: it may be called
         concurrently, so it counts atomically. *)
      let refused = Atomic.make 0 in
      let sink =
        {
          Obs.emit =
            (fun e ->
              match e.Obs.event with
              | Obs.Run_end _ -> (
                  match Service.Server.submit server (Service.Query.Cc { graph = "sym" }) with
                  | _ -> ()
                  | exception Invalid_argument msg ->
                      if msg = "Server.submit: called while draining" then Atomic.incr refused)
              | _ -> ());
          close = ignore;
        }
      in
      List.iter
        (fun q -> ignore (Service.Server.submit ~sink server q))
        (mixed_queries ~count:3);
      let rs = Service.Server.drain server in
      check_int "every submit from a sink refused" 3 (Atomic.get refused);
      List.iter
        (fun (r : Service.Server.response) ->
          match r.outcome with
          | Service.Server.Done _ -> ()
          | _ -> Alcotest.failf "job %d not answered" r.job)
        rs;
      check_int "nothing queued" 0 (Service.Server.pending server);
      check_int "no id taken" 3 (Service.Server.stats server).submitted;
      (* After the drain, submission works again. *)
      match Service.Server.submit server (Service.Query.Cc { graph = "sym" }) with
      | `Accepted id -> check_int "next id" 3 id
      | `Rejected _ -> Alcotest.fail "rejected")

let test_server_failed_outcomes () =
  Galois.Pool.with_pool ~domains:1 (fun pool ->
      let catalog = Service.Catalog.synthetic ~seed ~nodes:100 () in
      let server = Service.Server.create ~catalog pool in
      List.iter
        (fun q -> ignore (Service.Server.submit server q))
        [
          Service.Query.Bfs { graph = "nope"; source = 0 };
          Service.Query.Bfs { graph = "kout"; source = 100 };
          Service.Query.Sssp { graph = "sym"; source = 0 };
          Service.Query.Cc { graph = "kout" };
        ];
      let rs = Service.Server.drain server in
      let reasons =
        List.map
          (fun (r : Service.Server.response) ->
            match r.outcome with
            | Service.Server.Failed { reason } -> reason
            | _ -> Alcotest.failf "job %d should have failed" r.job)
          rs
      in
      check_lines "deterministic validation failures"
        [
          "unknown-graph"; "source-out-of-range"; "graph-has-no-weights";
          "graph-not-symmetric";
        ]
        reasons;
      let stats = Service.Server.stats server in
      check_int "failed" 4 stats.failed;
      check_int "completed" 0 stats.completed)

let test_server_create_rejects () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let catalog = Service.Catalog.synthetic ~seed ~nodes:50 () in
      let raises name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s should raise" name
      in
      raises "threads=0" (fun () ->
          Service.Server.create ~threads:0 ~catalog pool);
      raises "threads > pool" (fun () ->
          Service.Server.create ~threads:3 ~catalog pool);
      raises "max_pending=0" (fun () ->
          Service.Server.create ~max_pending:0 ~catalog pool))

let suite =
  [
    Alcotest.test_case "pool lifecycle" `Quick test_pool_lifecycle;
    Alcotest.test_case "pool use after shutdown raises" `Quick
      test_pool_use_after_shutdown;
    Alcotest.test_case "pool rejects bad domain counts" `Quick
      test_pool_bad_domains;
    Alcotest.test_case "with_pool" `Quick test_with_pool;
    Alcotest.test_case "idle pool wakes deterministically" `Slow
      test_pool_idle_wake_stress;
    Alcotest.test_case "sink tee fans out" `Quick test_sink_tee;
    Alcotest.test_case "sink null collapses" `Quick test_sink_null_collapse;
    Alcotest.test_case "sink of_list fans out" `Quick test_sink_of_list_fanout;
    Alcotest.test_case "query spelling" `Quick test_query_spelling;
    Alcotest.test_case "catalog add/find" `Quick test_catalog_add_find;
    Alcotest.test_case "catalog rejects bad entries" `Quick test_catalog_rejects;
    Alcotest.test_case "server is pool-size invariant" `Slow
      test_server_pool_size_invariance;
    Alcotest.test_case "server is interleaving invariant" `Slow
      test_server_interleaving_invariance;
    Alcotest.test_case "backpressure is deterministic" `Quick
      test_server_backpressure_deterministic;
    Alcotest.test_case "per-job sinks are isolated" `Quick
      test_server_per_job_sinks;
    Alcotest.test_case "failed outcomes are deterministic" `Quick
      test_server_failed_outcomes;
    Alcotest.test_case "a failing query is answered" `Quick test_server_failing_query;
    Alcotest.test_case "submit while draining is refused" `Quick
      test_server_reentrant_submit;
    Alcotest.test_case "server create rejects bad configs" `Quick
      test_server_create_rejects;
  ]
