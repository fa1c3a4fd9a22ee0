(* Determinism-audit driver: one subcommand per check, each failing
   loudly on any divergence.

     detcheck lattice --cases 25 --seed 2014 --apps bfs,sssp,mst,dmr
     detcheck service 120
     detcheck audit --threads 1,2,4
     detcheck trace FILE.jsonl
     detcheck ordered

   Every subcommand runs under `dune runtest` (the aliases in bin/dune),
   so every scheduler change regresses against the paper's claim. *)

(* Each check prints one [ok] or [FAIL] line; [finish] turns the failure
   count into the subcommand's result (exit status 1 on any failure). *)
module Verdict = struct
  type t = { cmd : string; mutable failures : int }

  let start cmd = { cmd; failures = 0 }
  let pass fmt = Fmt.pr ("ok    " ^^ fmt ^^ "@.")

  let fail v fmt =
    v.failures <- v.failures + 1;
    Fmt.pr ("FAIL  " ^^ fmt ^^ "@.")

  let check v ok name = if ok then pass "%s" name else fail v "%s" name

  let finish ?note v =
    if v.failures = 0 then begin
      (match note with
      | None -> Fmt.pr "detcheck %s: all passed@." v.cmd
      | Some n -> Fmt.pr "detcheck %s: all passed (%s)@." v.cmd n);
      `Ok ()
    end
    else `Error (false, Printf.sprintf "%s: %d failure(s)" v.cmd v.failures)
end

(* lattice: the table row of every --apps name and [cases] generated
   rows over the configuration lattice, then the positive controls
   proving the digests can diverge at all. An unknown app name is
   reported as a failure in place. *)
let run_lattice ~cases ~seed ~apps ~threads ~size ~points ~verbose =
  let v = Verdict.start "lattice" in
  let total_runs = ref 0 in
  (* A failing row prints one line, so that dune's cut of a long log
     keeps every row's FAIL header: the first divergence that names a
     differing line (else the first), and how many more there are. *)
  let audit row =
    let report = Detcheck.check_invariance ~threads row in
    total_runs := !total_runs + report.Detcheck.runs;
    match report.Detcheck.divergences with
    | [] when verbose -> Verdict.pass "%a" Detcheck.pp_report report
    | [] -> Verdict.pass "%s (%d runs)" report.Detcheck.case_name report.Detcheck.runs
    | _ when verbose -> Verdict.fail v "%a" Detcheck.pp_report report
    | d :: _ as ds ->
        let d =
          Option.value ~default:d
            (List.find_opt (fun (d : Detcheck.divergence) -> d.first_line <> None) ds)
        in
        Verdict.fail v "%a (+%d more divergence(s); -v lists them)" Detcheck.pp_divergence d
          (List.length ds - 1)
  in
  List.iter
    (fun name ->
      match Detcheck.Replay_cases.of_app name ~n:size ~points ~seed with
      | Ok row -> audit row
      | Error msg -> Verdict.fail v "%s" msg)
    apps;
  for i = 0 to cases - 1 do
    audit (Detcheck.Replay_cases.gen ~seed:(seed + i))
  done;
  audit (Detcheck.Replay_cases.gen_repeated ~seed);
  List.iter
    (fun policy ->
      Verdict.check v (Detcheck.seeds_distinguished ~seed policy)
        ("positive control: seed perturbation diverges under "
        ^ Galois.Policy.to_string policy))
    [ Galois.Policy.det 2; Galois.Policy.nondet 2 ];
  (* Bucket-assignment control: priority-salt perturbation must move the
     ordered schedule and must not move the unordered one. *)
  Verdict.check v
    (Detcheck.prio_salt_distinguished ~seed ())
    "positive control: priority salt moves ordered schedules only";
  Verdict.finish v ~note:(Printf.sprintf "%d lattice runs" !total_runs)

(* service: byte-compare the response stream of a mixed query batch
   across pool sizes and admission interleavings. *)
let run_service ~count ~seed ~threads ~size =
  let v = Verdict.start "service" in
  let report =
    Detcheck.Service_case.check ~pool_sizes:threads ~count ~nodes:size ~seed ()
  in
  if Detcheck.ok report then
    Verdict.pass "%s (%d sessions byte-identical)" report.Detcheck.case_name
      report.Detcheck.runs
  else Verdict.fail v "%a" Detcheck.pp_report report;
  Verdict.finish v

(* audit: dynamic neighborhood/race audit. Every Run-based benchmark
   executes with the shadow access recorder on — its report must be
   clean at every thread count (cautiousness, containment, and
   intra-round disjointness, acquires counting as writes) — then the two
   deliberately broken operators run as positive controls, whose witness
   findings must be flagged verbatim with (rule, round, task). *)
let run_audit ~seed ~threads ~size ~points ~verbose =
  let v = Verdict.start "audit" in
  let tlist = String.concat "," (List.map string_of_int threads) in
  let tmax = List.fold_left max 1 threads in
  let show tag = List.iter (fun f -> Fmt.pr "      %s%a@." tag Galois.Audit.pp_finding f) in
  (* One row at every thread count. [run] returns the report and the
     findings it was wrong about: any finding of an app, the unflagged
     witnesses of a control. *)
  let sweep what name ~passed run =
    let before = v.failures in
    List.iter
      (fun t ->
        let (report : Galois.Audit.report), wrong = run ~policy:(Galois.Policy.det t) in
        if wrong <> [] then begin
          Verdict.fail v "%s %s det:%d: %d finding(s), %d wrong" what name t
            (List.length report.findings) (List.length wrong);
          show "wrong " wrong;
          show "got   " (List.filter (fun f -> not (List.mem f wrong)) report.findings)
        end
        else if verbose then begin
          Verdict.pass "%s %s det:%d (%d rounds, %d tasks, %d finding(s))" what name t
            report.rounds report.tasks (List.length report.findings);
          show "" report.findings
        end)
      threads;
    if v.failures = before && not verbose then
      Verdict.pass "%s %s %s at det:{%s}" what name passed tlist
  in
  Parallel.Domain_pool.with_pool tmax (fun pool ->
      List.iter
        (fun (c : Detcheck.Audit_cases.t) ->
          sweep "audit" c.name ~passed:"clean" (fun ~policy ->
              let report = c.run ~policy ~pool in
              (report, report.Galois.Audit.findings)))
        (Detcheck.Audit_cases.apps ~n:size ~points ~seed);
      List.iter
        (fun (c : Detcheck.Audit_cases.control) ->
          sweep "control" c.cname ~passed:"flagged" (fun ~policy ->
              let report, witnesses = c.crun ~policy ~pool in
              let report = Option.get report.Galois.Run.audit in
              (report, List.filter (fun w -> not (List.mem w report.findings)) witnesses)))
        (Detcheck.Audit_cases.controls ~n:size ~seed));
  Verdict.finish v

(* trace: every line of a JSONL observability trace must parse as
   exactly one known event with the right fields and types
   (Obs.Jsonl.load), and the trace must not be empty. *)
let run_trace path =
  let v = Verdict.start "trace" in
  (match Obs.Jsonl.load path with
  | Error msg -> Verdict.fail v "%s" msg
  | Ok [] -> Verdict.fail v "%s: empty trace" path
  | Ok events ->
      let det = List.filter (fun (s : Obs.stamped) -> Obs.deterministic s.event) events in
      Verdict.pass "%s: %d events (%d deterministic)" path (List.length events)
        (List.length det));
  Verdict.finish v

(* ordered: sssp on a weighted R-MAT graph under the soft-priority
   (delta-stepping bucket) scheduler. prio=auto must produce exactly the
   prio=off distances (both equal to Dijkstra), each policy's schedule
   digest must be thread-count invariant, a prio=auto run crashed at its
   midpoint at det:2 and resumed at det:4 must match the uninterrupted
   run, and the ordered run must cut work_units by at least
   [ordered_min_drop] percent versus the unordered one — the
   delta-stepping payoff. *)
let ordered_scale = 13
let ordered_min_drop = 25.0

let run_ordered () =
  let module D = Galois.Trace_digest in
  let v = Verdict.start "ordered" in
  let det ?(priority = Galois.Policy.Prio_off) threads =
    Galois.Policy.det ~options:(Galois.Policy.Det_options.make ~priority ()) threads
  in
  let g =
    Graphlib.Graph_io.attach_random_weights ~seed:2015 ~max_weight:100
      (Graphlib.Generators.rmat ~seed:2014 ~scale:ordered_scale ~edge_factor:8 ())
  in
  let weights =
    match Graphlib.Csr.weights_array g with Some w -> w | None -> assert false
  in
  let reference = Apps.Sssp.serial g weights ~source:0 in
  let run_sssp policy =
    let dist, report = Galois.Run.solve ~policy (Apps.Sssp.plan_weighted g ~source:0) in
    (dist, report.Galois.Run.stats)
  in
  Fmt.pr "sssp: weighted rmat scale=%d (%d nodes, %d edges)@." ordered_scale
    (Graphlib.Csr.nodes g) (Graphlib.Csr.edges g);
  let dist_off, off4 = run_sssp (det 4) in
  let _, off1 = run_sssp (det 1) in
  let dist_auto, auto4 = run_sssp (det ~priority:Galois.Policy.Prio_auto 4) in
  let _, auto1 = run_sssp (det ~priority:Galois.Policy.Prio_auto 1) in
  let _, auto2 = run_sssp (det ~priority:Galois.Policy.Prio_auto 2) in
  (* Crash a det:2 run at its midpoint and resume it at det:4 — the
     boundary carries a bucket width. *)
  let at = max 1 (auto2.rounds / 2) in
  let crash =
    Replay.crash_resume ~resume_policy:(det ~priority:Galois.Policy.Prio_auto 4) ~at
      (fst (Apps.Sssp.plan_weighted g ~source:0)
      |> Galois.Run.policy (det ~priority:Galois.Policy.Prio_auto 2))
  in
  let resumed = crash.resumed.stats in
  Verdict.check v (dist_off = reference) "prio=off distances match Dijkstra";
  Verdict.check v (dist_auto = reference) "prio=auto distances match Dijkstra";
  Verdict.check v (D.equal off4.digest off1.digest) "prio=off digest thread-invariant";
  Verdict.check v
    (D.equal auto4.digest auto1.digest && D.equal auto4.digest auto2.digest)
    "prio=auto digest thread-invariant (1,2,4)";
  Verdict.check v (auto4.buckets > 0 && off4.buckets = 0) "prio=auto actually bucketizes";
  Verdict.check v
    (crash.crash_round = at
    && D.equal resumed.digest auto2.digest
    && resumed.rounds = auto2.rounds
    && resumed.buckets = auto2.buckets)
    (Printf.sprintf
       "prio=auto crash at round %d (det:2), resume at det:4: digest, rounds, buckets equal" at);
  Verdict.check v
    (not (D.equal off4.digest auto4.digest))
    "prio=off and prio=auto schedules differ";
  let drop =
    100.0 *. (1.0 -. (float_of_int auto4.work_units /. float_of_int off4.work_units))
  in
  Verdict.check v (drop >= ordered_min_drop)
    (Printf.sprintf "work_units off=%d auto=%d: drop %.1f%% meets the %.0f%% floor"
       off4.work_units auto4.work_units drop ordered_min_drop);
  Verdict.finish v

open Cmdliner

let cases_arg =
  let doc = "Number of fuzz-generated operator cases." in
  Arg.(value & opt int 25 & info [ "cases" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Base seed: case $(i,i) uses seed + i, so any case is reproducible alone." in
  Arg.(value & opt int 2014 & info [ "seed" ] ~docv:"SEED" ~doc)

let apps_arg =
  let doc =
    "Comma-separated rows of the app table to check (bfs | sssp | cc | mst | mis | triangles \
     | pagerank | dt | dmr | kcore); empty to skip."
  in
  let parse s =
    Ok (List.filter (fun x -> x <> "") (String.split_on_char ',' (String.trim s)))
  in
  let apps_conv = Arg.conv (parse, fun ppf l -> Fmt.pf ppf "%s" (String.concat "," l)) in
  Arg.(value & opt apps_conv [ "bfs"; "sssp"; "mst"; "dmr" ] & info [ "apps" ] ~docv:"APPS" ~doc)

let threads_arg =
  let doc =
    "Comma-separated thread counts (pool sizes for $(b,service))."
  in
  let parse s =
    match List.map int_of_string (String.split_on_char ',' s) with
    | exception Failure _ -> Error (`Msg (Printf.sprintf "bad thread list %S" s))
    | l when List.for_all (fun t -> t > 0) l -> Ok l
    | _ -> Error (`Msg "thread counts must be positive")
  in
  let threads_conv =
    Arg.conv (parse, fun ppf l -> Fmt.pf ppf "%s" (String.concat "," (List.map string_of_int l)))
  in
  Arg.(
    value
    & opt threads_conv Detcheck.default_threads
    & info [ "threads" ] ~docv:"T,T,..." ~doc)

let size_arg =
  let doc = "Graph size (nodes) for the graph benchmarks and the service catalog." in
  Arg.(value & opt int 400 & info [ "n"; "size" ] ~docv:"N" ~doc)

let points_arg =
  let doc = "Point count for the dmr benchmark." in
  Arg.(value & opt int 110 & info [ "points" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc =
    "Print full per-case reports: every divergence of a failing row, not just its first."
  in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let lattice_cmd =
  let doc = "sweep the configuration lattice over the benchmarks and fuzz cases" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Sweeps every table row over a configuration lattice (thread counts x initial \
         windows x locality spread x continuation x static ids x priority bucketing) and \
         compares round-trace digests, output digests and the deterministic observability \
         event stream (timing events stripped, byte for byte) across the sweep; a \
         differing stream is reported at its first differing line and round. Any divergence \
         falsifies the paper's claim that deterministic output is a function of the input \
         alone. Lattice configurations correspond to policy strings like \
         det:T[window=8,spread=1] (see galois-run --policy). Positive controls then check \
         that seed and priority-salt perturbations do move the digests.";
    ]
  in
  Cmd.v (Cmd.info "lattice" ~doc ~man)
    Term.(
      ret
        (const (fun cases seed apps threads size points verbose ->
             run_lattice ~cases ~seed ~apps ~threads ~size ~points ~verbose)
        $ cases_arg $ seed_arg $ apps_arg $ threads_arg $ size_arg $ points_arg
        $ verbose_arg))

let service_cmd =
  let doc = "byte-compare a mixed query batch across pool sizes and interleavings" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs $(i,N) bfs/sssp/cc queries against the synthetic catalog once per (pool \
         size x admission interleaving): responses, per-job event streams and the service \
         digest must be byte-identical across the $(b,--threads) pool sizes and across \
         one-batch and uneven arrival batching.";
    ]
  in
  let count_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Number of queries.")
  in
  Cmd.v (Cmd.info "service" ~doc ~man)
    Term.(
      ret
        (const (fun count seed threads size ->
             if count < 1 then `Error (false, "N must be >= 1")
             else run_service ~count ~seed ~threads ~size)
        $ count_arg $ seed_arg $ threads_arg $ size_arg))

let audit_cmd =
  let doc = "dynamic neighborhood/race audit with positive controls" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs every Run-based benchmark with the shadow access recorder on (reports must \
         be clean — cautious, contained, intra-round disjoint — at every $(b,--threads) \
         count), then two deliberately broken operators as positive controls whose \
         findings must be localized to (rule, round, task).";
    ]
  in
  Cmd.v (Cmd.info "audit" ~doc ~man)
    Term.(
      ret
        (const (fun seed threads size points verbose ->
             run_audit ~seed ~threads ~size ~points ~verbose)
        $ seed_arg $ threads_arg $ size_arg $ points_arg $ verbose_arg))

let trace_cmd =
  let doc = "validate a JSONL observability trace against the event schema" in
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "trace" ~doc) Term.(ret (const run_trace $ file))

let ordered_cmd =
  let doc = "soft-priority sssp: Dijkstra equality, invariant digests, work-unit drop" in
  Cmd.v (Cmd.info "ordered" ~doc) Term.(ret (const run_ordered $ const ()))

let cmd =
  let doc = "audit the determinism claims of the DIG scheduler" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each subcommand runs one family of checks, prints an ok or FAIL line per check \
         and exits 1 if any check failed.";
      `S Manpage.s_examples;
      `P "detcheck lattice --cases 25 --seed 2014";
      `P "detcheck lattice --apps dmr --cases 0 --threads 1,3,5 -v";
      `P "detcheck service 120 --size 300";
      `P "detcheck audit --size 300 --threads 1,2,4";
      `P "detcheck trace trace.jsonl";
      `P "detcheck ordered";
    ]
  in
  Cmd.group
    (Cmd.info "detcheck" ~version:"1.0.0" ~doc ~man)
    [ lattice_cmd; service_cmd; audit_cmd; trace_cmd; ordered_cmd ]

let () = exit (Cmd.eval ~term_err:1 cmd)
