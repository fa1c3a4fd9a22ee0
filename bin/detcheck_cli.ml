(* Determinism-audit driver: one subcommand per check, each failing
   loudly on any divergence.

     detcheck lattice --cases 25 --seed 2014 --apps bfs,sssp,mst,dmr
     detcheck service 120
     detcheck audit --threads 1,2,4
     detcheck lockstep --cases 5 --every 2 --threads 2,4
     detcheck trace FILE.jsonl
     detcheck replay FULL.sched RESUMED.sched
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

(* Run [f] on the table row of every --apps name; an unknown name is
   reported as a failure in place. *)
let iter_apps v ~size ~points ~seed apps f =
  List.iter
    (fun name ->
      match Detcheck.Replay_cases.of_app name ~n:size ~points ~seed with
      | Ok case -> f case
      | Error msg -> Verdict.fail v "%s" msg)
    apps

(* lattice: every case over the configuration lattice, then the positive
   controls proving the digests can diverge at all. *)
let run_lattice ~cases ~seed ~apps ~threads ~size ~points ~verbose =
  let v = Verdict.start "lattice" in
  let total_runs = ref 0 in
  let audit case =
    let report = Detcheck.check_invariance ~threads case in
    total_runs := !total_runs + report.Detcheck.runs;
    if not (Detcheck.ok report) then Verdict.fail v "%a" Detcheck.pp_report report
    else if verbose then Verdict.pass "%a" Detcheck.pp_report report
    else Verdict.pass "%s (%d runs)" report.Detcheck.case_name report.Detcheck.runs
  in
  iter_apps v ~size ~points ~seed apps (fun case ->
      audit (Detcheck.App_cases.of_replay case));
  for i = 0 to cases - 1 do
    audit (Detcheck.Gen.case ~seed:(seed + i))
  done;
  List.iter
    (fun policy ->
      Verdict.check v
        (Detcheck.seeds_distinguished ~gen:(fun s -> Detcheck.Gen.case ~seed:s) ~seed policy)
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
  Galois.Pool.with_pool ~domains:tmax (fun pool ->
      List.iter
        (fun (c : Detcheck.Audit_cases.t) ->
          let before = v.failures in
          List.iter
            (fun t ->
              let report = c.run ~policy:(Galois.Policy.det t) ~pool in
              if Galois.Audit.clean report then begin
                if verbose then
                  Verdict.pass "audit %s det:%d (%d rounds, %d tasks)" c.name t
                    report.Galois.Audit.rounds report.Galois.Audit.tasks
              end
              else begin
                Verdict.fail v "audit %s det:%d: %d finding(s)" c.name t
                  (List.length report.Galois.Audit.findings);
                List.iter
                  (fun f -> Fmt.pr "      %a@." Galois.Audit.pp_finding f)
                  report.Galois.Audit.findings
              end)
            threads;
          if v.failures = before && not verbose then
            Verdict.pass "audit %s clean at det:{%s}" c.name tlist)
        (Detcheck.Audit_cases.apps ~n:size ~points ~seed);
      List.iter
        (fun (c : Detcheck.Audit_cases.control) ->
          let before = v.failures in
          List.iter
            (fun t ->
              let report, witnesses = c.crun ~policy:(Galois.Policy.det t) ~pool in
              let missing =
                List.filter
                  (fun w -> not (List.mem w report.Galois.Audit.findings))
                  witnesses
              in
              if missing <> [] then begin
                Verdict.fail v "control %s det:%d: expected finding(s) not flagged" c.cname t;
                List.iter (fun f -> Fmt.pr "      want %a@." Galois.Audit.pp_finding f) missing;
                List.iter
                  (fun f -> Fmt.pr "      got  %a@." Galois.Audit.pp_finding f)
                  report.Galois.Audit.findings
              end
              else if verbose then begin
                Verdict.pass "control %s det:%d flagged (%d finding(s))" c.cname t
                  (List.length report.Galois.Audit.findings);
                List.iter
                  (fun f -> Fmt.pr "      %a@." Galois.Audit.pp_finding f)
                  report.Galois.Audit.findings
              end)
            threads;
          if v.failures = before && not verbose then
            Verdict.pass "control %s flagged at det:{%s}" c.cname tlist)
        (Detcheck.Audit_cases.controls ~n:size ~seed));
  Verdict.finish v

(* lockstep: dual-modular-redundancy-style verification. Run every case
   twice — two fresh worlds, two thread counts — with a digest
   checkpoint every K rounds, and cross-check the trails: the verdict
   localizes any divergence to the first differing round boundary
   instead of merely failing on the final digest. *)
let run_lockstep ~cases ~seed ~apps ~threads ~size ~points ~every ~verbose =
  let ta, tb =
    match threads with
    | a :: b :: _ -> (a, b)
    | [ a ] -> (a, a + 1)
    | [] -> (2, 4)
  in
  let v = Verdict.start "lockstep" in
  let boundaries = ref 0 in
  let audit (Detcheck.Replay_cases.Case c) =
    let collect t =
      let run, out = c.fresh ~static_id:false () in
      let trail, report =
        Replay.Lockstep.collect ~every
          (run |> Galois.Run.policy (Galois.Policy.det t))
      in
      (trail, report.Galois.Run.stats, c.output_digest (out ()))
    in
    let trail_a, stats_a, out_a = collect ta in
    let trail_b, stats_b, out_b = collect tb in
    let verdict = Replay.Lockstep.first_divergence trail_a trail_b in
    let final_agree =
      Galois.Trace_digest.equal stats_a.Galois.Stats.digest stats_b.Galois.Stats.digest
      && Galois.Trace_digest.equal out_a out_b
      && stats_a.Galois.Stats.rounds = stats_b.Galois.Stats.rounds
    in
    (match verdict with
    | Replay.Lockstep.Agree { compared } -> boundaries := !boundaries + compared
    | _ -> ());
    match (verdict, final_agree) with
    | Replay.Lockstep.Diverge _, _ ->
        Verdict.fail v "%s (det:%d vs det:%d): %a" c.name ta tb Replay.Lockstep.pp_verdict
          verdict
    | _, false ->
        Verdict.fail v
          "%s (det:%d vs det:%d): final state diverged (sched %a vs %a, output %a vs %a, \
           rounds %d vs %d) yet no checkpoint caught it"
          c.name ta tb Galois.Trace_digest.pp stats_a.Galois.Stats.digest
          Galois.Trace_digest.pp stats_b.Galois.Stats.digest Galois.Trace_digest.pp out_a
          Galois.Trace_digest.pp out_b stats_a.Galois.Stats.rounds
          stats_b.Galois.Stats.rounds
    | _, true ->
        if verbose then
          Verdict.pass "%s (det:%d vs det:%d): %a, final digest %a" c.name ta tb
            Replay.Lockstep.pp_verdict verdict Galois.Trace_digest.pp
            stats_a.Galois.Stats.digest
        else Verdict.pass "%s: %a" c.name Replay.Lockstep.pp_verdict verdict
  in
  iter_apps v ~size ~points ~seed apps audit;
  for i = 0 to cases - 1 do
    audit (Detcheck.Replay_cases.gen ~seed:(seed + i))
  done;
  Verdict.finish v ~note:(Printf.sprintf "%d boundaries cross-checked" !boundaries)

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

let read_lines path =
  try Ok (In_channel.with_open_text path In_channel.input_lines)
  with Sys_error msg ->
    (* open errors name the path, read errors (a directory) do not *)
    Error (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg)

(* replay: the schedule dump of a checkpoint/resume run must be the
   suffix of an uninterrupted run's dump, digest trailer included. *)
let run_replay full_path resumed_path =
  let v = Verdict.start "replay" in
  (match (read_lines full_path, read_lines resumed_path) with
  | Error msg, _ | _, Error msg -> Verdict.fail v "%s" msg
  | Ok full, Ok resumed -> (
      match Detcheck.Schedule_dump.check_suffix ~full ~resumed with
      | Ok rounds ->
          Verdict.pass "%s is the suffix of %s (%d rounds)" resumed_path full_path rounds
      | Error problems -> List.iter (Verdict.fail v "%s") problems));
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
    let dist, report = Apps.Sssp.galois_weighted ~policy g ~source:0 in
    (dist, report.Galois.Run.stats)
  in
  Fmt.pr "sssp: weighted rmat scale=%d (%d nodes, %d edges)@." ordered_scale
    (Graphlib.Csr.nodes g) (Graphlib.Csr.edges g);
  let dist_off, off4 = run_sssp (det 4) in
  let _, off1 = run_sssp (det 1) in
  let dist_auto, auto4 = run_sssp (det ~priority:Galois.Policy.Prio_auto 4) in
  let _, auto1 = run_sssp (det ~priority:Galois.Policy.Prio_auto 1) in
  let _, auto2 = run_sssp (det ~priority:Galois.Policy.Prio_auto 2) in
  (* Crash a det:2 run at its midpoint, taking the one boundary there,
     and resume it at det:4 — the boundary carries a bucket width. *)
  let at = max 1 (auto2.rounds / 2) in
  let crashed =
    fst (Apps.Sssp.plan_weighted g ~source:0)
    |> Galois.Run.policy (det ~priority:Galois.Policy.Prio_auto 2)
  in
  let boundary = ref None in
  ignore
    (crashed
    |> Galois.Run.checkpoint_every at
    |> Galois.Run.on_checkpoint (fun snap -> boundary := Some snap.Galois.Snapshot.boundary)
    |> Galois.Run.stop_after at
    |> Galois.Run.exec);
  let resumed =
    Option.map
      (fun b ->
        (crashed
        |> Galois.Run.policy (det ~priority:Galois.Policy.Prio_auto 4)
        |> Galois.Run.resume b
        |> Galois.Run.exec)
          .stats)
      !boundary
  in
  Verdict.check v (dist_off = reference) "prio=off distances match Dijkstra";
  Verdict.check v (dist_auto = reference) "prio=auto distances match Dijkstra";
  Verdict.check v (D.equal off4.digest off1.digest) "prio=off digest thread-invariant";
  Verdict.check v
    (D.equal auto4.digest auto1.digest && D.equal auto4.digest auto2.digest)
    "prio=auto digest thread-invariant (1,2,4)";
  Verdict.check v (auto4.buckets > 0 && off4.buckets = 0) "prio=auto actually bucketizes";
  Verdict.check v
    (match resumed with
    | Some r ->
        D.equal r.digest auto2.digest && r.rounds = auto2.rounds && r.buckets = auto2.buckets
    | None -> false)
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
  let doc = "Comma-separated benchmarks to audit (bfs | sssp | mst | dmr); empty to skip." in
  let parse s =
    Ok (List.filter (fun x -> x <> "") (String.split_on_char ',' (String.trim s)))
  in
  let apps_conv = Arg.conv (parse, fun ppf l -> Fmt.pf ppf "%s" (String.concat "," l)) in
  Arg.(value & opt apps_conv [ "bfs"; "sssp"; "mst"; "dmr" ] & info [ "apps" ] ~docv:"APPS" ~doc)

let threads_arg =
  let doc =
    "Comma-separated thread counts (pool sizes for $(b,service); $(b,lockstep) pairs the \
     first two)."
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
  let doc = "Print full per-case reports." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let every_arg =
  let doc = "Checkpoint cadence (rounds) of the digest cross-checks." in
  Arg.(value & opt int 4 & info [ "every" ] ~docv:"K" ~doc)

let file_arg i docv = Arg.(required & pos i (some string) None & info [] ~docv)

let lattice_cmd =
  let doc = "sweep the configuration lattice over the benchmarks and fuzz cases" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Sweeps every case over a configuration lattice (thread counts x initial windows x \
         locality spread x continuation x static ids x priority bucketing) and compares \
         round-trace digests, output digests and the deterministic observability event \
         stream (timing events stripped, byte for byte) across the sweep. Any divergence \
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

let lockstep_cmd =
  let doc = "dual-run digest cross-checks with divergence localization" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Dual-modular-redundancy-style verification: runs each case twice at the first \
         two thread counts of $(b,--threads), cross-checks digests at every \
         $(b,--every)-th round boundary and reports the first divergent round instead of \
         only the final digest.";
    ]
  in
  Cmd.v (Cmd.info "lockstep" ~doc ~man)
    Term.(
      ret
        (const (fun cases seed apps threads size points every verbose ->
             if every < 1 then `Error (false, "--every must be >= 1")
             else run_lockstep ~cases ~seed ~apps ~threads ~size ~points ~every ~verbose)
        $ cases_arg $ seed_arg $ apps_arg $ threads_arg $ size_arg $ points_arg $ every_arg
        $ verbose_arg))

let trace_cmd =
  let doc = "validate a JSONL observability trace against the event schema" in
  Cmd.v (Cmd.info "trace" ~doc) Term.(ret (const run_trace $ file_arg 0 "FILE"))

let replay_cmd =
  let doc =
    "check that a resumed run's $(b,galois-run --schedule-out) dump is the suffix of the \
     full run's"
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(ret (const run_replay $ file_arg 0 "FULL" $ file_arg 1 "RESUMED"))

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
      `P "detcheck lockstep --cases 5 --every 2 --threads 2,4";
      `P "detcheck trace trace.jsonl";
      `P "detcheck replay full.sched resumed.sched";
      `P "detcheck ordered";
    ]
  in
  Cmd.group
    (Cmd.info "detcheck" ~version:"1.0.0" ~doc ~man)
    [ lattice_cmd; service_cmd; audit_cmd; lockstep_cmd; trace_cmd; replay_cmd; ordered_cmd ]

let () = exit (Cmd.eval ~term_err:1 cmd)
