(* The command-line driver: run any benchmark under any execution
   policy. This is the paper's on-demand determinism in practice — the
   application code is fixed; [--policy serial|nondet:T|det:T[k=v,...]]
   picks the scheduler at run time, and [--trace FILE] streams the
   runtime's observability events (lib/obs) to a JSONL file.

   The checkpoint/replay flags (--checkpoint, --resume, --replay-to,
   --crash-resume, --schedule-out) drive det-policy runs of
   bfs | sssp | mst | dmr through the replay harness instead of the
   plain benchmark path. *)

module D = Galois.Trace_digest

(* A run's wall time is the driver's to measure: [Stats.t] holds counts
   only, and the per-phase split is in a --trace file
   (galois-figures --phase-breakdown). *)
let timed f =
  let t0 = Galois.Clock.now_s () in
  let v = f () in
  (v, Galois.Clock.elapsed_s t0)

let pp_stats name ~policy ~wall_s stats =
  Fmt.pr "%s (%a):@." name Galois.Policy.pp policy;
  Fmt.pr "  %a time=%.4fs@." Galois.Stats.pp stats wall_s

type replay_opts = {
  checkpoint : string option;  (* write round-boundary snapshots here *)
  every : int option;  (* checkpoint cadence (default 1) *)
  resume : string option;  (* resume from this snapshot file *)
  replay_to : int option;  (* stop after this round, dump the schedule prefix *)
  crash_at : int option;  (* in-process crash/resume verification round *)
  schedule_out : string option;  (* where the schedule prefix goes (default stdout) *)
}

let replay_requested r =
  Option.is_some r.checkpoint || Option.is_some r.every || Option.is_some r.resume
  || Option.is_some r.replay_to || Option.is_some r.crash_at
  || Option.is_some r.schedule_out

(* The executed rounds in the Detcheck.Schedule_dump format, which
   `detcheck replay` compares against an uninterrupted run's dump
   (@replay-smoke). *)
let dump_schedule_prefix ~out report =
  let lines = Detcheck.Schedule_dump.lines report in
  match out with
  | None -> List.iter print_endline lines
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let run_replay ~app ~policy ~size ~seed ~sink r =
  match Detcheck.Replay_cases.of_app app ~n:size ~points:size ~seed with
  | Error _ ->
      `Error
        (false, "checkpoint/replay flags support the bfs | sssp | mst | dmr benchmarks only")
  | Ok (Detcheck.Replay_cases.Case c) -> (
      try
        if
          (Option.is_some r.checkpoint || Option.is_some r.resume)
          && not c.snapshot_capable
        then
          `Error
            ( false,
              Printf.sprintf
                "%s has no serializable world state; use --crash-resume (live in-process \
                 resume) instead"
                app )
        else
          match r.crash_at with
          | Some at ->
              (* Two fresh worlds: run one to completion, crash and
                 resume the other, then require digest & output equality. *)
              let full, full_out = c.fresh ~static_id:false () in
              let crash, crash_out = c.fresh ~static_id:false () in
              let outcome =
                Replay.crash_resume ~at
                  ~full:(full |> Galois.Run.policy policy)
                  ~crash:(crash |> Galois.Run.policy policy)
                  ()
              in
              let pp_line tag (rep : Galois.Run.report) =
                Fmt.pr "  %s digest=%a rounds=%d commits=%d@." tag D.pp rep.stats.digest
                  rep.stats.rounds rep.stats.commits
              in
              Fmt.pr "crash-resume %s (%a): crashed after round %d of %d@." app
                Galois.Policy.pp policy outcome.crash_round outcome.full.stats.rounds;
              pp_line "full   " outcome.full;
              pp_line "resumed" outcome.resumed;
              let ok =
                D.equal outcome.full.stats.digest outcome.resumed.stats.digest
                && D.equal (c.output_digest (full_out ())) (c.output_digest (crash_out ()))
              in
              Fmt.pr "  verdict=%s@." (if ok then "identical" else "DIVERGED");
              if ok then `Ok () else `Error (false, "crash-resume replay diverged")
          | None ->
              let run, out = c.fresh ~static_id:false () in
              let run =
                run
                |> Galois.Run.policy policy
                |> Galois.Run.sink sink
                |> Galois.Run.opt Galois.Run.checkpoint_to r.checkpoint
                |> Galois.Run.opt Galois.Run.checkpoint_every r.every
                |> Galois.Run.opt Galois.Run.resume_from r.resume
                |> Galois.Run.opt Galois.Run.stop_after r.replay_to
                |> (if Option.is_some r.replay_to || Option.is_some r.schedule_out then
                      Galois.Run.record
                    else Fun.id)
              in
              let report, wall_s = timed (fun () -> Galois.Run.exec run) in
              pp_stats app ~policy ~wall_s report.stats;
              Fmt.pr "  output digest=%s@." (D.to_hex (c.output_digest (out ())));
              if Option.is_some r.replay_to || Option.is_some r.schedule_out then
                dump_schedule_prefix ~out:r.schedule_out report;
              `Ok ()
      with
      | Invalid_argument msg | Failure msg -> `Error (false, msg))

let run_app ~app ~policy ~size ~seed ~verbose ~sink =
  let pp_stats name = pp_stats name ~policy in
  match app with
  | "bfs" ->
      let g = Graphlib.Generators.kout ~seed ~n:size ~k:5 () in
      let (dist, report), wall_s = timed (fun () -> Apps.Bfs.galois ~sink ~policy g ~source:0) in
      pp_stats "bfs" ~wall_s report.stats;
      let reached = Array.fold_left (fun a d -> if d <> Apps.Bfs.unreached then a + 1 else a) 0 dist in
      Fmt.pr "  reached %d of %d nodes; valid=%b@." reached size
        (Apps.Bfs.validate g ~source:0 dist);
      if verbose then
        Fmt.pr "  first distances: %a@."
          Fmt.(list ~sep:sp int)
          (Array.to_list (Array.sub dist 0 (min 20 size)));
      `Ok ()
  | "mis" ->
      let g = Graphlib.Csr.symmetrize (Graphlib.Generators.kout ~seed ~n:size ~k:5 ()) in
      let (in_mis, report), wall_s = timed (fun () -> Apps.Mis.galois ~sink ~policy g) in
      pp_stats "mis" ~wall_s report.stats;
      let members = Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_mis in
      Fmt.pr "  |MIS| = %d; valid=%b@." members (Apps.Mis.is_maximal_independent g in_mis);
      `Ok ()
  | "dt" ->
      let pts = Geometry.Point.random_unit_square ~seed size in
      let (mesh, report), wall_s = timed (fun () -> Apps.Dt.galois ~sink ~policy pts) in
      pp_stats "dt" ~wall_s report.stats;
      Fmt.pr "  triangles=%d, delaunay violations=%d@." (Mesh.triangle_count mesh)
        (Mesh.delaunay_violations mesh);
      `Ok ()
  | "dmr" ->
      let pts = Geometry.Point.random_unit_square ~seed size in
      let mesh = Apps.Dt.serial pts in
      let before = Mesh.triangle_count mesh in
      let report, wall_s = timed (fun () -> Apps.Dmr.galois ~sink ~policy mesh) in
      pp_stats "dmr" ~wall_s report.stats;
      Fmt.pr "  triangles %d -> %d; refined=%b@." before (Mesh.triangle_count mesh)
        (Apps.Dmr.refined Apps.Dmr.default_config mesh);
      `Ok ()
  | "pfp" ->
      let g, caps, source, sink_node = Graphlib.Generators.flow_network ~seed ~n:size ~k:4 () in
      let net = Apps.Flow_network.of_graph g caps ~source ~sink:sink_node in
      let result, wall_s = timed (fun () -> Apps.Pfp.galois ~sink ~policy net) in
      pp_stats "pfp" ~wall_s result.stats;
      let ok, _ = Apps.Flow_network.check_flow net in
      Fmt.pr "  max flow=%d; epochs=%d; global relabels=%d; conservation=%b@."
        result.flow_value result.epochs result.global_relabels ok;
      `Ok ()
  | "cc" ->
      let g = Graphlib.Csr.symmetrize (Graphlib.Generators.kout ~seed ~n:size ~k:5 ()) in
      let (label, report), wall_s = timed (fun () -> Apps.Cc.galois ~sink ~policy g) in
      pp_stats "cc" ~wall_s report.stats;
      Fmt.pr "  %d components; valid=%b@." (Apps.Cc.count_components label)
        (Apps.Cc.validate g label);
      `Ok ()
  | "sssp" ->
      let g = Graphlib.Generators.kout ~seed ~n:size ~k:5 () in
      let w = Graphlib.Graph_io.random_weights ~seed:(seed + 1) g in
      let (dist, report), wall_s =
        timed (fun () -> Apps.Sssp.galois ~sink ~policy g w ~source:0)
      in
      pp_stats "sssp" ~wall_s report.stats;
      let reached =
        Array.fold_left (fun a d -> if d <> Apps.Sssp.unreached then a + 1 else a) 0 dist
      in
      Fmt.pr "  reached %d of %d; valid=%b@." reached size (Apps.Sssp.validate g w ~source:0 dist);
      `Ok ()
  | "mst" ->
      let g = Graphlib.Csr.symmetrize (Graphlib.Generators.kout ~seed ~n:size ~k:4 ()) in
      let w = Graphlib.Graph_io.undirected_random_weights ~seed:(seed + 1) g in
      let (forest, report), wall_s = timed (fun () -> Apps.Boruvka.galois ~sink ~policy g w) in
      pp_stats "mst (boruvka)" ~wall_s report.stats;
      Fmt.pr "  forest: %d edges, total weight %d; valid=%b@."
        (List.length forest.Apps.Boruvka.parent_edge) forest.Apps.Boruvka.total_weight
        (Apps.Boruvka.validate g forest);
      `Ok ()
  | "triangles" ->
      let g = Graphlib.Csr.symmetrize (Graphlib.Generators.rmat ~seed ~scale:11 ~edge_factor:8 ()) in
      let (total, report), wall_s = timed (fun () -> Apps.Triangles.galois ~sink ~policy g) in
      pp_stats "triangles" ~wall_s report.stats;
      Fmt.pr "  %d triangles@." total;
      `Ok ()
  | "kcore" ->
      let g = Graphlib.Csr.symmetrize (Graphlib.Generators.kout ~seed ~n:size ~k:5 ()) in
      let (core, report), wall_s = timed (fun () -> Apps.Kcore.galois ~sink ~policy g) in
      pp_stats "kcore" ~wall_s report.stats;
      let kmax = Array.fold_left max 0 core in
      Fmt.pr "  max coreness=%d; valid=%b@." kmax (Apps.Kcore.validate g core);
      `Ok ()
  | "pagerank" ->
      let g = Graphlib.Generators.kout ~seed ~n:size ~k:5 () in
      let (ranks, report), wall_s = timed (fun () -> Apps.Pagerank.galois ~sink ~policy g) in
      pp_stats "pagerank" ~wall_s report.stats;
      let reference = Apps.Pagerank.serial g in
      Fmt.pr "  max deviation from power iteration: %.5f@."
        (Apps.Pagerank.max_abs_diff ranks reference);
      `Ok ()
  | other -> `Error (false, Printf.sprintf "unknown app %S" other)

open Cmdliner

let app_arg =
  let doc =
    "Benchmark to run: bfs | mis | dt | dmr | pfp | cc | sssp | mst | kcore | triangles | \
     pagerank."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let policy_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Galois.Policy.of_string s) in
  let print ppf p = Galois.Policy.pp ppf p in
  let policy_conv = Arg.conv (parse, print) in
  let doc =
    "Execution policy: $(b,serial), $(b,nondet:T) (speculative, T threads) or $(b,det:T) \
     (deterministic DIG scheduling). The program's code is identical under every policy. \
     det accepts a bracketed option block, \
     $(b,det:8[window=64,spread=1,ratio=0.95,cont=off,validate=on]): window=N|auto pins or \
     derives the first round's window, spread=N sets the locality-spread piles (1 disables), \
     ratio=R sets the adaptive commit-ratio target, cont/validate toggle the continuation \
     optimization and commit-time mark validation, and prio=off|delta:N|auto selects \
     soft-priority delta-stepping bucket scheduling (apps with a priority hint — sssp, \
     kcore — then run lowest-bucket-first)."
  in
  Arg.(value & opt policy_conv Galois.Policy.serial & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let size_arg =
  let doc = "Input size (nodes / points, app-dependent)." in
  Arg.(value & opt int 10_000 & info [ "n"; "size" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Input generator seed (same seed = same input everywhere)." in
  Arg.(value & opt int 2014 & info [ "seed" ] ~docv:"SEED" ~doc)

let verbose_arg =
  let doc = "Print sample output values." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let trace_arg =
  let doc =
    "Write the runtime's observability event stream (round/phase events, per-worker \
     counters, timings) to $(docv), one JSON object per line. For $(b,det) policies the \
     stream minus its timing events is identical for any thread count."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let checkpoint_arg =
  let doc =
    "Write round-boundary snapshots to $(docv) (atomically; the file always holds the \
     latest complete snapshot). Requires a det policy; bfs and sssp only (their world \
     state is serializable)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let every_arg =
  let doc = "Checkpoint cadence in rounds (default 1)." in
  Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let resume_arg =
  let doc =
    "Resume from a snapshot written by --checkpoint: the run continues at the captured \
     round (under any thread count) and reproduces the uninterrupted run's digest."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let replay_to_arg =
  let doc =
    "Stop after round $(docv) and dump the executed schedule prefix (one line per round \
     plus a digest trailer; see --schedule-out)."
  in
  Arg.(value & opt (some int) None & info [ "replay-to" ] ~docv:"ROUND" ~doc)

let crash_resume_arg =
  let doc =
    "Crash-injection self-check: run the benchmark to completion, run a second fresh \
     world that is stopped at round $(docv) and resumed live, and verify both digests \
     and outputs agree. Exits non-zero on divergence. Supports bfs | sssp | mst | dmr."
  in
  Arg.(value & opt (some int) None & info [ "crash-resume" ] ~docv:"ROUND" ~doc)

let schedule_out_arg =
  let doc = "Write the --replay-to schedule prefix to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "schedule-out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "run Deterministic Galois benchmarks under a chosen execution policy" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reproduction of 'Deterministic Galois: On-demand, Portable and Parameterless' \
         (ASPLOS 2014). The same application source runs non-deterministically \
         (fast, timing-dependent answers) or deterministically (identical output for \
         any thread count) depending on --policy.";
      `S Manpage.s_examples;
      `P "galois-run dmr -n 2000 --policy det:4";
      `P "galois-run bfs -n 100000 --policy nondet:8";
      `P "galois-run mst -n 50000 --policy 'det:4[window=64,spread=1]'";
      `P "galois-run bfs -n 20000 --policy det:4 --trace bfs.trace.jsonl";
      `P "galois-run bfs -n 20000 --policy det:4 --checkpoint bfs.snap --checkpoint-every 8";
      `P "galois-run bfs -n 20000 --policy det:4 --resume bfs.snap";
      `P "galois-run dmr -n 2000 --policy det:4 --crash-resume 5";
    ]
  in
  let run_traced app policy size seed verbose trace checkpoint every resume replay_to
      crash_at schedule_out =
    let r = { checkpoint; every; resume; replay_to; crash_at; schedule_out } in
    let dispatch sink =
      if replay_requested r then run_replay ~app ~policy ~size ~seed ~sink r
      else run_app ~app ~policy ~size ~seed ~verbose ~sink
    in
    (* The sink is assembled with the combinators: [of_list] collapses
       to [Obs.null] when no trace was requested, and teeing/closing a
       null sink is free, so dispatch never branches on an option. *)
    let sink =
      Obs.Sink.of_list
        (match trace with None -> [] | Some path -> [ Obs.Jsonl.file path ])
    in
    Fun.protect ~finally:(fun () -> Obs.close sink) (fun () -> dispatch sink)
  in
  let term =
    Term.(
      ret
        (const run_traced $ app_arg $ policy_arg $ size_arg $ seed_arg $ verbose_arg
       $ trace_arg $ checkpoint_arg $ every_arg $ resume_arg $ replay_to_arg
       $ crash_resume_arg $ schedule_out_arg))
  in
  Cmd.v (Cmd.info "galois-run" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval cmd)
