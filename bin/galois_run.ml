(* The command-line driver: run any benchmark under any execution
   policy. This is the paper's on-demand determinism in practice — the
   application code is fixed; [--policy serial|nondet:T|det:T[k=v,...]]
   picks the scheduler at run time, and [--trace FILE] streams the
   runtime's observability events (lib/obs) to a JSONL file.

   Every app but pfp is a row of detcheck's app table
   (Detcheck.Replay_cases): its input, plan, output digest and summary
   line all come from there, and one path runs any row. The
   checkpoint/replay flags (--checkpoint, --resume, --replay-to,
   --crash-resume, --digest-out) ride on that path under a det
   policy. *)

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
  every : int option;  (* checkpoint cadence (default 1); needs [checkpoint] *)
  resume : string option;  (* resume from this snapshot file *)
  replay_to : int option;  (* stop after this round *)
  crash_at : int option;  (* in-process crash/resume verification round *)
  digest_out : string option;  (* write the run's digest line here *)
}

let replay_requested r =
  Option.is_some r.checkpoint || Option.is_some r.every || Option.is_some r.resume
  || Option.is_some r.replay_to || Option.is_some r.crash_at
  || Option.is_some r.digest_out

(* Two fresh worlds: run one to completion, crash and resume the
   other, then require digest & output equality. *)
let crash_resume ~app ~policy ~at (Detcheck.Replay_cases.Case c) =
  let full, full_out = c.fresh ~static_id:false () in
  let full = full |> Galois.Run.policy policy |> Galois.Run.exec in
  let crash, crash_out = c.fresh ~static_id:false () in
  let outcome = Replay.crash_resume ~at (crash |> Galois.Run.policy policy) in
  let pp_line tag (rep : Galois.Run.report) =
    Fmt.pr "  %s digest=%a rounds=%d commits=%d@." tag D.pp rep.stats.digest
      rep.stats.rounds rep.stats.commits
  in
  Fmt.pr "crash-resume %s (%a): crashed after round %d of %d@." app Galois.Policy.pp
    policy outcome.crash_round full.stats.rounds;
  pp_line "full   " full;
  pp_line "resumed" outcome.resumed;
  let ok =
    D.equal full.stats.digest outcome.resumed.stats.digest
    && D.equal (c.output_digest (full_out ())) (c.output_digest (crash_out ()))
  in
  Fmt.pr "  verdict=%s@." (if ok then "identical" else "DIVERGED");
  if ok then `Ok () else `Error (false, "crash-resume replay diverged")

(* Snapshot file I/O is the driver's: the run hands out and takes back
   in-memory snapshots. *)
let snapshot_or_fail path = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path (Galois.Snapshot.error_to_string e))

(* One run of a table row: the replay flags ride on the description,
   and asking for any of them adds the output digest to the report. A
   run stopped by --replay-to holds a partial answer, so it gets no
   summary line. --digest-out writes "digest=D rounds=R output=O": a
   det schedule is a function of the input and the det options, so a
   resumed run is correct iff this line equals the uninterrupted run's
   (@replay-smoke compares the two files). *)
let run_row ~app ~policy ~sink r (Detcheck.Replay_cases.Case c) =
  let run, out = c.fresh ~static_id:false () in
  let checkpoint path =
    Galois.Run.checkpoint ~every:(Option.value r.every ~default:1) (fun snap ->
        snapshot_or_fail path (Galois.Snapshot.save ~path snap))
  in
  let resume path = Galois.Run.resume (snapshot_or_fail path (Galois.Snapshot.load ~path)) in
  let run =
    run
    |> Galois.Run.policy policy
    |> Galois.Run.sink sink
    |> Galois.Run.opt checkpoint r.checkpoint
    |> Galois.Run.opt resume r.resume
    |> Galois.Run.opt Galois.Run.stop_after r.replay_to
  in
  let report, wall_s = timed (fun () -> Galois.Run.exec run) in
  let output = out () in
  let output_digest = D.to_hex (c.output_digest output) in
  pp_stats app ~policy ~wall_s report.stats;
  if Option.is_none r.replay_to then Fmt.pr "  %s@." (c.summary output);
  if replay_requested r then Fmt.pr "  output digest=%s@." output_digest;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "digest=%s rounds=%d output=%s\n"
            (D.to_hex report.stats.digest) report.stats.rounds output_digest))
    r.digest_out;
  `Ok ()

(* pfp runs one plan per epoch, so it has no table row and no replay. *)
let run_pfp ~policy ~size ~seed ~sink =
  let g, caps, source, sink_node = Graphlib.Generators.flow_network ~seed ~n:size ~k:4 () in
  let net = Apps.Flow_network.of_graph g caps ~source ~sink:sink_node in
  let result, wall_s = timed (fun () -> Apps.Pfp.galois ~sink ~policy net) in
  pp_stats "pfp" ~policy ~wall_s result.stats;
  let ok, _ = Apps.Flow_network.check_flow net in
  Fmt.pr "  max flow=%d; epochs=%d; global relabels=%d; conservation=%b@." result.flow_value
    result.epochs result.global_relabels ok;
  `Ok ()

let run_app ~app ~policy ~size ~seed ~sink r =
  if app = "pfp" then
    if replay_requested r then
      `Error (false, "pfp runs one plan per epoch; the checkpoint/replay flags do not apply")
    else run_pfp ~policy ~size ~seed ~sink
  else
    match Detcheck.Replay_cases.of_app app ~n:size ~points:size ~seed with
    | Error msg -> `Error (false, msg ^ ", or pfp")
    | Ok _ when Option.is_some r.every && Option.is_none r.checkpoint ->
        `Error (false, "--checkpoint-every needs --checkpoint FILE")
    | Ok (Case c) when
        (Option.is_some r.checkpoint || Option.is_some r.resume) && not c.snapshot_capable ->
        `Error
          ( false,
            Printf.sprintf
              "%s has no serializable world state; use --crash-resume (live in-process \
               resume) instead"
              app )
    | Ok row -> (
        try
          match r.crash_at with
          | Some at -> crash_resume ~app ~policy ~at row
          | None -> run_row ~app ~policy ~sink r row
        with Invalid_argument msg | Failure msg -> `Error (false, msg))

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
     latest complete snapshot). Requires a det policy and an app whose world state is \
     serializable: bfs, sssp or kcore."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let every_arg =
  let doc = "Checkpoint cadence in rounds (default 1). Requires --checkpoint." in
  Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let resume_arg =
  let doc =
    "Resume from a snapshot written by --checkpoint: the run continues at the captured \
     round (under any thread count) and reproduces the uninterrupted run's digest."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let replay_to_arg =
  let doc =
    "Stop after round $(docv); the printed digests then cover the executed prefix (see \
     --digest-out)."
  in
  Arg.(value & opt (some int) None & info [ "replay-to" ] ~docv:"ROUND" ~doc)

let crash_resume_arg =
  let doc =
    "Crash-injection self-check: run the benchmark to completion, run a second fresh \
     world that is stopped at round $(docv) and resumed live, and verify both digests \
     and outputs agree. Exits non-zero on divergence. Supports every app but pfp."
  in
  Arg.(value & opt (some int) None & info [ "crash-resume" ] ~docv:"ROUND" ~doc)

let digest_out_arg =
  let doc =
    "Write one line, $(b,digest=D rounds=R output=O), to $(docv): the round-trace digest, \
     the round count and the output digest. A resumed run reproduces the uninterrupted \
     run's line byte for byte."
  in
  Arg.(value & opt (some string) None & info [ "digest-out" ] ~docv:"FILE" ~doc)

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
  let run_traced app policy size seed trace checkpoint every resume replay_to crash_at
      digest_out =
    let r = { checkpoint; every; resume; replay_to; crash_at; digest_out } in
    (* The sink is assembled with the combinators: [of_list] collapses
       to [Obs.null] when no trace was requested, and teeing/closing a
       null sink is free, so dispatch never branches on an option. *)
    let sink =
      Obs.Sink.of_list
        (match trace with None -> [] | Some path -> [ Obs.Jsonl.file path ])
    in
    Fun.protect
      ~finally:(fun () -> Obs.close sink)
      (fun () -> run_app ~app ~policy ~size ~seed ~sink r)
  in
  let term =
    Term.(
      ret
        (const run_traced $ app_arg $ policy_arg $ size_arg $ seed_arg $ trace_arg
       $ checkpoint_arg $ every_arg $ resume_arg $ replay_to_arg $ crash_resume_arg
       $ digest_out_arg))
  in
  Cmd.v (Cmd.info "galois-run" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval cmd)
