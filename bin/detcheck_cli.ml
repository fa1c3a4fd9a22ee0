(* Determinism-audit driver: sweep the configuration lattice over the
   real benchmarks and over fuzz-generated synthetic operators, and fail
   loudly on any digest divergence.

     detcheck --cases 25 --seed 2014 --apps bfs,sssp,mst,dmr

   Wired into `dune runtest` (alias @detcheck) as a bounded smoke run, so
   every future scheduler change regresses against the paper's claim. *)

let parse_int_list s =
  try List.map int_of_string (String.split_on_char ',' s) with _ -> []

(* Run [f] on the table row of every --apps name; an unknown name is
   reported as a failure in place. *)
let iter_apps ~failures ~size ~points ~seed apps f =
  List.iter
    (fun name ->
      match Detcheck.Replay_cases.of_app name ~n:size ~points ~seed with
      | Ok case -> f case
      | Error msg ->
          incr failures;
          Fmt.pr "FAIL  %s@." msg)
    apps

(* --dmr-style: dual-modular-redundancy-style lockstep verification.
   Run every case twice — two fresh worlds, two thread counts — with a
   digest checkpoint every K rounds, and cross-check the trails: the
   verdict localizes any divergence to the first differing round
   boundary instead of merely failing on the final digest. *)
let run_lockstep ~cases ~seed ~apps ~threads ~size ~points ~every ~verbose =
  let ta, tb =
    match threads with
    | a :: b :: _ -> (a, b)
    | [ a ] -> (a, a + 1)
    | [] -> (2, 4)
  in
  let failures = ref 0 in
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
        incr failures;
        Fmt.pr "FAIL  %s (det:%d vs det:%d): %a@." c.name ta tb Replay.Lockstep.pp_verdict
          verdict
    | _, false ->
        incr failures;
        Fmt.pr
          "FAIL  %s (det:%d vs det:%d): final state diverged (sched %a vs %a, output %a \
           vs %a, rounds %d vs %d) yet no checkpoint caught it@."
          c.name ta tb Galois.Trace_digest.pp stats_a.Galois.Stats.digest
          Galois.Trace_digest.pp stats_b.Galois.Stats.digest Galois.Trace_digest.pp out_a
          Galois.Trace_digest.pp out_b stats_a.Galois.Stats.rounds
          stats_b.Galois.Stats.rounds
    | _, true ->
        if verbose then
          Fmt.pr "ok    %s (det:%d vs det:%d): %a, final digest %a@." c.name ta tb
            Replay.Lockstep.pp_verdict verdict Galois.Trace_digest.pp
            stats_a.Galois.Stats.digest
        else Fmt.pr "ok    %s: %a@." c.name Replay.Lockstep.pp_verdict verdict
  in
  iter_apps ~failures ~size ~points ~seed apps audit;
  for i = 0 to cases - 1 do
    audit (Detcheck.Replay_cases.gen ~seed:(seed + i))
  done;
  (* Negative control: a perturbed snapshot must be caught, and at the
     right round. A conflict-free operator (every task its own lock)
     with a pinned window commits the whole window each round, so the
     digest folds every window id in deque order — swapping two pending
     entries is then guaranteed to surface at the first round after the
     boundary, and the verifier must localize it there. *)
  let control () =
    let n = 100 in
    let policy =
      match Galois.Policy.of_string "det:2[window=8]" with
      | Ok p -> p
      | Error e -> failwith e
    in
    let run_of () =
      let locks = Array.init n (fun _ -> Galois.Lock.create ()) in
      Galois.Run.make
        ~operator:(fun ctx i -> Galois.Context.acquire ctx locks.(i))
        (Array.init n (fun i -> i))
      |> Galois.Run.policy policy
    in
    let captured = ref None in
    let acc = ref [] in
    let _ =
      run_of ()
      |> Galois.Run.checkpoint_every 1
      |> Galois.Run.on_checkpoint (fun snap ->
             let b = snap.Replay.Snapshot.boundary in
             acc := (b.Galois.Det_sched.b_rounds, b.Galois.Det_sched.b_digest) :: !acc;
             if b.Galois.Det_sched.b_rounds = 2 then captured := Some b)
      |> Galois.Run.exec
    in
    let trail_ref = List.rev !acc in
    match !captured with
    | Some b ->
        let perturbed = Replay.swap_pending_ids 0 1 b in
        let resumed = run_of () |> Galois.Run.resume perturbed in
        let trail_bad, _ = Replay.Lockstep.collect ~every:1 resumed in
        (match Replay.Lockstep.first_divergence trail_ref trail_bad with
        | Replay.Lockstep.Diverge { round = 3; _ } ->
            Fmt.pr "ok    negative control: swap at round 2 localized to round 3@."
        | v ->
            incr failures;
            Fmt.pr "FAIL  negative control: perturbed boundary not localized (%a)@."
              Replay.Lockstep.pp_verdict v)
    | None ->
        incr failures;
        Fmt.pr "FAIL  negative control: no boundary captured at round 2@."
  in
  control ();
  if !failures = 0 then begin
    Fmt.pr "detcheck --dmr-style: all passed (%d boundaries cross-checked)@." !boundaries;
    `Ok ()
  end
  else `Error (false, Printf.sprintf "detcheck --dmr-style: %d failure(s)" !failures)

(* --audit: dynamic neighborhood/race audit. Every Run-based benchmark
   executes with the shadow access recorder on — its report must be
   clean at every thread count (cautiousness, containment, and
   intra-round disjointness, acquires counting as writes) — then the two
   deliberately broken operators run as positive controls, whose witness
   findings must be flagged verbatim with (rule, round, task). *)
let run_audit ~seed ~threads ~size ~points ~verbose =
  let threads = if threads = [] then Detcheck.default_threads else threads in
  let tlist = String.concat "," (List.map string_of_int threads) in
  let failures = ref 0 in
  let tmax = List.fold_left max 1 threads in
  Galois.Pool.with_pool ~domains:tmax (fun pool ->
      List.iter
        (fun (c : Detcheck.Audit_cases.t) ->
          let before = !failures in
          List.iter
            (fun t ->
              let report = c.run ~policy:(Galois.Policy.det t) ~pool in
              if Galois.Audit.clean report then begin
                if verbose then
                  Fmt.pr "ok    audit %s det:%d (%d rounds, %d tasks)@." c.name t
                    report.Galois.Audit.rounds report.Galois.Audit.tasks
              end
              else begin
                incr failures;
                Fmt.pr "FAIL  audit %s det:%d: %d finding(s)@." c.name t
                  (List.length report.Galois.Audit.findings);
                List.iter
                  (fun f -> Fmt.pr "      %a@." Galois.Audit.pp_finding f)
                  report.Galois.Audit.findings
              end)
            threads;
          if !failures = before && not verbose then
            Fmt.pr "ok    audit %s clean at det:{%s}@." c.name tlist)
        (Detcheck.Audit_cases.apps ~n:size ~points ~seed);
      List.iter
        (fun (c : Detcheck.Audit_cases.control) ->
          let before = !failures in
          List.iter
            (fun t ->
              let report, witnesses = c.crun ~policy:(Galois.Policy.det t) ~pool in
              let missing =
                List.filter
                  (fun w -> not (List.mem w report.Galois.Audit.findings))
                  witnesses
              in
              if missing <> [] then begin
                incr failures;
                Fmt.pr "FAIL  control %s det:%d: expected finding(s) not flagged@."
                  c.cname t;
                List.iter (fun f -> Fmt.pr "      want %a@." Galois.Audit.pp_finding f) missing;
                List.iter
                  (fun f -> Fmt.pr "      got  %a@." Galois.Audit.pp_finding f)
                  report.Galois.Audit.findings
              end
              else if verbose then begin
                Fmt.pr "ok    control %s det:%d flagged (%d finding(s))@." c.cname t
                  (List.length report.Galois.Audit.findings);
                List.iter
                  (fun f -> Fmt.pr "      %a@." Galois.Audit.pp_finding f)
                  report.Galois.Audit.findings
              end)
            threads;
          if !failures = before && not verbose then
            Fmt.pr "ok    control %s flagged at det:{%s}@." c.cname tlist)
        (Detcheck.Audit_cases.controls ~n:size ~seed));
  if !failures = 0 then begin
    Fmt.pr "detcheck --audit: all passed@.";
    `Ok ()
  end
  else `Error (false, Printf.sprintf "detcheck --audit: %d failure(s)" !failures)

let run ~cases ~seed ~apps ~threads ~size ~points ~service ~verbose =
  let threads = if threads = [] then Detcheck.default_threads else threads in
  let failures = ref 0 in
  let total_runs = ref 0 in
  let audit case =
    let report = Detcheck.check_invariance ~threads case in
    total_runs := !total_runs + report.Detcheck.runs;
    if Detcheck.ok report then begin
      if verbose then Fmt.pr "ok    %a@." Detcheck.pp_report report
      else Fmt.pr "ok    %s (%d runs)@." report.Detcheck.case_name report.Detcheck.runs
    end
    else begin
      incr failures;
      Fmt.pr "FAIL  %a@." Detcheck.pp_report report
    end
  in
  iter_apps ~failures ~size ~points ~seed apps (fun case ->
      audit (Detcheck.App_cases.of_replay case));
  for i = 0 to cases - 1 do
    audit (Detcheck.Gen.case ~seed:(seed + i))
  done;
  (* Service lattice: byte-compare the response stream of a mixed query
     batch across pool sizes and admission interleavings. *)
  if service > 0 then begin
    let report =
      Detcheck.Service_case.check ~pool_sizes:threads ~count:service ~nodes:size
        ~seed ()
    in
    total_runs := !total_runs + report.Detcheck.runs;
    if Detcheck.ok report then
      Fmt.pr "ok    %s (%d sessions byte-identical)@." report.Detcheck.case_name
        report.Detcheck.runs
    else begin
      incr failures;
      Fmt.pr "FAIL  %a@." Detcheck.pp_report report
    end
  end;
  (* Positive control: the digests must be able to diverge at all. *)
  let skip_controls = cases = 0 && apps = [] in
  let control policy =
    let name = Galois.Policy.to_string policy in
    if
      Detcheck.seeds_distinguished
        ~gen:(fun s -> Detcheck.Gen.case ~seed:s)
        ~seed policy
    then Fmt.pr "ok    positive control: seed perturbation diverges under %s@." name
    else begin
      incr failures;
      Fmt.pr "FAIL  positive control: seed perturbation NOT seen under %s@." name
    end
  in
  if not skip_controls then begin
    control (Galois.Policy.det 2);
    control (Galois.Policy.nondet 2);
    (* Bucket-assignment control: priority-salt perturbation must move
       the ordered schedule and must not move the unordered one. *)
    if Detcheck.prio_salt_distinguished ~seed () then
      Fmt.pr "ok    positive control: priority salt moves ordered schedules only@."
    else begin
      incr failures;
      Fmt.pr "FAIL  positive control: priority salt NOT reflected in ordered schedules@."
    end
  end;
  if !failures = 0 then begin
    Fmt.pr "detcheck: all passed (%d lattice runs)@." !total_runs;
    `Ok ()
  end
  else `Error (false, Printf.sprintf "detcheck: %d failure(s)" !failures)

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
  let doc = "Comma-separated thread counts of the sweep." in
  let parse s =
    match parse_int_list s with
    | [] -> Error (`Msg (Printf.sprintf "bad thread list %S" s))
    | l when List.for_all (fun t -> t > 0) l -> Ok l
    | _ -> Error (`Msg "thread counts must be positive")
  in
  let threads_conv =
    Arg.conv (parse, fun ppf l -> Fmt.pf ppf "%s" (String.concat "," (List.map string_of_int l)))
  in
  Arg.(value & opt threads_conv [ 1; 2; 4; 8 ] & info [ "threads" ] ~docv:"T,T,..." ~doc)

let size_arg =
  let doc = "Graph size (nodes) for the graph benchmarks." in
  Arg.(value & opt int 400 & info [ "n"; "size" ] ~docv:"N" ~doc)

let points_arg =
  let doc = "Point count for the dmr benchmark." in
  Arg.(value & opt int 110 & info [ "points" ] ~docv:"N" ~doc)

let service_arg =
  let doc =
    "Also audit the service layer with a mixed batch of $(docv) bfs/sssp/cc queries: \
     responses, per-job event streams and the service digest must be byte-identical \
     across the $(b,--threads) pool sizes and across two admission interleavings. \
     0 skips the service lattice."
  in
  Arg.(value & opt int 0 & info [ "service" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Print full per-case reports." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let dmr_style_arg =
  let doc =
    "Lockstep (dual-modular-redundancy-style) mode: run each case twice at the first two \
     thread counts of $(b,--threads), cross-check digests at every checkpoint boundary \
     and report the first divergent round instead of only the final digest."
  in
  Arg.(value & flag & info [ "dmr-style" ] ~doc)

let every_arg =
  let doc = "Checkpoint cadence (rounds) for $(b,--dmr-style) digest cross-checks." in
  Arg.(value & opt int 4 & info [ "every" ] ~docv:"K" ~doc)

let audit_arg =
  let doc =
    "Dynamic neighborhood/race audit: run every Run-based benchmark with the shadow \
     access recorder on (reports must be clean — cautious, contained, intra-round \
     disjoint — at every $(b,--threads) count), then two deliberately broken operators \
     as positive controls whose findings must be localized to (rule, round, task)."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

let cmd =
  let doc = "audit the determinism claims of the DIG scheduler" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Sweeps every case over a configuration lattice (thread counts x initial windows x \
         locality spread x continuation x static ids) and compares round-trace digests, \
         output digests and the deterministic observability event stream (timing events \
         stripped, byte for byte) across the sweep. Any divergence falsifies the paper's \
         claim that deterministic output is a function of the input alone. Lattice \
         configurations correspond to policy strings like det:T[window=8,spread=1] \
         (see galois-run --policy).";
      `S Manpage.s_examples;
      `P "detcheck --cases 25 --seed 2014";
      `P "detcheck --apps dmr --cases 0 --threads 1,3,5 -v";
      `P "detcheck --dmr-style --cases 5 --every 2 --threads 2,4";
      `P "detcheck --audit --size 300 --threads 1,2,4";
    ]
  in
  let term =
    Term.(
      ret
        (const (fun cases seed apps threads size points service verbose dmr_style every
                    audit ->
             if every < 1 then `Error (false, "--every must be >= 1")
             else if audit then run_audit ~seed ~threads ~size ~points ~verbose
             else if dmr_style then
               run_lockstep ~cases ~seed ~apps ~threads ~size ~points ~every ~verbose
             else run ~cases ~seed ~apps ~threads ~size ~points ~service ~verbose)
        $ cases_arg $ seed_arg $ apps_arg $ threads_arg $ size_arg $ points_arg
        $ service_arg $ verbose_arg $ dmr_style_arg $ every_arg $ audit_arg))
  in
  Cmd.v (Cmd.info "detcheck" ~version:"1.0.0" ~doc ~man) term

let () = exit (Cmd.eval cmd)
