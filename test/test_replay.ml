(* Checkpoint/replay equivalence: the paper's determinism claim extended
   across process boundaries. The core property, checked over the
   detcheck fuzz generator across the configuration lattice and over
   every row of the app table:

     digest (run p) = digest (resume (checkpoint_at r (run p)))

   for randomized crash rounds r — including resuming under a different
   thread count, which is exactly the portability claim. Plus: snapshot
   codec round-trip and corruption detection, cross-process (serialized)
   resume into a fresh world, checkpoint cadence, the perturbed-snapshot
   negative control, and the builder's validation errors. *)

module D = Galois.Trace_digest
module Sm = Parallel.Splitmix
module Snapshot = Galois.Snapshot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_digest what a b =
  if not (D.equal a b) then
    Alcotest.failf "%s: digest %a <> %a" what D.pp a D.pp b

(* The deterministic halves of two reports must agree; the
   non-deterministic halves (chunks, spins, parks) legitimately may not
   and are not compared. *)
let check_reports what (full : Galois.Run.report) (resumed : Galois.Run.report) =
  check_digest (what ^ ": sched digest") full.stats.digest resumed.stats.digest;
  check_int (what ^ ": rounds") full.stats.rounds resumed.stats.rounds;
  check_int (what ^ ": generations") full.stats.generations resumed.stats.generations;
  check_int (what ^ ": buckets") full.stats.buckets resumed.stats.buckets;
  check_int (what ^ ": commits") full.stats.commits resumed.stats.commits;
  check_int (what ^ ": aborts") full.stats.aborts resumed.stats.aborts;
  check_int (what ^ ": acquired") full.stats.acquired resumed.stats.acquired;
  check_int (what ^ ": atomics") full.stats.atomics resumed.stats.atomics;
  check_int (what ^ ": inspected") full.stats.inspected resumed.stats.inspected;
  check_int (what ^ ": created") full.stats.created resumed.stats.created;
  check_int (what ^ ": work") full.stats.work_units resumed.stats.work_units

(* ------------------------------------------------------------------ *)
(* Crash/resume equivalence over the fuzz generator and the apps       *)
(* ------------------------------------------------------------------ *)

(* One crash/resume audit of a replay case: run the reference world to
   completion, crash a second world at round [at], resume it (under
   [resume_policy] if given), and require equal deterministic stats and
   equal output digests. *)
let audit_case ?resume_policy ~policy ~at (Detcheck.Replay_cases.Case c) =
  let full_run, full_out = c.fresh ~static_id:false () in
  let full = full_run |> Galois.Run.policy policy |> Galois.Run.exec in
  let crash_run, crash_out = c.fresh ~static_id:false () in
  let outcome = Replay.crash_resume ?resume_policy ~at (crash_run |> Galois.Run.policy policy) in
  let what = Printf.sprintf "%s at=%d" c.name at in
  check_reports what full outcome.Replay.resumed;
  check_digest (what ^ ": output") (c.output_digest (full_out ())) (c.output_digest (crash_out ()));
  outcome.Replay.crash_round

let test_gen_crash_resume_lattice () =
  (* Fuzz cases x configuration lattice x randomized crash rounds. The
     resumed run uses a *different thread count* than the crashed one:
     determinism says the digest cannot care. *)
  let rng = Sm.create 0xc4a5 in
  let configs =
    [
      Galois.Policy.default_det;
      Galois.Policy.Det_options.make ~window:(Some 8) ();
      Galois.Policy.Det_options.make ~spread:1 ~continuation:false ();
      Galois.Policy.Det_options.make ~priority:Galois.Policy.Prio_auto ();
      Galois.Policy.Det_options.make ~priority:(Galois.Policy.Prio_delta 8) ();
    ]
  in
  List.iter
    (fun seed ->
      List.iter
        (fun options ->
          let case = Detcheck.Replay_cases.gen ~seed in
          let at = 1 + Sm.int rng 12 in
          let policy = Galois.Policy.det ~options 2 in
          let resume_policy = Galois.Policy.det ~options 4 in
          ignore (audit_case ~resume_policy ~policy ~at case))
        configs)
    [ 2014; 2015; 2016 ]

let test_apps_crash_resume () =
  (* Every row of the app table, including the hook-less
     live-resume-only ones (boruvka's union-find, dmr's in-place mesh). *)
  let rng = Sm.create 0xbeef in
  List.iter
    (fun case ->
      let at = 2 + Sm.int rng 10 in
      let crash_round =
        ignore (audit_case ~policy:(Galois.Policy.det 2) ~at case);
        (* and again, resuming at a different thread count *)
        audit_case
          ~resume_policy:(Galois.Policy.det 3)
          ~policy:(Galois.Policy.det 2) ~at case
      in
      check_bool "crashed mid-run" true (crash_round >= 1))
    (Detcheck.Replay_cases.all ~n:300 ~points:90 ~seed:7)

let test_crash_past_end_degrades () =
  (* A crash round past the end of the run: the "crashed" run completes,
     the resume replays the final boundary, and the comparison still
     holds. *)
  ignore
    (audit_case ~policy:(Galois.Policy.det 2) ~at:100_000
       (Detcheck.Replay_cases.gen ~seed:2014))

(* ------------------------------------------------------------------ *)
(* Serialized (cross-process-shaped) resume                            *)
(* ------------------------------------------------------------------ *)

let decoded bytes =
  match Snapshot.decode bytes with
  | Ok snap -> snap
  | Error e -> Alcotest.failf "decode: %s" (Snapshot.error_to_string e)

(* Run bfs with checkpoints, encode the midpoint snapshot to bytes,
   then resume from the bytes into a *fresh* world — the hook must
   restore the dist array, and the resumed run must reproduce the
   uninterrupted digest and output. *)
let test_bytes_resume_fresh_world () =
  let g = Graphlib.Generators.kout ~seed:11 ~n:400 ~k:5 () in
  let full_run, full_dist = Apps.Bfs.plan g ~source:0 in
  let full = full_run |> Galois.Run.policy (Galois.Policy.det 2) |> Galois.Run.exec in
  let crash_run, _ = Apps.Bfs.plan g ~source:0 in
  let crash_run = crash_run |> Galois.Run.policy (Galois.Policy.det 2) in
  let bytes = ref None in
  let at = max 1 (full.stats.rounds / 2) in
  let _ =
    crash_run
    |> Galois.Run.checkpoint ~every:1 (fun snap -> bytes := Some (Snapshot.encode snap))
    |> Galois.Run.stop_after at
    |> Galois.Run.exec
  in
  let bytes = match !bytes with Some b -> b | None -> Alcotest.fail "no snapshot taken" in
  (* Fresh world: new run description over a new dist array. *)
  let fresh_run, fresh_dist = Apps.Bfs.plan g ~source:0 in
  let resumed =
    fresh_run
    |> Galois.Run.policy (Galois.Policy.det 4)
    |> Galois.Run.resume (decoded bytes)
    |> Galois.Run.exec
  in
  check_reports "bytes resume" full resumed;
  check_bool "dist restored and completed" true (full_dist () = fresh_dist ())

(* A boundary is a function of the schedule alone, so its encoded bytes
   must not depend on the thread count: bfs with a snapshot after every
   round gives the same bytes at det:1 and det:3, round for round. The
   pending todo is where thread count could leak in, through which
   worker buffered which child. *)
let test_checkpoint_bytes_thread_invariant () =
  let g = Graphlib.Generators.kout ~seed:11 ~n:4000 ~k:5 () in
  let snapshots threads =
    let run, _ = Apps.Bfs.plan g ~source:0 in
    let snaps = ref [] in
    let _ =
      run
      |> Galois.Run.policy (Galois.Policy.det threads)
      |> Galois.Run.checkpoint ~every:1 (fun snap -> snaps := Snapshot.encode snap :: !snaps)
      |> Galois.Run.exec
    in
    Array.of_list (List.rev !snaps)
  in
  let one = snapshots 1 and three = snapshots 3 in
  check_int "snapshot count" (Array.length one) (Array.length three);
  check_bool "several rounds" true (Array.length one > 10);
  Array.iteri
    (fun r bytes ->
      if not (String.equal bytes three.(r)) then
        Alcotest.failf "round %d: det:1 and det:3 snapshots differ" (r + 1))
    one

let test_checkpoint_file_roundtrip () =
  (* Snapshots saved to a file load back and resume to the
     uninterrupted digest. *)
  let g = Graphlib.Generators.kout ~seed:13 ~n:400 ~k:5 () in
  let full_run, _ = Apps.Bfs.plan g ~source:0 in
  let full = full_run |> Galois.Run.policy (Galois.Policy.det 2) |> Galois.Run.exec in
  let path = Filename.temp_file "galois_replay" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let crash_run, _ = Apps.Bfs.plan g ~source:0 in
      let _ =
        crash_run
        |> Galois.Run.policy (Galois.Policy.det 2)
        |> Galois.Run.checkpoint ~every:2 (fun snap ->
               match Snapshot.save ~path snap with
               | Ok () -> ()
               | Error e -> Alcotest.failf "save: %s" (Snapshot.error_to_string e))
        |> Galois.Run.stop_after (max 2 (full.stats.rounds / 2))
        |> Galois.Run.exec
      in
      (* The file decodes, and its metadata describes the run. *)
      let snap =
        match Snapshot.load ~path with
        | Ok snap -> snap
        | Error e -> Alcotest.failf "load: %s" (Snapshot.error_to_string e)
      in
      Alcotest.(check string) "app tag" "bfs" snap.Snapshot.app;
      check_bool "carries state" true (Option.is_some snap.Snapshot.state);
      let fresh_run, _ = Apps.Bfs.plan g ~source:0 in
      let resumed =
        fresh_run
        |> Galois.Run.policy (Galois.Policy.det 2)
        |> Galois.Run.resume snap
        |> Galois.Run.exec
      in
      check_reports "file resume" full resumed)

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                      *)
(* ------------------------------------------------------------------ *)

(* Distinct values in every deterministic counter (25 commits first);
   the others stay 0, as in a captured boundary. *)
let counters_sample () =
  let c = Obs.counters 0 in
  List.iteri (fun k f -> f.Obs.set c (25 + (5 * k))) Obs.det_counters;
  c

(* A small boundary with every field populated, for codec tests. *)
let sample_snapshot () =
  let b =
    {
      Galois.Det_sched.b_rounds = 7;
      b_generations = 2;
      b_buckets = 3;
      b_next_id = 40;
      b_gen_base = 30;
      b_window = 16;
      b_delta = 4;
      b_digest = D.fold_int D.seed 12345;
      b_pending_ids = [| 31; 34; 33 |];
      b_pending_items = [| (31, 0); (34, 1); (33, 2) |];
      b_todo_parents = [| 31; 31 |];
      b_todo_births = [| 0; 1 |];
      b_todo_items = [| (100, 0); (101, 0) |];
      b_counters = counters_sample ();
    }
  in
  {
    Snapshot.app = "codec-test";
    options = "window=8,spread=1";
    static_id = false;
    boundary = b;
    state = Some (Obj.repr [| 1; 2; 3 |]);
  }

let test_codec_roundtrip () =
  let snap = sample_snapshot () in
  let bytes = Snapshot.encode snap in
  match Snapshot.decode bytes with
  | Error e -> Alcotest.failf "decode: %s" (Snapshot.error_to_string e)
  | Ok (got : (int * int) Snapshot.t) ->
      Alcotest.(check string) "app" snap.Snapshot.app got.Snapshot.app;
      Alcotest.(check string) "options" snap.Snapshot.options got.Snapshot.options;
      check_bool "static_id" snap.Snapshot.static_id got.Snapshot.static_id;
      let b = snap.Snapshot.boundary and g = got.Snapshot.boundary in
      check_int "rounds" b.Galois.Det_sched.b_rounds g.Galois.Det_sched.b_rounds;
      check_int "generations" b.b_generations g.b_generations;
      check_int "buckets" b.b_buckets g.b_buckets;
      check_int "next_id" b.b_next_id g.b_next_id;
      check_int "gen_base" b.b_gen_base g.b_gen_base;
      check_int "window" b.b_window g.b_window;
      check_digest "digest" b.b_digest g.b_digest;
      Alcotest.(check (array int)) "pending ids" b.b_pending_ids g.b_pending_ids;
      check_bool "pending items" true (b.b_pending_items = g.b_pending_items);
      Alcotest.(check (array int)) "todo parents" b.b_todo_parents g.b_todo_parents;
      Alcotest.(check (array int)) "todo births" b.b_todo_births g.b_todo_births;
      check_bool "todo items" true (b.b_todo_items = g.b_todo_items);
      List.iter
        (fun f -> check_int f.Obs.name (f.Obs.get b.b_counters) (f.Obs.get g.b_counters))
        Obs.counter_table;
      let st : int array = Obj.obj (Option.get got.Snapshot.state) in
      Alcotest.(check (array int)) "state payload" [| 1; 2; 3 |] st

let decode_error bytes =
  match Snapshot.decode bytes with
  | Ok (_ : (int * int) Snapshot.t) -> Alcotest.fail "decode accepted corrupt bytes"
  | Error e -> e

let test_codec_corruption () =
  let bytes = Snapshot.encode (sample_snapshot ()) in
  (* Flip one body byte: checksum must catch it. *)
  let flipped = Bytes.of_string bytes in
  let mid = (String.length bytes / 2) + 4 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  (match decode_error (Bytes.to_string flipped) with
  | Snapshot.Bad_checksum -> ()
  | e -> Alcotest.failf "flip: expected Bad_checksum, got %s" (Snapshot.error_to_string e));
  (* Truncate: a short header is Truncated; a truncated *body* fails
     the checksum first (the documented check order is magic, version,
     checksum, shape) — never an exception either way. *)
  List.iter
    (fun keep ->
      match decode_error (String.sub bytes 0 keep) with
      | Snapshot.Truncated -> ()
      | e ->
          Alcotest.failf "truncate %d: expected Truncated, got %s" keep
            (Snapshot.error_to_string e))
    [ 0; 3; 8 ];
  (match decode_error (String.sub bytes 0 (String.length bytes - 1)) with
  | Snapshot.Bad_checksum -> ()
  | e ->
      Alcotest.failf "body truncation: expected Bad_checksum, got %s"
        (Snapshot.error_to_string e));
  (* Wrong magic. *)
  let bad_magic = Bytes.of_string bytes in
  Bytes.set bad_magic 0 'X';
  (match decode_error (Bytes.to_string bad_magic) with
  | Snapshot.Bad_magic -> ()
  | e -> Alcotest.failf "magic: expected Bad_magic, got %s" (Snapshot.error_to_string e));
  (* Future and superseded versions (v2 lacks b_buckets, v3 the atomics
     counter): reported before the checksum is even consulted. *)
  List.iter
    (fun v ->
      let other = Bytes.of_string bytes in
      Bytes.set other 5 (Char.chr v);
      match decode_error (Bytes.to_string other) with
      | Snapshot.Bad_version got when got = v -> ()
      | e ->
          Alcotest.failf "version: expected Bad_version %d, got %s" v
            (Snapshot.error_to_string e))
    [ 99; 2; 3 ]

let test_save_load_atomic () =
  let path = Filename.temp_file "galois_snap" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () ->
      let snap = sample_snapshot () in
      (match Snapshot.save ~path snap with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Snapshot.error_to_string e));
      check_bool "no tmp litter" false (Sys.file_exists (path ^ ".tmp"));
      (match Snapshot.load ~path with
      | Ok (got : (int * int) Snapshot.t) ->
          check_digest "digest survives disk" snap.Snapshot.boundary.b_digest
            got.Snapshot.boundary.Galois.Det_sched.b_digest
      | Error e -> Alcotest.failf "load: %s" (Snapshot.error_to_string e));
      match Snapshot.load ~path:(path ^ ".does-not-exist") with
      | Error (Snapshot.Io _) -> ()
      | Error e -> Alcotest.failf "missing file: %s" (Snapshot.error_to_string e)
      | Ok (_ : (int * int) Snapshot.t) -> Alcotest.fail "loaded a missing file")

(* ------------------------------------------------------------------ *)
(* Cadence, stop_after, and round-boundary digest trails               *)
(* ------------------------------------------------------------------ *)

(* A conflict-free run (each task its own lock) with a pinned window:
   rounds and commits are exactly predictable, and every window slot
   commits — the workhorse for cadence and perturbation tests. *)
let no_conflict_run ?(n = 100) ?(window = 8) ?(threads = 2) () =
  let locks = Array.init n (fun _ -> Galois.Lock.create ()) in
  let options = Galois.Policy.Det_options.make ~window:(Some window) () in
  Galois.Run.make
    ~operator:(fun ctx i -> Galois.Context.acquire ctx locks.(i))
    (Array.init n (fun i -> i))
  |> Galois.Run.policy (Galois.Policy.det ~options threads)

(* The [(round, digest prefix through that round)] trail of a run, one
   entry per round boundary, from a [Run.checkpoint ~every:1] hook. *)
let digest_trail run =
  let trail = ref [] in
  let report =
    run
    |> Galois.Run.checkpoint ~every:1 (fun snap ->
           let b = snap.Snapshot.boundary in
           trail := (b.Galois.Det_sched.b_rounds, b.Galois.Det_sched.b_digest) :: !trail)
    |> Galois.Run.exec
  in
  (List.rev !trail, report)

let test_checkpoint_cadence () =
  (* Cadence k: boundaries at exactly the rounds divisible by k. *)
  List.iter
    (fun every ->
      let rounds = ref [] in
      let report =
        no_conflict_run ()
        |> Galois.Run.checkpoint ~every (fun snap ->
               rounds := snap.Snapshot.boundary.Galois.Det_sched.b_rounds :: !rounds)
        |> Galois.Run.exec
      in
      let expected =
        List.filter
          (fun r -> r mod every = 0)
          (List.init report.Galois.Run.stats.rounds (fun i -> i + 1))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "cadence %d" every)
        expected (List.rev !rounds))
    [ 1; 2; 3; 5 ]

let test_stop_after_prefix () =
  (* stop_after r executes exactly min r total rounds, and its digest is
     the digest prefix of the full run at that round (checked via the
     full run's checkpoint trail). *)
  let trail, full = digest_trail (no_conflict_run ()) in
  check_int "trail covers the run" full.Galois.Run.stats.rounds (List.length trail);
  List.iter
    (fun r ->
      let report = no_conflict_run () |> Galois.Run.stop_after r |> Galois.Run.exec in
      let stopped_at = min r full.Galois.Run.stats.rounds in
      check_int (Printf.sprintf "rounds at stop %d" r) stopped_at
        report.Galois.Run.stats.rounds;
      check_digest
        (Printf.sprintf "digest prefix at %d" r)
        (List.assoc stopped_at trail)
        report.Galois.Run.stats.digest)
    [ 1; 2; 7; 1000 ]

let test_perturbed_snapshot_localized () =
  (* The negative control: capture the round-2 boundary of the
     conflict-free run, swap two pending entries, and resume — every
     window slot commits, so the swap is visible in the round-3 digest
     fold, and the resumed run's digest trail must first differ from the
     reference trail at exactly round 3. *)
  let trail_ref, _ = digest_trail (no_conflict_run ()) in
  let first_divergence run =
    List.find_map
      (fun (round, d) -> if D.equal d (List.assoc round trail_ref) then None else Some round)
      (fst (digest_trail run))
  in
  let captured = ref None in
  let _ =
    no_conflict_run ()
    |> Galois.Run.checkpoint ~every:1 (fun snap ->
           if snap.Snapshot.boundary.Galois.Det_sched.b_rounds = 2 then captured := Some snap)
    |> Galois.Run.exec
  in
  let snap = match !captured with Some s -> s | None -> Alcotest.fail "no round-2 boundary" in
  let b = snap.Snapshot.boundary in
  check_bool "enough pending to swap" true
    (Array.length b.Galois.Det_sched.b_pending_ids >= 2);
  let perturbed = { snap with Snapshot.boundary = Replay.swap_pending_ids 0 1 b } in
  Alcotest.(check (option int))
    "localized to round 3" (Some 3)
    (first_divergence (no_conflict_run () |> Galois.Run.resume perturbed));
  (* Control of the control: resuming from the *unperturbed* boundary
     agrees everywhere. *)
  Alcotest.(check (option int))
    "clean resume agrees" None
    (first_divergence (no_conflict_run () |> Galois.Run.resume snap))

let test_swap_bounds () =
  let b = (sample_snapshot ()).Snapshot.boundary in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Replay.swap_pending_ids: index out of bounds") (fun () ->
      ignore (Replay.swap_pending_ids 0 99 b))

(* ------------------------------------------------------------------ *)
(* Builder validation                                                  *)
(* ------------------------------------------------------------------ *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: accepted" what

let test_builder_validation () =
  let base () = no_conflict_run () in
  expect_invalid "cadence < 1" (fun () ->
      base () |> Galois.Run.checkpoint ~every:0 ignore |> Galois.Run.exec);
  expect_invalid "stop_after < 1" (fun () ->
      base () |> Galois.Run.stop_after 0 |> Galois.Run.exec);
  expect_invalid "checkpoint under serial" (fun () ->
      Galois.Run.make ~operator:(fun _ _ -> ()) [| 0 |]
      |> Galois.Run.checkpoint ~every:1 ignore
      |> Galois.Run.exec);
  expect_invalid "checkpoint under nondet" (fun () ->
      Galois.Run.make ~operator:(fun _ _ -> ()) [| 0 |]
      |> Galois.Run.policy (Galois.Policy.nondet 2)
      |> Galois.Run.checkpoint ~every:1 ignore
      |> Galois.Run.exec)

(* The round-1 snapshot of a run, kept in memory. *)
let round_one_snapshot run =
  let s = ref None in
  let _ =
    run
    |> Galois.Run.checkpoint ~every:1 (fun snap -> s := Some snap)
    |> Galois.Run.stop_after 1
    |> Galois.Run.exec
  in
  Option.get !s

let test_resume_validation () =
  (* A snapshot taken under one set of det options must be refused by a
     description running under another, and by a mismatched app tag —
     here after an encode/decode round trip. *)
  let bytes_of run = Snapshot.encode (round_one_snapshot run) in
  let bytes = bytes_of (no_conflict_run ~window:8 ()) in
  expect_invalid "options mismatch" (fun () ->
      no_conflict_run ~window:16 () |> Galois.Run.resume (decoded bytes) |> Galois.Run.exec);
  (* App tags are validated only when both sides carry one (an untagged
     snapshot resumes anywhere), so mismatch needs a tagged snapshot. *)
  let tagged = bytes_of (no_conflict_run ~window:8 () |> Galois.Run.app "control-a") in
  expect_invalid "app mismatch" (fun () ->
      no_conflict_run ~window:8 ()
      |> Galois.Run.app "control-b"
      |> Galois.Run.resume (decoded tagged)
      |> Galois.Run.exec);
  (* Same options, same (empty) app: accepted and completes. *)
  let report =
    no_conflict_run ~window:8 () |> Galois.Run.resume (decoded bytes) |> Galois.Run.exec
  in
  check_int "resumed to completion" 100 report.Galois.Run.stats.commits

let test_live_resume_validation () =
  (* A snapshot that never left the process is checked like a decoded
     one: resumed under another window it would run a different
     schedule, so it is refused. *)
  let snap = round_one_snapshot (no_conflict_run ~window:8 ()) in
  match no_conflict_run ~window:16 () |> Galois.Run.resume snap |> Galois.Run.exec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "live resume under other det options: accepted"

(* A malformed boundary must be refused by [Det_sched.run] itself,
   before anything is loaded or run, with its own [Invalid_argument]
   rather than a stray index error. The sample boundary (generation
   [30, 40), parent 31 with births 0 and 1) is the positive control. *)
let resume_sample b =
  Parallel.Domain_pool.with_pool 1 (fun pool ->
      Galois.Det_sched.run ~pool ~options:Galois.Policy.default_det ~static_id:None
        ~resume:b ~operator:(fun _ _ -> ()) [||])

let expect_resume_refused what b =
  match resume_sample b with
  | exception Invalid_argument msg ->
      check_bool (what ^ ": names Det_sched.run") true
        (String.starts_with ~prefix:"Det_sched.run: " msg)
  | _ -> Alcotest.failf "%s: accepted" what

let sample_boundary () = (sample_snapshot ()).Snapshot.boundary

let test_resume_sample_accepted () =
  let stats, _ = resume_sample (sample_boundary ()) in
  (* 25 carried commits, 3 pending tasks and the 2 todo children. *)
  check_int "commits" 30 stats.Galois.Stats.commits

let test_resume_short_births () =
  expect_resume_refused "short births column"
    { (sample_boundary ()) with b_todo_births = [| 0 |] }

let test_resume_short_parents () =
  expect_resume_refused "short parents column"
    { (sample_boundary ()) with b_todo_parents = [| 31 |] }

let test_resume_parent_below_generation () =
  expect_resume_refused "parent below the generation"
    { (sample_boundary ()) with b_todo_parents = [| 29; 29 |] }

let test_resume_parent_past_generation () =
  expect_resume_refused "parent at next_id"
    { (sample_boundary ()) with b_todo_parents = [| 31; 40 |] }

let test_resume_duplicate_births () =
  expect_resume_refused "duplicate births"
    { (sample_boundary ()) with b_todo_births = [| 0; 0 |] }

let test_resume_birth_gap () =
  expect_resume_refused "births with a gap"
    { (sample_boundary ()) with b_todo_births = [| 0; 2 |] }

let test_resume_repeated_pending_id () =
  expect_resume_refused "repeated pending id"
    { (sample_boundary ()) with b_pending_ids = [| 31; 34; 31 |] }

let test_resume_zero_window () =
  expect_resume_refused "zero window with pending tasks"
    { (sample_boundary ()) with b_window = 0 }

let suite =
  [
    Alcotest.test_case "gen: crash/resume over the lattice" `Quick
      test_gen_crash_resume_lattice;
    Alcotest.test_case "apps: crash/resume equivalence" `Quick test_apps_crash_resume;
    Alcotest.test_case "crash past end degrades to full run" `Quick
      test_crash_past_end_degrades;
    Alcotest.test_case "bytes resume into a fresh world" `Quick
      test_bytes_resume_fresh_world;
    Alcotest.test_case "checkpoint bytes thread-invariant" `Quick
      test_checkpoint_bytes_thread_invariant;
    Alcotest.test_case "checkpoint file round-trips" `Quick test_checkpoint_file_roundtrip;
    Alcotest.test_case "codec: round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: corruption detection" `Quick test_codec_corruption;
    Alcotest.test_case "codec: atomic save/load" `Quick test_save_load_atomic;
    Alcotest.test_case "checkpoint cadence" `Quick test_checkpoint_cadence;
    Alcotest.test_case "stop_after is a digest prefix" `Quick test_stop_after_prefix;
    Alcotest.test_case "perturbed snapshot localized" `Quick
      test_perturbed_snapshot_localized;
    Alcotest.test_case "swap bounds checked" `Quick test_swap_bounds;
    Alcotest.test_case "builder validation" `Quick test_builder_validation;
    Alcotest.test_case "resume validation" `Quick test_resume_validation;
    Alcotest.test_case "live resume validation" `Quick test_live_resume_validation;
    Alcotest.test_case "resume: sample boundary accepted" `Quick test_resume_sample_accepted;
    Alcotest.test_case "resume: short births refused" `Quick test_resume_short_births;
    Alcotest.test_case "resume: short parents refused" `Quick test_resume_short_parents;
    Alcotest.test_case "resume: parent below generation refused" `Quick
      test_resume_parent_below_generation;
    Alcotest.test_case "resume: parent past generation refused" `Quick
      test_resume_parent_past_generation;
    Alcotest.test_case "resume: duplicate births refused" `Quick test_resume_duplicate_births;
    Alcotest.test_case "resume: births with a gap refused" `Quick test_resume_birth_gap;
    Alcotest.test_case "resume: repeated pending id refused" `Quick
      test_resume_repeated_pending_id;
    Alcotest.test_case "resume: zero window with pending tasks refused" `Quick
      test_resume_zero_window;
  ]
