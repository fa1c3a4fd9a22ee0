(* Stats algebra edge cases: the zero element, heterogeneous merges,
   abort-ratio corner cases, and the digest field's monoid behavior. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

module Stats = Galois.Stats
module D = Galois.Trace_digest

let test_zero_is_empty () =
  let z = Stats.zero 3 in
  check_int "threads" 3 z.threads;
  check_int "commits" 0 z.commits;
  check_int "aborts" 0 z.aborts;
  check_int "acquired" 0 z.acquired;
  check_int "atomics" 0 z.atomics;
  check_int "work" 0 z.work_units;
  check_int "created" 0 z.created;
  check_int "inspected" 0 z.inspected;
  check_int "rounds" 0 z.rounds;
  check_int "generations" 0 z.generations;
  check_bool "digest absent" true (D.is_absent z.digest);
  check_float "time" 0.0 z.time_s;
  check_float "no phase time" 0.0 (Stats.phase_total z.phases)

let test_zero_commit_abort_ratio () =
  (* No attempts at all: the ratio must be 0, not NaN. *)
  check_float "no attempts" 0.0 (Stats.abort_ratio (Stats.zero 1));
  (* Aborts but no commits (a run that never succeeded): ratio 1. *)
  let only_aborts = { (Stats.zero 2) with aborts = 7 } in
  check_float "all aborts" 1.0 (Stats.abort_ratio only_aborts);
  (* Commits but no aborts. *)
  let only_commits = { (Stats.zero 2) with commits = 9 } in
  check_float "no aborts" 0.0 (Stats.abort_ratio only_commits)

let test_zero_time_rates () =
  let s = { (Stats.zero 1) with commits = 100; atomics = 50 } in
  (* time_s = 0: rates must degrade to 0, not infinity. *)
  check_float "commit rate" 0.0 (Stats.commits_per_us s);
  check_float "atomics rate" 0.0 (Stats.atomics_per_us s)

let test_zero_is_neutral_for_add () =
  let worker = Stats.make_worker () in
  worker.committed <- 5;
  worker.aborted <- 2;
  worker.work <- 11;
  let s =
    Stats.merge ~digest:(D.fold_int D.seed 42) ~threads:4 ~rounds:3 ~generations:1 ~time_s:0.5
      [| worker |]
  in
  check_bool "right zero" true (Stats.add s (Stats.zero 4) = s);
  check_bool "left zero" true (Stats.add (Stats.zero 4) s = s)

let test_add_heterogeneous_threads () =
  (* Combining a 1-thread epoch with a 4-thread epoch (preflow-push
     style): counters sum, thread count is the max, times add. *)
  let mk ~threads ~commits ~time_s =
    let w = Stats.make_worker () in
    w.committed <- commits;
    Stats.merge ~threads ~rounds:1 ~generations:1 ~time_s [| w |]
  in
  let a = mk ~threads:1 ~commits:10 ~time_s:0.25 in
  let b = mk ~threads:4 ~commits:30 ~time_s:0.5 in
  let s = Stats.add a b in
  check_int "threads is max" 4 s.threads;
  check_int "commits sum" 40 s.commits;
  check_int "rounds sum" 2 s.rounds;
  check_float "times add" 0.75 s.time_s;
  check_int "order-insensitive counters" 40 (Stats.add b a).commits

let test_merge_sums_workers () =
  let mk c a =
    let w = Stats.make_worker () in
    w.committed <- c;
    w.aborted <- a;
    w.acquires <- c + a;
    w
  in
  let s =
    Stats.merge ~threads:3 ~rounds:5 ~generations:2 ~time_s:1.0 [| mk 1 2; mk 3 4; mk 5 6 |]
  in
  check_int "commits" 9 s.commits;
  check_int "aborts" 12 s.aborts;
  check_int "acquires" 21 s.acquired;
  check_int "threads as given" 3 s.threads;
  check_bool "digest defaults to absent" true (D.is_absent s.digest)

let test_digest_monoid () =
  let d1 = D.fold_int D.seed 1 and d2 = D.fold_int D.seed 2 in
  check_bool "absent neutral left" true (D.equal (D.combine D.absent d1) d1);
  check_bool "absent neutral right" true (D.equal (D.combine d1 D.absent) d1);
  check_bool "combine mixes" false (D.equal (D.combine d1 d2) d1);
  check_bool "fold is order-sensitive" false
    (D.equal (D.fold_int (D.fold_int D.seed 1) 2) (D.fold_int (D.fold_int D.seed 2) 1));
  check_bool "seed not absent" false (D.is_absent D.seed);
  Alcotest.(check string) "hex format" "cbf29ce484222325" (D.to_hex D.seed)

let test_phase_breakdown () =
  (* The common case: inspect + select measured, the remainder booked
     under other; the three slices sum to the wall time exactly. *)
  let p = Stats.breakdown ~inspect_s:0.3 ~select_s:0.5 ~time_s:1.0 in
  check_float "inspect" 0.3 p.Stats.inspect_s;
  check_float "select" 0.5 p.Stats.select_s;
  check_float "other" 0.2 p.Stats.other_s;
  check_float "sums to wall time" 1.0 (Stats.phase_total p);
  (* Measured phases can overshoot a coarse wall time by timer skew; the
     remainder clamps at 0 rather than going negative. *)
  let over = Stats.breakdown ~inspect_s:0.8 ~select_s:0.5 ~time_s:1.0 in
  check_float "other clamps" 0.0 over.Stats.other_s;
  (* Negative inputs are clamped away. *)
  let neg = Stats.breakdown ~inspect_s:(-1.0) ~select_s:0.25 ~time_s:0.5 in
  check_float "negative inspect clamps" 0.0 neg.Stats.inspect_s;
  check_float "remainder still non-negative" 0.25 neg.Stats.other_s

let test_phases_add_and_merge () =
  let mk phases time_s =
    Stats.merge ~phases ~threads:1 ~rounds:1 ~generations:1 ~time_s [| Stats.make_worker () |]
  in
  let a = mk (Stats.breakdown ~inspect_s:0.1 ~select_s:0.2 ~time_s:0.4) 0.4 in
  let b = mk (Stats.breakdown ~inspect_s:0.3 ~select_s:0.1 ~time_s:0.6) 0.6 in
  let s = Stats.add a b in
  check_float "inspect sums" 0.4 s.phases.Stats.inspect_s;
  check_float "select sums" 0.3 s.phases.Stats.select_s;
  check_float "phase total tracks time" s.time_s (Stats.phase_total s.phases);
  (* merge without ~phases books everything under other, keeping the
     total consistent. *)
  let plain =
    Stats.merge ~threads:1 ~rounds:1 ~generations:1 ~time_s:0.7 [| Stats.make_worker () |]
  in
  check_float "default books under other" 0.7 plain.phases.Stats.other_s;
  check_float "default total" 0.7 (Stats.phase_total plain.phases)

let test_add_chains_digests () =
  let mk d =
    Stats.merge ~digest:d ~threads:1 ~rounds:1 ~generations:1 ~time_s:0.0
      [| Stats.make_worker () |]
  in
  let a = mk (D.fold_int D.seed 7) and b = mk (D.fold_int D.seed 8) in
  let s = Stats.add a b in
  check_bool "chained digest" true (D.equal s.digest (D.combine a.digest b.digest));
  check_bool "not absent" false (D.is_absent s.digest);
  (* Adding a digest-less run (serial epoch between det epochs) keeps the
     digest. *)
  check_bool "absent passthrough" true (D.equal (Stats.add a (Stats.zero 1)).digest a.digest)

(* --- digest edge cases: empty runs, single rounds, text round-trips -- *)

let det_run ?(record = false) items =
  Galois.Run.make ~operator:(fun ctx _ -> Galois.Context.failsafe ctx) items
  |> Galois.Run.policy (Galois.Policy.det 2)
  |> (if record then Galois.Run.record else Fun.id)
  |> Galois.Run.exec

let test_of_hex_roundtrip () =
  (* Every digest round-trips through its hex rendering, including the
     absent digest's "-". *)
  List.iter
    (fun d ->
      match D.of_hex (D.to_hex d) with
      | Some got -> check_bool "round-trips" true (D.equal d got)
      | None -> Alcotest.failf "of_hex rejected %s" (D.to_hex d))
    [ D.seed; D.absent; D.fold_int D.seed 0; D.fold_int D.seed max_int;
      D.fold_string D.seed "x" ];
  (* The full unsigned 64-bit range parses (high-bit digests are
     negative as Int64). *)
  check_bool "high bit" true (Option.is_some (D.of_hex "ffffffffffffffff"));
  List.iter
    (fun s -> check_bool ("rejects " ^ s) true (D.of_hex s = None))
    [ ""; "123"; "cbf29ce48422232"; "cbf29ce4842223255"; "xbf29ce484222325";
      "CBF29CE484222325"; "0x29ce484222325aa" ]

let test_empty_run_digest () =
  (* Zero tasks: no generation is ever formed, so the digest is the bare
     FNV seed (present — a det run happened — but foldless), and the
     round/generation counters stay zero. *)
  let r = det_run ~record:true [||] in
  check_bool "digest is seed" true (D.equal D.seed r.stats.digest);
  check_bool "present" false (D.is_absent r.stats.digest);
  check_int "rounds" 0 r.stats.rounds;
  check_int "generations" 0 r.stats.generations;
  (* The recorded (empty) schedule digests consistently. *)
  match r.schedule with
  | Some s ->
      check_bool "empty schedule digest stable" true
        (D.equal (Galois.Schedule.digest s) (Galois.Schedule.digest s))
  | None -> Alcotest.fail "no schedule recorded"

let test_single_round_digest () =
  (* One conflict-free task: one generation of length 1, one round of
     window 1 committing id 1 (ids are 1-based). The digest is exactly
     that fold sequence — pinning the fold order (gen_len, then w_use,
     committed ids, n_committed). *)
  let r = det_run ~record:true [| 42 |] in
  check_int "rounds" 1 r.stats.rounds;
  check_int "generations" 1 r.stats.generations;
  let by_hand =
    D.fold_int (D.fold_int (D.fold_int (D.fold_int D.seed 1) 1) 1) 1
  in
  check_bool "hand-folded digest" true (D.equal by_hand r.stats.digest);
  (* And the structural schedule digest distinguishes it from empty. *)
  match (r.schedule, (det_run ~record:true [||]).schedule) with
  | Some one, Some zero ->
      check_bool "schedule digest distinguishes" false
        (D.equal (Galois.Schedule.digest one) (Galois.Schedule.digest zero))
  | _ -> Alcotest.fail "no schedule recorded"

let test_digest_survives_pp_roundtrip () =
  (* Stats.pp prints the digest in hex; extracting and re-parsing it
     must give back the identical digest — the contract behind pinned
     fixtures and the galois-run schedule dumps. *)
  let r = det_run (Array.init 50 Fun.id) in
  let rendered = Format.asprintf "%a" Stats.pp r.stats in
  let hex =
    let rec find i =
      if i + 7 > String.length rendered then None
      else if String.sub rendered i 7 = "digest=" then Some (i + 7)
      else find (i + 1)
    in
    match find 0 with
    | Some i -> String.sub rendered i 16
    | None -> Alcotest.fail "Stats.pp prints no digest"
  in
  match D.of_hex hex with
  | Some d -> check_bool "pp round-trips" true (D.equal d r.stats.digest)
  | None -> Alcotest.failf "unparseable digest %S in %S" hex rendered

let suite =
  [
    Alcotest.test_case "zero is the empty report" `Quick test_zero_is_empty;
    Alcotest.test_case "abort ratio without commits" `Quick test_zero_commit_abort_ratio;
    Alcotest.test_case "rates at zero time" `Quick test_zero_time_rates;
    Alcotest.test_case "zero neutral for add" `Quick test_zero_is_neutral_for_add;
    Alcotest.test_case "add across thread counts" `Quick test_add_heterogeneous_threads;
    Alcotest.test_case "merge sums worker counters" `Quick test_merge_sums_workers;
    Alcotest.test_case "phase breakdown clamps and sums" `Quick test_phase_breakdown;
    Alcotest.test_case "phases add and merge" `Quick test_phases_add_and_merge;
    Alcotest.test_case "trace digest monoid" `Quick test_digest_monoid;
    Alcotest.test_case "add chains digests" `Quick test_add_chains_digests;
    Alcotest.test_case "of_hex round-trips" `Quick test_of_hex_roundtrip;
    Alcotest.test_case "empty run digest" `Quick test_empty_run_digest;
    Alcotest.test_case "single-round digest by hand" `Quick test_single_round_digest;
    Alcotest.test_case "digest survives pp round-trip" `Quick
      test_digest_survives_pp_roundtrip;
  ]
