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
  check_bool "digest absent" true (D.is_absent z.digest)

let test_zero_commit_abort_ratio () =
  (* No attempts at all: the ratio must be 0, not NaN. *)
  check_float "no attempts" 0.0 (Stats.abort_ratio (Stats.zero 1));
  (* Aborts but no commits (a run that never succeeded): ratio 1. *)
  let only_aborts = { (Stats.zero 2) with aborts = 7 } in
  check_float "all aborts" 1.0 (Stats.abort_ratio only_aborts);
  (* Commits but no aborts. *)
  let only_commits = { (Stats.zero 2) with commits = 9 } in
  check_float "no aborts" 0.0 (Stats.abort_ratio only_commits)

let test_zero_is_neutral_for_add () =
  let worker = Obs.counters 0 in
  worker.committed <- 5;
  worker.aborted <- 2;
  worker.work <- 11;
  let s =
    Stats.merge ~digest:(D.fold_int D.seed 42) ~threads:4 ~rounds:3 ~generations:1 [| worker |]
  in
  check_bool "right zero" true (Stats.add s (Stats.zero 4) = s);
  check_bool "left zero" true (Stats.add (Stats.zero 4) s = s)

let test_add_heterogeneous_threads () =
  (* Combining a 1-thread epoch with a 4-thread epoch (preflow-push
     style): counters sum, thread count is the max. *)
  let mk ~threads ~commits =
    let w = Obs.counters 0 in
    w.committed <- commits;
    Stats.merge ~threads ~rounds:1 ~generations:1 [| w |]
  in
  let a = mk ~threads:1 ~commits:10 in
  let b = mk ~threads:4 ~commits:30 in
  let s = Stats.add a b in
  check_int "threads is max" 4 s.threads;
  check_int "commits sum" 40 s.commits;
  check_int "rounds sum" 2 s.rounds;
  check_int "order-insensitive counters" 40 (Stats.add b a).commits

let test_merge_sums_workers () =
  (* Worker w's k-th table counter is 100w + k + 1: every value is
     distinct, and so is every three-worker sum, so a dropped or swapped
     field in the sum or in the projection onto [Stats.t] shows. *)
  let mk w =
    let c = Obs.counters w in
    List.iteri (fun k f -> f.Obs.set c ((100 * w) + k + 1)) Obs.counter_table;
    c
  in
  let s =
    Stats.merge ~threads:3 ~rounds:5 ~generations:2 [| mk 0; mk 1; mk 2 |]
  in
  let sum name =
    match List.find_index (fun f -> f.Obs.name = name) Obs.counter_table with
    | Some k -> 300 + (3 * (k + 1))
    | None -> Alcotest.failf "no counter %S" name
  in
  check_int "commits" (sum "committed") s.commits;
  check_int "aborts" (sum "aborted") s.aborts;
  check_int "acquired" (sum "acquires") s.acquired;
  check_int "atomics" (sum "atomics") s.atomics;
  check_int "work_units" (sum "work") s.work_units;
  check_int "created" (sum "pushes") s.created;
  check_int "inspected" (sum "inspections") s.inspected;
  check_int "chunks" (sum "chunks") s.chunks;
  check_int "spins" (sum "spins") s.spins;
  check_int "parks" (sum "parks") s.parks;
  (* [totals] inverts the projection. *)
  let back = Stats.totals s in
  List.iter
    (fun f -> check_int ("totals " ^ f.Obs.name) (sum f.Obs.name) (f.Obs.get back))
    Obs.counter_table;
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

let test_add_chains_digests () =
  let mk d =
    Stats.merge ~digest:d ~threads:1 ~rounds:1 ~generations:1 [| Obs.counters 0 |]
  in
  let a = mk (D.fold_int D.seed 7) and b = mk (D.fold_int D.seed 8) in
  let s = Stats.add a b in
  check_bool "chained digest" true (D.equal s.digest (D.combine a.digest b.digest));
  check_bool "not absent" false (D.is_absent s.digest);
  (* Adding a digest-less run (serial epoch between det epochs) keeps the
     digest. *)
  check_bool "absent passthrough" true (D.equal (Stats.add a (Stats.zero 1)).digest a.digest)

(* A det report holds no time, so apart from the pool-dependent fields
   it is a function of the input alone: the whole record, not just the
   digest, agrees at every thread count. *)
let test_det_stats_thread_invariant () =
  let schedule_part (s : Stats.t) = { s with threads = 0; chunks = 0; spins = 0; parks = 0 } in
  Galois.Pool.with_pool ~domains:4 @@ fun pool ->
  List.iter
    (fun (Detcheck.Replay_cases.Case c) ->
      let stats threads =
        let run, _ = c.fresh ~static_id:false () in
        let report =
          run |> Galois.Run.policy (Galois.Policy.det threads) |> Galois.Run.pool pool
          |> Galois.Run.exec
        in
        schedule_part report.stats
      in
      let reference = stats 1 in
      List.iter
        (fun t ->
          check_bool (Printf.sprintf "%s: det:%d stats equal det:1" c.name t) true
            (stats t = reference))
        [ 2; 4 ])
    [ Detcheck.Replay_cases.gen ~seed:7; Detcheck.Replay_cases.bfs ~n:300 ~seed:7 ]

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

(* [fold_ints] is [fold_int] over an array prefix, element by element:
   random prefixes of arrays mixing small, negative and extreme ints,
   including the empty prefix, and out-of-range lengths rejected. *)
let test_fold_ints_matches_fold_int () =
  let rng = Parallel.Splitmix.create 0xf01d in
  let special = [| 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1; 255; -256 |] in
  for _ = 1 to 500 do
    let len = Parallel.Splitmix.int rng 40 in
    let a =
      Array.init len (fun _ ->
          match Parallel.Splitmix.int rng 3 with
          | 0 -> special.(Parallel.Splitmix.int rng (Array.length special))
          | 1 -> Parallel.Splitmix.int rng 1_000_000 - 500_000
          | _ -> Int64.to_int (Parallel.Splitmix.next_int64 rng))
    in
    let n = Parallel.Splitmix.int rng (len + 1) in
    let start = D.fold_int D.seed (Parallel.Splitmix.int rng 1000) in
    let expected = ref start in
    for i = 0 to n - 1 do
      expected := D.fold_int !expected a.(i)
    done;
    check_bool "fold_ints = fold_int over the prefix" true
      (D.equal !expected (D.fold_ints start a n))
  done;
  check_bool "n = 0 is the identity" true (D.equal D.seed (D.fold_ints D.seed [| 1; 2 |] 0));
  check_bool "empty array" true (D.equal D.seed (D.fold_ints D.seed [||] 0));
  check_bool "negatives and extremes" true
    (D.equal
       (D.fold_int (D.fold_int (D.fold_int (D.fold_int D.seed (-1)) max_int) min_int) 0)
       (D.fold_ints D.seed [| -1; max_int; min_int; 0 |] 4));
  List.iter
    (fun n ->
      match D.fold_ints D.seed [| 1; 2 |] n with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "fold_ints accepted n = %d over 2 elements" n)
    [ -1; 3 ]

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
    Alcotest.test_case "zero neutral for add" `Quick test_zero_is_neutral_for_add;
    Alcotest.test_case "add across thread counts" `Quick test_add_heterogeneous_threads;
    Alcotest.test_case "merge sums worker counters" `Quick test_merge_sums_workers;
    Alcotest.test_case "trace digest monoid" `Quick test_digest_monoid;
    Alcotest.test_case "add chains digests" `Quick test_add_chains_digests;
    Alcotest.test_case "det stats thread-invariant" `Quick test_det_stats_thread_invariant;
    Alcotest.test_case "of_hex round-trips" `Quick test_of_hex_roundtrip;
    Alcotest.test_case "fold_ints matches fold_int" `Quick test_fold_ints_matches_fold_int;
    Alcotest.test_case "empty run digest" `Quick test_empty_run_digest;
    Alcotest.test_case "single-round digest by hand" `Quick test_single_round_digest;
    Alcotest.test_case "digest survives pp round-trip" `Quick
      test_digest_survives_pp_roundtrip;
  ]
