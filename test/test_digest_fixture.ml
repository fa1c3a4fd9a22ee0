(* Schedule-neutrality fixture.

   Scheduler *performance* work must not perturb the deterministic
   schedule: detcheck proves invariance across thread counts and
   configurations within one build, but only a pinned fixture can prove
   invariance across *versions of the scheduler itself*. Any change to a
   single window decision, commit choice or deterministic event shows
   up as a digest mismatch here.

   Each entry is one (table row, lattice configuration) point run at 2
   threads (thread-count invariance is detcheck's job): the round-trace
   digest [Stats.t.digest] and an FNV digest of the rendered
   deterministic event stream [Obs.deterministic_lines].

   A change that moves the schedule may re-pin these tables only when a
   ROADMAP direction authorises that schedule change; an optimisation
   that merely happens to move it must be fixed instead. The re-pinned
   tables must pass detcheck's thread-invariance lattice, and CHANGES.md
   lists the rows that changed and the rows that did not. To print both
   tables, ready to paste over [expected] and [expected_prio]:

     FIXTURE_PRINT=1 dune exec test/test_main.exe -- test digest-fixture \
       --verbose | sed -n 's/^fixture: //p'

   In print mode the two table tests print instead of comparing, and
   the pool-reuse and midpoint-resume tests skip their comparisons
   against the pinned tables (resume is checked against this build's
   uninterrupted run instead). *)

module D = Galois.Trace_digest

let printing = Sys.getenv_opt "FIXTURE_PRINT" <> None

let print_table name rows =
  let line s = print_endline ("fixture: " ^ s) in
  line (Printf.sprintf "let %s =" name);
  line "  [";
  List.iter (fun row -> line (Printf.sprintf "    %S;" row)) rows;
  line "  ]"

(* The fixture's nine table rows, shared by both tables and the
   midpoint-resume test. *)
let rows () =
  [
    Detcheck.Replay_cases.gen ~seed:1;
    Detcheck.Replay_cases.gen ~seed:2;
    Detcheck.Replay_cases.gen ~seed:3;
    Detcheck.Replay_cases.gen ~seed:42;
    Detcheck.Replay_cases.bfs ~n:300 ~seed:7;
    Detcheck.Replay_cases.sssp ~n:300 ~seed:7;
    Detcheck.Replay_cases.boruvka ~n:300 ~seed:7;
    Detcheck.Replay_cases.dmr ~points:90 ~seed:7;
    Detcheck.Replay_cases.gen_repeated ~seed:7;
  ]

let observe_configs configs pool =
  List.concat_map
    (fun (Detcheck.Replay_cases.Case c) ->
      List.map
        (fun (cfg : Detcheck.config) ->
          let run, _ = c.fresh ~static_id:cfg.static_id () in
          let report =
            run
            |> Galois.Run.policy (Galois.Policy.det ~options:cfg.options 2)
            |> Galois.Run.pool pool
            |> Galois.Run.trace
            |> Galois.Run.exec
          in
          Printf.sprintf "%s|%s|%s|%s" c.name cfg.label
            (D.to_hex report.stats.digest)
            (D.to_hex
               (D.fold_string D.seed (Obs.deterministic_lines (Option.get report.trace)))))
        (configs ~static_id_capable:c.static_id_capable))
    (rows ())

(* The first table covers the unordered configurations only: the
   soft-priority axis landed later and has its own table below, so the
   lattice's prio rows are filtered out here, and prio=off runs must
   hit this table byte-for-byte. *)
let observed =
  observe_configs (fun ~static_id_capable ->
      List.filter
        (fun (cfg : Detcheck.config) ->
          cfg.options.Galois.Policy.priority = Galois.Policy.Prio_off)
        (Detcheck.lattice ~static_id_capable))

(* case|config|sched-digest|det-event-stream-digest — captured from the
   DIG scheduler 2026-08-06, re-pinned 2026-10-17 when the window
   controller's shrink floor became the previous round's commit count
   instead of the constant 32 (ROADMAP direction 4(b)). The ratio=0.5
   rows (a non-default window target ratio) were added 2026-10-19, and
   the repeated-gen rows (children that repeat items, so static ids
   collapse them) later that day; no other row moved. *)
let expected =
  [
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|default|534606af406d06de|a6f3b3c9ed1def70";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|window=8|824a7acfd64543d3|ecd76c272ca75444";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|window=256|7dddcf3a308cf750|986fb14534274fa7";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|spread=1|371ca1cdc7d9d053|4ae1a7c9576da30a";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|no-continuation|534606af406d06de|c0c4a0a62af60de0";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|validate|534606af406d06de|a6f3b3c9ed1def70";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|ratio=0.5|f800bcb6b1915820|b5e24cc76e9dbb82";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|default|1a4e77480b051b9a|beb83b74b1114c5b";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|window=8|c8c51652b16119be|a39039eeef063322";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|window=256|0383e6f4e099e181|ad7e9a872bc01736";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|spread=1|a7392c33c58cbcf3|ab1ed354535c3949";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|no-continuation|1a4e77480b051b9a|79f45daab725e8b2";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|validate|1a4e77480b051b9a|beb83b74b1114c5b";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|ratio=0.5|66228a998fea09f4|d08c48be40f83047";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|static-id|1a4e77480b051b9a|beb83b74b1114c5b";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|static-id+window=8|c8c51652b16119be|a39039eeef063322";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|default|2d9dc0112b6d1fe1|2c0b683efea0070d";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|window=8|ea39ef5cb3474d55|24941e7774a97042";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|window=256|e2f5c05e9b8dc3e9|723fe42fe254f608";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|spread=1|bc29db6bb319c958|5c3fac6aa678ce19";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|no-continuation|2d9dc0112b6d1fe1|3972d8c16f38ca47";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|validate|2d9dc0112b6d1fe1|2c0b683efea0070d";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|ratio=0.5|ecf0074deda58c9e|cf938268b2e490a3";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|default|81ac2205fb8644ad|afbb3484d1c59fff";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|window=8|128f13bab15d0b69|37d5742d74eb5276";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|window=256|cb6c47f0c7edb2ae|bd3d20fea09aa99a";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|spread=1|cdda6670f4710689|5d7144e5a301940e";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|no-continuation|81ac2205fb8644ad|87fa430f8b6ec75c";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|validate|81ac2205fb8644ad|afbb3484d1c59fff";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|ratio=0.5|34a9078b8cce13ed|f30244c960f795cf";
    "bfs(n=300,seed=7)|default|d4e6c300355680ef|e5a5528debe6b72c";
    "bfs(n=300,seed=7)|window=8|60a4bec3d639a50f|3a253ed97691a5cd";
    "bfs(n=300,seed=7)|window=256|c2529553a0b3f284|b8a5b0a352dbe20d";
    "bfs(n=300,seed=7)|spread=1|d599d4e5d201a58e|b9ed78f0975f34f9";
    "bfs(n=300,seed=7)|no-continuation|d4e6c300355680ef|e5a5528debe6b72c";
    "bfs(n=300,seed=7)|validate|d4e6c300355680ef|e5a5528debe6b72c";
    "bfs(n=300,seed=7)|ratio=0.5|1b40d8f123631e1d|78dc6093c474780d";
    "sssp(n=300,seed=7)|default|d91627f2d08a907a|57c3c35a031c72e5";
    "sssp(n=300,seed=7)|window=8|a83b52b6509e4770|4775c2c3debc14b4";
    "sssp(n=300,seed=7)|window=256|d106b66b418690e3|5d7436660d49599f";
    "sssp(n=300,seed=7)|spread=1|a6eb6e42da28f0fc|0fd11ae531e63bca";
    "sssp(n=300,seed=7)|no-continuation|d91627f2d08a907a|57c3c35a031c72e5";
    "sssp(n=300,seed=7)|validate|d91627f2d08a907a|57c3c35a031c72e5";
    "sssp(n=300,seed=7)|ratio=0.5|d0ec0d7f95957c3e|42e7913f56099532";
    "boruvka(n=300,seed=7)|default|a977eea10010f348|68c7b2be8f4870f3";
    "boruvka(n=300,seed=7)|window=8|c7e72a622f3f2bce|fcc28e4e26af899e";
    "boruvka(n=300,seed=7)|window=256|b8ee78853bf902c9|8b6641a8739cc240";
    "boruvka(n=300,seed=7)|spread=1|c875d2560295619c|d9a25a2c3c10c64b";
    "boruvka(n=300,seed=7)|no-continuation|a977eea10010f348|68c7b2be8f4870f3";
    "boruvka(n=300,seed=7)|validate|a977eea10010f348|68c7b2be8f4870f3";
    "boruvka(n=300,seed=7)|ratio=0.5|4da4b71c73d89eaf|b112f3e5dcd41996";
    "dmr(points=90,seed=7)|default|db9dda662af3558b|8b7c152201886452";
    "dmr(points=90,seed=7)|window=8|5ff0ae9e52839ec1|bb1dad1c8ac203da";
    "dmr(points=90,seed=7)|window=256|af1309169d1d38db|b61ae84f7accebb7";
    "dmr(points=90,seed=7)|spread=1|0b642ad9b5b9f270|7f8b21e79fe5edbb";
    "dmr(points=90,seed=7)|no-continuation|db9dda662af3558b|217c872f03b40294";
    "dmr(points=90,seed=7)|validate|db9dda662af3558b|8b7c152201886452";
    "dmr(points=90,seed=7)|ratio=0.5|d794d7cfeea3fab7|11393bd7df24b744";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|default|85eb60986ac5da5a|a3c57fee4c339f42";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|window=8|66b400d3c4fcbbbc|8d98e9c374ec5aeb";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|window=256|30e92d51236db848|d3cfbc1201affdb4";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|spread=1|ce770e8bd0acdbc2|bf2eeb2219d5881e";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|no-continuation|85eb60986ac5da5a|4b7c1cc4797d8f6e";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|validate|85eb60986ac5da5a|a3c57fee4c339f42";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|ratio=0.5|c46f81526c9af07d|fd64bd8ecd42f275";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|static-id|97d6f723c20061d1|1a666382d4ddeebb";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|static-id+window=8|a4f173a55b0deb37|3c2e9cd4043849f2";
  ]

let test_fixture () =
  let got = Galois.Pool.with_pool ~domains:2 observed in
  if printing then print_table "expected" got
  else begin
    Alcotest.(check int) "fixture size" (List.length expected) (List.length got);
    List.iter2
      (fun e g -> Alcotest.(check string) "schedule digest pinned" e g)
      expected got
  end

(* Soft-priority fixture: the same nine rows under ordered
   configurations, captured when the delta-stepping bucket axis landed.
   Pins the bucket layout (floor-division bucketing, id order within a
   bucket, per-run spread), the digest folds (generation length, delta,
   per-run (bucket, size) at each open) and the Bucket_opened /
   Bucket_drained event stream. Regenerate like the table above — only
   for an intentional change to ordered scheduling. *)
let prio_configs ~static_id_capable:_ =
  let base = Galois.Policy.default_det in
  let prio p = { base with Galois.Policy.priority = p } in
  [
    {
      Detcheck.label = "prio=delta:1";
      options = prio (Galois.Policy.Prio_delta 1);
      static_id = false;
    };
    {
      Detcheck.label = "prio=delta:8";
      options = prio (Galois.Policy.Prio_delta 8);
      static_id = false;
    };
    { Detcheck.label = "prio=auto"; options = prio Galois.Policy.Prio_auto; static_id = false };
    {
      Detcheck.label = "prio=auto+window=8";
      options = { (prio Galois.Policy.Prio_auto) with initial_window = Some 8 };
      static_id = false;
    };
    {
      Detcheck.label = "prio=delta:2+spread=1";
      options = { (prio (Galois.Policy.Prio_delta 2)) with spread = 1 };
      static_id = false;
    };
  ]

let observed_prio = observe_configs prio_configs

(* case|config|sched-digest|det-event-stream-digest — soft-priority
   scheduler, captured 2026-08-07 and re-pinned with the table above;
   the repeated-gen rows were added with the table above's. Apps without a priority hint (bfs, boruvka, dmr) land in a single
   bucket 0: their event streams agree across deltas (bucket events
   carry no delta) while their schedule digests still pin the folded
   delta value. *)
let expected_prio =
  [
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=delta:1|fb31015e13d95772|2b326a1605678729";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=delta:8|0f5af9d88821764f|22b8448347adc30f";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=auto|fb31015e13d95772|2b326a1605678729";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=auto+window=8|fb31015e13d95772|d92615b92ce3572b";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=delta:2+spread=1|3db1031494af8738|396c1ccfc84dee27";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=delta:1|2b050644a963eeaf|df93a2c510b79677";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=delta:8|e765d65f9190f194|3e7c5d4c44d24c14";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=auto|2b050644a963eeaf|df93a2c510b79677";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=auto+window=8|2b050644a963eeaf|32b0e6080d184b22";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=delta:2+spread=1|70157c6bdd664815|278465ba9ce515a4";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=delta:1|7fa5c487043518c8|f8d228b9c65c1060";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=delta:8|b396038052a71bc7|7a69d7e596370f31";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=auto|7fa5c487043518c8|f8d228b9c65c1060";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=auto+window=8|de6c488e577935aa|58d030470da858c4";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=delta:2+spread=1|ebcbe0f6c4b2102c|5fcd528b9827dbb3";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=delta:1|98a212eafe61274d|aec793a61aca5815";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=delta:8|f45d772b49301dec|34ca96cc96a70943";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=auto|98a212eafe61274d|aec793a61aca5815";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=auto+window=8|98a212eafe61274d|b4f777bb57ef985c";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=delta:2+spread=1|5ef7f6a634265fed|754fc43719323624";
    "bfs(n=300,seed=7)|prio=delta:1|3bcd335eb76963b9|0a8af1b60e71cde5";
    "bfs(n=300,seed=7)|prio=delta:8|aa956575e3aaa344|0a8af1b60e71cde5";
    "bfs(n=300,seed=7)|prio=auto|3bcd335eb76963b9|0a8af1b60e71cde5";
    "bfs(n=300,seed=7)|prio=auto+window=8|c61fb06028a9351d|c87e57712d002f9d";
    "bfs(n=300,seed=7)|prio=delta:2+spread=1|aaec1d735c37d5cc|680f4e25239b5a24";
    "sssp(n=300,seed=7)|prio=delta:1|d032ff75ff89f6a4|f0bae2ef9fbce847";
    "sssp(n=300,seed=7)|prio=delta:8|d871d9320d980897|b54ac63a5511973b";
    "sssp(n=300,seed=7)|prio=auto|4ecb54fd2c873f30|f6d4a9c5e3bb46c5";
    "sssp(n=300,seed=7)|prio=auto+window=8|4ecb54fd2c873f30|76563fef8540f536";
    "sssp(n=300,seed=7)|prio=delta:2+spread=1|8bd80ba80b009414|efd8875034d0f387";
    "boruvka(n=300,seed=7)|prio=delta:1|0c4f5ab86b4f040b|16b4ae195185311d";
    "boruvka(n=300,seed=7)|prio=delta:8|2bc53420f040420f|16b4ae195185311d";
    "boruvka(n=300,seed=7)|prio=auto|0c4f5ab86b4f040b|16b4ae195185311d";
    "boruvka(n=300,seed=7)|prio=auto+window=8|6da53e1cd0785bc1|3062d6254ec33c04";
    "boruvka(n=300,seed=7)|prio=delta:2+spread=1|af0f44195da1ca87|29e797264c6498e5";
    "dmr(points=90,seed=7)|prio=delta:1|bfbbd0635197a74a|19918d13da00655e";
    "dmr(points=90,seed=7)|prio=delta:8|a78fdfc94e299f63|19918d13da00655e";
    "dmr(points=90,seed=7)|prio=auto|bfbbd0635197a74a|19918d13da00655e";
    "dmr(points=90,seed=7)|prio=auto+window=8|c30b04e77306a107|d5844fb0f4e13dfc";
    "dmr(points=90,seed=7)|prio=delta:2+spread=1|123b4f4d739dfd3d|056a561bf0f99728";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|prio=delta:1|91200eb68b9807e2|2754f912ece05977";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|prio=delta:8|69189896ff598e10|10b2046ae612f996";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|prio=auto|91200eb68b9807e2|2754f912ece05977";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|prio=auto+window=8|91200eb68b9807e2|93d8a41f5778de22";
    "repeated-gen(seed=7,bipartite,tasks=134,locks=26,depth=2)|prio=delta:2+spread=1|74335c60bc65bae4|4f0127313f022178";
  ]

let test_prio_fixture () =
  let got = Galois.Pool.with_pool ~domains:2 observed_prio in
  if printing then print_table "expected_prio" got
  else begin
    Alcotest.(check int) "prio fixture size" (List.length expected_prio)
      (List.length got);
    List.iter2
      (fun e g -> Alcotest.(check string) "ordered schedule digest pinned" e g)
      expected_prio got
  end

(* Pool-reuse determinism: the whole unordered fixture run twice on one
   shared long-lived pool must byte-match itself *and* the pinned table
   — a reused pool (warm workers, accumulated sync counters) is
   schedule-neutral. *)
let test_pool_reuse () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let first = observed pool in
      let second = observed pool in
      Alcotest.(check int) "same size" (List.length first) (List.length second);
      List.iter2
        (fun a b -> Alcotest.(check string) "reused pool is schedule-neutral" a b)
        first second;
      if not printing then
        List.iter2
          (fun e g -> Alcotest.(check string) "reused pool hits the pinned table" e g)
          expected first)

(* Checkpoint/resume against the same tables: crash each fixture row
   at its midpoint round, resume live, and require the *pinned* digest —
   resume equivalence anchored to a cross-version constant, not merely
   to this build's own uninterrupted run. The prio=auto and prio=delta:8
   rows resume boundaries that carry a bucket width ([b_delta > 0]). *)
let pinned table name label =
  List.find_map
    (fun line ->
      match String.split_on_char '|' line with
      | [ n; l; sched; _ ] when n = name && l = label -> D.of_hex sched
      | _ -> None)
    table

let resume_rows =
  { Detcheck.label = "default"; options = Galois.Policy.default_det; static_id = false }
  :: List.filter
       (fun (cfg : Detcheck.config) -> cfg.label = "prio=auto" || cfg.label = "prio=delta:8")
       (prio_configs ~static_id_capable:false)

let test_resume_reproduces_pinned () =
  List.iter
    (fun (Detcheck.Replay_cases.Case c) ->
      List.iter
        (fun (cfg : Detcheck.config) ->
          let what = Printf.sprintf "%s|%s" c.name cfg.label in
          let table = if cfg.label = "default" then expected else expected_prio in
          let policy = Galois.Policy.det ~options:cfg.options 2 in
          let full_run, _ = c.fresh ~static_id:false () in
          let full = full_run |> Galois.Run.policy policy |> Galois.Run.exec in
          let pinned =
            if printing then full.Galois.Run.stats.digest
            else
              match pinned table c.name cfg.label with
              | Some d -> d
              | None -> Alcotest.failf "no pinned entry for %s" what
          in
          if not (D.equal pinned full.Galois.Run.stats.digest) then
            Alcotest.failf "%s: uninterrupted run missed the pinned digest" what;
          let at = max 1 (full.Galois.Run.stats.rounds / 2) in
          let crash_run, _ = c.fresh ~static_id:false () in
          match Replay.crash_resume ~at (crash_run |> Galois.Run.policy policy) with
          | { Replay.crash_round = 0; _ } ->
              Alcotest.failf "%s: no boundary captured by round %d" what at
          | { Replay.resumed; crash_round } ->
              if not (D.equal pinned resumed.Galois.Run.stats.digest) then
                Alcotest.failf "%s: resume from round %d missed the pinned digest" what
                  crash_round)
        resume_rows)
    (rows ())

let suite =
  [
    Alcotest.test_case "pre-rework schedule digests" `Slow test_fixture;
    Alcotest.test_case "soft-priority schedule digests" `Slow test_prio_fixture;
    Alcotest.test_case "pool reuse is schedule-neutral" `Slow test_pool_reuse;
    Alcotest.test_case "midpoint resume hits pinned digests" `Slow
      test_resume_reproduces_pinned;
  ]
