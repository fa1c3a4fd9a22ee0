(* Schedule-neutrality fixture.

   Scheduler *performance* work must not perturb the deterministic
   schedule: detcheck proves invariance across thread counts and
   configurations within one build, but only a pinned fixture can prove
   invariance across *versions of the scheduler itself*. This table was
   captured from the DIG scheduler before the allocation-free round
   pipeline rework and must stay byte-identical forever after; any
   optimization that changes a single window decision, commit choice or
   deterministic event shows up as a digest mismatch here.

   Each entry is one (case, lattice configuration) point run at 2
   threads (thread-count invariance is detcheck's job): the round-trace
   digest [Stats.t.digest] and an FNV digest of the rendered
   deterministic event stream [Obs.deterministic_lines].

   To regenerate after an *intentional* schedule change (a new
   scheduling feature, never a perf PR):

     FIXTURE_PRINT=1 dune exec test/test_main.exe -- test digest-fixture \
       | grep '|' > new_table  *)

module D = Galois.Trace_digest

let cases () =
  [
    Detcheck.Gen.case ~seed:1;
    Detcheck.Gen.case ~seed:2;
    Detcheck.Gen.case ~seed:3;
    Detcheck.Gen.case ~seed:42;
    Detcheck.App_cases.bfs ~n:300 ~seed:7;
    Detcheck.App_cases.sssp ~n:300 ~seed:7;
    Detcheck.App_cases.boruvka ~n:300 ~seed:7;
    Detcheck.App_cases.dmr ~points:90 ~seed:7;
  ]

let observe_configs configs pool =
  List.concat_map
    (fun (case : Detcheck.case) ->
      List.map
        (fun (cfg : Detcheck.config) ->
          let r =
            case.run
              ~policy:(Galois.Policy.det ~options:cfg.options 2)
              ~pool ~static_id:cfg.static_id
          in
          Printf.sprintf "%s|%s|%s|%s" case.name cfg.label
            (D.to_hex r.sched_digest)
            (D.to_hex (D.fold_string D.seed r.det_trace)))
        (configs ~static_id_capable:case.static_id_capable))
    (cases ())

(* The pinned pre-rework table covers the unordered configurations
   only: the soft-priority axis landed later and has its own table
   below, so the lattice's prio rows are filtered out here — those
   configurations did not exist when this table was captured, and
   prio=off runs must still hit it byte-for-byte. *)
let observed =
  observe_configs (fun ~static_id_capable ->
      List.filter
        (fun (cfg : Detcheck.config) ->
          cfg.options.Galois.Policy.priority = Galois.Policy.Prio_off)
        (Detcheck.lattice ~static_id_capable))

(* case|config|sched-digest|det-event-stream-digest — pre-rework DIG
   scheduler, captured 2026-08-06. *)
let expected =
  [
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|default|4713742fae67d9b2|49c169993e2bf383";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|window=8|8bacec0e712b55b6|cb5f005ae0ed4364";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|window=256|a0d52c870fd2d9b4|b6950b08b27b2e6c";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|spread=1|edf0792a151de7b0|2cbccc90c5bb302d";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|no-continuation|4713742fae67d9b2|4cfd1237f282b939";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|validate|4713742fae67d9b2|49c169993e2bf383";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|default|7507e48417b075cc|42d6ade20ec4d46c";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|window=8|0ab7c1b717740884|fc3ecc0f2f41ab20";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|window=256|70cd092f3a691e5f|102a96cb9257d928";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|spread=1|974ae2dadaeb2450|6e14eafdf790df96";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|no-continuation|7507e48417b075cc|c614939a40eeefde";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|validate|7507e48417b075cc|42d6ade20ec4d46c";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|static-id|7507e48417b075cc|42d6ade20ec4d46c";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|static-id+window=8|0ab7c1b717740884|fc3ecc0f2f41ab20";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|default|9a056e191473d8ad|47a903ac7374bd8c";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|window=8|d6fdbd96301080b4|882921d7d4e26baa";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|window=256|dcb93a15b0753078|d870e70b34ce08cb";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|spread=1|904b0c44aee593d0|2046a7718b7178b6";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|no-continuation|9a056e191473d8ad|1341c0b56f8c448c";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|validate|9a056e191473d8ad|47a903ac7374bd8c";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|default|33640c7159be1df0|6df41b6bd259e140";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|window=8|c8c4fa30118cfc07|148ae677c784c9ce";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|window=256|8bd2a12607251ea7|6a9e7680ef76649f";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|spread=1|b0ce4b3b0d6e675f|a420b1aaf23327fa";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|no-continuation|33640c7159be1df0|6f5eb748d3c9175d";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|validate|33640c7159be1df0|6df41b6bd259e140";
    "bfs(n=300,seed=7)|default|a1e8a3c10e1caa1d|4d42c65407005f57";
    "bfs(n=300,seed=7)|window=8|a1e8a3c10e1caa1d|57b6a64854164d4f";
    "bfs(n=300,seed=7)|window=256|a1e8a3c10e1caa1d|140e0d62dd5c6d53";
    "bfs(n=300,seed=7)|spread=1|a7271300f28d9a28|ca99bfd838b40432";
    "bfs(n=300,seed=7)|no-continuation|a1e8a3c10e1caa1d|4d42c65407005f57";
    "bfs(n=300,seed=7)|validate|a1e8a3c10e1caa1d|4d42c65407005f57";
    "sssp(n=300,seed=7)|default|11cf4248a6dce69b|95376b1da0779e7a";
    "sssp(n=300,seed=7)|window=8|11cf4248a6dce69b|234d1cd07929b0b2";
    "sssp(n=300,seed=7)|window=256|11cf4248a6dce69b|42e38457289be63e";
    "sssp(n=300,seed=7)|spread=1|d6f566bb11be7e2e|a73d1ec346c85032";
    "sssp(n=300,seed=7)|no-continuation|11cf4248a6dce69b|95376b1da0779e7a";
    "sssp(n=300,seed=7)|validate|11cf4248a6dce69b|95376b1da0779e7a";
    "boruvka(n=300,seed=7)|default|351c85fadb57e54e|8de8ee9b75bf829d";
    "boruvka(n=300,seed=7)|window=8|d66ef19aa3347ef3|83a7ff39dd222ddb";
    "boruvka(n=300,seed=7)|window=256|457bdd4bf3aa44c0|306744cf584a2dc4";
    "boruvka(n=300,seed=7)|spread=1|413411f9914cada4|a33da8e417a518af";
    "boruvka(n=300,seed=7)|no-continuation|351c85fadb57e54e|8de8ee9b75bf829d";
    "boruvka(n=300,seed=7)|validate|351c85fadb57e54e|8de8ee9b75bf829d";
    "dmr(points=90,seed=7)|default|df2dc57ff39641cc|cc296e6baaf6240b";
    "dmr(points=90,seed=7)|window=8|142f26b97ef73de2|7e9d6ff1e7a5adc3";
    "dmr(points=90,seed=7)|window=256|cf0f2dbba119ac53|11551373798df3de";
    "dmr(points=90,seed=7)|spread=1|deb013b85dce85e3|4ebb15a24af73102";
    "dmr(points=90,seed=7)|no-continuation|df2dc57ff39641cc|314ebb6f0e8248de";
    "dmr(points=90,seed=7)|validate|df2dc57ff39641cc|cc296e6baaf6240b";
  ]

let test_fixture () =
  let got = Galois.Pool.with_pool ~domains:2 observed in
  if Sys.getenv_opt "FIXTURE_PRINT" <> None then
    List.iter print_endline got
  else begin
    Alcotest.(check int) "fixture size" (List.length expected) (List.length got);
    List.iter2
      (fun e g -> Alcotest.(check string) "schedule digest pinned" e g)
      expected got
  end

(* Soft-priority fixture: the same eight cases under ordered
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
   scheduler, captured 2026-08-07. Apps without a priority hint (bfs,
   boruvka, dmr) land in a single bucket 0: their event streams agree
   across deltas (bucket events carry no delta) while their schedule
   digests still pin the folded delta value. *)
let expected_prio =
  [
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=delta:1|fb31015e13d95772|729c1065baadcf24";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=delta:8|5e058afff5366a75|5ff722e77492d6bd";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=auto|fb31015e13d95772|729c1065baadcf24";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=auto+window=8|fb31015e13d95772|1e77c32e9c583528";
    "gen(seed=1,subsets,tasks=42,locks=16,depth=1)|prio=delta:2+spread=1|3db1031494af8738|41e88c848ef813d5";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=delta:1|2b050644a963eeaf|df93a2c510b79677";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=delta:8|9aedb8ed9e2f6925|fe42f98fb75d005d";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=auto|2b050644a963eeaf|df93a2c510b79677";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=auto+window=8|2b050644a963eeaf|fa44c866aeda49ee";
    "gen(seed=2,subsets,tasks=125,locks=31,depth=2)|prio=delta:2+spread=1|70157c6bdd664815|177a2cc6856b86d7";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=delta:1|e3eb338cf31609c5|c7b307499664544d";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=delta:8|0186b66193afa72b|dfcd229c5b1cd4c8";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=auto|e3eb338cf31609c5|c7b307499664544d";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=auto+window=8|8bf9e5e447e2a1c6|c30061a6934d2070";
    "gen(seed=3,bipartite,tasks=63,locks=36,depth=2)|prio=delta:2+spread=1|14c90f140053b26d|61f7b36e35f96285";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=delta:1|98a212eafe61274d|3c2c42cfdf3e8d85";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=delta:8|fa018174693e2f79|08d45f47d6501129";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=auto|98a212eafe61274d|3c2c42cfdf3e8d85";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=auto+window=8|98a212eafe61274d|042c18ec296ee6e6";
    "gen(seed=42,clusters,tasks=43,locks=31,depth=0)|prio=delta:2+spread=1|5ef7f6a634265fed|8d3aa302a6bec787";
    "bfs(n=300,seed=7)|prio=delta:1|850a65242c4c2ba3|fc835cfe3ed25906";
    "bfs(n=300,seed=7)|prio=delta:8|71c48038a55c3c22|fc835cfe3ed25906";
    "bfs(n=300,seed=7)|prio=auto|850a65242c4c2ba3|fc835cfe3ed25906";
    "bfs(n=300,seed=7)|prio=auto+window=8|850a65242c4c2ba3|c0968f15ae5abbec";
    "bfs(n=300,seed=7)|prio=delta:2+spread=1|a66da4595ee8966d|36bd548e847590e8";
    "sssp(n=300,seed=7)|prio=delta:1|d032ff75ff89f6a4|f0bae2ef9fbce847";
    "sssp(n=300,seed=7)|prio=delta:8|d871d9320d980897|b54ac63a5511973b";
    "sssp(n=300,seed=7)|prio=auto|4ecb54fd2c873f30|f6d4a9c5e3bb46c5";
    "sssp(n=300,seed=7)|prio=auto+window=8|4ecb54fd2c873f30|76563fef8540f536";
    "sssp(n=300,seed=7)|prio=delta:2+spread=1|8bd80ba80b009414|efd8875034d0f387";
    "boruvka(n=300,seed=7)|prio=delta:1|00e525b936d90cf9|70e6bfd73bf89c6b";
    "boruvka(n=300,seed=7)|prio=delta:8|faca16a9a09a7f65|70e6bfd73bf89c6b";
    "boruvka(n=300,seed=7)|prio=auto|00e525b936d90cf9|70e6bfd73bf89c6b";
    "boruvka(n=300,seed=7)|prio=auto+window=8|ea8f82713dfa0f80|5342c5b7736fdb6d";
    "boruvka(n=300,seed=7)|prio=delta:2+spread=1|8702a85bf164ee2f|d21941e6f9de9ca9";
    "dmr(points=90,seed=7)|prio=delta:1|989e48e31d625f8d|624586512e584fef";
    "dmr(points=90,seed=7)|prio=delta:8|085035d6c3e2e424|624586512e584fef";
    "dmr(points=90,seed=7)|prio=auto|989e48e31d625f8d|624586512e584fef";
    "dmr(points=90,seed=7)|prio=auto+window=8|ef7007f1208d2c42|c785d7f04971a50a";
    "dmr(points=90,seed=7)|prio=delta:2+spread=1|5ee435d52c143cce|983a38ecd21c2088";
  ]

let test_prio_fixture () =
  let got = Galois.Pool.with_pool ~domains:2 observed_prio in
  if Sys.getenv_opt "FIXTURE_PRINT" <> None then
    List.iter print_endline got
  else begin
    Alcotest.(check int) "prio fixture size" (List.length expected_prio)
      (List.length got);
    List.iter2
      (fun e g -> Alcotest.(check string) "ordered schedule digest pinned" e g)
      expected_prio got
  end

(* Pool-reuse determinism: the whole 50-point fixture run twice on one
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
      List.iter2
        (fun e g -> Alcotest.(check string) "reused pool hits the pinned table" e g)
        expected first)

(* Checkpoint/resume against the same tables: crash each fixture case
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
          let pinned =
            match pinned table c.name cfg.label with
            | Some d -> d
            | None -> Alcotest.failf "no pinned entry for %s" what
          in
          let policy = Galois.Policy.det ~options:cfg.options 2 in
          let full_run, _ = c.fresh ~static_id:false () in
          let full = full_run |> Galois.Run.policy policy |> Galois.Run.exec in
          if not (D.equal pinned full.Galois.Run.stats.digest) then
            Alcotest.failf "%s: uninterrupted run missed the pinned digest" what;
          let at = max 1 (full.Galois.Run.stats.rounds / 2) in
          let crash_run, _ = c.fresh ~static_id:false () in
          let crash_run = crash_run |> Galois.Run.policy policy in
          let last = ref None in
          let _ =
            crash_run
            |> Galois.Run.checkpoint_every 1
            |> Galois.Run.on_checkpoint (fun snap ->
                   last := Some snap.Galois.Snapshot.boundary)
            |> Galois.Run.stop_after at
            |> Galois.Run.exec
          in
          match !last with
          | None -> Alcotest.failf "%s: no boundary captured by round %d" what at
          | Some b ->
              let resumed = crash_run |> Galois.Run.resume b |> Galois.Run.exec in
              if not (D.equal pinned resumed.Galois.Run.stats.digest) then
                Alcotest.failf "%s: resume from round %d missed the pinned digest" what
                  b.Galois.Det_sched.b_rounds)
        resume_rows)
    [
      Detcheck.Replay_cases.gen ~seed:1;
      Detcheck.Replay_cases.gen ~seed:2;
      Detcheck.Replay_cases.gen ~seed:3;
      Detcheck.Replay_cases.gen ~seed:42;
      Detcheck.Replay_cases.bfs ~n:300 ~seed:7;
      Detcheck.Replay_cases.sssp ~n:300 ~seed:7;
      Detcheck.Replay_cases.boruvka ~n:300 ~seed:7;
      Detcheck.Replay_cases.dmr ~points:90 ~seed:7;
    ]

let suite =
  [
    Alcotest.test_case "pre-rework schedule digests" `Slow test_fixture;
    Alcotest.test_case "soft-priority schedule digests" `Slow test_prio_fixture;
    Alcotest.test_case "pool reuse is schedule-neutral" `Slow test_pool_reuse;
    Alcotest.test_case "midpoint resume hits pinned digests" `Slow
      test_resume_reproduces_pinned;
  ]
