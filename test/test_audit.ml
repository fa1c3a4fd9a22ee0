(* The dynamic neighborhood/race audit, audited.

   - every Run-based benchmark audits clean across the detcheck
     configuration lattice (the apps are cautious by construction, and
     the race check doubles as an independent re-verification of the
     scheduler's disjoint-neighborhood invariant);
   - the two deliberately broken operators are flagged, localized to
     (rule, round, task) — detection is live, not vacuous;
   - finding localization is thread-invariant;
   - an operator instrumented with [Context.touch] on properly acquired
     locations stays clean (no false positives from instrumentation);
   - the builder refuses audit outside the det policy, and reports are
     absent unless requested. *)

module Audit = Galois.Audit

let seed = 2014
let small_n = 120
let small_points = 40

let apps () = Detcheck.Audit_cases.apps ~n:small_n ~points:small_points ~seed

(* Each app × each non-static-id lattice configuration × two thread
   counts: zero findings everywhere. *)
let test_apps_clean_on_lattice () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let configs =
        List.filter
          (fun (c : Detcheck.config) -> not c.static_id)
          (Detcheck.lattice ~static_id_capable:false)
      in
      List.iter
        (fun (case : Detcheck.Audit_cases.t) ->
          List.iter
            (fun (cfg : Detcheck.config) ->
              List.iter
                (fun t ->
                  let report =
                    case.run ~policy:(Galois.Policy.det t ~options:cfg.options) ~pool
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s det:%d clean" case.name cfg.label t)
                    true (Audit.clean report);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s det:%d saw rounds" case.name cfg.label t)
                    true (report.Audit.rounds > 0))
                [ 1; 2 ])
            configs)
        (apps ()))

let find_witnesses (report : Audit.report) witnesses =
  List.filter (fun w -> not (List.mem w report.Audit.findings)) witnesses

let test_controls_flagged () =
  Galois.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun (c : Detcheck.Audit_cases.control) ->
          List.iter
            (fun t ->
              let report, witnesses = c.crun ~policy:(Galois.Policy.det t) ~pool in
              Alcotest.(check bool)
                (Printf.sprintf "%s det:%d not clean" c.cname t)
                false (Audit.clean report);
              Alcotest.(check int)
                (Printf.sprintf "%s det:%d all witnesses flagged" c.cname t)
                0
                (List.length (find_witnesses report witnesses)))
            [ 1; 2; 4 ])
        (Detcheck.Audit_cases.controls ~n:small_n ~seed))

(* The racy control's report is exactly its three witnesses — two
   containment escapes and one write/write race — in deterministic
   order. *)
let test_racy_sssp_exact () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let c =
        List.find
          (fun (c : Detcheck.Audit_cases.control) -> c.cname = "racy-sssp")
          (Detcheck.Audit_cases.controls ~n:small_n ~seed)
      in
      let report, witnesses = c.crun ~policy:(Galois.Policy.det 2) ~pool in
      Alcotest.(check int) "exactly the witnesses" (List.length witnesses)
        (List.length report.Audit.findings);
      Alcotest.(check int) "all present" 0
        (List.length (find_witnesses report witnesses));
      match report.Audit.findings with
      | [ a; b; r ] ->
          Alcotest.(check string) "containment first" "containment"
            (Audit.rule_name a.Audit.rule);
          Alcotest.(check string) "containment second" "containment"
            (Audit.rule_name b.Audit.rule);
          Alcotest.(check string) "race last" "race" (Audit.rule_name r.Audit.rule);
          Alcotest.(check int) "race anchored at higher id" 2 r.Audit.task;
          Alcotest.(check int) "race partner is lower id" 1 r.Audit.other
      | _ -> Alcotest.fail "expected exactly three findings")

(* (rule, round, task, other) localization must not depend on the
   thread count — only lids are run-relative (fresh locks per run). *)
let test_localization_thread_invariant () =
  Galois.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun (c : Detcheck.Audit_cases.control) ->
          let shape t =
            let report, _ = c.crun ~policy:(Galois.Policy.det t) ~pool in
            List.map
              (fun (f : Audit.finding) ->
                (Audit.rule_name f.Audit.rule, f.Audit.round, f.Audit.task, f.Audit.other))
              report.Audit.findings
          in
          let s1 = shape 1 in
          List.iter
            (fun t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s findings shape det:1 = det:%d" c.cname t)
                true
                (s1 = shape t))
            [ 2; 4 ])
        (Detcheck.Audit_cases.controls ~n:small_n ~seed))

(* A correctly cautious operator that *does* declare its reads and
   writes through [Context.touch] must not be flagged: touches on
   acquired locations after the failsafe point are exactly the
   contract. *)
let test_instrumented_bfs_clean () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let g = Graphlib.Generators.kout ~seed ~n:small_n ~k:4 () in
      let n = Graphlib.Csr.nodes g in
      let locks = Galois.Lock.create_array n in
      let dist = Array.make n max_int in
      let operator ctx (u, d) =
        Galois.Context.acquire ctx locks.(u);
        Galois.Context.touch ~write:false ctx locks.(u);
        if dist.(u) <= d then ()
        else begin
          Graphlib.Csr.iter_succ g u (fun v -> Galois.Context.acquire ctx locks.(v));
          Galois.Context.failsafe ctx;
          dist.(u) <- d;
          Galois.Context.touch ctx locks.(u);
          Graphlib.Csr.iter_succ g u (fun v ->
              Galois.Context.touch ~write:false ctx locks.(v);
              if dist.(v) > d + 1 then Galois.Context.push ctx (v, d + 1))
        end
      in
      let report =
        Galois.Run.make ~operator [| (0, 0) |]
        |> Galois.Run.policy (Galois.Policy.det 2)
        |> Galois.Run.pool pool
        |> Galois.Run.audit
        |> Galois.Run.exec
      in
      match report.audit with
      | None -> Alcotest.fail "audit requested but no report"
      | Some a ->
          Alcotest.(check bool) "instrumented cautious bfs clean" true (Audit.clean a);
          Alcotest.(check bool) "tasks were audited" true (a.Audit.tasks > 0))

(* Reading before the failsafe point is fine (inspection *is* reading);
   only pre-failsafe writes violate cautiousness. *)
let test_pre_failsafe_read_ok () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let locks = Galois.Lock.create_array 4 in
      let cells = Array.make 4 0 in
      let operator ctx u =
        Galois.Context.acquire ctx locks.(u);
        Galois.Context.touch ~write:false ctx locks.(u);
        ignore cells.(u);
        Galois.Context.failsafe ctx;
        cells.(u) <- u;
        Galois.Context.touch ctx locks.(u)
      in
      let report =
        Galois.Run.make ~operator [| 0; 1; 2; 3 |]
        |> Galois.Run.policy (Galois.Policy.det 2)
        |> Galois.Run.pool pool
        |> Galois.Run.audit
        |> Galois.Run.exec
      in
      Alcotest.(check bool) "pre-failsafe reads clean" true
        (Audit.clean (Option.get report.audit)))

let test_audit_requires_det () =
  Alcotest.check_raises "serial + audit rejected"
    (Invalid_argument "Galois.Run: audit requires a det policy") (fun () ->
      ignore
        (Galois.Run.make ~operator:(fun _ _ -> ()) [| 0 |]
        |> Galois.Run.policy Galois.Policy.serial
        |> Galois.Run.audit
        |> Galois.Run.exec))

let test_no_report_unless_requested () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let report =
        Galois.Run.make ~operator:(fun _ _ -> ()) [| 0; 1 |]
        |> Galois.Run.policy (Galois.Policy.det 2)
        |> Galois.Run.pool pool
        |> Galois.Run.exec
      in
      Alcotest.(check bool) "no audit report by default" true (report.audit = None))

(* Findings surface as deterministic Obs events when tracing is on. *)
let test_findings_traced () =
  Galois.Pool.with_pool ~domains:2 (fun pool ->
      let g = Graphlib.Csr.of_edges ~n:3 [| (0, 2); (1, 2) |] in
      let locks = Galois.Lock.create_array 3 in
      let cells = Array.make 3 0 in
      let operator ctx u =
        Galois.Context.acquire ctx locks.(u);
        Galois.Context.failsafe ctx;
        Graphlib.Csr.iter_succ g u (fun v ->
            cells.(v) <- cells.(v) + 1;
            Galois.Context.touch ctx locks.(v))
      in
      let options = Galois.Policy.Det_options.make ~window:(Some 8) () in
      let report =
        Galois.Run.make ~operator [| 0; 1 |]
        |> Galois.Run.policy (Galois.Policy.det 2 ~options)
        |> Galois.Run.pool pool
        |> Galois.Run.audit
        |> Galois.Run.trace
        |> Galois.Run.exec
      in
      let audit_events =
        List.filter
          (fun (s : Obs.stamped) ->
            match s.Obs.event with Obs.Audit_finding _ -> true | _ -> false)
          (Option.get report.trace)
      in
      Alcotest.(check int) "one trace event per finding"
        (List.length (Option.get report.audit).Audit.findings)
        (List.length audit_events))

let suite =
  [
    Alcotest.test_case "apps audit clean across lattice" `Quick test_apps_clean_on_lattice;
    Alcotest.test_case "positive controls flagged" `Quick test_controls_flagged;
    Alcotest.test_case "racy-sssp report is exactly its witnesses" `Quick
      test_racy_sssp_exact;
    Alcotest.test_case "finding localization thread-invariant" `Quick
      test_localization_thread_invariant;
    Alcotest.test_case "instrumented cautious bfs has no false positives" `Quick
      test_instrumented_bfs_clean;
    Alcotest.test_case "pre-failsafe reads are not violations" `Quick
      test_pre_failsafe_read_ok;
    Alcotest.test_case "audit requires det policy" `Quick test_audit_requires_det;
    Alcotest.test_case "no audit report unless requested" `Quick
      test_no_report_unless_requested;
    Alcotest.test_case "findings emitted as trace events" `Quick test_findings_traced;
  ]
