let () =
  Alcotest.run "deterministic_galois"
    [
      ("splitmix", Test_splitmix.suite);
      ("parallel", Test_parallel.suite);
      ("lock", Test_lock.suite);
      ("workset", Test_workset.suite);
      ("runtime", Test_runtime.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("policy", Test_policy.suite);
      ("detcheck", Test_detcheck.suite);
      ("replay", Test_replay.suite);
      ("digest-fixture", Test_digest_fixture.suite);
      ("det-sched-props", Test_det_sched_props.suite);
      ("core-edge", Test_core_edge.suite);
      ("graph", Test_graph.suite);
      ("geometry", Test_geometry.suite);
      ("mesh", Test_mesh.suite);
      ("detreserve", Test_detreserve.suite);
      ("apps", Test_apps.suite);
      ("apps2", Test_apps2.suite);
      ("kcore", Test_kcore.suite);
      ("audit", Test_audit.suite);
      ("detlint", Test_detlint.suite);
      ("simmachine", Test_simmachine.suite);
      ("analysis", Test_analysis.suite);
      ("figures", Test_figures.suite);
      ("service", Test_service.suite);
    ]
