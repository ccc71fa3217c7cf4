let () =
  (* a re-exec'd kill -9 victim never reaches Alcotest: it serves until
     SIGKILLed (see Test_cluster.fork_wal_worker) *)
  Test_cluster.maybe_forked_wal_worker ();
  (* same re-exec diversion for the coordinator kill -9 victim *)
  Test_failover.maybe_forked_coordinator ();
  Alcotest.run "delphic"
    [
      ("rng", Test_rng.suite);
      ("bigint", Test_bigint.suite);
      ("comb", Test_comb.suite);
      ("binomial", Test_binomial.suite);
      ("dist", Test_dist.suite);
      ("bitvec", Test_bitvec.suite);
      ("summary", Test_summary.suite);
      ("special", Test_special.suite);
      ("families", Test_families.suite);
      ("knapsack", Test_knapsack.suite);
      ("bdd", Test_bdd.suite);
      ("exact", Test_exact.suite);
      ("interval-cover", Test_interval_cover.suite);
      ("gf2-families", Test_gf2_families.suite);
      ("mixed-coverage", Test_mixed_coverage.suite);
      ("multi-interval", Test_multi_interval.suite);
      ("claim-2.5", Test_claim_2_5.suite);
      ("vatic", Test_vatic.suite);
      ("vatic-families", Test_vatic_families.suite);
      ("ext-vatic", Test_ext_vatic.suite);
      ("aps", Test_aps.suite);
      ("adaptive", Test_adaptive.suite);
      ("extensions", Test_extensions.suite);
      ("xor-sketch", Test_xor_sketch.suite);
      ("parsers", Test_parsers.suite);
      ("snapshot-io", Test_snapshot_io.suite);
      ("window", Test_window.suite);
      ("merge", Test_merge.suite);
      ("expr", Test_expr.suite);
      ("protocol", Test_protocol.suite);
      ("frame", Test_frame.suite);
      ("wal", Test_wal.suite);
      ("server", Test_server.suite);
      ("cluster", Test_cluster.suite);
      ("failover", Test_failover.suite);
      ("chaos", Test_chaos.suite);
      ("oracle", Test_oracle.suite);
      ("mt", Test_mt.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("harness", Test_harness.suite);
    ]
