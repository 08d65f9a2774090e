(* Every configuration the benchmark runs with, spelled out field by
   field so no default (and no environment variable a default reads)
   can change what is measured.  The values are the library defaults
   of this version, except that recovery replays on one domain: each
   workload runs in a single thread. *)

module Config = Lld_core.Config

let config =
  {
    Config.mode = Config.Concurrent;
    visibility = Config.Own_shadow;
    cost = Lld_sim.Cost.sparc5_70;
    cache_blocks = 2048;
    readahead = true;
    auto_clean = true;
    clean_policy = Config.Cost_benefit;
    clean_reserve_segments = 4;
    checkpoint_interval_segments = 0;
    checkpoint_dirty_threshold = 4096;
    recovery_sweep = true;
    recovery_parallel = false;
    recovery_early_open = false;
    group_commit_window = 100_000;
    group_commit_batch = 32;
    scrub_on_mount = false;
  }
