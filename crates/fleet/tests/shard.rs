//! Integration tests of the sharded fleet: the `shards = 1` bit-identity
//! contract against the plain `FleetController` path, thread-count and
//! worker-reuse bit-identity at fixed shard counts, the cross-shard
//! coupling's observable effect, and community sizes beyond one engine's
//! comfort.

use gridstrat_core::cost::StrategyParams;
use gridstrat_core::executor::GridScenario;
use gridstrat_fleet::{
    run_cell, FleetCellOutcome, FleetConfig, ShardedFleet, StrategyGroup, StrategyMix,
};

fn test_config(slots: usize) -> FleetConfig {
    let mut cfg = FleetConfig::small_farm(slots);
    cfg.tasks_per_user = 2;
    cfg.task_exec_s = 300.0;
    cfg.replications = 2;
    cfg.seed = 0x5AAD;
    cfg
}

fn mixed_population() -> StrategyMix {
    StrategyMix::new(
        "mixed",
        vec![
            StrategyGroup::new(StrategyParams::Single { t_inf: 3000.0 }, 1.0),
            StrategyGroup::new(
                StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3000.0,
                },
                1.0,
            ),
        ],
    )
}

/// Full bit-level fingerprint of an aggregated cell outcome.
fn fingerprint(cell: &FleetCellOutcome) -> Vec<u64> {
    let mut v = vec![
        cell.mean_latency.to_bits(),
        cell.fairness.to_bits(),
        cell.slot_waste.to_bits(),
        cell.utilization.to_bits(),
        cell.makespan_s.to_bits(),
        cell.tasks_completed as u64,
        cell.tasks_total as u64,
        cell.submissions,
        cell.wasted_starts,
        cell.replications as u64,
    ];
    for g in &cell.groups {
        v.push(g.group as u64);
        v.push(g.users as u64);
        v.push(g.tasks_completed as u64);
        v.push(g.latency.mean().to_bits());
        v.push(g.latency.min().to_bits());
        v.push(g.latency.max().to_bits());
        v.push(g.quantile(0.95).to_bits());
    }
    v
}

#[test]
fn single_shard_is_bit_identical_to_fleet_controller() {
    // THE determinism contract: shards = 1 replays exactly the history
    // the plain FleetController path (run_cell) produces — same seeds,
    // same code path, no epoch stepping.
    let cfg = test_config(12);
    let mix = mixed_population();
    let scenario = GridScenario::baseline();
    let plain = run_cell(&cfg, &mix, 10, &scenario);
    let sharded = ShardedFleet::new(cfg, mix, 10, 1, scenario).run();
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&sharded),
        "1-shard community diverged from the unsharded fleet"
    );
    assert_eq!(plain.tasks_completed, plain.tasks_total);
}

#[test]
fn sharded_identical_across_thread_counts_and_reuse() {
    // fixed shard count ⇒ bit-identical results whatever the thread
    // count; replications > threads on the 1-thread pool also forces the
    // per-worker engine+fleet rewind path, pinning reuse ≡ fresh
    let mut cfg = test_config(16);
    cfg.replications = 4;
    let sharded = ShardedFleet::new(cfg, mixed_population(), 24, 3, GridScenario::baseline());
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| sharded.run())
    };
    let a = run_with(1);
    let b = run_with(5);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // and the whole thing is reproducible run-to-run
    let c = run_with(2);
    assert_eq!(fingerprint(&a), fingerprint(&c));
}

#[test]
fn sharded_run_matches_standalone_replication() {
    // run()'s streamed fold and the standalone run_replication entry
    // point must see the same seeds and histories: aggregating every
    // replication at once (the collect-then-aggregate oracle) equals the
    // cell folded as replications finish, for 5 replications (not a
    // multiple of any lane count below) on 1, 2, 3 and 7 threads. With
    // one shard, the same runs also equal the FleetSweep cell.
    let mut cfg = test_config(16);
    cfg.replications = 5;
    for shards in [1, 2] {
        let sharded = ShardedFleet::new(
            cfg.clone(),
            mixed_population(),
            18,
            shards,
            GridScenario::baseline(),
        );
        let reps: Vec<_> = (0..5).map(|r| sharded.run_replication(r)).collect();
        let oracle = format!(
            "{:?}",
            FleetCellOutcome::aggregate("mixed", 18, "baseline", &reps)
        );
        for threads in [1, 2, 3, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let cell = pool.install(|| sharded.run());
            assert_eq!(
                format!("{cell:?}"),
                oracle,
                "{shards} shards, {threads} threads"
            );
            if shards == 1 {
                let swept = pool
                    .install(|| run_cell(&cfg, &mixed_population(), 18, &GridScenario::baseline()));
                assert_eq!(format!("{swept:?}"), oracle, "{threads} threads");
            }
        }
    }
}

#[test]
fn coupling_exchanges_load_between_shards() {
    // with coupling on, each shard receives the other shards' busy
    // fraction as injected background work: background jobs actually run
    // (total busy > client busy) and the community finishes no earlier
    let mut cfg = test_config(8);
    cfg.replications = 1;
    cfg.tasks_per_user = 3;
    let mut coupled = ShardedFleet::new(
        cfg,
        StrategyMix::pure("all-single", StrategyParams::Single { t_inf: 3000.0 }),
        16,
        2,
        GridScenario::baseline(),
    );
    coupled.epoch_s = 600.0;
    let mut uncoupled = coupled.clone();
    uncoupled.coupling = 0.0;
    let with = coupled.run_replication(0);
    let without = uncoupled.run_replication(0);
    assert_eq!(with.tasks_completed(), 16 * 3, "coupled run must complete");
    assert_eq!(without.tasks_completed(), 16 * 3);
    assert!(
        with.total_busy_s > with.client_busy_s,
        "injected background load never ran ({} vs {})",
        with.total_busy_s,
        with.client_busy_s
    );
    assert!(
        (without.total_busy_s - without.client_busy_s).abs() < 1e-9,
        "decoupled shards must see no background load"
    );
    assert!(
        with.mean_latency() > without.mean_latency(),
        "foreign load should cost latency: {} vs {}",
        with.mean_latency(),
        without.mean_latency()
    );
}

#[test]
fn large_sharded_community_completes_with_bounded_metrics() {
    // a community an order of magnitude past the old ~40-user scale:
    // metric state stays O(users + groups) (summaries + group windows),
    // every task completes, and the merged accounting is consistent
    let mut cfg = test_config(400);
    cfg.replications = 1;
    cfg.tasks_per_user = 1;
    cfg.group_window = 256;
    let sharded = ShardedFleet::new(cfg, mixed_population(), 2_000, 4, GridScenario::baseline());
    let run = sharded.run_replication(0);
    assert_eq!(run.users.len(), 2_000);
    assert_eq!(run.tasks_completed(), 2_000);
    assert!(run.client_started >= run.tasks_completed() as u64);
    // group streams: windows are capped, moments are complete
    let total_group_tasks: usize = run
        .groups
        .iter()
        .flatten()
        .map(|g| g.latency.count() as usize)
        .sum();
    assert_eq!(total_group_tasks, 2_000);
    for g in run.groups.iter().flatten() {
        assert!(g.window.len() <= 256, "window outgrew its bound");
        assert_eq!(g.members, 1_000);
    }
    let cell = FleetCellOutcome::aggregate("mixed", 2_000, "baseline", &[run]);
    assert!(cell.fairness > 0.0 && cell.fairness <= 1.0 + 1e-12);
    assert!((0.0..=1.0).contains(&cell.slot_waste));
    assert!(cell.mean_latency.is_finite() && cell.mean_latency > 0.0);
}
