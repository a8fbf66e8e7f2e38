//! Criterion benches for the discrete-event simulator and the Monte-Carlo
//! strategy executors: engine event throughput, probe-harness trace
//! collection, per-trial strategy execution cost, the batching overhead of
//! a one-cell `ScenarioSweep` over the bare executor, and the event queue's
//! cost per push and pop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::executor::{MonteCarloConfig, ScenarioSweep, StrategyExecutor};
use gridstrat_sim::event::{EventKind, EventQueue};
use gridstrat_sim::{GridConfig, GridSimulation, ProbeHarness, SimDuration, SimTime};
use gridstrat_stats::rng::derived_rng;
use gridstrat_stats::{Distribution, Exponential};
use gridstrat_workload::{WeekId, WeekModel};

fn week() -> WeekModel {
    WeekModel::calibrate("bench", 500.0, 700.0, 0.10, 150.0, 10_000.0).unwrap()
}

fn bench_probe_harness(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_harness");
    g.sample_size(20);
    for &n in &[200usize, 1_000] {
        g.bench_with_input(BenchmarkId::new("oracle_records", n), &n, |b, &n| {
            b.iter(|| {
                let mut sim =
                    GridSimulation::new(GridConfig::oracle(week()), 1).expect("valid config");
                let mut h = ProbeHarness::new("bench", n, 25, 10_000.0);
                sim.run_controller(&mut h);
                black_box(h.into_trace())
            })
        });
    }
    g.bench_function("pipeline_records_200", |b| {
        b.iter(|| {
            let mut cfg = GridConfig::pipeline_default();
            cfg.background = None;
            let mut sim = GridSimulation::new(cfg, 2).expect("valid config");
            let mut h = ProbeHarness::new("bench", 200, 10, 10_000.0);
            sim.run_controller(&mut h);
            black_box(h.into_trace())
        })
    });
    g.finish();
}

fn bench_strategy_trials(c: &mut Criterion) {
    let mut g = c.benchmark_group("strategy_mc");
    g.sample_size(10);
    let specs = [
        ("single", StrategyParams::Single { t_inf: 700.0 }),
        (
            "multiple_b3",
            StrategyParams::Multiple { b: 3, t_inf: 800.0 },
        ),
        (
            "delayed",
            StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 550.0,
            },
        ),
    ];
    for (name, spec) in specs {
        g.bench_function(format!("{name}_500_trials"), |b| {
            b.iter(|| {
                let ex = StrategyExecutor::new(
                    week(),
                    MonteCarloConfig {
                        trials: 500,
                        seed: 3,
                    },
                );
                black_box(ex.run(spec))
            })
        });
    }
    g.finish();
}

fn bench_background_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_congestion");
    g.sample_size(10);
    g.bench_function("congested_farm_100_probes", |b| {
        b.iter(|| {
            let mut cfg = GridConfig::pipeline_default();
            cfg.sites.truncate(2);
            let mut sim = GridSimulation::new(cfg, 4).expect("valid config");
            let mut h = ProbeHarness::new("bench", 100, 10, 10_000.0);
            sim.run_controller(&mut h);
            black_box(h.into_trace())
        })
    });
    g.finish();
}

fn bench_sweep_single_cell_overhead(c: &mut Criterion) {
    // one-cell sweep vs the same trials through StrategyExecutor: the
    // batching layer should cost nothing beyond the trials themselves
    let mut g = c.benchmark_group("sweep_overhead");
    g.sample_size(10);
    let cfg = MonteCarloConfig {
        trials: 500,
        seed: 0xBE7C,
    };
    let sweep = ScenarioSweep::over_strategies(
        vec![StrategyParams::Single { t_inf: 700.0 }],
        WeekId::W2006Ix,
        cfg,
    );
    g.bench_function("one_cell_sweep_500_trials", |b| {
        b.iter(|| black_box(sweep.run()))
    });
    let week = WeekId::W2006Ix.model();
    g.bench_function("executor_500_trials", |b| {
        b.iter(|| {
            let ex = StrategyExecutor::new(week.clone(), cfg);
            black_box(ex.run(StrategyParams::Single { t_inf: 700.0 }))
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    // the engine's access pattern at a community fleet's depth: ~16k
    // pending events, each pop scheduling its successor an exponential
    // delay later. Delays are whole seconds, so same-instant ties are
    // common, as they are for the events one handler schedules
    const DEPTH: usize = 16_384;
    const OPS: usize = 100_000;
    let exp = Exponential::new(1.0 / 600.0).expect("positive rate");
    let mut rng = derived_rng(0xE7E, 0);
    let delays: Vec<SimDuration> = (0..DEPTH + OPS)
        .map(|_| SimDuration::from_secs(exp.sample(&mut rng).round()))
        .collect();
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(20);
    g.bench_function("push_pop_100k_at_depth_16k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for (token, &d) in (0..).zip(&delays[..DEPTH]) {
                q.schedule(SimTime::ZERO.after(d), EventKind::Timer { token });
            }
            for &d in &delays[DEPTH..] {
                let (t, kind) = q.pop().expect("the queue stays at depth");
                q.schedule(t.after(d), kind);
            }
            black_box(q.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_probe_harness,
    bench_strategy_trials,
    bench_background_load,
    bench_sweep_single_cell_overhead,
    bench_event_queue
);
criterion_main!(benches);
