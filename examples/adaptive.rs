//! Offline tuning vs online adaptation on a drifting grid.
//!
//! The paper tunes every strategy offline against one stationary weekly
//! law while observing (§1) that production workloads are high and
//! non-stationary. This example measures what that discipline costs when
//! the grid actually drifts, and how much an online-adapting strategy
//! claws back:
//!
//! 1. calibrate a paper-like week and tune a delayed-resubmission pair on
//!    it (the offline "tuned-once" optimum);
//! 2. run thousands of back-to-back tasks on a live grid whose queue wait
//!    and fault ratio swing ±80% over a diurnal cycle;
//! 3. run the same strategy through [`run_adaptive_sequence`]: every 5
//!    tasks it re-estimates the load factor from its own completions and
//!    re-tunes;
//! 4. score both against the instantaneous-oracle [`RegretFrontier`] —
//!    the expected latency an omniscient tuner would achieve at each
//!    task's launch instant;
//! 5. sweep (amplitude × retune period) and verify the whole experiment
//!    is bit-identical across thread counts.
//!
//! Run with `cargo run --release --example adaptive`.

use gridstrat::core::adaptive::{
    run_adaptive_sequence, run_fixed_sequence, AdaptiveConfig, AdaptiveSweep, RegretFrontier,
};
use gridstrat::prelude::*;
use gridstrat::sim::Modulation;
use std::sync::Arc;

const SEED: u64 = 0x5EED;
const AMPLITUDE: f64 = 0.8; // acceptance bar: >= 0.5
const PERIOD_S: f64 = 86_400.0;
const N_TASKS: usize = 2_200;

fn main() {
    // 1. the offline calibration: a paper-shaped week (heavy log-normal
    //    body, elevated fault ratio) and the stationary-optimal delayed pair
    let base = WeekModel::calibrate("drift-week", 570.0, 886.0, 0.20, 60.0, 10_000.0)
        .expect("valid calibration");
    let prior = ParametricModel::new(base.body(), base.rho, base.threshold_s).unwrap();
    let tuned_once = StrategyParams::Delayed {
        t0: 400.0,
        t_inf: 560.0,
    }
    .tune(&prior);
    println!("stationary prior    : {}", base.name);
    println!(
        "tuned-once (offline): {tuned_once:?}  E_J on prior = {:.1} s",
        tuned_once.expected_j(&prior)
    );

    // 2. the live grid drifts: queue wait and fault ratio swing by ±80%
    //    over a daily cycle (faults track congestion)
    let modulation: Arc<dyn Modulation> = Arc::new(
        DiurnalModel::new(base.clone(), AMPLITUDE, PERIOD_S).expect("valid diurnal parameters"),
    );
    let mut grid = GridConfig::oracle(base.clone());
    grid.modulation = Some(Arc::clone(&modulation));
    let grid = Arc::new(grid);

    // 3. tuned-once vs online-retuned, same seed, same drifting grid
    let fixed = run_fixed_sequence(&grid, &tuned_once, N_TASKS, SEED);
    let adaptive = run_adaptive_sequence(
        &grid,
        tuned_once,
        &AdaptiveConfig::default(),
        Some(&base),
        N_TASKS,
        SEED,
    );

    // 4. regret vs the instantaneous oracle optimum
    let mut frontier = RegretFrontier::new(base.clone(), Arc::clone(&modulation), tuned_once);
    let r_fixed = frontier.mean_regret(&fixed);
    let r_adaptive = frontier.mean_regret(&adaptive);
    println!("\n{N_TASKS} tasks under diurnal drift (amplitude {AMPLITUDE}, period {PERIOD_S} s):");
    println!(
        "  tuned-once    : mean J = {:7.1} s   mean regret = {:7.2} s   {:.2} submissions/task",
        fixed.mean_latency(),
        r_fixed,
        fixed.submissions_per_task()
    );
    println!(
        "  online-retuned: mean J = {:7.1} s   mean regret = {:7.2} s   {:.2} submissions/task   ({} retunes)",
        adaptive.mean_latency(),
        r_adaptive,
        adaptive.submissions_per_task(),
        adaptive.retunes
    );
    assert!(
        r_adaptive < r_fixed,
        "online adaptation must achieve strictly lower mean regret \
         ({r_adaptive} vs {r_fixed})"
    );
    println!(
        "  => adaptation recovers {:.1} s of regret per task ({:.1}% of mean latency)",
        r_fixed - r_adaptive,
        100.0 * (r_fixed - r_adaptive) / fixed.mean_latency()
    );

    // 5. the (amplitude × retune period) sweep, bit-identical across
    //    thread counts
    let sweep = AdaptiveSweep {
        base,
        period_s: PERIOD_S,
        amplitudes: vec![0.5, 0.8],
        retune_periods: vec![5, 20],
        family: StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        },
        adaptive: AdaptiveConfig::default(),
        n_tasks: 600,
        seed: SEED,
    };
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        pool.install(|| sweep.run())
    };
    let cells = run_with(1);
    let wide = run_with(4);
    for (a, b) in cells.iter().zip(&wide) {
        assert_eq!(
            a.fixed.mean_regret.to_bits(),
            b.fixed.mean_regret.to_bits(),
            "sweep must be bit-identical across thread counts"
        );
        assert_eq!(
            a.adaptive.mean_regret.to_bits(),
            b.adaptive.mean_regret.to_bits()
        );
    }
    println!(
        "\namplitude × retune-period sweep ({} tasks/cell, thread-count invariant):",
        600
    );
    println!("  amplitude  retune-every   regret(fixed)  regret(adaptive)  retunes");
    for c in &cells {
        println!(
            "      {:.2}        {:5}        {:8.2}        {:8.2}       {:5}",
            c.amplitude, c.retune_every, c.fixed.mean_regret, c.adaptive.mean_regret, c.retunes
        );
    }
    println!("\nall assertions passed: adaptation strictly beats offline tuning under drift.");
}
