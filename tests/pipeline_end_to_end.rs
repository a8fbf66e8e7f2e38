//! End-to-end pipeline tests: simulated infrastructure → probe measurement
//! → trace archive → model fitting → strategy tuning → strategy execution,
//! exercising every crate boundary the way a deployed client would.

use gridstrat::prelude::*;
use gridstrat::stats::fit::select_body_model;
use gridstrat::workload::observatory::{parse_observatory, write_observatory};

#[test]
fn measure_archive_fit_tune_execute() {
    // 1. measure a stable pipeline grid
    let mut cfg = GridConfig::pipeline_default();
    cfg.sites.truncate(3);
    cfg.background = Some(gridstrat::sim::BackgroundLoadConfig {
        arrival_rate_per_s: 0.10,
        exec_mean_s: 1_200.0,
        exec_cv: 1.2,
    });
    cfg.faults.p_silent_loss = 0.06;
    let mut sim = GridSimulation::new(cfg, 0xE2E).unwrap();
    let mut harness = ProbeHarness::new("e2e-week", 800, 30, CENSOR_THRESHOLD_S);
    sim.run_controller(&mut harness);
    let trace = harness.into_trace();
    assert_eq!(trace.len(), 800);
    assert!(trace.outlier_ratio() > 0.02 && trace.outlier_ratio() < 0.35);

    // 2. archive round-trip (observatory text + JSON + CSV)
    let text = write_observatory(&trace);
    let parsed = parse_observatory(&text).unwrap();
    assert_eq!(parsed.len(), trace.len());
    let json = trace.to_json();
    let from_json = TraceSet::from_json(&json).unwrap();
    assert_eq!(from_json.len(), trace.len());
    let csv = trace.to_csv();
    let from_csv = TraceSet::from_csv("e2e-week", CENSOR_THRESHOLD_S, &csv).unwrap();
    assert_eq!(from_csv.len(), trace.len());

    // 3. fit: some family must describe the body sanely
    let reports = select_body_model(&parsed.body_latencies());
    assert!(!reports.is_empty());
    assert!(reports[0].ks < 0.2, "best-family KS {}", reports[0].ks);

    // 4. tune strategies on the measured model
    let model = EmpiricalModel::from_trace(&parsed).unwrap();
    let single = optimize_timeout(&model, 1);
    assert!(single.timeout > 0.0 && single.timeout < CENSOR_THRESHOLD_S);
    let delayed = DelayedResubmission::optimize(&model);
    assert!(delayed.expectation <= single.expectation + 1e-9);

    // 5. execute the tuned single strategy against an oracle rebuilt from
    //    the measured trace statistics; realised mean must be in the same
    //    ballpark as the analytic prediction on the fitted model
    let week = WeekModel::calibrate(
        "e2e-week",
        parsed.body_mean(),
        parsed.body_std().max(20.0),
        parsed.outlier_ratio().min(0.5),
        parsed
            .body_latencies()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            * 0.9,
        CENSOR_THRESHOLD_S,
    )
    .unwrap();
    let mc = StrategyExecutor::new(
        week,
        MonteCarloConfig {
            trials: 3_000,
            seed: 5,
        },
    )
    .run(StrategyParams::Single {
        t_inf: single.timeout,
    });
    assert!(mc.completed_trials == 3_000);
    assert!(
        (mc.mean_j - single.expectation).abs() / single.expectation < 0.35,
        "tuned prediction {} vs realised {} diverge wildly",
        single.expectation,
        mc.mean_j
    );
}

#[test]
fn oracle_probe_harness_recovers_the_generating_law() {
    // closing the measurement loop in oracle mode: harness statistics must
    // match the week model that drives the simulation
    let week = WeekId::W2007_52;
    let target = week.targets();
    let mut sim = GridSimulation::new(GridConfig::oracle(week.model()), 0xCAFE).unwrap();
    let mut harness = ProbeHarness::new(week.name(), 5_000, 50, CENSOR_THRESHOLD_S);
    sim.run_controller(&mut harness);
    let trace = harness.into_trace();
    assert!(
        (trace.outlier_ratio() - target.rho).abs() < 0.03,
        "rho {} vs {}",
        trace.outlier_ratio(),
        target.rho
    );
    assert!(
        (trace.body_mean() - target.body_mean).abs() / target.body_mean < 0.10,
        "mean {} vs {}",
        trace.body_mean(),
        target.body_mean
    );
}

#[test]
fn degraded_grid_still_yields_usable_models() {
    // heavy faults: a quarter of submissions lost, frequent failures
    let mut cfg = GridConfig::pipeline_default();
    cfg.background = None;
    cfg.faults.p_silent_loss = 0.25;
    cfg.faults.p_transient_failure = 0.15;
    let mut sim = GridSimulation::new(cfg, 0xDEAD).unwrap();
    let mut harness = ProbeHarness::new("bad-week", 600, 20, CENSOR_THRESHOLD_S);
    sim.run_controller(&mut harness);
    let trace = harness.into_trace();
    // fault ratio ≈ 0.25 + 0.75·0.15 ≈ 0.36
    assert!(trace.outlier_ratio() > 0.25 && trace.outlier_ratio() < 0.5);
    let model = EmpiricalModel::from_trace(&trace).unwrap();
    let single = optimize_timeout(&model, 1);
    // resubmission must still bound the expectation far below the censored mean
    assert!(single.expectation < 0.5 * trace.censored_mean_lower_bound());
}

#[test]
fn executor_determinism_is_thread_count_independent() {
    // run the same Monte-Carlo twice under different rayon pool sizes
    let week = WeekModel::calibrate("det", 400.0, 500.0, 0.1, 100.0, 1e4).unwrap();
    let spec = StrategyParams::Delayed {
        t0: 300.0,
        t_inf: 450.0,
    };
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let week = week.clone();
        pool.install(move || {
            StrategyExecutor::new(
                week,
                MonteCarloConfig {
                    trials: 2_000,
                    seed: 9,
                },
            )
            .run(spec)
        })
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.mean_j.to_bits(), b.mean_j.to_bits());
    assert_eq!(a.mean_parallel.to_bits(), b.mean_parallel.to_bits());
}
