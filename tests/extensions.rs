//! Integration tests for the library's extensions beyond the paper:
//! generalized delayed submission, batch makespans, hazard diagnosis,
//! bootstrap uncertainty, non-stationary workloads and trace resampling.

use gridstrat::prelude::*;

const SEED: u64 = 0xE6EE;

#[test]
fn generalized_delayed_interpolates_between_known_strategies() {
    let trace = WeekId::W2006Ix.generate(SEED);
    let model = EmpiricalModel::from_trace(&trace).unwrap();
    let (t0, t_inf) = (350.0, 520.0);
    // b=1 is the paper's delayed strategy
    let d1 = DelayedResubmission::expectation_with_copies(&model, 1, t0, t_inf);
    let paper = DelayedResubmission::expectation(&model, t0, t_inf);
    assert!((d1 - paper).abs() < 1e-9);
    // larger b approaches (and is bounded below by) burst submission with
    // the same timeout: the echelon at 0 is exactly a b-burst, later
    // echelons only help
    for b in [2u32, 3, 5] {
        let db = DelayedResubmission::expectation_with_copies(&model, b, t0, t_inf);
        let burst = StrategyParams::Multiple { b, t_inf }.expected_j(&model);
        assert!(
            db <= burst + 1e-9,
            "b={b}: delayed-multiple {db} vs burst {burst}"
        );
        assert!(db < d1, "b={b} must beat b=1");
    }
}

#[test]
fn generalized_delayed_monte_carlo_agreement_on_resampled_trace() {
    let trace = WeekId::W2007_52.generate(SEED);
    let model = EmpiricalModel::from_trace(&trace).unwrap();
    let (b, t0, t_inf) = (2u32, 380.0, 560.0);
    let analytic = DelayedResubmission::expectation_with_copies(&model, b, t0, t_inf);
    let mc = StrategyExecutor::from_trace(
        &trace,
        MonteCarloConfig {
            trials: 8_000,
            seed: 7,
        },
    )
    .run(StrategyParams::DelayedMultiple { b, t0, t_inf });
    let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
    assert!(z < 4.0, "MC {} vs analytic {analytic} (z={z})", mc.mean_j);
}

#[test]
fn batch_makespan_orders_strategies_like_their_tails() {
    let trace = WeekId::W2007_51.generate(SEED);
    let model = EmpiricalModel::from_trace(&trace).unwrap();
    let single_t = optimize_timeout(&model, 1).timeout;
    let multi_t = optimize_timeout(&model, 3).timeout;

    let ex = StrategyExecutor::from_trace(
        &trace,
        MonteCarloConfig {
            trials: 200,
            seed: 11,
        },
    );
    let bs = ex.run_batch(StrategyParams::Single { t_inf: single_t }, 300);
    let bm = ex.run_batch(
        StrategyParams::Multiple {
            b: 3,
            t_inf: multi_t,
        },
        300,
    );
    assert!(bm.mean_makespan < bs.mean_makespan);
    assert!(bm.p95_makespan < bs.p95_makespan);
    // multiple's makespan advantage exceeds its mean advantage
    assert!(bs.mean_makespan / bm.mean_makespan > bs.mean_latency / bm.mean_latency);
}

#[test]
fn hazard_diagnosis_matches_strategy_value() {
    // all calibrated weeks are decreasing-hazard with outliers:
    // resubmission pays on every one — consistent with Table 1's E_J wins
    for week in [WeekId::W2006Ix, WeekId::W2007_37, WeekId::W2008_03] {
        let ecdf = week.generate(SEED).ecdf().unwrap();
        let profile = HazardProfile::from_ecdf(&ecdf, 10);
        assert!(profile.resubmission_pays(), "{week}");
        assert_eq!(profile.trend(0.25), HazardTrend::Decreasing, "{week}");
    }
}

#[test]
fn bootstrap_ci_brackets_the_point_estimate() {
    let trace = WeekId::W2007_52.generate(SEED);
    let raw: Vec<f64> = trace.records.iter().map(|r| r.latency_s).collect();
    let thr = trace.threshold_s;
    let ci = bootstrap_ci(
        &raw,
        |xs| match EmpiricalModel::from_samples(xs, thr) {
            Ok(m) => optimize_timeout(&m, 1).expectation,
            Err(_) => f64::INFINITY,
        },
        150,
        0.95,
        3,
    );
    assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
    // ~900 heavy-tailed probes: expect a non-trivial but bounded interval
    assert!(ci.relative_halfwidth() > 0.01 && ci.relative_halfwidth() < 0.30);
}

#[test]
fn diurnal_traces_remain_tunable() {
    let base = WeekId::W2007_51.model();
    let diurnal = DiurnalModel::new(base, 0.5, 86_400.0).unwrap();
    let trace = diurnal.generate(4_000, SEED);
    let model = EmpiricalModel::from_trace(&trace).unwrap();
    let single = optimize_timeout(&model, 1);
    assert!(single.expectation.is_finite());
    // the stationarity-violating trace still yields a model on which the
    // delayed strategy behaves sanely
    let delayed = DelayedResubmission::optimize(&model);
    assert!(delayed.expectation <= single.expectation + 1e-9);
}

#[test]
fn resample_mode_requires_valid_traces() {
    use gridstrat::sim::GridConfig;
    // all-censored resample configs must be rejected at construction
    let cfg = GridConfig::resample(vec![10_000.0, 12_000.0], 10_000.0);
    assert!(GridSimulation::new(cfg, 1).is_err());
    let cfg = GridConfig::resample(vec![], 10_000.0);
    assert!(GridSimulation::new(cfg, 1).is_err());
    let cfg = GridConfig::resample(vec![100.0, 10_000.0], 10_000.0);
    assert!(GridSimulation::new(cfg, 1).is_ok());
}
