//! Cross-crate validation: the closed-form strategy models (gridstrat-core)
//! against full Monte-Carlo execution on the discrete-event grid
//! (gridstrat-sim), for every strategy and several weekly laws.
//!
//! This is the reproduction's keystone: the paper derives eqs. 1–6
//! analytically and never executes the protocols; here each formula must
//! survive contact with a simulated infrastructure.

use gridstrat::core::latency::ParametricModel;
use gridstrat::prelude::*;

fn week(rho: f64) -> WeekModel {
    WeekModel::calibrate("itest", 500.0, 650.0, rho, 150.0, 10_000.0).unwrap()
}

/// Parametric twin of the oracle's sampling law.
fn analytic_model(w: &WeekModel) -> ParametricModel<Shifted<LogNormal>> {
    ParametricModel::new(w.body(), w.rho, w.threshold_s).unwrap()
}

fn cfg(trials: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        trials,
        seed: 0x17E5,
    }
}

#[test]
fn eq1_single_resubmission_expectation() {
    for rho in [0.05, 0.2] {
        let w = week(rho);
        let m = analytic_model(&w);
        for t_inf in [500.0, 900.0] {
            let spec = StrategyParams::Single { t_inf };
            let analytic = spec.expected_j(&m);
            let mc = StrategyExecutor::new(w.clone(), cfg(5_000)).run(spec);
            let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
            assert!(
                z < 4.5,
                "eq.1 mismatch at rho={rho}, t∞={t_inf}: MC {} vs analytic {analytic} (z={z})",
                mc.mean_j
            );
        }
    }
}

#[test]
fn eq2_single_resubmission_sigma() {
    let w = week(0.15);
    let m = analytic_model(&w);
    let t_inf = 700.0;
    let spec = StrategyParams::Single { t_inf };
    let analytic = spec.std_j(&m);
    let mc = StrategyExecutor::new(w, cfg(12_000)).run(spec);
    assert!(
        (mc.std_j - analytic).abs() / analytic < 0.05,
        "eq.2 mismatch: MC σ {} vs analytic {analytic}",
        mc.std_j
    );
}

#[test]
fn eq3_multiple_submission_expectation() {
    let w = week(0.12);
    let m = analytic_model(&w);
    for b in [2u32, 5] {
        let t_inf = 800.0;
        let spec = StrategyParams::Multiple { b, t_inf };
        let analytic = spec.expected_j(&m);
        let mc = StrategyExecutor::new(w.clone(), cfg(5_000)).run(spec);
        let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
        assert!(
            z < 4.5,
            "eq.3 mismatch at b={b}: MC {} vs analytic {analytic} (z={z})",
            mc.mean_j
        );
        // the protocol keeps exactly b copies in flight
        assert!((mc.mean_parallel - b as f64).abs() < 0.02);
    }
}

#[test]
fn eq4_multiple_submission_sigma() {
    let w = week(0.12);
    let m = analytic_model(&w);
    let (b, t_inf) = (3u32, 800.0);
    let spec = StrategyParams::Multiple { b, t_inf };
    let analytic = spec.std_j(&m);
    let mc = StrategyExecutor::new(w, cfg(12_000)).run(spec);
    assert!(
        (mc.std_j - analytic).abs() / analytic < 0.06,
        "eq.4 mismatch: MC σ {} vs analytic {analytic}",
        mc.std_j
    );
}

#[test]
fn eq5_delayed_resubmission_expectation_and_sigma() {
    let w = week(0.12);
    let m = analytic_model(&w);
    for (t0, t_inf) in [(400.0, 550.0), (300.0, 600.0), (500.0, 500.0)] {
        let analytic = DelayedResubmission::expectation(&m, t0, t_inf);
        let (_, sigma) = DelayedResubmission::moments(&m, t0, t_inf);
        let mc =
            StrategyExecutor::new(w.clone(), cfg(8_000)).run(StrategyParams::Delayed { t0, t_inf });
        let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
        assert!(
            z < 4.5,
            "eq.5 mismatch at ({t0},{t_inf}): MC {} vs analytic {analytic} (z={z})",
            mc.mean_j
        );
        assert!(
            (mc.std_j - sigma).abs() / sigma < 0.06,
            "eq.5 σ mismatch at ({t0},{t_inf}): MC {} vs analytic {sigma}",
            mc.std_j
        );
    }
}

#[test]
fn n_parallel_realised_vs_convention() {
    // E[N_//(J)] from execution vs the paper's N_//(E_J) convention: close
    // on realistic parameters, and both inside [1, 2)
    let w = week(0.12);
    let m = analytic_model(&w);
    let (t0, t_inf) = (350.0, 550.0);
    let convention = DelayedResubmission::evaluate(&m, t0, t_inf).n_parallel;
    let mc = StrategyExecutor::new(w, cfg(6_000)).run(StrategyParams::Delayed { t0, t_inf });
    assert!((1.0..2.0).contains(&convention));
    assert!((1.0..2.0).contains(&mc.mean_parallel));
    assert!(
        (mc.mean_parallel - convention).abs() < 0.2,
        "realised {} vs convention {convention}",
        mc.mean_parallel
    );
}

#[test]
fn submission_counts_match_geometric_model() {
    // every strategy's submission count is b × (geometric #rounds)
    let w = week(0.2);
    let m = analytic_model(&w);
    let t_inf = 700.0;
    let f_single = m.defective_cdf(t_inf);
    let mc = StrategyExecutor::new(w.clone(), cfg(6_000)).run(StrategyParams::Single { t_inf });
    assert!(
        (mc.mean_submissions - 1.0 / f_single).abs() / (1.0 / f_single) < 0.05,
        "single submissions {} vs 1/F {}",
        mc.mean_submissions,
        1.0 / f_single
    );

    let b = 4u32;
    // the collection's success probability per round, G = 1 − (1 − F̃)ᵇ
    let g = 1.0 - (1.0 - m.defective_cdf(t_inf)).powi(b as i32);
    let mc = StrategyExecutor::new(w, cfg(6_000)).run(StrategyParams::Multiple { b, t_inf });
    let want = b as f64 / g;
    assert!(
        (mc.mean_submissions - want).abs() / want < 0.05,
        "multiple submissions {} vs b/G {want}",
        mc.mean_submissions
    );
}

#[test]
fn empirical_and_parametric_models_agree_on_strategies() {
    // fit an empirical model from a large synthetic trace of the same law;
    // all strategy expectations must agree with the parametric twin
    let w = week(0.1);
    let trace = w.generate(20_000, 0xA11CE);
    let emp = EmpiricalModel::from_trace(&trace).unwrap();
    let par = analytic_model(&w);
    let single = StrategyParams::Single { t_inf: 600.0 };
    let es = single.expected_j(&emp);
    let ps = single.expected_j(&par);
    assert!((es - ps).abs() / ps < 0.05, "single: emp {es} vs par {ps}");
    let multiple = StrategyParams::Multiple { b: 4, t_inf: 800.0 };
    let em = multiple.expected_j(&emp);
    let pm = multiple.expected_j(&par);
    assert!(
        (em - pm).abs() / pm < 0.07,
        "multiple: emp {em} vs par {pm}"
    );
    let ed = DelayedResubmission::expectation(&emp, 350.0, 550.0);
    let pd = DelayedResubmission::expectation(&par, 350.0, 550.0);
    assert!((ed - pd).abs() / pd < 0.05, "delayed: emp {ed} vs par {pd}");
}
