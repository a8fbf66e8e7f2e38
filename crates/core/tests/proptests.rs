//! Property-based tests for the strategy models: the structural laws of
//! eqs. 1–6 that must hold for *any* defective latency model, not just the
//! calibrated EGEE weeks. Every family is evaluated by the one echelon law
//! (single and multiple submission at `t0 = t∞`).
//!
//! The crates.io `proptest` harness is unavailable offline, so these use a
//! seeded hand-rolled generator: every `#[test]` draws `CASES` random
//! inputs from a fixed stream, making failures exactly reproducible (the
//! failing case index is part of the assertion message).

use gridstrat_core::cost::{delta_cost, StrategyParams};
use gridstrat_core::latency::{EmpiricalModel, LatencyModel};
use gridstrat_core::strategy::{optimize_timeout, DelayedResubmission, Strategy};
use gridstrat_stats::rng::derived_rng;
use rand::rngs::StdRng;
use rand::Rng;

const CASES: usize = 96;

/// Random censored latency samples with a guaranteed non-degenerate body.
fn latency_samples(rng: &mut StdRng) -> Vec<f64> {
    let n_body = rng.gen_range(5..80usize);
    let n_out = rng.gen_range(0..20usize);
    let mut xs: Vec<f64> = (0..n_body)
        .map(|_| rng.gen_range(50.0..9_500.0f64))
        .collect();
    xs.extend((0..n_out).map(|_| rng.gen_range(10_000.0..30_000.0f64)));
    xs
}

fn model_from(samples: &[f64]) -> EmpiricalModel {
    EmpiricalModel::from_samples(samples, 10_000.0).unwrap()
}

fn single(t_inf: f64) -> StrategyParams {
    StrategyParams::Single { t_inf }
}

fn multiple(b: u32, t_inf: f64) -> StrategyParams {
    StrategyParams::Multiple { b, t_inf }
}

#[test]
fn eq1_expectation_at_least_conditional_mean_below_timeout() {
    let mut rng = derived_rng(0xC0DE, 1);
    for case in 0..CASES {
        let samples = latency_samples(&mut rng);
        let t_inf = rng.gen_range(60.0..9_400.0f64);
        let m = model_from(&samples);
        let e = single(t_inf).expected_j(&m);
        if e.is_finite() {
            // E_J ≥ E[R | R < t∞] (resubmission can only add waiting)
            let below: Vec<f64> = samples.iter().copied().filter(|&x| x < t_inf).collect();
            if below.is_empty() {
                continue;
            }
            let cond_mean = below.iter().sum::<f64>() / below.len() as f64;
            assert!(
                e >= cond_mean - 1e-6,
                "case {case}: E_J {e} < conditional mean {cond_mean}"
            );
        }
    }
}

#[test]
fn eq2_variance_nonnegative() {
    let mut rng = derived_rng(0xC0DE, 2);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t_inf = rng.gen_range(60.0..9_400.0f64);
        let s = single(t_inf).std_j(&m);
        assert!(s >= 0.0 || s.is_infinite(), "case {case}: σ_J {s}");
    }
}

#[test]
fn eq3_more_copies_never_hurt_at_fixed_timeout() {
    let mut rng = derived_rng(0xC0DE, 3);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t_inf = rng.gen_range(60.0..9_400.0f64);
        let b = rng.gen_range(1..12u32);
        let e_b = multiple(b, t_inf).expected_j(&m);
        let e_b1 = multiple(b + 1, t_inf).expected_j(&m);
        if e_b.is_finite() {
            assert!(
                e_b1 <= e_b + 1e-9,
                "case {case}: E(b+1) {e_b1} > E(b) {e_b}"
            );
        }
    }
}

#[test]
fn eq3_reduces_to_eq1_at_b1() {
    // one law: single resubmission is multiple submission of one job, and
    // delayed resubmission with t0 = t∞, to the bit
    let mut rng = derived_rng(0xC0DE, 4);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t_inf = rng.gen_range(60.0..9_400.0f64);
        let s = single(t_inf);
        for other in [
            multiple(1, t_inf),
            StrategyParams::Delayed { t0: t_inf, t_inf },
        ] {
            assert_eq!(
                s.expected_j(&m).to_bits(),
                other.expected_j(&m).to_bits(),
                "case {case}: {other:?}"
            );
            assert_eq!(
                s.std_j(&m).to_bits(),
                other.std_j(&m).to_bits(),
                "case {case}: {other:?}"
            );
        }
    }
}

#[test]
fn eq5_beats_or_matches_single_with_same_timeout() {
    // adding an extra (delayed) copy can only reduce the first-start
    // time: E_delayed(t0, t∞) ≤ E_single(t∞)… with the SAME total
    // timeout t∞ per job. Here t∞ ∈ [t0, 2 t0].
    let mut rng = derived_rng(0xC0DE, 6);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t0 = rng.gen_range(60.0..4_500.0f64);
        let t_inf = t0 + rng.gen_range(0.0..1.0f64) * t0;
        let delayed = DelayedResubmission::expectation(&m, t0, t_inf);
        let single = single(t_inf).expected_j(&m);
        if single.is_finite() && delayed.is_finite() {
            assert!(
                delayed <= single + 1e-6,
                "case {case}: delayed {delayed} worse than single {single} at t∞ {t_inf}"
            );
        }
    }
}

#[test]
fn eq5_sigma_nonnegative_and_finite_when_expectation_is() {
    let mut rng = derived_rng(0xC0DE, 7);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t0 = rng.gen_range(60.0..4_500.0f64);
        let t_inf = t0 + rng.gen_range(0.0..1.0f64) * t0;
        let (e, s) = DelayedResubmission::moments(&m, t0, t_inf);
        if e.is_finite() {
            assert!(s >= 0.0 && s.is_finite(), "case {case}: σ {s}");
        }
    }
}

#[test]
fn n_parallel_stays_in_band() {
    let mut rng = derived_rng(0xC0DE, 8);
    for case in 0..CASES {
        let t0 = rng.gen_range(10.0..5_000.0f64);
        let t_inf = t0 + rng.gen_range(0.0..1.0f64) * t0;
        let l = rng.gen_range(0.1..50_000.0f64);
        let n = DelayedResubmission::n_parallel_at(l, t0, t_inf);
        assert!(
            (1.0..2.0 + 1e-12).contains(&n),
            "case {case}: N_// {n} out of [1,2]"
        );
    }
}

#[test]
fn n_parallel_converges_to_ratio() {
    let mut rng = derived_rng(0xC0DE, 9);
    for case in 0..CASES {
        let t0 = rng.gen_range(10.0..1_000.0f64);
        let t_inf = t0 + rng.gen_range(0.01..0.99f64) * t0;
        let n = DelayedResubmission::n_parallel_at(1e7, t0, t_inf);
        assert!((n - t_inf / t0).abs() < 1e-3, "case {case}: N {n}");
    }
}

#[test]
fn optimal_single_timeout_is_a_sample() {
    let mut rng = derived_rng(0xC0DE, 10);
    for case in 0..CASES {
        let samples = latency_samples(&mut rng);
        let m = model_from(&samples);
        let opt = optimize_timeout(&m, 1);
        assert!(
            samples.iter().any(|&x| (x - opt.timeout).abs() < 1e-12),
            "case {case}: optimum {} is not a sample value",
            opt.timeout
        );
        // and no sample value gives a lower expectation
        for &t in &samples {
            if t < 10_000.0 {
                assert!(
                    single(t).expected_j(&m) >= opt.expectation - 1e-9,
                    "case {case}: t {t} beats the optimum"
                );
            }
        }
    }
}

#[test]
fn delta_cost_of_single_is_one() {
    let mut rng = derived_rng(0xC0DE, 11);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let opt = optimize_timeout(&m, 1);
        let dc = delta_cost(1.0, opt.expectation, opt.expectation);
        assert!((dc - 1.0).abs() < 1e-12, "case {case}: ∆cost {dc}");
    }
}

#[test]
fn powered_integrals_decrease_in_b() {
    let mut rng = derived_rng(0xC0DE, 12);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t = rng.gen_range(60.0..9_000.0f64);
        let b = rng.gen_range(1..10u32);
        let (a1, m1) = m.powered_survival_integrals(b, t);
        let (a2, m2) = m.powered_survival_integrals(b + 1, t);
        assert!(a2 <= a1 + 1e-12, "case {case}");
        assert!(m2 <= m1 + 1e-9, "case {case}");
        assert!(a2 >= 0.0 && m2 >= 0.0, "case {case}");
    }
}

#[test]
fn j_distribution_cdf_bounds_and_monotonicity() {
    use gridstrat_core::strategy::JDistribution;

    let mut rng = derived_rng(0xC0DE, 13);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t0 = rng.gen_range(100.0..4_000.0f64);
        let t_inf = t0 + rng.gen_range(0.0..1.0f64) * t0;
        let mut ts: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..50_000.0f64)).collect();
        let Ok(d) = JDistribution::new(&m, StrategyParams::Delayed { t0, t_inf }) else {
            continue; // timeout below the support: correctly rejected
        };
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for t in ts {
            let v = d.cdf(t);
            assert!((0.0..=1.0).contains(&v), "case {case}: cdf({t}) = {v}");
            assert!(v + 1e-12 >= prev, "case {case}: cdf not monotone at {t}");
            prev = v;
        }
    }
}

#[test]
fn generalized_delayed_bounded_by_components() {
    // E_delayed-multiple(b) ≤ min(E_delayed(1), E_multiple(b, t∞))
    let mut rng = derived_rng(0xC0DE, 14);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t0 = rng.gen_range(100.0..4_000.0f64);
        let t_inf = t0 + rng.gen_range(0.0..1.0f64) * t0;
        let b = rng.gen_range(2..5u32);
        let gen = DelayedResubmission::expectation_with_copies(&m, b, t0, t_inf);
        let single_copy = DelayedResubmission::expectation(&m, t0, t_inf);
        let burst = multiple(b, t_inf).expected_j(&m);
        if gen.is_finite() {
            assert!(gen <= single_copy + 1e-6, "case {case}");
            assert!(gen <= burst + 1e-6, "case {case}");
        }
    }
}

/// The two facts the ratio search's early stop rests on, on the laws it
/// runs on: `E_J(t0, t∞) ≥ A_b(t0) = ∫₀^{t0} s(u)ᵇ du` (before `t0` only the
/// first echelon is in flight), and `A_b` nondecreasing in `t0`, both up to
/// the scan's quadrature slack.
#[test]
fn delayed_expectation_is_floored_by_a_nondecreasing_head_integral() {
    use gridstrat_core::latency::ParametricModel;
    use gridstrat_stats::optimize::floor_slack;
    use gridstrat_stats::{LogNormal, Shifted};
    use gridstrat_workload::{WeekId, WeekModel};

    let drift = WeekModel::calibrate("drift-week", 570.0, 886.0, 0.20, 60.0, 10_000.0).unwrap();
    let heavy = ParametricModel::new(
        Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap(),
        0.05,
        1e4,
    )
    .unwrap();
    let mut models: Vec<(String, Box<dyn LatencyModel>)> = [0.1, 1.0, 3.0]
        .into_iter()
        .map(|theta| {
            let law = drift.modulated(theta, theta);
            let m = ParametricModel::new(law.body(), law.rho, law.threshold_s).unwrap();
            (
                format!("drift θ = {theta}"),
                Box::new(m) as Box<dyn LatencyModel>,
            )
        })
        .collect();
    models.push(("heavy".into(), Box::new(heavy)));
    for week in [WeekId::W2006Ix, WeekId::W2007_51, WeekId::W2008_01] {
        let m = EmpiricalModel::from_trace(&week.generate(0xE6EE)).unwrap();
        models.push((format!("{week:?}"), Box::new(m)));
    }
    for (name, m) in &models {
        let (lo, hi) = m.plausible_range();
        for b in [1u32, 2] {
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=120 {
                let t0 = lo + (hi - lo) * i as f64 / 120.0;
                let a = m.powered_survival_integrals(b, t0).0;
                assert!(
                    a >= prev - floor_slack(prev),
                    "{name}, b = {b}: A({t0}) = {a} < {prev}"
                );
                prev = a;
                if i % 4 != 0 {
                    continue;
                }
                for r in [1.0, 1.25, 1.5, 1.75, 2.0] {
                    let e = DelayedResubmission::expectation_with_copies(m.as_ref(), b, t0, r * t0);
                    assert!(
                        e >= a - floor_slack(a),
                        "{name}, b = {b}, t0 = {t0}, r = {r}: E_J {e} < A {a}"
                    );
                }
            }
        }
    }
}

#[test]
fn strategy_trait_is_the_law_at_the_echelon() {
    // every family's E_J is the b-copy law at its (b, t0, t∞), and N_// of
    // single and multiple submission is b to the bit
    let mut rng = derived_rng(0xC0DE, 15);
    for case in 0..CASES {
        let m = model_from(&latency_samples(&mut rng));
        let t_inf = rng.gen_range(200.0..9_000.0f64);
        let b = rng.gen_range(2..6u32);
        let t0 = rng.gen_range(100.0..4_000.0f64);
        let ti = t0 + rng.gen_range(0.0..1.0f64) * t0;
        for spec in [
            single(t_inf),
            multiple(b, t_inf),
            StrategyParams::Delayed { t0, t_inf: ti },
            StrategyParams::DelayedMultiple { b, t0, t_inf: ti },
        ] {
            let (copies, t0, t_inf) = spec.echelon();
            let e = spec.expected_j(&m);
            assert_eq!(
                e.to_bits(),
                DelayedResubmission::expectation_with_copies(&m, copies, t0, t_inf).to_bits(),
                "case {case}: {spec:?}"
            );
            if t0 == t_inf && e.is_finite() {
                assert_eq!(
                    spec.n_parallel_for(e),
                    copies as f64,
                    "case {case}: {spec:?}"
                );
            }
        }
    }
}
