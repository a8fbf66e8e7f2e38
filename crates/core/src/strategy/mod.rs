//! The client-side submission strategies of the paper, as one echelon law
//! behind the [`Strategy`] trait.
//!
//! Every family is one client protocol ([`StrategyParams::echelon`]):
//! submit an echelon of `b` copies every `t0` and cancel each echelon `t∞`
//! after it was submitted.
//!
//! | Family | Paper | `(b, t0, t∞)` | Model |
//! |---|---|---|---|
//! | [`StrategyParams::Single`] | §4, eqs. 1–2 | `(1, t∞, t∞)` | cancel + resubmit at `t∞` |
//! | [`StrategyParams::Multiple`] | §5, eqs. 3–4 | `(b, t∞, t∞)` | burst of `b`, cancel rest on first start |
//! | [`StrategyParams::Delayed`] | §6, eq. 5 | `(1, t0, t∞)` | copy at `t0`, cancel original at `t∞` |
//! | [`StrategyParams::DelayedMultiple`] | extension | `(b, t0, t∞)` | `b` copies per echelon |
//!
//! A strategy *instance* is a [`StrategyParams`] value: the plain-data
//! description every sweep, fleet, adaptive and benchmark path carries. It
//! is the one implementor of [`Strategy`], which computes `E_J`/`σ_J`/`N_//`
//! of every family from the one `b`-copy survival law of
//! [`DelayedResubmission`] at the instance's `(b, t0, t∞)`. Single and
//! multiple submission are that law at `t0 = t∞`: the overlap window is
//! empty, so `E_J = A_b(t∞)/(1 − q)` with `q = s(t∞)ᵇ`, which is eqs. 1
//! and 3 (and σ_J is eqs. 2 and 4). The law is exact on an
//! [`crate::latency::EmpiricalModel`] and adaptive quadrature on a
//! parametric one. [`optimize_timeout`] tunes the single and multiple
//! timeout, [`DelayedResubmission::optimize_with_copies`] the delayed pair.
//!
//! Executed, the same triple drives one controller for every family,
//! behind [`crate::TaskSession`] and the Monte-Carlo executors.

pub mod delayed;
pub mod distribution;
#[cfg(test)]
mod eqs;

pub use delayed::{DelayedOutcome, DelayedResubmission};
pub use distribution::JDistribution;

use crate::cost::StrategyParams;
use crate::latency::LatencyModel;

/// Outcome of a 1-D timeout optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeout1d {
    /// Optimal timeout `t∞` in seconds.
    pub timeout: f64,
    /// `E_J` at the optimum, seconds.
    pub expectation: f64,
    /// `σ_J` at the optimum, seconds.
    pub std_dev: f64,
}

/// The timeout `t∞` that minimises `E_J` of `b`-fold submission (single
/// resubmission at `b = 1`, paper §4–5): the echelon law at `t0 = t∞`,
/// scanned over the model's candidate timeouts.
///
/// For an empirical model this is **exact**: between sample points
/// `A_b(t)` grows linearly while `q = s(t)ᵇ` is constant, so `E_J(t) =
/// A_b(t)/(1 − q)` is increasing-linear over a constant denominator, and
/// the global minimum is attained at a sample value. For a parametric model
/// the candidates are a dense quantile grid.
///
/// # Panics
///
/// If `b = 0`, or if no candidate gives a finite `E_J` (a degenerate
/// model).
pub fn optimize_timeout<M: LatencyModel + ?Sized>(model: &M, b: u32) -> Timeout1d {
    let mut best = (f64::NAN, f64::INFINITY);
    for t in model.candidate_timeouts() {
        let e = DelayedResubmission::expectation_with_copies(model, b, t, t);
        if e < best.1 {
            best = (t, e);
        }
    }
    let (timeout, expectation) = best;
    assert!(
        expectation.is_finite(),
        "no finite E_J over candidate timeouts — degenerate model"
    );
    Timeout1d {
        timeout,
        expectation,
        std_dev: DelayedResubmission::moments_with_copies(model, b, timeout, timeout).1,
    }
}

/// The analytic side of a parameterised client-side submission strategy:
/// closed-form moments of the total latency `J` and the paper's
/// parallel-job count over any latency model ([`Strategy::expected_j`],
/// [`Strategy::std_j`], [`Strategy::n_parallel`]), and re-tuning
/// ([`Strategy::tune`]). The executable side is the echelon protocol of
/// [`StrategyParams::echelon`], run by [`crate::TaskSession`] and the
/// Monte-Carlo executors.
///
/// [`StrategyParams`] is the one implementor. The analytic methods are
/// lenient: an instance that cannot complete (a timeout below the latency
/// floor, an infeasible delayed pair) yields `+∞`/`NaN` rather than a
/// panic, which parameter scans rely on. Executing one panics.
pub trait Strategy: Send + Sync {
    /// Short human-readable strategy family name.
    fn name(&self) -> &'static str;

    /// Expected total latency `E_J` over `model`, seconds
    /// (`+∞` when the instance cannot complete on this model).
    fn expected_j(&self, model: &dyn LatencyModel) -> f64;

    /// Standard deviation `σ_J` over `model`, seconds.
    fn std_j(&self, model: &dyn LatencyModel) -> f64;

    /// Mean number of parallel jobs `N_//` under the paper's convention
    /// given an already-computed expectation `e_j` (`N_//(E_J)`; exactly
    /// `b` for multiple submission and 1 for single resubmission, `NaN`
    /// when `e_j` is not finite or the pair is infeasible). Callers
    /// that already hold `E_J` should prefer this over
    /// [`Strategy::n_parallel`], which recomputes it.
    fn n_parallel_for(&self, e_j: f64) -> f64;

    /// Mean number of parallel jobs `N_//` over `model` (the paper's
    /// `N_//(E_J)` convention).
    fn n_parallel(&self, model: &dyn LatencyModel) -> f64 {
        self.n_parallel_for(self.expected_j(model))
    }

    /// Re-optimises the instance's *free* parameters on `model`, keeping
    /// structural ones (the collection size `b`, the copies-per-echelon
    /// count) fixed: the timeout for single/multiple, the `(t0, t∞)` pair
    /// for delayed.
    fn tune(&self, model: &dyn LatencyModel) -> Self
    where
        Self: Sized;
}

impl Strategy for StrategyParams {
    fn name(&self) -> &'static str {
        match self {
            StrategyParams::Single { .. } => "single",
            StrategyParams::Multiple { .. } => "multiple",
            StrategyParams::Delayed { .. } => "delayed",
            StrategyParams::DelayedMultiple { .. } => "delayed-multiple",
        }
    }

    fn expected_j(&self, model: &dyn LatencyModel) -> f64 {
        let (b, t0, t_inf) = self.echelon();
        DelayedResubmission::expectation_with_copies(model, b, t0, t_inf)
    }

    fn std_j(&self, model: &dyn LatencyModel) -> f64 {
        let (b, t0, t_inf) = self.echelon();
        DelayedResubmission::moments_with_copies(model, b, t0, t_inf).1
    }

    fn n_parallel_for(&self, e_j: f64) -> f64 {
        let (b, t0, t_inf) = self.echelon();
        if e_j.is_finite() && DelayedResubmission::feasible(t0, t_inf) {
            DelayedResubmission::n_parallel_at_with_copies(b, e_j, t0, t_inf)
        } else {
            f64::NAN
        }
    }

    fn tune(&self, model: &dyn LatencyModel) -> Self {
        match *self {
            StrategyParams::Single { .. } => StrategyParams::Single {
                t_inf: optimize_timeout(model, 1).timeout,
            },
            StrategyParams::Multiple { b, .. } => StrategyParams::Multiple {
                b,
                t_inf: optimize_timeout(model, b).timeout,
            },
            StrategyParams::Delayed { .. } => {
                let out = DelayedResubmission::optimize(model);
                StrategyParams::Delayed {
                    t0: out.t0,
                    t_inf: out.t_inf,
                }
            }
            StrategyParams::DelayedMultiple { b, .. } => {
                let out = DelayedResubmission::optimize_with_copies(model, b);
                StrategyParams::DelayedMultiple {
                    b,
                    t0: out.t0,
                    t_inf: out.t_inf,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{MonteCarloConfig, StrategyExecutor};
    use crate::latency::{EmpiricalModel, ParametricModel};
    use crate::TaskSession;
    use gridstrat_stats::{Exponential, LogNormal, Shifted};
    use gridstrat_workload::WeekModel;

    fn heavy_model() -> ParametricModel<Shifted<LogNormal>> {
        let body = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        ParametricModel::new(body, 0.05, 1e4).unwrap()
    }

    #[test]
    fn params_evaluate_the_law_at_their_echelon() {
        let m = heavy_model();
        let single = StrategyParams::Single { t_inf: 700.0 };
        let multiple = StrategyParams::Multiple { b: 3, t_inf: 800.0 };
        let delayed = StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        };
        for (spec, want_e, want_n) in [
            (
                single,
                DelayedResubmission::expectation(&m, 700.0, 700.0),
                1.0,
            ),
            (
                multiple,
                DelayedResubmission::expectation_with_copies(&m, 3, 800.0, 800.0),
                3.0,
            ),
            (
                delayed,
                DelayedResubmission::expectation(&m, 400.0, 560.0),
                DelayedResubmission::evaluate(&m, 400.0, 560.0).n_parallel,
            ),
        ] {
            assert_eq!(spec.expected_j(&m).to_bits(), want_e.to_bits(), "{spec:?}");
            assert_eq!(spec.n_parallel(&m).to_bits(), want_n.to_bits(), "{spec:?}");
        }
        // single resubmission is multiple submission of one job
        let one = StrategyParams::Multiple { b: 1, t_inf: 700.0 };
        assert_eq!(
            one.expected_j(&m).to_bits(),
            single.expected_j(&m).to_bits()
        );
        assert_eq!(one.std_j(&m).to_bits(), single.std_j(&m).to_bits());
    }

    #[test]
    fn trait_objects_are_usable() {
        let m = heavy_model();
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(StrategyParams::Single { t_inf: 700.0 }),
            Box::new(StrategyParams::Multiple { b: 2, t_inf: 800.0 }),
            Box::new(StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            }),
        ];
        for s in &strategies {
            let e = s.expected_j(&m);
            assert!(e.is_finite() && e > 0.0, "{}", s.name());
            assert!(s.std_j(&m).is_finite());
            assert!(s.n_parallel(&m) >= 1.0);
        }
        // names are distinct per family
        assert_eq!(strategies[0].name(), "single");
        assert_eq!(strategies[1].name(), "multiple");
        assert_eq!(strategies[2].name(), "delayed");
    }

    // Executing an instance checks what the analytic side tolerates: each
    // test first shows the closed forms stay lenient, then that a task
    // session (or the Monte-Carlo executor) refuses the instance.

    #[test]
    #[should_panic(expected = "timeout must be finite and positive")]
    fn single_with_a_zero_timeout_panics_when_executed() {
        let spec = StrategyParams::Single { t_inf: 0.0 };
        assert_eq!(spec.expected_j(&heavy_model()), f64::INFINITY);
        TaskSession::new(spec);
    }

    #[test]
    #[should_panic(expected = "timeout must be finite and positive")]
    fn multiple_with_an_infinite_timeout_panics_when_executed() {
        let week = WeekModel::calibrate("w", 500.0, 700.0, 0.1, 60.0, 1e4).unwrap();
        let config = MonteCarloConfig { trials: 1, seed: 1 };
        StrategyExecutor::new(week, config).run(StrategyParams::Multiple {
            b: 2,
            t_inf: f64::INFINITY,
        });
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn multiple_without_copies_panics_when_executed() {
        let spec = StrategyParams::Multiple { b: 0, t_inf: 800.0 };
        assert_eq!(spec.n_parallel_for(500.0), 0.0);
        TaskSession::new(spec);
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn infeasible_delayed_pair_panics_when_executed() {
        let spec = StrategyParams::Delayed {
            t0: 300.0,
            t_inf: 700.0,
        };
        assert_eq!(spec.expected_j(&heavy_model()), f64::INFINITY);
        assert!(spec.n_parallel_for(500.0).is_nan());
        TaskSession::new(spec);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn delayed_multiple_without_copies_panics_when_executed() {
        let mut session = TaskSession::new(StrategyParams::Single { t_inf: 700.0 });
        session.rebind(StrategyParams::DelayedMultiple {
            b: 0,
            t0: 400.0,
            t_inf: 560.0,
        });
    }

    #[test]
    fn tune_keeps_structural_parameters() {
        let m = heavy_model();
        let tuned = StrategyParams::Multiple { b: 4, t_inf: 123.0 }.tune(&m);
        match tuned {
            StrategyParams::Multiple { b, t_inf } => {
                assert_eq!(b, 4);
                let opt = optimize_timeout(&m, 4);
                assert_eq!(t_inf.to_bits(), opt.timeout.to_bits());
            }
            other => panic!("tune changed the variant: {other:?}"),
        }
        let tuned = StrategyParams::Delayed {
            t0: 300.0,
            t_inf: 400.0,
        }
        .tune(&m);
        match tuned {
            StrategyParams::Delayed { t0, t_inf } => {
                assert!(DelayedResubmission::feasible(t0, t_inf));
            }
            other => panic!("tune changed the variant: {other:?}"),
        }
    }

    // --- single and multiple submission: the law at t0 = t∞ ---------------

    fn single(t_inf: f64) -> StrategyParams {
        StrategyParams::Single { t_inf }
    }

    fn multiple(b: u32, t_inf: f64) -> StrategyParams {
        StrategyParams::Multiple { b, t_inf }
    }

    #[test]
    fn single_matches_the_exponential_closed_form() {
        // Exponential(λ) body with outlier ratio ρ: F̃(t) = (1-ρ)(1-e^{-λt}),
        // A(t) = ρt + (1-ρ)(1-e^{-λt})/λ, E_J = A/F̃
        let lambda = 0.002;
        for rho in [0.0, 0.1, 0.3] {
            let m = ParametricModel::new(Exponential::new(lambda).unwrap(), rho, 1e4).unwrap();
            for t in [200.0, 500.0, 1500.0, 5000.0] {
                let f = (1.0 - rho) * (1.0 - (-lambda * t).exp());
                let want = (rho * t + (1.0 - rho) * (1.0 - (-lambda * t).exp()) / lambda) / f;
                let got = single(t).expected_j(&m);
                assert!(
                    (got - want).abs() / want < 1e-4,
                    "rho={rho} t={t}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn multiple_matches_the_exponential_closed_form() {
        // Exponential(λ), ρ = 0: (1-F)ᵇ = e^{-bλu}, so
        // A_b(t) = (1-e^{-bλt})/(bλ), G = 1-e^{-bλt} and E_J = A_b/G = 1/(bλ)
        let lambda = 0.002;
        let b = 4u32;
        let m = ParametricModel::new(Exponential::new(lambda).unwrap(), 0.0, 1e5).unwrap();
        for t in [100.0, 800.0] {
            let want = 1.0 / (b as f64 * lambda);
            let got = multiple(b, t).expected_j(&m);
            assert!((got - want).abs() / want < 1e-4, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn memoryless_case_expectation_increases_with_timeout() {
        // With ρ = 0 and exponential latency, resubmission can never help:
        // E_J(t∞) = 1/λ + t∞·q/F is increasing, so small timeouts are best.
        let m = ParametricModel::new(Exponential::new(0.01).unwrap(), 0.0, 1e4).unwrap();
        let e1 = single(50.0).expected_j(&m);
        let e2 = single(500.0).expected_j(&m);
        let e3 = single(5000.0).expected_j(&m);
        assert!(e1 < e2 && e2 < e3);
        // and E_J ≥ mean latency always
        assert!(e1 >= 100.0 - 1e-6);
    }

    #[test]
    fn with_outliers_interior_optimum_exists() {
        // On a heavy-tailed body with a latency floor, ρ > 0 makes huge
        // timeouts costly (waiting 10⁴ s for lost jobs) while tiny timeouts
        // kill jobs that were about to start: an interior optimum appears.
        // (For a *memoryless* body the optimum is t∞ → 0 — see the test
        // above — which is why the distinction matters.)
        let body = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        let m = ParametricModel::new(body, 0.2, 1e4).unwrap();
        let opt = optimize_timeout(&m, 1);
        assert!(
            opt.timeout > 150.0 && opt.timeout < 9_000.0,
            "t* = {}",
            opt.timeout
        );
        // optimum beats both extremes
        assert!(opt.expectation < single(9_999.0).expected_j(&m));
        assert!(opt.expectation < single(155.0).expected_j(&m));
    }

    #[test]
    fn single_variance_matches_monte_carlo_for_exponential() {
        use gridstrat_stats::rng::derived_rng;
        use gridstrat_stats::Distribution;
        use rand::Rng;
        let lambda = 0.002;
        let rho = 0.15;
        let t_inf = 800.0;
        let m = ParametricModel::new(Exponential::new(lambda).unwrap(), rho, 1e6).unwrap();
        let e_model = single(t_inf).expected_j(&m);
        let s_model = single(t_inf).std_j(&m);

        // simulate the strategy directly
        let body = Exponential::new(lambda).unwrap();
        let mut rng = derived_rng(123, 0);
        let trials = 60_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..trials {
            let mut total = 0.0;
            loop {
                let lat = if rng.gen::<f64>() < rho {
                    f64::INFINITY
                } else {
                    body.sample(&mut rng)
                };
                if lat < t_inf {
                    total += lat;
                    break;
                }
                total += t_inf;
            }
            sum += total;
            sq += total * total;
        }
        let mean = sum / trials as f64;
        let std = (sq / trials as f64 - mean * mean).sqrt();
        assert!(
            (mean - e_model).abs() / e_model < 0.02,
            "E: {mean} vs {e_model}"
        );
        assert!(
            (std - s_model).abs() / s_model < 0.03,
            "σ: {std} vs {s_model}"
        );
    }

    #[test]
    fn multiple_matches_monte_carlo_on_an_empirical_model() {
        // empirical model + direct simulation of the burst strategy
        use gridstrat_stats::rng::derived_rng;
        use gridstrat_stats::Distribution;
        let body = LogNormal::from_mean_std(500.0, 700.0).unwrap();
        let rho = 0.1;
        let mut rng = derived_rng(9, 0);
        let mut samples: Vec<f64> = Vec::with_capacity(5000);
        for _ in 0..5000 {
            if rand::Rng::gen::<f64>(&mut rng) < rho {
                samples.push(20_000.0);
            } else {
                samples.push(body.sample(&mut rng).min(20_000.0));
            }
        }
        let m = EmpiricalModel::from_samples(&samples, 10_000.0).unwrap();
        let (b, t_inf) = (3u32, 900.0);
        let e_model = multiple(b, t_inf).expected_j(&m);

        // simulate by resampling from the same empirical sample
        let mut rng2 = derived_rng(10, 0);
        let trials = 40_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let mut total = 0.0;
            loop {
                let min_lat = (0..b)
                    .map(|_| samples[rand::Rng::gen_range(&mut rng2, 0..samples.len())])
                    .fold(f64::INFINITY, f64::min);
                if min_lat < t_inf {
                    total += min_lat;
                    break;
                }
                total += t_inf;
            }
            sum += total;
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - e_model).abs() / e_model < 0.03,
            "MC {mean} vs model {e_model}"
        );
    }

    #[test]
    fn empirical_optimum_is_at_a_sample_value() {
        let samples = [120.0, 300.0, 450.0, 700.0, 20_000.0, 20_000.0];
        let m = EmpiricalModel::from_samples(&samples, 10_000.0).unwrap();
        let opt = optimize_timeout(&m, 1);
        assert!(samples.contains(&opt.timeout));
        // exhaustive check on a fine grid: nothing beats the sample-value optimum
        let mut t = 1.0;
        while t < 1_000.0 {
            assert!(
                single(t).expected_j(&m) >= opt.expectation - 1e-9,
                "t={t} beats the claimed optimum"
            );
            t += 0.5;
        }
    }

    #[test]
    fn below_support_timeout_is_infinite() {
        let m = EmpiricalModel::from_samples(&[100.0, 200.0], 1e4).unwrap();
        assert_eq!(single(50.0).expected_j(&m), f64::INFINITY);
        assert_eq!(single(50.0).std_j(&m), f64::INFINITY);
        assert_eq!(multiple(4, 50.0).expected_j(&m), f64::INFINITY);
    }

    #[test]
    fn resubmission_reduces_the_impact_of_outliers() {
        // Table 1's headline: E_J with resubmission ≈ body mean, far below
        // the censored mean that outliers would impose.
        let mut samples: Vec<f64> = (1..=900).map(|i| 100.0 + (i as f64) * 0.9).collect();
        samples.extend(std::iter::repeat_n(20_000.0, 100)); // 10% outliers
        let m = EmpiricalModel::from_samples(&samples, 10_000.0).unwrap();
        let opt = optimize_timeout(&m, 1);
        // E_J within 2× of the no-outlier mean, not dragged to 10⁴
        assert!(
            opt.expectation < 2.0 * m.body_mean(),
            "E_J = {}",
            opt.expectation
        );
    }

    #[test]
    fn optimal_expectation_and_sigma_decrease_with_b() {
        let m = heavy_model();
        let opts: Vec<Timeout1d> = (1..=10).map(|b| optimize_timeout(&m, b)).collect();
        for (b, pair) in (2..).zip(opts.windows(2)) {
            assert!(
                pair[1].expectation < pair[0].expectation,
                "E_J(b={b}) = {} did not improve on {}",
                pair[1].expectation,
                pair[0].expectation
            );
        }
        assert!(opts[4].std_dev < opts[0].std_dev);
        // Table 2: b=2 gives ≈ -33%, b=5 ≈ -51%, marginal gains shrink.
        let [e1, e2, e5, e10] = [0, 1, 4, 9].map(|i| opts[i].expectation);
        let drop2 = 1.0 - e2 / e1;
        let drop5 = 1.0 - e5 / e1;
        let drop10 = 1.0 - e10 / e1;
        assert!(drop2 > 0.15 && drop2 < 0.55, "b=2 drop {drop2}");
        assert!(drop5 > drop2 && drop5 < 0.75, "b=5 drop {drop5}");
        assert!(drop10 > drop5 && drop10 < 0.85, "b=10 drop {drop10}");
        // marginal gain per extra job shrinks
        assert!((e1 - e2) > (e2 - e5) / 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn timeout_scan_rejects_b_zero() {
        optimize_timeout(&heavy_model(), 0);
    }

    /// `(t, E_J)` of the best point of a 0.5 s scan over the plausible range.
    fn dense_scan(model: &dyn LatencyModel, b: u32) -> (f64, f64) {
        let (lo, hi) = model.plausible_range();
        let mut best = (f64::NAN, f64::INFINITY);
        let mut t = lo;
        while t <= hi {
            let e = multiple(b, t).expected_j(model);
            if e < best.1 {
                best = (t, e);
            }
            t += 0.5;
        }
        best
    }

    #[test]
    fn timeout_scan_is_never_beaten_by_a_dense_scan() {
        // ground truth for the 1-D optimiser: on an empirical model the
        // candidate scan is exact, so no point of a 0.5 s grid beats it
        // beyond rounding, on any of the 13 weeks
        use gridstrat_workload::WeekId;
        use rayon::prelude::*;
        let misses: Vec<Vec<String>> = (0..WeekId::ALL.len())
            .into_par_iter()
            .map(|w| {
                let week = WeekId::ALL[w];
                let m = EmpiricalModel::from_trace(&week.generate(0xE6EE)).unwrap();
                [1u32, 2, 3, 5, 10]
                    .into_iter()
                    .filter_map(|b| {
                        let opt = optimize_timeout(&m, b);
                        let (t, e) = dense_scan(&m, b);
                        (e < opt.expectation * (1.0 - 1e-12))
                            .then(|| format!("{week:?}, b = {b}: {e} at {t} beats {opt:?}"))
                    })
                    .collect()
            })
            .collect();
        let misses = misses.concat();
        assert!(misses.is_empty(), "{misses:#?}");

        // a parametric week: the candidates are a 1,024-point quantile grid,
        // so the dense scan may win by the grid's discretisation. Measured:
        // at most 1.9e-7 relative (b = 2); tolerance 1e-6
        let week = WeekModel::calibrate("w", 500.0, 700.0, 0.1, 60.0, 1e4).unwrap();
        let m = ParametricModel::new(week.body(), week.rho, week.threshold_s).unwrap();
        for b in [1u32, 2, 5] {
            let opt = optimize_timeout(&m, b);
            let (t, e) = dense_scan(&m, b);
            assert!(
                e >= opt.expectation * (1.0 - 1e-6),
                "b = {b}: {e} at {t} beats {opt:?}"
            );
        }
    }
}
