//! Single resubmission (paper §4).
//!
//! Wait until `t∞`; if the job has not started, cancel and resubmit;
//! iterate until a job starts before `t∞`. With `F = F̃(t∞)`, `q = 1-F`,
//! `A(t) = ∫₀ᵗ(1-F̃)` and `B(t) = ∫₀ᵗ u(1-F̃)`:
//!
//! ```text
//! E_J(t∞)  = A(t∞)/F                                   (eq. 1)
//! σ²_J(t∞) = -A²/F² + 2B/F + 2 t∞ q A/F²               (eq. 2)
//! ```
//!
//! Equation 2 was re-derived (and unit-tested) from the decomposition
//! `J = N·t∞ + R_f` with `N` geometric (failure prob. `q`) independent of
//! `R_f ~ R | R < t∞`; it matches the paper's expression exactly.

use super::Timeout1d;
use crate::latency::LatencyModel;

/// The closed forms of single resubmission (eqs. 1–2). An instance is
/// [`crate::cost::StrategyParams::Single`].
pub struct SingleResubmission;

impl SingleResubmission {
    /// Family name used in reports and sweeps.
    pub const FAMILY: &'static str = "single";

    /// `E_J(t∞)` — eq. 1. Returns `+∞` when `F̃(t∞) = 0` (a timeout below
    /// the minimum latency can never succeed).
    pub fn expectation<M: LatencyModel + ?Sized>(model: &M, t_inf: f64) -> f64 {
        let f = model.defective_cdf(t_inf);
        if f <= 0.0 {
            return f64::INFINITY;
        }
        model.survival_integral(t_inf) / f
    }

    /// `σ_J(t∞)` — eq. 2. Returns `+∞` when `F̃(t∞) = 0`.
    pub fn std_dev<M: LatencyModel + ?Sized>(model: &M, t_inf: f64) -> f64 {
        Self::variance(model, t_inf).sqrt()
    }

    /// `σ²_J(t∞)` — eq. 2.
    pub fn variance<M: LatencyModel + ?Sized>(model: &M, t_inf: f64) -> f64 {
        let f = model.defective_cdf(t_inf);
        if f <= 0.0 {
            return f64::INFINITY;
        }
        let q = 1.0 - f;
        let a = model.survival_integral(t_inf);
        let b = model.moment_survival_integral(t_inf);
        // clamp tiny negative round-off to zero
        (-a * a / (f * f) + 2.0 * b / f + 2.0 * t_inf * q * a / (f * f)).max(0.0)
    }

    /// Minimises `E_J` over the model's candidate timeouts.
    ///
    /// For an empirical model this is **exact**: between sample points
    /// `E_J(t)` is increasing-linear over a constant denominator, so the
    /// global minimum is attained at a sample value.
    pub fn optimize<M: LatencyModel + ?Sized>(model: &M) -> Timeout1d {
        let mut best = Timeout1d {
            timeout: f64::NAN,
            expectation: f64::INFINITY,
            std_dev: f64::INFINITY,
        };
        for t in model.candidate_timeouts() {
            let e = Self::expectation(model, t);
            if e < best.expectation {
                best = Timeout1d {
                    timeout: t,
                    expectation: e,
                    std_dev: f64::NAN,
                };
            }
        }
        assert!(
            best.expectation.is_finite(),
            "no finite E_J over candidate timeouts — degenerate model"
        );
        best.std_dev = Self::std_dev(model, best.timeout);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{EmpiricalModel, ParametricModel};
    use gridstrat_stats::Exponential;

    /// Closed forms for Exponential(λ) body with outlier ratio ρ:
    /// F̃(t) = (1-ρ)(1-e^{-λt}),
    /// A(t) = ρt + (1-ρ)(1-e^{-λt})/λ.
    fn expo_expectation(lambda: f64, rho: f64, t: f64) -> f64 {
        let f = (1.0 - rho) * (1.0 - (-lambda * t).exp());
        let a = rho * t + (1.0 - rho) * (1.0 - (-lambda * t).exp()) / lambda;
        a / f
    }

    #[test]
    fn matches_exponential_closed_form() {
        let lambda = 0.002;
        for rho in [0.0, 0.1, 0.3] {
            let m = ParametricModel::new(Exponential::new(lambda).unwrap(), rho, 1e4).unwrap();
            for t in [200.0, 500.0, 1500.0, 5000.0] {
                let got = SingleResubmission::expectation(&m, t);
                let want = expo_expectation(lambda, rho, t);
                assert!(
                    (got - want).abs() / want < 1e-4,
                    "rho={rho} t={t}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn memoryless_case_expectation_increases_with_timeout() {
        // With ρ = 0 and exponential latency, resubmission can never help:
        // E_J(t∞) = 1/λ + t∞·q/F is increasing, so small timeouts are best.
        let m = ParametricModel::new(Exponential::new(0.01).unwrap(), 0.0, 1e4).unwrap();
        let e1 = SingleResubmission::expectation(&m, 50.0);
        let e2 = SingleResubmission::expectation(&m, 500.0);
        let e3 = SingleResubmission::expectation(&m, 5000.0);
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
        use gridstrat_stats::{LogNormal, Shifted};
        let body = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        let m = ParametricModel::new(body, 0.2, 1e4).unwrap();
        let opt = SingleResubmission::optimize(&m);
        assert!(
            opt.timeout > 150.0 && opt.timeout < 9_000.0,
            "t* = {}",
            opt.timeout
        );
        // optimum beats both extremes
        assert!(opt.expectation < SingleResubmission::expectation(&m, 9_999.0));
        assert!(opt.expectation < SingleResubmission::expectation(&m, 155.0));
    }

    #[test]
    fn variance_matches_monte_carlo_for_exponential() {
        use gridstrat_stats::rng::derived_rng;
        use gridstrat_stats::Distribution;
        use rand::Rng;
        let lambda = 0.002;
        let rho = 0.15;
        let t_inf = 800.0;
        let m = ParametricModel::new(Exponential::new(lambda).unwrap(), rho, 1e6).unwrap();
        let e_model = SingleResubmission::expectation(&m, t_inf);
        let s_model = SingleResubmission::std_dev(&m, t_inf);

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
    fn empirical_optimum_is_at_a_sample_value() {
        let samples = [120.0, 300.0, 450.0, 700.0, 20_000.0, 20_000.0];
        let m = EmpiricalModel::from_samples(&samples, 10_000.0).unwrap();
        let opt = SingleResubmission::optimize(&m);
        assert!(samples.contains(&opt.timeout));
        // exhaustive check on a fine grid: nothing beats the sample-value optimum
        let mut t = 1.0;
        while t < 1_000.0 {
            assert!(
                SingleResubmission::expectation(&m, t) >= opt.expectation - 1e-9,
                "t={t} beats the claimed optimum"
            );
            t += 0.5;
        }
    }

    #[test]
    fn below_support_timeout_is_infinite() {
        let m = EmpiricalModel::from_samples(&[100.0, 200.0], 1e4).unwrap();
        assert_eq!(SingleResubmission::expectation(&m, 50.0), f64::INFINITY);
        assert_eq!(SingleResubmission::std_dev(&m, 50.0), f64::INFINITY);
    }

    #[test]
    fn reduces_impact_of_outliers() {
        // Table 1's headline: E_J with resubmission ≈ body mean, far below
        // the censored mean that outliers would impose.
        let mut samples: Vec<f64> = (1..=900).map(|i| 100.0 + (i as f64) * 0.9).collect();
        samples.extend(std::iter::repeat_n(20_000.0, 100)); // 10% outliers
        let m = EmpiricalModel::from_samples(&samples, 10_000.0).unwrap();
        let opt = SingleResubmission::optimize(&m);
        let body_mean = m.body_mean();
        // E_J within 2× of the no-outlier mean, not dragged to 10⁴
        assert!(
            opt.expectation < 2.0 * body_mean,
            "E_J = {}",
            opt.expectation
        );
    }
}
