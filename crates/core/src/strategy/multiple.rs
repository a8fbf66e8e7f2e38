//! Multiple (burst) submission (paper §5).
//!
//! For each task, a collection of `b` identical jobs is submitted; as soon
//! as one starts, the others are cancelled; if none starts before `t∞`, the
//! whole collection is cancelled and resubmitted.
//!
//! The minimum of `b` i.i.d. latencies has defective CDF
//! `G(t) = 1 - (1 - F̃(t))^b`, so eqs. 3–4 are eqs. 1–2 with `F̃ → G`:
//!
//! ```text
//! E_J(t∞)  = A_b(t∞) / G(t∞)            A_b(t) = ∫₀ᵗ (1-F̃(u))ᵇ du
//! σ²_J(t∞) = -A_b²/G² + 2B_b/G + 2 t∞ (1-G) A_b/G²
//! ```

use super::Timeout1d;
use crate::latency::LatencyModel;

/// The closed forms of multiple submission (eqs. 3–4). An instance is
/// [`crate::cost::StrategyParams::Multiple`].
pub struct MultipleSubmission;

impl MultipleSubmission {
    /// Family name used in reports and sweeps.
    pub const FAMILY: &'static str = "multiple";

    /// Defective CDF of the collection minimum, `G(t) = 1-(1-F̃(t))ᵇ`.
    pub fn collection_cdf<M: LatencyModel + ?Sized>(model: &M, b: u32, t: f64) -> f64 {
        assert!(b >= 1, "need at least one job per collection");
        1.0 - (1.0 - model.defective_cdf(t)).powi(b as i32)
    }

    /// `E_J(t∞)` for a collection of `b` jobs — eq. 3.
    pub fn expectation<M: LatencyModel + ?Sized>(model: &M, b: u32, t_inf: f64) -> f64 {
        let g = Self::collection_cdf(model, b, t_inf);
        if g <= 0.0 {
            return f64::INFINITY;
        }
        let (a_b, _) = model.powered_survival_integrals(b, t_inf);
        a_b / g
    }

    /// `σ_J(t∞)` — eq. 4.
    pub fn std_dev<M: LatencyModel + ?Sized>(model: &M, b: u32, t_inf: f64) -> f64 {
        let g = Self::collection_cdf(model, b, t_inf);
        if g <= 0.0 {
            return f64::INFINITY;
        }
        let (a_b, b_b) = model.powered_survival_integrals(b, t_inf);
        let q = 1.0 - g;
        let var = -a_b * a_b / (g * g) + 2.0 * b_b / g + 2.0 * t_inf * q * a_b / (g * g);
        var.max(0.0).sqrt()
    }

    /// Minimises `E_J` over the model's candidate timeouts for a given `b`
    /// (exact for empirical models, same argument as the single strategy).
    pub fn optimize<M: LatencyModel + ?Sized>(model: &M, b: u32) -> Timeout1d {
        let mut best = Timeout1d {
            timeout: f64::NAN,
            expectation: f64::INFINITY,
            std_dev: f64::INFINITY,
        };
        for t in model.candidate_timeouts() {
            let e = Self::expectation(model, b, t);
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
        best.std_dev = Self::std_dev(model, b, best.timeout);
        best
    }

    /// Optimal outcomes for a series of collection sizes (Table 2 / Fig. 3).
    pub fn optimal_series<M: LatencyModel + ?Sized>(
        model: &M,
        bs: &[u32],
    ) -> Vec<(u32, Timeout1d)> {
        bs.iter().map(|&b| (b, Self::optimize(model, b))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{EmpiricalModel, ParametricModel};
    use crate::strategy::SingleResubmission;
    use gridstrat_stats::rng::derived_rng;
    use gridstrat_stats::{Distribution, Exponential, LogNormal, Shifted};

    fn heavy_model() -> ParametricModel<Shifted<LogNormal>> {
        // 2006-IX-like body: 150 s latency floor + heavy log-normal
        let body = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        ParametricModel::new(body, 0.05, 1e4).unwrap()
    }

    #[test]
    fn b1_reduces_to_single_resubmission() {
        let m = heavy_model();
        for t in [200.0, 600.0, 1500.0] {
            let multi = MultipleSubmission::expectation(&m, 1, t);
            let single = SingleResubmission::expectation(&m, t);
            assert!((multi - single).abs() / single < 1e-9, "t={t}");
            let sm = MultipleSubmission::std_dev(&m, 1, t);
            let ss = SingleResubmission::std_dev(&m, t);
            assert!((sm - ss).abs() / ss < 1e-9, "σ at t={t}");
        }
    }

    #[test]
    fn expectation_decreases_with_b() {
        let m = heavy_model();
        let mut prev = f64::INFINITY;
        for b in 1..=10 {
            let opt = MultipleSubmission::optimize(&m, b);
            assert!(
                opt.expectation < prev,
                "E_J(b={b}) = {} did not improve on {prev}",
                opt.expectation
            );
            prev = opt.expectation;
        }
    }

    #[test]
    fn improvement_saturates_like_the_paper() {
        // Table 2: b=2 gives ≈ -33%, b=5 ≈ -51%, marginal gains shrink.
        let m = heavy_model();
        let e1 = MultipleSubmission::optimize(&m, 1).expectation;
        let e2 = MultipleSubmission::optimize(&m, 2).expectation;
        let e5 = MultipleSubmission::optimize(&m, 5).expectation;
        let e10 = MultipleSubmission::optimize(&m, 10).expectation;
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
    fn sigma_decreases_with_b() {
        let m = heavy_model();
        let s1 = MultipleSubmission::optimize(&m, 1).std_dev;
        let s5 = MultipleSubmission::optimize(&m, 5).std_dev;
        assert!(s5 < s1);
    }

    #[test]
    fn collection_cdf_bounds() {
        let m = heavy_model();
        for b in [1, 3, 10] {
            for t in [0.0, 100.0, 1000.0, 9999.0] {
                let g = MultipleSubmission::collection_cdf(&m, b, t);
                assert!((0.0..=1.0).contains(&g));
                // more copies make starting before t more likely
                if b > 1 {
                    assert!(g >= m.defective_cdf(t) - 1e-12);
                }
            }
        }
    }

    #[test]
    fn monte_carlo_agreement_empirical() {
        // empirical model + direct simulation of the burst strategy
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
        let b = 3u32;
        let t_inf = 900.0;
        let e_model = MultipleSubmission::expectation(&m, b, t_inf);

        // simulate by resampling from the same empirical sample
        let mut rng2 = derived_rng(10, 0);
        let trials = 40_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let mut total = 0.0;
            'outer: loop {
                let mut min_lat = f64::INFINITY;
                for _ in 0..b {
                    let idx = rand::Rng::gen_range(&mut rng2, 0..samples.len());
                    min_lat = min_lat.min(samples[idx]);
                }
                if min_lat < t_inf {
                    total += min_lat;
                    break 'outer;
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
    fn optimal_series_is_ordered_input() {
        let m = heavy_model();
        let series = MultipleSubmission::optimal_series(&m, &[1, 2, 3]);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].0, 1);
        assert!(series[2].1.expectation < series[0].1.expectation);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn rejects_b_zero() {
        let m = heavy_model();
        MultipleSubmission::collection_cdf(&m, 0, 100.0);
    }

    #[test]
    fn infinite_when_unreachable() {
        let m = EmpiricalModel::from_samples(&[500.0, 600.0], 1e4).unwrap();
        assert_eq!(MultipleSubmission::expectation(&m, 4, 100.0), f64::INFINITY);
    }

    #[test]
    fn exponential_b_closed_form() {
        // For Exponential(λ), ρ=0: (1-F)ᵇ = e^{-bλu}; A_b(t) = (1-e^{-bλt})/(bλ);
        // G = 1-e^{-bλt} ⇒ E_J = [t·e^{-bλt} + (1-e^{-bλt})/(bλ)] … directly:
        let lambda = 0.002;
        let b = 4u32;
        let m = ParametricModel::new(Exponential::new(lambda).unwrap(), 0.0, 1e5).unwrap();
        for t in [100.0, 800.0] {
            let bl = b as f64 * lambda;
            let a_b = (1.0 - (-bl * t).exp()) / bl;
            let g = 1.0 - (-bl * t).exp();
            let want = a_b / g;
            let got = MultipleSubmission::expectation(&m, b, t);
            assert!((got - want).abs() / want < 1e-4, "t={t}: {got} vs {want}");
        }
    }
}
