//! Defective latency models: the `F̃_R` abstraction the strategy equations
//! are written against.
//!
//! Two implementations are provided:
//!
//! * [`EmpiricalModel`] — wraps a censored trace's ECDF; every integral the
//!   strategies need is evaluated exactly (step-function algebra);
//! * [`ParametricModel`] — a fitted body distribution plus outlier mass,
//!   with adaptive-Simpson quadrature for the same integrals. Useful for
//!   smoothing rough traces and for closed-form cross-checks. Its two
//!   delayed overlap kernels share one quadrature walk
//!   ([`LatencyModel::overlap_kernels`]).

use gridstrat_stats::integrate::{
    adaptive_simpson, adaptive_simpson_shared, adaptive_simpson_with_moment,
};
use gridstrat_stats::{Distribution, Ecdf};
use gridstrat_workload::TraceSet;

/// Quadrature tolerance for parametric integrals (absolute, in seconds of
/// expectation — far below trace sampling noise).
const QUAD_TOL: f64 = 1e-6;

/// A defective latency model `F̃(t) = (1-ρ)·F_R(t)` with the integral
/// queries required by the strategy equations (paper eqs. 1–5).
pub trait LatencyModel {
    /// `F̃(t) = P(R ≤ t)` over all submissions (saturates at `1-ρ`).
    fn defective_cdf(&self, t: f64) -> f64;

    /// `A(t) = ∫₀ᵗ (1 - F̃(u)) du`.
    fn survival_integral(&self, t: f64) -> f64;

    /// `B(t) = ∫₀ᵗ u·(1 - F̃(u)) du`.
    fn moment_survival_integral(&self, t: f64) -> f64;

    /// `(∫₀ᵗ s(u)ᵇ du, ∫₀ᵗ u·s(u)ᵇ du)` — the multiple-submission kernels.
    fn powered_survival_integrals(&self, b: u32, t: f64) -> (f64, f64);

    /// The two kernels of delayed resubmission over its overlap window
    /// `[0, l]`, `l = t∞ − t0`, with `b` copies per echelon (`b = 1` is the
    /// paper's strategy, `b > 1` an extension beyond it):
    /// `((C0, D0), (A(l), B(l)))` with
    /// `C0 = ∫₀ˡ [s(u+t0)s(u)]ᵇ du`, `D0 = ∫₀ˡ u·[s(u+t0)s(u)]ᵇ du` and
    /// `(A(l), B(l)) =` [`LatencyModel::powered_survival_integrals`]`(b, l)`.
    ///
    /// Both integrate over the same interval, so a quadrature model walks
    /// it once and evaluates `s(u)` once per abscissa for both; each pair
    /// is bit for bit what its own walk would return.
    fn overlap_kernels(&self, b: u32, t0: f64, l: f64) -> ((f64, f64), (f64, f64));

    /// [`LatencyModel::overlap_kernels`] as two separate computations, the
    /// form it replaced: the bit-identity oracle of the shared walk.
    #[cfg(test)]
    fn overlap_kernels_two_call(&self, b: u32, t0: f64, l: f64) -> ((f64, f64), (f64, f64)) {
        self.overlap_kernels(b, t0, l)
    }

    /// Censoring threshold: timeouts beyond it are meaningless.
    fn horizon(&self) -> f64;

    /// Outlier (fault) ratio `ρ`.
    fn outlier_ratio(&self) -> f64;

    /// Candidate timeout values for exact/near-exact 1-D optimization.
    /// For an empirical model these are the distinct sample values (where
    /// the optimum provably lies); for parametric models, a dense quantile
    /// grid.
    fn candidate_timeouts(&self) -> Vec<f64>;

    /// A plausible `(lo, hi)` range bracketing useful timeout values, used
    /// to seed 2-D searches.
    fn plausible_range(&self) -> (f64, f64);

    /// Mean of the non-outlier latency body (reporting convenience).
    fn body_mean(&self) -> f64;
}

/// Exact model built on a censored empirical CDF.
#[derive(Debug, Clone)]
pub struct EmpiricalModel {
    ecdf: Ecdf,
}

impl EmpiricalModel {
    /// Builds from a raw latency sample (values ≥ `threshold` are outliers).
    pub fn from_samples(
        samples: &[f64],
        threshold: f64,
    ) -> Result<Self, gridstrat_stats::ecdf::EcdfError> {
        Ok(EmpiricalModel {
            ecdf: Ecdf::from_samples(samples, threshold)?,
        })
    }

    /// Builds from a probe trace.
    pub fn from_trace(trace: &TraceSet) -> Result<Self, gridstrat_stats::ecdf::EcdfError> {
        Ok(EmpiricalModel {
            ecdf: trace.ecdf()?,
        })
    }

    /// Wraps an already-built ECDF.
    pub fn from_ecdf(ecdf: Ecdf) -> Self {
        EmpiricalModel { ecdf }
    }

    /// The underlying ECDF.
    pub fn ecdf(&self) -> &Ecdf {
        &self.ecdf
    }
}

impl LatencyModel for EmpiricalModel {
    fn defective_cdf(&self, t: f64) -> f64 {
        self.ecdf.value(t)
    }

    fn survival_integral(&self, t: f64) -> f64 {
        self.ecdf.survival_integral(t)
    }

    fn moment_survival_integral(&self, t: f64) -> f64 {
        self.ecdf.moment_survival_integral(t)
    }

    fn powered_survival_integrals(&self, b: u32, t: f64) -> (f64, f64) {
        // O(log n) off the ECDF's cached per-power prefix tables — the
        // timeout-tuning loop queries this once per candidate, so the old
        // per-query body scan made tuning O(n·k)
        self.ecdf.powered_survival_integrals(b, t)
    }

    fn overlap_kernels(&self, b: u32, t0: f64, l: f64) -> ((f64, f64), (f64, f64)) {
        // both exact: an allocation-free two-pointer merge over the sample
        // array, and the prefix tables
        (
            self.ecdf.powered_survival_product_integrals(b, t0, l),
            self.ecdf.powered_survival_integrals(b, l),
        )
    }

    fn horizon(&self) -> f64 {
        self.ecdf.threshold()
    }

    fn outlier_ratio(&self) -> f64 {
        self.ecdf.outlier_ratio()
    }

    fn candidate_timeouts(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.ecdf.body().to_vec();
        out.dedup();
        out
    }

    fn plausible_range(&self) -> (f64, f64) {
        // bracket between the 1st and 99.5th body percentile — timeouts
        // outside never help (F̃ ≈ 0 below, pure waste above)
        let lo = self.ecdf.body_quantile(0.01).max(1.0);
        let hi = self.ecdf.body_quantile(0.995).min(self.horizon());
        (lo, hi.max(lo + 1.0))
    }

    fn body_mean(&self) -> f64 {
        self.ecdf.body_mean()
    }
}

/// Parametric model: a continuous body distribution plus outlier mass `ρ`.
#[derive(Debug, Clone)]
pub struct ParametricModel<D> {
    body: D,
    rho: f64,
    horizon: f64,
}

impl<D: Distribution> ParametricModel<D> {
    /// Creates the model; `rho ∈ [0, 1)`, `horizon > 0`.
    pub fn new(body: D, rho: f64, horizon: f64) -> Result<Self, String> {
        if !(rho.is_finite() && (0.0..1.0).contains(&rho)) {
            return Err(format!("rho must be in [0,1), got {rho}"));
        }
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(format!("horizon must be positive, got {horizon}"));
        }
        Ok(ParametricModel { body, rho, horizon })
    }

    /// The body distribution.
    pub fn body(&self) -> &D {
        &self.body
    }

    fn survival(&self, t: f64) -> f64 {
        1.0 - self.defective_cdf(t)
    }
}

impl<D: Distribution> LatencyModel for ParametricModel<D> {
    fn defective_cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            (1.0 - self.rho) * self.body.cdf(t)
        }
    }

    fn survival_integral(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        adaptive_simpson(|u| self.survival(u), 0.0, t, QUAD_TOL)
    }

    fn moment_survival_integral(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        adaptive_simpson(|u| u * self.survival(u), 0.0, t, QUAD_TOL)
    }

    fn powered_survival_integrals(&self, b: u32, t: f64) -> (f64, f64) {
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        let b = b as i32;
        adaptive_simpson_with_moment(|u| self.survival(u).powi(b), 0.0, t, QUAD_TOL)
    }

    fn overlap_kernels(&self, b: u32, t0: f64, l: f64) -> ((f64, f64), (f64, f64)) {
        if l <= 0.0 {
            return ((0.0, 0.0), (0.0, 0.0));
        }
        let b = b as i32;
        adaptive_simpson_shared(
            |u| self.survival(u),
            |u, su| (self.survival(u + t0) * su).powi(b),
            |_, su| su.powi(b),
            0.0,
            l,
            QUAD_TOL,
        )
    }

    #[cfg(test)]
    fn overlap_kernels_two_call(&self, b: u32, t0: f64, l: f64) -> ((f64, f64), (f64, f64)) {
        let product = if l <= 0.0 {
            (0.0, 0.0)
        } else {
            let b = b as i32;
            adaptive_simpson_with_moment(
                |u| (self.survival(u + t0) * self.survival(u)).powi(b),
                0.0,
                l,
                QUAD_TOL,
            )
        };
        (product, self.powered_survival_integrals(b, l))
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }

    fn outlier_ratio(&self) -> f64 {
        self.rho
    }

    fn candidate_timeouts(&self) -> Vec<f64> {
        // dense quantile grid of the body, clamped to the horizon
        const N: usize = 1024;
        let mut out = Vec::with_capacity(N);
        for i in 1..=N {
            let p = i as f64 / (N as f64 + 1.0);
            let q = self.body.quantile(p);
            if q > 0.0 && q < self.horizon {
                out.push(q);
            }
        }
        out.dedup();
        out
    }

    fn plausible_range(&self) -> (f64, f64) {
        let lo = self.body.quantile(0.01).max(1.0);
        let hi = self.body.quantile(0.995).min(self.horizon);
        (lo, hi.max(lo + 1.0))
    }

    fn body_mean(&self) -> f64 {
        self.body.mean().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridstrat_stats::{Exponential, LogNormal};

    fn empirical() -> EmpiricalModel {
        // body 100,200,300,400 + 1 outlier; n = 5
        EmpiricalModel::from_samples(&[100.0, 200.0, 300.0, 400.0, 20_000.0], 10_000.0).unwrap()
    }

    #[test]
    fn empirical_basics() {
        let m = empirical();
        assert!((m.outlier_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(m.horizon(), 10_000.0);
        assert!((m.defective_cdf(250.0) - 0.4).abs() < 1e-12);
        assert!((m.body_mean() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn powered_integrals_match_plain_at_b1() {
        let m = empirical();
        for t in [50.0, 150.0, 350.0, 500.0, 9_000.0] {
            let (a1, b1) = m.powered_survival_integrals(1, t);
            assert!((a1 - m.survival_integral(t)).abs() < 1e-9, "A at {t}");
            assert!(
                (b1 - m.moment_survival_integral(t)).abs() < 1e-9,
                "B at {t}"
            );
        }
    }

    #[test]
    fn powered_integrals_hand_computed() {
        let m = empirical();
        // survival: 1 on [0,100), .8 on [100,200), .6, .4, then .2
        // b=2: ∫₀²⁵⁰ s² = 100 + .64*100 + .36*50 = 182
        let (a2, _) = m.powered_survival_integrals(2, 250.0);
        assert!((a2 - 182.0).abs() < 1e-9, "got {a2}");
    }

    #[test]
    fn powered_decreasing_in_b() {
        let m = empirical();
        let t = 350.0;
        let mut prev = f64::INFINITY;
        for b in 1..=10 {
            let (a, _) = m.powered_survival_integrals(b, t);
            assert!(a < prev);
            prev = a;
        }
    }

    #[test]
    fn candidates_are_distinct_samples() {
        let m = EmpiricalModel::from_samples(&[5.0, 5.0, 7.0, 9.0, 9.0], 100.0).unwrap();
        assert_eq!(m.candidate_timeouts(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn parametric_matches_exponential_closed_form() {
        // For Exponential(λ), no outliers: A(t) = (1 - e^{-λt})/λ
        let lambda = 0.002;
        let m = ParametricModel::new(Exponential::new(lambda).unwrap(), 0.0, 1e4).unwrap();
        for t in [100.0, 500.0, 2_000.0] {
            let want = (1.0 - (-lambda * t).exp()) / lambda;
            assert!(
                (m.survival_integral(t) - want).abs() < 1e-4,
                "A({t}) = {} want {want}",
                m.survival_integral(t)
            );
        }
    }

    #[test]
    fn parametric_with_outliers_scales_survival() {
        let rho = 0.25;
        let m = ParametricModel::new(Exponential::new(0.01).unwrap(), rho, 1e4).unwrap();
        // as t → ∞ the defective cdf saturates at 1 - ρ
        assert!((m.defective_cdf(5_000.0) - 0.75).abs() < 1e-6);
        // A(t) ≥ ρ·t always (survival ≥ ρ)
        assert!(m.survival_integral(2_000.0) >= rho * 2_000.0);
    }

    #[test]
    fn parametric_product_integral_vs_empirical_on_same_law() {
        // large empirical sample from a lognormal should give product
        // integrals close to the parametric quadrature
        use gridstrat_stats::rng::derived_rng;
        let body = LogNormal::new(5.5, 0.9).unwrap();
        let mut rng = derived_rng(77, 0);
        let xs = body.sample_n(&mut rng, 60_000);
        let emp = EmpiricalModel::from_samples(&xs, 1e5).unwrap();
        let par = ParametricModel::new(body, 0.0, 1e5).unwrap();
        let ((ce, de), _) = emp.overlap_kernels(1, 200.0, 400.0);
        let ((cp, dp), _) = par.overlap_kernels(1, 200.0, 400.0);
        assert!((ce - cp).abs() / cp < 0.02, "C: emp {ce} par {cp}");
        assert!((de - dp).abs() / dp < 0.02, "D: emp {de} par {dp}");
    }

    #[test]
    fn overlap_kernels_are_bit_identical_to_two_separate_walks() {
        use gridstrat_stats::{Pareto, Shifted, Weibull};
        let drift = gridstrat_workload::WeekModel::calibrate(
            "drift-week",
            570.0,
            886.0,
            0.20,
            60.0,
            10_000.0,
        )
        .unwrap();
        let mut models: Vec<(String, Box<dyn LatencyModel>)> = [0.1, 1.0, 3.0, 20.0]
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
        let heavy = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        models.push((
            "heavy".into(),
            Box::new(ParametricModel::new(heavy, 0.05, 1e4).unwrap()),
        ));
        models.push((
            "weibull".into(),
            Box::new(ParametricModel::new(Weibull::new(0.7, 400.0).unwrap(), 0.1, 1e4).unwrap()),
        ));
        // the Pareto CDF has a kink at its scale, inside every window
        models.push((
            "pareto".into(),
            Box::new(ParametricModel::new(Pareto::new(200.0, 1.5).unwrap(), 0.1, 1e4).unwrap()),
        ));
        for (name, m) in &models {
            let (lo, hi) = m.plausible_range();
            for b in 1..=3 {
                for i in 0..=16 {
                    let t0 = lo + (hi - lo) * i as f64 / 16.0;
                    for l in [0.0, 1e-9, 1.0, 0.1 * t0, 0.5 * t0, 0.77 * t0, t0] {
                        let ((c, d), (a, bl)) = m.overlap_kernels(b, t0, l);
                        let ((oc, od), (oa, ob)) = m.overlap_kernels_two_call(b, t0, l);
                        assert_eq!(
                            [c, d, a, bl].map(f64::to_bits),
                            [oc, od, oa, ob].map(f64::to_bits),
                            "{name}, b = {b}, t0 = {t0}, l = {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parametric_rejects_bad_params() {
        let e = Exponential::new(1.0).unwrap();
        assert!(ParametricModel::new(e, 1.0, 100.0).is_err());
        assert!(ParametricModel::new(e, 0.5, 0.0).is_err());
    }

    #[test]
    fn plausible_range_is_ordered_and_within_horizon() {
        let m = empirical();
        let (lo, hi) = m.plausible_range();
        assert!(lo > 0.0 && lo < hi && hi <= m.horizon());
    }
}
