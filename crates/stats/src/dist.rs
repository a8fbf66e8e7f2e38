//! Parametric latency distributions.
//!
//! The families the HPDC'09 methodology needs: log-normal (the paper's
//! reference body model), Weibull, exponential and Pareto, plus the
//! combinators [`Shifted`] (hard latency floor) and [`OutlierMixture`]
//! (body + fault tail). Everything exposes
//! the same [`Distribution`] interface: exact CDF/PDF/quantile closed forms
//! where they exist, inverse-CDF sampling driven by any [`rand::Rng`], and
//! optional first/second moments (`None` when the law has no finite one,
//! e.g. Pareto with `α ≤ 1`).
//!
//! The standard-normal helpers ([`normal_cdf`], [`normal_quantile`],
//! [`sample_standard_normal`]) are shared by the log-normal law, the
//! simulator's service-time models and the fitting layer.

use rand::Rng;

/// A continuous univariate distribution over (a subset of) `[0, ∞)`.
pub trait Distribution {
    /// `P(X ≤ t)`.
    fn cdf(&self, t: f64) -> f64;

    /// Probability density at `t` (0 outside the support).
    fn pdf(&self, t: f64) -> f64;

    /// Inverse CDF at `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Mean, when finite.
    fn mean(&self) -> Option<f64>;

    /// Variance, when finite.
    fn variance(&self) -> Option<f64>;

    /// Draws `n` values.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

// --- standard normal helpers -------------------------------------------------

/// Standard normal CDF `Φ(x)`, accurate to ≈ 1e-7 (Numerical-Recipes-style
/// rational erfc approximation).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal density `φ(x)`.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Complementary error function, fractional error below 1.2e-7 everywhere.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`: Acklam's rational
/// approximation polished by two Newton steps against [`normal_cdf`], so
/// `normal_cdf(normal_quantile(p)) = p` to near machine precision.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal quantile level must be in (0, 1), got {p}"
    );
    // Acklam's algorithm
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let mut x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // Newton polish against our own CDF for self-consistency
    for _ in 0..2 {
        let e = normal_cdf(x) - p;
        let d = normal_pdf(x);
        if d > 1e-300 {
            x -= e / d;
        }
    }
    x
}

/// Draws a standard normal variate via Marsaglia's polar method.
///
/// Exactly normal (a rejection method, not an approximation) and several
/// times cheaper than inverting [`normal_quantile`], whose Acklam-plus-
/// Newton polish costs two `erfc` evaluations per draw — it was the single
/// hottest instruction path of the Monte-Carlo executors. The price is a
/// variable number of uniforms per draw (~2.55 on average), which is fine:
/// every consumer owns a dedicated seeded RNG stream, so no code reasons
/// about draw positions within a stream.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0` (g = 7, n = 9), absolute
/// error far below the trace sampling noise everywhere it is used.
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_31e-7,
    ];
    if x < 0.5 {
        // reflection formula
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `Γ(x)` via [`ln_gamma`].
fn gamma_fn(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Draws a uniform in `(0, 1]` — safe as the argument of `ln`.
fn uniform_open<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    1.0 - rng.gen::<f64>()
}

/// Generic quantile by bisection for combinators without a closed form.
fn quantile_by_bisection<D: Distribution + ?Sized>(d: &D, p: f64, hint_hi: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile level must be in (0, 1), got {p}"
    );
    let mut hi = hint_hi.max(1.0);
    while d.cdf(hi) < p {
        hi *= 2.0;
        assert!(hi < 1e300, "quantile bracket diverged");
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if d.cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

// --- log-normal --------------------------------------------------------------

/// Log-normal distribution: `ln X ~ N(μ, σ²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates from the log-space parameters; `σ > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, String> {
        if !mu.is_finite() {
            return Err(format!("lognormal mu must be finite, got {mu}"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(format!("lognormal sigma must be positive, got {sigma}"));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Calibrates from the *linear-space* mean and standard deviation
    /// (both positive): `σ² = ln(1 + s²/m²)`, `μ = ln m − σ²/2`.
    pub fn from_mean_std(mean: f64, std: f64) -> Result<Self, String> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!("lognormal mean must be positive, got {mean}"));
        }
        if !(std.is_finite() && std > 0.0) {
            return Err(format!("lognormal std must be positive, got {std}"));
        }
        let sigma2 = (1.0 + (std / mean) * (std / mean)).ln();
        LogNormal::new(mean.ln() - 0.5 * sigma2, sigma2.sqrt())
    }

    /// Log-space location `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space scale `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            normal_cdf((t.ln() - self.mu) / self.sigma)
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            let z = (t.ln() - self.mu) / self.sigma;
            normal_pdf(z) / (t * self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * normal_quantile(p)).exp()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }

    fn variance(&self) -> Option<f64> {
        let s2 = self.sigma * self.sigma;
        Some((s2.exp() - 1.0) * (2.0 * self.mu + s2).exp())
    }
}

// --- exponential -------------------------------------------------------------

/// Exponential distribution with rate `λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates from the rate `λ > 0`.
    pub fn new(lambda: f64) -> Result<Self, String> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(format!("exponential rate must be positive, got {lambda}"));
        }
        Ok(Exponential { lambda })
    }

    /// Creates from the mean `1/λ > 0`.
    pub fn with_mean(mean: f64) -> Result<Self, String> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!("exponential mean must be positive, got {mean}"));
        }
        Exponential::new(1.0 / mean)
    }

    /// The rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Exponential {
    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * t).exp()
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * t).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "quantile level must be in (0, 1), got {p}"
        );
        -(1.0 - p).ln() / self.lambda
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -uniform_open(rng).ln() / self.lambda
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }

    fn variance(&self) -> Option<f64> {
        Some(1.0 / (self.lambda * self.lambda))
    }
}

// --- Weibull -----------------------------------------------------------------

/// Weibull distribution with shape `k` and scale `λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates from shape `k > 0` and scale `λ > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, String> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(format!("weibull shape must be positive, got {shape}"));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!("weibull scale must be positive, got {scale}"));
        }
        Ok(Weibull { shape, scale })
    }

    /// The shape `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Distribution for Weibull {
    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-(t / self.scale).powf(self.shape)).exp()
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            let z = t / self.scale;
            (self.shape / self.scale) * z.powf(self.shape - 1.0) * (-z.powf(self.shape)).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "quantile level must be in (0, 1), got {p}"
        );
        self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * (-uniform_open(rng).ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.scale * gamma_fn(1.0 + 1.0 / self.shape))
    }

    fn variance(&self) -> Option<f64> {
        let g1 = gamma_fn(1.0 + 1.0 / self.shape);
        let g2 = gamma_fn(1.0 + 2.0 / self.shape);
        Some(self.scale * self.scale * (g2 - g1 * g1))
    }
}

// --- Pareto ------------------------------------------------------------------

/// Pareto (type I) distribution with scale `x_m` and tail index `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates from the scale (minimum value) `x_m > 0` and `α > 0`.
    pub fn new(scale: f64, alpha: f64) -> Result<Self, String> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!("pareto scale must be positive, got {scale}"));
        }
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(format!("pareto alpha must be positive, got {alpha}"));
        }
        Ok(Pareto { scale, alpha })
    }

    /// The scale (support minimum) `x_m`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The tail index `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Distribution for Pareto {
    fn cdf(&self, t: f64) -> f64 {
        if t < self.scale {
            0.0
        } else {
            1.0 - (self.scale / t).powf(self.alpha)
        }
    }

    fn pdf(&self, t: f64) -> f64 {
        if t < self.scale {
            0.0
        } else {
            self.alpha * self.scale.powf(self.alpha) / t.powf(self.alpha + 1.0)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p < 1.0,
            "quantile level must be in (0, 1), got {p}"
        );
        self.scale * (1.0 - p).powf(-1.0 / self.alpha)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * uniform_open(rng).powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.scale / (self.alpha - 1.0))
    }

    fn variance(&self) -> Option<f64> {
        (self.alpha > 2.0).then(|| {
            let a = self.alpha;
            self.scale * self.scale * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        })
    }
}

// --- shifted combinator ------------------------------------------------------

/// Location shift: `X + shift` for an inner distribution `X` — the hard
/// latency floor of grid middleware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shifted<D> {
    inner: D,
    shift: f64,
}

impl<D: Distribution> Shifted<D> {
    /// Creates from an inner distribution and a shift `≥ 0`.
    pub fn new(inner: D, shift: f64) -> Result<Self, String> {
        if !(shift.is_finite() && shift >= 0.0) {
            return Err(format!("shift must be non-negative, got {shift}"));
        }
        Ok(Shifted { inner, shift })
    }

    /// The inner (unshifted) distribution.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The location shift.
    pub fn shift(&self) -> f64 {
        self.shift
    }
}

impl<D: Distribution> Distribution for Shifted<D> {
    fn cdf(&self, t: f64) -> f64 {
        self.inner.cdf(t - self.shift)
    }

    fn pdf(&self, t: f64) -> f64 {
        self.inner.pdf(t - self.shift)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.shift + self.inner.quantile(p)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.shift + self.inner.sample(rng)
    }

    fn mean(&self) -> Option<f64> {
        self.inner.mean().map(|m| m + self.shift)
    }

    fn variance(&self) -> Option<f64> {
        self.inner.variance()
    }
}

// --- mixtures ----------------------------------------------------------------

/// Body-plus-outlier-tail mixture: with probability `ρ` the draw comes from
/// the (far) tail distribution, otherwise from the body — the generative
/// counterpart of the paper's defective CDF `F̃ = (1-ρ)·F_R`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierMixture<B, T> {
    body: B,
    tail: T,
    rho: f64,
}

impl<B: Distribution, T: Distribution> OutlierMixture<B, T> {
    /// Creates from a body, an outlier-tail distribution and the outlier
    /// ratio `ρ ∈ [0, 1)`.
    pub fn new(body: B, tail: T, rho: f64) -> Result<Self, String> {
        if !(rho.is_finite() && (0.0..1.0).contains(&rho)) {
            return Err(format!("outlier ratio must be in [0, 1), got {rho}"));
        }
        Ok(OutlierMixture { body, tail, rho })
    }

    /// The outlier ratio `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The *defective* CDF `(1-ρ)·F_body(t)` — what the strategy equations
    /// consume when the tail is censored away.
    pub fn defective_cdf(&self, t: f64) -> f64 {
        (1.0 - self.rho) * self.body.cdf(t)
    }
}

impl<B: Distribution, T: Distribution> Distribution for OutlierMixture<B, T> {
    fn cdf(&self, t: f64) -> f64 {
        (1.0 - self.rho) * self.body.cdf(t) + self.rho * self.tail.cdf(t)
    }

    fn pdf(&self, t: f64) -> f64 {
        (1.0 - self.rho) * self.body.pdf(t) + self.rho * self.tail.pdf(t)
    }

    fn quantile(&self, p: f64) -> f64 {
        let hint = self.body.quantile(0.5).max(1.0);
        quantile_by_bisection(self, p, hint)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.rho {
            self.tail.sample(rng)
        } else {
            self.body.sample(rng)
        }
    }

    fn mean(&self) -> Option<f64> {
        Some((1.0 - self.rho) * self.body.mean()? + self.rho * self.tail.mean()?)
    }

    fn variance(&self) -> Option<f64> {
        let (mb, mt) = (self.body.mean()?, self.tail.mean()?);
        let (vb, vt) = (self.body.variance()?, self.tail.variance()?);
        let m = (1.0 - self.rho) * mb + self.rho * mt;
        Some((1.0 - self.rho) * (vb + (mb - m) * (mb - m)) + self.rho * (vt + (mt - m) * (mt - m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derived_rng;

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 2e-7);
        assert!((normal_cdf(1.0) - 0.841_344_746).abs() < 1e-6);
        assert!((normal_cdf(-1.96) - 0.024_997_895).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 1.0 - 1e-9);
    }

    #[test]
    fn normal_quantile_is_inverse_of_cdf() {
        for p in [
            1e-6,
            0.001,
            0.02425,
            0.3,
            0.5,
            0.8,
            0.97575,
            0.999,
            1.0 - 1e-6,
        ] {
            let q = normal_quantile(p);
            assert!((normal_cdf(q) - p).abs() < 1e-9, "p={p}: Φ(Φ⁻¹(p)) off");
        }
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn lognormal_calibration_from_mean_std() {
        let d = LogNormal::from_mean_std(570.0, 886.0).unwrap();
        assert!((d.mean().unwrap() - 570.0).abs() < 1e-9);
        assert!((d.variance().unwrap().sqrt() - 886.0).abs() < 1e-6);
    }

    #[test]
    fn sample_moments_match_for_each_family() {
        let mut rng = derived_rng(11, 0);
        let n = 200_000;

        let ln = LogNormal::new(5.0, 0.5).unwrap();
        let m: f64 = ln.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((m - ln.mean().unwrap()).abs() / ln.mean().unwrap() < 0.02);

        let ex = Exponential::with_mean(400.0).unwrap();
        let m: f64 = ex.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((m - 400.0).abs() / 400.0 < 0.02);

        let wb = Weibull::new(1.5, 300.0).unwrap();
        let m: f64 = wb.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((m - wb.mean().unwrap()).abs() / wb.mean().unwrap() < 0.02);

        let pa = Pareto::new(100.0, 3.0).unwrap();
        let m: f64 = pa.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((m - pa.mean().unwrap()).abs() / pa.mean().unwrap() < 0.03);
    }

    #[test]
    fn quantile_inverts_cdf_for_each_family() {
        let ln = LogNormal::new(5.5, 0.9).unwrap();
        let ex = Exponential::new(0.002).unwrap();
        let wb = Weibull::new(0.7, 500.0).unwrap();
        let pa = Pareto::new(150.0, 1.5).unwrap();
        for p in [0.01, 0.25, 0.5, 0.9, 0.999] {
            assert!((ln.cdf(ln.quantile(p)) - p).abs() < 1e-8);
            assert!((ex.cdf(ex.quantile(p)) - p).abs() < 1e-12);
            assert!((wb.cdf(wb.quantile(p)) - p).abs() < 1e-12);
            assert!((pa.cdf(pa.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn pareto_moments_gate_on_alpha() {
        assert!(Pareto::new(10.0, 0.9).unwrap().mean().is_none());
        assert!(Pareto::new(10.0, 1.5).unwrap().mean().is_some());
        assert!(Pareto::new(10.0, 1.5).unwrap().variance().is_none());
        assert!(Pareto::new(10.0, 2.5).unwrap().variance().is_some());
    }

    #[test]
    fn shifted_moves_support_and_mean() {
        let base = Exponential::with_mean(100.0).unwrap();
        let s = Shifted::new(base, 50.0).unwrap();
        assert_eq!(s.cdf(49.0), 0.0);
        assert!((s.mean().unwrap() - 150.0).abs() < 1e-12);
        assert!((s.variance().unwrap() - base.variance().unwrap()).abs() < 1e-9);
        assert!((s.quantile(0.5) - (50.0 + base.quantile(0.5))).abs() < 1e-12);
        let mut rng = derived_rng(3, 0);
        for _ in 0..100 {
            assert!(s.sample(&mut rng) >= 50.0);
        }
    }

    #[test]
    fn shifted_rejects_negative_shift() {
        assert!(Shifted::new(Exponential::new(1.0).unwrap(), -1.0).is_err());
    }

    #[test]
    fn outlier_mixture_matches_defective_form() {
        let body = LogNormal::from_mean_std(400.0, 500.0).unwrap();
        let tail = Pareto::new(10_000.0, 1.5).unwrap();
        let om = OutlierMixture::new(body, tail, 0.1).unwrap();
        // below the tail's support, full cdf equals the defective cdf
        for t in [100.0, 500.0, 5_000.0] {
            assert!((om.cdf(t) - om.defective_cdf(t)).abs() < 1e-12);
            assert!((om.defective_cdf(t) - 0.9 * body.cdf(t)).abs() < 1e-12);
        }
        // ~rho of draws land beyond the threshold
        let mut rng = derived_rng(5, 0);
        let n = 50_000;
        let beyond = (0..n).filter(|_| om.sample(&mut rng) >= 10_000.0).count();
        let frac = beyond as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "outlier fraction {frac}");
    }

    #[test]
    fn standard_normal_sampler_moments() {
        let mut rng = derived_rng(17, 0);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let z = sample_standard_normal(&mut rng);
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn constructor_validation() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::from_mean_std(-5.0, 1.0).is_err());
        assert!(Exponential::new(0.0).is_err());
        assert!(Weibull::new(-1.0, 10.0).is_err());
        assert!(Pareto::new(10.0, f64::NAN).is_err());
        assert!(OutlierMixture::new(
            Exponential::new(1.0).unwrap(),
            Exponential::new(2.0).unwrap(),
            1.0
        )
        .is_err());
    }
}
