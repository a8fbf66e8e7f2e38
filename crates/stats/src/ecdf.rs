//! Empirical (defective) cumulative distribution functions.
//!
//! The paper observes job latencies censored at a timeout `T = 10 000 s`:
//! jobs that have not started by `T` are *outliers* (ratio `ρ`). The
//! quantity driving every strategy model is the **defective CDF**
//!
//! ```text
//! F̃_R(t) = (1 - ρ)·F_R(t) = P(R ≤ t)   (over ALL submitted jobs)
//! ```
//!
//! which converges to `1 - ρ < 1` — it is *not* a proper CDF, and the
//! strategy equations use it directly. [`Ecdf`] stores the sorted non-outlier
//! samples together with the total submission count and provides
//!
//! * O(log n) point queries `F̃(t)`,
//! * **exact** prefix-sum accelerated integrals
//!   `A(t) = ∫₀ᵗ (1-F̃(u)) du` and `B(t) = ∫₀ᵗ u·(1-F̃(u)) du`
//!   (the building blocks of the paper's eqs. 1–4), and
//! * exact product integrals over shifted survival functions (eq. 5).

#[cfg(test)]
use crate::stepfn::StepFn;
use std::sync::{Arc, RwLock};

/// Prefix tables for one survival power `b`:
/// `a[j] = ∫₀^{xs[j-1]} (1-F̃(u))ᵇ du`, `m[j] = ∫₀^{xs[j-1]} u·(1-F̃(u))ᵇ du`
/// (`a[0] = m[0] = 0`). Built once per power and cached on the [`Ecdf`];
/// with them every powered survival integral is an O(log n) lookup.
#[derive(Debug)]
struct PowerTables {
    a: Vec<f64>,
    m: Vec<f64>,
}

/// Empirical defective CDF of a censored latency sample.
///
/// Built from raw latency measurements with a censoring threshold: samples
/// `≥ threshold` are counted as outliers (they contribute to the total count
/// `n_total` but never to `F̃`).
///
/// # Examples
///
/// ```
/// use gridstrat_stats::Ecdf;
/// // 3 normal jobs + 1 outlier (censored at 100)
/// let e = Ecdf::from_samples(&[10.0, 20.0, 30.0, 5000.0], 100.0).unwrap();
/// assert_eq!(e.n_total(), 4);
/// assert_eq!(e.n_body(), 3);
/// assert!((e.outlier_ratio() - 0.25).abs() < 1e-12);
/// assert!((e.value(20.0) - 0.5).abs() < 1e-12);   // 2 of 4 jobs ≤ 20
/// assert!((e.value(1e9) - 0.75).abs() < 1e-12);   // converges to 1-ρ
/// ```
#[derive(Debug)]
pub struct Ecdf {
    /// Sorted non-outlier samples.
    xs: Vec<f64>,
    /// Total number of submissions (body + outliers).
    n_total: usize,
    /// Censoring threshold used at construction.
    threshold: f64,
    /// prefix_a[j] = ∫₀^{xs[j-1]} (1 - F̃(u)) du ; prefix_a[0] = 0.
    prefix_a: Vec<f64>,
    /// prefix_b[j] = ∫₀^{xs[j-1]} u·(1 - F̃(u)) du ; prefix_b[0] = 0.
    prefix_b: Vec<f64>,
    /// prefix_x[j] = Σ_{i<j} xs[i] ; prefix_x[0] = 0. Makes the body
    /// moment queries (`body_mean`, `censored_mean_lower_bound`) O(1).
    prefix_x: Vec<f64>,
    /// prefix_x2[j] = Σ_{i<j} xs[i]² ; prefix_x2[0] = 0 (for `body_std`).
    prefix_x2: Vec<f64>,
    /// Lazily-built per-power prefix tables for the multiple-submission
    /// kernels, keyed by the survival power `b`. A read-mostly list (the
    /// handful of distinct `b` values a tuning run touches) behind an
    /// `RwLock`; hits are a shared-lock lookup plus an `Arc` bump, so the
    /// steady-state query path never allocates.
    pow_cache: RwLock<Vec<(u32, Arc<PowerTables>)>>,
}

impl Clone for Ecdf {
    fn clone(&self) -> Self {
        Ecdf {
            xs: self.xs.clone(),
            n_total: self.n_total,
            threshold: self.threshold,
            prefix_a: self.prefix_a.clone(),
            prefix_b: self.prefix_b.clone(),
            prefix_x: self.prefix_x.clone(),
            prefix_x2: self.prefix_x2.clone(),
            // the tables are immutable once built — share them
            pow_cache: RwLock::new(self.pow_cache.read().expect("ecdf cache lock").clone()),
        }
    }
}

/// Error constructing an [`Ecdf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcdfError {
    /// No samples were provided.
    Empty,
    /// All samples were outliers: `F̃` would be identically zero and every
    /// strategy expectation diverges.
    AllOutliers,
    /// A sample was negative or non-finite.
    InvalidSample,
}

impl std::fmt::Display for EcdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcdfError::Empty => write!(f, "cannot build an ECDF from zero samples"),
            EcdfError::AllOutliers => write!(f, "all samples are censored outliers"),
            EcdfError::InvalidSample => write!(f, "samples must be finite and non-negative"),
        }
    }
}

impl std::error::Error for EcdfError {}

impl Ecdf {
    /// Builds the defective ECDF from raw latencies; samples `≥ threshold`
    /// are treated as outliers.
    pub fn from_samples(samples: &[f64], threshold: f64) -> Result<Self, EcdfError> {
        if samples.is_empty() {
            return Err(EcdfError::Empty);
        }
        if samples.iter().any(|&x| !x.is_finite() || x < 0.0) {
            return Err(EcdfError::InvalidSample);
        }
        let mut xs: Vec<f64> = samples.iter().copied().filter(|&x| x < threshold).collect();
        if xs.is_empty() {
            return Err(EcdfError::AllOutliers);
        }
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Ok(Self::from_sorted_body(xs, samples.len(), threshold))
    }

    /// Builds from an already-sorted body sample plus an explicit count of
    /// censored outliers (useful when outlier latencies were never observed,
    /// only counted — exactly the situation of the paper's probe harness).
    pub fn from_sorted_body_and_outliers(
        body_sorted: Vec<f64>,
        n_outliers: usize,
        threshold: f64,
    ) -> Result<Self, EcdfError> {
        if body_sorted.is_empty() {
            return if n_outliers == 0 {
                Err(EcdfError::Empty)
            } else {
                Err(EcdfError::AllOutliers)
            };
        }
        if body_sorted
            .iter()
            .any(|&x| !x.is_finite() || x < 0.0 || x >= threshold)
            || body_sorted.windows(2).any(|w| w[0] > w[1])
        {
            return Err(EcdfError::InvalidSample);
        }
        let n_total = body_sorted.len() + n_outliers;
        Ok(Self::from_sorted_body(body_sorted, n_total, threshold))
    }

    fn from_sorted_body(xs: Vec<f64>, n_total: usize, threshold: f64) -> Self {
        let n = n_total as f64;
        let m = xs.len();
        let mut prefix_a = Vec::with_capacity(m + 1);
        let mut prefix_b = Vec::with_capacity(m + 1);
        let mut prefix_x = Vec::with_capacity(m + 1);
        let mut prefix_x2 = Vec::with_capacity(m + 1);
        prefix_a.push(0.0);
        prefix_b.push(0.0);
        prefix_x.push(0.0);
        prefix_x2.push(0.0);
        let mut a = 0.0;
        let mut b = 0.0;
        let mut sx = 0.0;
        let mut sx2 = 0.0;
        let mut lo = 0.0;
        for (j, &x) in xs.iter().enumerate() {
            // on [lo, x): F̃ = j/n  =>  1-F̃ = 1 - j/n
            let s = 1.0 - j as f64 / n;
            a += s * (x - lo);
            b += s * 0.5 * (x * x - lo * lo);
            sx += x;
            sx2 += x * x;
            prefix_a.push(a);
            prefix_b.push(b);
            prefix_x.push(sx);
            prefix_x2.push(sx2);
            lo = x;
        }
        Ecdf {
            xs,
            n_total,
            threshold,
            prefix_a,
            prefix_b,
            prefix_x,
            prefix_x2,
            pow_cache: RwLock::new(Vec::new()),
        }
    }

    /// Returns (building and caching on first use) the prefix tables for
    /// survival power `b`.
    fn power_tables(&self, b: u32) -> Arc<PowerTables> {
        if let Some((_, tables)) = self
            .pow_cache
            .read()
            .expect("ecdf cache lock")
            .iter()
            .find(|(p, _)| *p == b)
        {
            return Arc::clone(tables);
        }
        // build outside the lock: construction is O(n) and contention-free
        let n = self.n_total as f64;
        let pow = b as i32;
        let m = self.xs.len();
        let mut a_tab = Vec::with_capacity(m + 1);
        let mut m_tab = Vec::with_capacity(m + 1);
        a_tab.push(0.0);
        m_tab.push(0.0);
        let mut a = 0.0;
        let mut mm = 0.0;
        let mut lo = 0.0;
        for (j, &x) in self.xs.iter().enumerate() {
            let s = (1.0 - j as f64 / n).powi(pow);
            a += s * (x - lo);
            mm += s * 0.5 * (x * x - lo * lo);
            a_tab.push(a);
            m_tab.push(mm);
            lo = x;
        }
        let built = Arc::new(PowerTables { a: a_tab, m: m_tab });
        let mut cache = self.pow_cache.write().expect("ecdf cache lock");
        if let Some((_, tables)) = cache.iter().find(|(p, _)| *p == b) {
            return Arc::clone(tables); // another thread won the race
        }
        cache.push((b, Arc::clone(&built)));
        built
    }

    /// Total number of submissions (body + outliers).
    pub fn n_total(&self) -> usize {
        self.n_total
    }

    /// Number of non-outlier samples.
    pub fn n_body(&self) -> usize {
        self.xs.len()
    }

    /// Censoring threshold used at construction.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Observed outlier (fault) ratio `ρ`.
    pub fn outlier_ratio(&self) -> f64 {
        (self.n_total - self.xs.len()) as f64 / self.n_total as f64
    }

    /// Sorted non-outlier samples.
    pub fn body(&self) -> &[f64] {
        &self.xs
    }

    /// `F̃(t) = P(R ≤ t)` over all submissions (defective: sup = 1-ρ).
    pub fn value(&self, t: f64) -> f64 {
        let j = self.xs.partition_point(|&x| x <= t);
        j as f64 / self.n_total as f64
    }

    /// Proper conditional CDF `F_R(t) = F̃(t)/(1-ρ)` of non-outlier latency.
    pub fn conditional_value(&self, t: f64) -> f64 {
        let j = self.xs.partition_point(|&x| x <= t);
        j as f64 / self.xs.len() as f64
    }

    /// Exact `A(t) = ∫₀ᵗ (1 - F̃(u)) du` in O(log n).
    pub fn survival_integral(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let j = self.xs.partition_point(|&x| x <= t);
        let lo = if j == 0 { 0.0 } else { self.xs[j - 1] };
        let s = 1.0 - j as f64 / self.n_total as f64;
        self.prefix_a[j] + s * (t - lo)
    }

    /// Exact `B(t) = ∫₀ᵗ u·(1 - F̃(u)) du` in O(log n).
    pub fn moment_survival_integral(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let j = self.xs.partition_point(|&x| x <= t);
        let lo = if j == 0 { 0.0 } else { self.xs[j - 1] };
        let s = 1.0 - j as f64 / self.n_total as f64;
        self.prefix_b[j] + s * 0.5 * (t * t - lo * lo)
    }

    /// Exact powered survival integrals — the multiple-submission kernels
    /// (paper eqs. 3–4):
    ///
    /// ```text
    /// (∫₀ᵗ (1-F̃(u))ᵇ du,  ∫₀ᵗ u·(1-F̃(u))ᵇ du)
    /// ```
    ///
    /// O(log n) per call after the prefix tables for power `b` are built
    /// (once, lazily, O(n)); the query path performs no allocation beyond
    /// a reference-count bump on the cached tables. `b = 1` reuses the
    /// always-present plain tables.
    pub fn powered_survival_integrals(&self, b: u32, t: f64) -> (f64, f64) {
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        if b == 1 {
            return (self.survival_integral(t), self.moment_survival_integral(t));
        }
        let tables = self.power_tables(b);
        let j = self.xs.partition_point(|&x| x <= t);
        let lo = if j == 0 { 0.0 } else { self.xs[j - 1] };
        let s = (1.0 - j as f64 / self.n_total as f64).powi(b as i32);
        (
            tables.a[j] + s * (t - lo),
            tables.m[j] + s * 0.5 * (t * t - lo * lo),
        )
    }

    /// Exact product integrals over shifted survival functions:
    ///
    /// ```text
    /// C0 = ∫₀^L (1-F̃(u+shift))·(1-F̃(u)) du
    /// D0 = ∫₀^L u·(1-F̃(u+shift))·(1-F̃(u)) du
    /// ```
    ///
    /// These are the kernels of the delayed-resubmission expectation
    /// (paper eq. 5, survival form) with `shift = t0`, `L = t∞ - t0`.
    pub fn survival_product_integrals(&self, shift: f64, l: f64) -> (f64, f64) {
        self.powered_survival_product_integrals(1, shift, l)
    }

    /// Exact powered product integrals — the generalized-delayed kernels:
    ///
    /// ```text
    /// (∫₀^L [(1-F̃(u+shift))·(1-F̃(u))]ᵇ du,
    ///  ∫₀^L u·[(1-F̃(u+shift))·(1-F̃(u))]ᵇ du)
    /// ```
    ///
    /// The integrand is a step function whose breakpoints are sample
    /// values and sample values minus `shift`: a two-pointer merge walks
    /// both (already sorted) breakpoint streams directly off the sample
    /// array, counting crossings incrementally — no scratch vector, no
    /// per-segment binary search, and no `(x - shift) + shift` float
    /// round-trip (the crossing count *is* the step level). Cost is
    /// O(log n + k) where `k` is the number of sample values falling in
    /// the two length-`L` windows, against O(n log n) for a
    /// sort-and-scan over materialised breakpoints.
    pub fn powered_survival_product_integrals(&self, b: u32, shift: f64, l: f64) -> (f64, f64) {
        if l <= 0.0 {
            return (0.0, 0.0);
        }
        let xs = &self.xs;
        let n = self.n_total as f64;
        let pow = b as i32;
        // i1/i2 are both cursors and step levels: for u in the current
        // segment, #{x ≤ u} = i1 and #{x ≤ u+shift} = i2
        let mut i1 = xs.partition_point(|&x| x <= 0.0);
        let mut i2 = xs.partition_point(|&x| x <= shift);
        let mut c = 0.0;
        let mut d = 0.0;
        let mut lo = 0.0_f64;
        loop {
            let next1 = if i1 < xs.len() { xs[i1] } else { f64::INFINITY };
            let next2 = if i2 < xs.len() {
                xs[i2] - shift
            } else {
                f64::INFINITY
            };
            let hi = next1.min(next2).min(l);
            if hi > lo {
                let p = (1.0 - i1 as f64 / n) * (1.0 - i2 as f64 / n);
                let v = if b == 1 { p } else { p.powi(pow) };
                c += v * (hi - lo);
                d += v * 0.5 * (hi * hi - lo * lo);
                lo = hi;
            }
            if hi >= l {
                break;
            }
            // advance past every breakpoint stream that produced `hi`
            // (duplicated sample values step one index per pass, through
            // zero-width segments that contribute nothing)
            if next1 <= hi {
                i1 += 1;
            }
            if next2 <= hi {
                i2 += 1;
            }
        }
        (c, d)
    }

    /// Empirical quantile of the *non-outlier* body at level `p ∈ [0, 1]`
    /// (lower empirical quantile).
    pub fn body_quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let m = self.xs.len();
        let idx = ((p * m as f64).ceil() as usize).clamp(1, m) - 1;
        self.xs[idx]
    }

    /// Mean of the non-outlier body (the paper's “mean < 10⁵” column).
    /// O(1): reads the Σx prefix table.
    pub fn body_mean(&self) -> f64 {
        self.prefix_x[self.xs.len()] / self.xs.len() as f64
    }

    /// Standard deviation (population) of the non-outlier body (`σ_R`).
    /// O(1): `Var = Σx²/m − mean²` off the prefix tables (clamped at zero
    /// against floating-point cancellation for near-constant bodies).
    pub fn body_std(&self) -> f64 {
        let m = self.xs.len() as f64;
        let mean = self.prefix_x[self.xs.len()] / m;
        (self.prefix_x2[self.xs.len()] / m - mean * mean)
            .max(0.0)
            .sqrt()
    }

    /// Lower bound of the uncensored mean: outliers counted at the threshold
    /// (the paper's “mean with 10⁵” column). O(1) off the Σx prefix table.
    pub fn censored_mean_lower_bound(&self) -> f64 {
        let body_sum = self.prefix_x[self.xs.len()];
        let outliers = (self.n_total - self.xs.len()) as f64;
        (body_sum + outliers * self.threshold) / self.n_total as f64
    }

    /// Materialises `F̃` as a [`StepFn`] (breakpoints at distinct samples):
    /// the exact-integral oracle the accelerated queries are tested against.
    #[cfg(test)]
    pub(crate) fn to_stepfn(&self) -> StepFn {
        let n = self.n_total as f64;
        let mut breaks = Vec::with_capacity(self.xs.len());
        let mut values = Vec::with_capacity(self.xs.len() + 1);
        values.push(0.0);
        let mut i = 0;
        while i < self.xs.len() {
            let x = self.xs[i];
            // advance over duplicates
            let mut j = i + 1;
            while j < self.xs.len() && self.xs[j] == x {
                j += 1;
            }
            breaks.push(x);
            values.push(j as f64 / n);
            i = j;
        }
        StepFn::new(breaks, values).expect("sorted distinct breakpoints")
    }
}

/// Naive O(n) / O(n log n) reference implementations of every accelerated
/// query — the oracles the equivalence suite checks the prefix-table and
/// two-pointer paths against. Test-only: the production paths must never
/// fall back to these.
#[cfg(test)]
impl Ecdf {
    fn survival_integral_naive(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let n = self.n_total as f64;
        let mut acc = 0.0;
        let mut lo = 0.0;
        let mut j = 0usize;
        while lo < t {
            let hi = if j < self.xs.len() {
                self.xs[j].min(t)
            } else {
                t
            };
            if hi > lo {
                acc += (1.0 - j as f64 / n) * (hi - lo);
            }
            lo = hi;
            j += 1;
        }
        acc
    }

    fn moment_survival_integral_naive(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let n = self.n_total as f64;
        let mut acc = 0.0;
        let mut lo = 0.0;
        let mut j = 0usize;
        while lo < t {
            let hi = if j < self.xs.len() {
                self.xs[j].min(t)
            } else {
                t
            };
            if hi > lo {
                acc += (1.0 - j as f64 / n) * 0.5 * (hi * hi - lo * lo);
            }
            lo = hi;
            j += 1;
        }
        acc
    }

    /// The pre-table powered kernel: a full interval scan per query.
    fn powered_survival_integrals_naive(&self, b: u32, t: f64) -> (f64, f64) {
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        let n = self.n_total as f64;
        let pow = b as i32;
        let mut a_int = 0.0;
        let mut b_int = 0.0;
        let mut lo = 0.0;
        let mut j = 0usize;
        while lo < t {
            let hi = if j < self.xs.len() {
                self.xs[j].min(t)
            } else {
                t
            };
            if hi > lo {
                let s = (1.0 - j as f64 / n).powi(pow);
                a_int += s * (hi - lo);
                b_int += s * 0.5 * (hi * hi - lo * lo);
            }
            lo = hi;
            j += 1;
        }
        (a_int, b_int)
    }

    /// The pre-merge product kernel: materialise and sort all breakpoints,
    /// then binary-search the step levels at every segment midpoint.
    fn powered_survival_product_integrals_naive(&self, b: u32, shift: f64, l: f64) -> (f64, f64) {
        if l <= 0.0 {
            return (0.0, 0.0);
        }
        let xs = &self.xs;
        let n = self.n_total as f64;
        let pow = b as i32;
        let mut brs: Vec<f64> = Vec::new();
        let start = xs.partition_point(|&x| x <= 0.0);
        let end = xs.partition_point(|&x| x < l);
        brs.extend_from_slice(&xs[start..end]);
        let start_s = xs.partition_point(|&x| x <= shift);
        let end_s = xs.partition_point(|&x| x < shift + l);
        brs.extend(xs[start_s..end_s].iter().map(|&x| x - shift));
        brs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        brs.dedup();

        let mut c = 0.0;
        let mut d = 0.0;
        let mut lo = 0.0;
        let mut idx = 0usize;
        while lo < l {
            let hi = if idx < brs.len() { brs[idx].min(l) } else { l };
            if hi > lo {
                // midpoint evaluation: exact for step functions and immune
                // to the (x - shift) + shift float round-trip at edges
                let mid = 0.5 * (lo + hi);
                let j1 = xs.partition_point(|&x| x <= mid);
                let j2 = xs.partition_point(|&x| x <= mid + shift);
                let v = ((1.0 - j1 as f64 / n) * (1.0 - j2 as f64 / n)).powi(pow);
                c += v * (hi - lo);
                d += v * 0.5 * (hi * hi - lo * lo);
            }
            lo = hi;
            idx += 1;
        }
        (c, d)
    }

    fn body_mean_naive(&self) -> f64 {
        self.xs.iter().sum::<f64>() / self.xs.len() as f64
    }

    fn body_std_naive(&self) -> f64 {
        let m = self.body_mean_naive();
        (self.xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / self.xs.len() as f64).sqrt()
    }

    fn censored_mean_lower_bound_naive(&self) -> f64 {
        let body_sum: f64 = self.xs.iter().sum();
        let outliers = (self.n_total - self.xs.len()) as f64;
        (body_sum + outliers * self.threshold) / self.n_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ecdf4() -> Ecdf {
        // body 1,2,3 + one outlier; threshold 100
        Ecdf::from_samples(&[1.0, 2.0, 3.0, 500.0], 100.0).unwrap()
    }

    #[test]
    fn construction_errors() {
        assert_eq!(Ecdf::from_samples(&[], 10.0).unwrap_err(), EcdfError::Empty);
        assert_eq!(
            Ecdf::from_samples(&[20.0, 30.0], 10.0).unwrap_err(),
            EcdfError::AllOutliers
        );
        assert_eq!(
            Ecdf::from_samples(&[-1.0], 10.0).unwrap_err(),
            EcdfError::InvalidSample
        );
        assert_eq!(
            Ecdf::from_samples(&[f64::INFINITY], 10.0).unwrap_err(),
            EcdfError::InvalidSample
        );
    }

    #[test]
    fn from_sorted_body_and_outliers_matches_from_samples() {
        let a = ecdf4();
        let b = Ecdf::from_sorted_body_and_outliers(vec![1.0, 2.0, 3.0], 1, 100.0).unwrap();
        assert_eq!(a.n_total(), b.n_total());
        for t in [0.0, 0.5, 1.0, 2.5, 50.0, 1e6] {
            assert_eq!(a.value(t), b.value(t));
        }
        assert_eq!(a.survival_integral(10.0), b.survival_integral(10.0));
    }

    #[test]
    fn from_sorted_rejects_unsorted_or_censored_body() {
        assert!(Ecdf::from_sorted_body_and_outliers(vec![2.0, 1.0], 0, 10.0).is_err());
        assert!(Ecdf::from_sorted_body_and_outliers(vec![1.0, 20.0], 0, 10.0).is_err());
        assert!(Ecdf::from_sorted_body_and_outliers(vec![], 3, 10.0).is_err());
    }

    #[test]
    fn defective_cdf_values() {
        let e = ecdf4();
        assert_eq!(e.value(0.5), 0.0);
        assert_eq!(e.value(1.0), 0.25);
        assert_eq!(e.value(2.9), 0.5);
        assert_eq!(e.value(3.0), 0.75);
        assert_eq!(e.value(1e9), 0.75); // defective: sup = 1-ρ
        assert_eq!(e.conditional_value(1e9), 1.0);
        assert!((e.outlier_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn survival_integral_exact() {
        let e = ecdf4();
        // 1-F̃: 1 on [0,1), .75 on [1,2), .5 on [2,3), .25 after
        // A(2.5) = 1 + 0.75 + 0.5*0.5 = 2.0
        assert!((e.survival_integral(2.5) - 2.0).abs() < 1e-12);
        // A(4) = 1 + .75 + .5 + .25 = 2.5
        assert!((e.survival_integral(4.0) - 2.5).abs() < 1e-12);
        assert_eq!(e.survival_integral(0.0), 0.0);
        assert_eq!(e.survival_integral(-5.0), 0.0);
    }

    #[test]
    fn survival_integral_matches_stepfn() {
        let e = ecdf4();
        let s = e.to_stepfn().map(|v| 1.0 - v);
        for t in [0.3, 1.0, 1.5, 2.0, 3.3, 10.0, 123.0] {
            assert!(
                (e.survival_integral(t) - s.integral(0.0, t)).abs() < 1e-10,
                "A({t}) mismatch"
            );
            assert!(
                (e.moment_survival_integral(t) - s.moment_integral(0.0, t)).abs() < 1e-10,
                "B({t}) mismatch"
            );
        }
    }

    #[test]
    fn moment_survival_integral_exact() {
        let e = ecdf4();
        // B(2) = ∫₀¹ u du + ∫₁² 0.75 u du = 0.5 + 0.75*1.5 = 1.625
        assert!((e.moment_survival_integral(2.0) - 1.625).abs() < 1e-12);
    }

    #[test]
    fn product_integrals_match_stepfn_product() {
        let e = Ecdf::from_samples(&[1.0, 2.0, 3.0, 5.0, 8.0, 500.0], 100.0).unwrap();
        let surv = e.to_stepfn().map(|v| 1.0 - v);
        for (shift, l) in [(1.5, 2.0), (0.5, 4.0), (3.0, 3.0), (2.0, 0.0)] {
            let shifted = surv.shift(-shift);
            let prod = shifted.product(&surv);
            let want_c = prod.integral(0.0, l);
            let want_d = prod.moment_integral(0.0, l);
            let (c0, d0) = e.survival_product_integrals(shift, l);
            assert!(
                (c0 - want_c).abs() < 1e-10,
                "C0 mismatch shift={shift} l={l}"
            );
            assert!(
                (d0 - want_d).abs() < 1e-10,
                "D0 mismatch shift={shift} l={l}"
            );
        }
    }

    #[test]
    fn duplicate_samples_handled() {
        let e = Ecdf::from_samples(&[2.0, 2.0, 2.0, 4.0], 100.0).unwrap();
        assert_eq!(e.value(2.0), 0.75);
        assert_eq!(e.value(1.9), 0.0);
        // A(3) = 1*2 + 0.25*1 = 2.25
        assert!((e.survival_integral(3.0) - 2.25).abs() < 1e-12);
        let s = e.to_stepfn();
        assert_eq!(s.breaks().len(), 2); // dedup'd breakpoints
    }

    #[test]
    fn body_statistics() {
        let e = ecdf4();
        assert!((e.body_mean() - 2.0).abs() < 1e-12);
        assert!((e.body_std() - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        // censored mean bound: (1+2+3+100)/4
        assert!((e.censored_mean_lower_bound() - 26.5).abs() < 1e-12);
    }

    // --- accelerated-path vs naive-oracle equivalence ------------------------

    /// Draws a random censored body: mixed scales, duplicated values, and
    /// ties right at interesting breakpoints.
    fn random_ecdf(seed: u64, n: usize) -> Ecdf {
        use rand::Rng;
        let mut rng = crate::rng::derived_rng(seed, 0);
        let mut samples = Vec::with_capacity(n + 2);
        for _ in 0..n {
            let u: f64 = rng.gen();
            // log-uniform over ~[1, 8000) plus occasional exact duplicates
            let x = (u * 9.0).exp();
            if rng.gen::<f64>() < 0.15 && !samples.is_empty() {
                let idx = rng.gen_range(0..samples.len());
                samples.push(samples[idx]); // exact tie
            } else {
                samples.push(x);
            }
        }
        // a couple of guaranteed outliers so ρ > 0
        samples.push(20_000.0);
        samples.push(30_000.0);
        Ecdf::from_samples(&samples, 10_000.0).unwrap()
    }

    #[test]
    fn equivalence_plain_integrals_match_naive_oracle() {
        for seed in 0..8u64 {
            let e = random_ecdf(seed, 400);
            let probes = [
                0.0, 0.5, 1.0, 10.0, 123.456, 500.0, 2_000.0, 9_999.0, 20_000.0,
            ];
            for &t in &probes {
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
                assert!(
                    rel(e.survival_integral(t), e.survival_integral_naive(t)) < 1e-12,
                    "A({t}) diverged (seed {seed})"
                );
                assert!(
                    rel(
                        e.moment_survival_integral(t),
                        e.moment_survival_integral_naive(t)
                    ) < 1e-12,
                    "B({t}) diverged (seed {seed})"
                );
            }
            // probe exactly at sample values too (boundary of the tables)
            for &t in e.body().iter().step_by(37) {
                assert!(
                    (e.survival_integral(t) - e.survival_integral_naive(t)).abs()
                        / e.survival_integral_naive(t).max(1.0)
                        < 1e-12,
                    "A at sample point diverged (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn equivalence_powered_integrals_match_naive_oracle() {
        for seed in 0..6u64 {
            let e = random_ecdf(seed, 300);
            for b in [1u32, 2, 3, 5, 8, 13, 20] {
                for &t in &[0.7, 42.0, 600.0, 3_000.0, 9_500.0, 15_000.0] {
                    let (fa, fm) = e.powered_survival_integrals(b, t);
                    let (na, nm) = e.powered_survival_integrals_naive(b, t);
                    assert!(
                        (fa - na).abs() / na.max(1e-300) < 1e-12,
                        "powered A(b={b}, t={t}) {fa} vs {na} (seed {seed})"
                    );
                    assert!(
                        (fm - nm).abs() / nm.max(1e-300) < 1e-12,
                        "powered B(b={b}, t={t}) {fm} vs {nm} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn equivalence_product_integrals_match_naive_oracle() {
        for seed in 0..6u64 {
            let e = random_ecdf(seed, 300);
            for b in [1u32, 2, 4, 7] {
                for &shift in &[0.0, 1.0, 77.7, 450.0, 2_000.0, 12_000.0] {
                    for &l in &[0.5, 50.0, 800.0, 5_000.0, 11_000.0] {
                        let (fc, fd) = e.powered_survival_product_integrals(b, shift, l);
                        let (nc, nd) = e.powered_survival_product_integrals_naive(b, shift, l);
                        assert!(
                            (fc - nc).abs() / nc.max(1.0) < 1e-12,
                            "C(b={b}, shift={shift}, l={l}) {fc} vs {nc} (seed {seed})"
                        );
                        assert!(
                            (fd - nd).abs() / nd.max(1.0) < 1e-12,
                            "D(b={b}, shift={shift}, l={l}) {fd} vs {nd} (seed {seed})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equivalence_body_statistics_match_naive_oracle() {
        for seed in 0..8u64 {
            let e = random_ecdf(seed, 500);
            assert!((e.body_mean() - e.body_mean_naive()).abs() / e.body_mean_naive() < 1e-12);
            assert!((e.body_std() - e.body_std_naive()).abs() / e.body_std_naive() < 1e-9);
            assert!(
                (e.censored_mean_lower_bound() - e.censored_mean_lower_bound_naive()).abs()
                    / e.censored_mean_lower_bound_naive()
                    < 1e-12
            );
        }
    }

    #[test]
    fn powered_tables_are_cached_and_clones_share_them() {
        let e = random_ecdf(9, 200);
        let (a1, m1) = e.powered_survival_integrals(5, 700.0);
        // second call must hit the cache and agree bitwise
        let (a2, m2) = e.powered_survival_integrals(5, 700.0);
        assert_eq!(a1.to_bits(), a2.to_bits());
        assert_eq!(m1.to_bits(), m2.to_bits());
        assert_eq!(e.pow_cache.read().unwrap().len(), 1);
        let c = e.clone();
        let (a3, _) = c.powered_survival_integrals(5, 700.0);
        assert_eq!(a1.to_bits(), a3.to_bits());
        assert_eq!(c.pow_cache.read().unwrap().len(), 1, "clone lost the cache");
        // concurrent first-build of a new power races safely to one table
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| e.powered_survival_integrals(7, 500.0));
            }
        });
        assert_eq!(e.pow_cache.read().unwrap().len(), 2);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::from_samples(&[10.0, 20.0, 30.0, 40.0], 100.0).unwrap();
        assert_eq!(e.body_quantile(0.0), 10.0);
        assert_eq!(e.body_quantile(0.25), 10.0);
        assert_eq!(e.body_quantile(0.5), 20.0);
        assert_eq!(e.body_quantile(0.75), 30.0);
        assert_eq!(e.body_quantile(1.0), 40.0);
    }
}
