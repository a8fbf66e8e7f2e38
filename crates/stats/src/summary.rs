//! Streaming summary statistics (Welford).
//!
//! Used by the simulator's metric collectors and the Monte-Carlo executors,
//! where keeping every sample would be wasteful.

/// Online mean/variance accumulator (Welford's algorithm) with min/max.
///
/// Numerically stable for long streams; merging two summaries is exact
/// (parallel-safe reduction for rayon fold/reduce patterns).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Builds a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Merges another summary into this one (Chan's parallel combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`; `NaN` when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (divides by `n-1`; `NaN` for n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`√(s²/n)` with the unbiased variance).
    pub fn stderr(&self) -> f64 {
        (self.sample_variance() / self.n as f64).sqrt()
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Default for Summary {
    /// The empty summary, as [`Summary::new`].
    fn default() -> Self {
        Summary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let s = Summary::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / 5.0;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 5.0;
        assert_eq!(s.count(), 5);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn empty_summary_is_nan() {
        let s = Summary::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut a = Summary::from_slice(&xs[..37]);
        let b = Summary::from_slice(&xs[37..]);
        a.merge(&b);
        let full = Summary::from_slice(&xs);
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-10);
        assert!((a.variance() - full.variance()).abs() < 1e-10);
        assert_eq!(a.min(), full.min());
        assert_eq!(a.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_and_stderr() {
        let s = Summary::from_slice(&[2.0, 4.0, 6.0]);
        assert!((s.sample_variance() - 4.0).abs() < 1e-12);
        assert!((s.stderr() - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn default_is_the_empty_summary() {
        // the empty extrema must be ±∞, or a default-built summary of
        // positive data reports a minimum of 0
        let mut s = Summary::default();
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
        for x in [3.0, 5.0] {
            s.push(x);
        }
        assert_eq!((s.min(), s.max()), (3.0, 5.0));
    }
}
