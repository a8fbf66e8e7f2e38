//! Windowed, censoring-aware streaming latency estimation.
//!
//! An online-adapting submission strategy observes its *own* job outcomes
//! as it runs: jobs that started yield an exact latency, jobs it cancelled
//! at its timeout (or that were still pending when the task finished) are
//! **right-censored** — all that is known is that the latency exceeded the
//! observed waiting time. [`StreamingEcdf`] ingests that stream and
//! maintains two complementary views of the recent law:
//!
//! * a **sliding window** of the last `window` observations, from which
//!   [`StreamingEcdf::snapshot`] materialises an ordinary [`Ecdf`] —
//!   reusing the crate's exact prefix-table machinery, so every strategy
//!   kernel (survival integrals, powered/product variants) is available on
//!   the live estimate at the usual O(log n) cost;
//! * an **exponentially-decayed censored fraction**, whose decay factor
//!   discounts old observations smoothly — the drift signal a retuning
//!   policy reacts to, available even when the window is not yet full.
//!
//! Censored observations are conservative in the snapshot: the window ECDF
//! counts them as outlier mass (their latency is only known to exceed the
//! censor time), so `F̃` is never over-estimated beyond what was actually
//! observed. Retuning policies that need to *raise* a timeout past the
//! censor point must bring tail information of their own (see the
//! `ScaledPrior` policy in `gridstrat-core`), or grow multiplicatively off
//! the decayed censored fraction (the `EmpiricalBackoff` policy).

use crate::ecdf::{Ecdf, EcdfError};
use std::collections::VecDeque;

/// One observation in the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observation {
    /// A job started after exactly this latency (seconds).
    Started(f64),
    /// A job was abandoned after waiting this long without starting — its
    /// latency is right-censored at this value.
    Censored(f64),
}

impl Observation {
    /// The observed waiting time, regardless of kind.
    pub fn value(self) -> f64 {
        match self {
            Observation::Started(x) | Observation::Censored(x) => x,
        }
    }

    /// Whether the observation is right-censored.
    pub fn is_censored(self) -> bool {
        matches!(self, Observation::Censored(_))
    }
}

/// Windowed, censoring-aware streaming estimator of a defective latency
/// law (see the module docs).
///
/// # Examples
///
/// ```
/// use gridstrat_stats::streaming::StreamingEcdf;
///
/// let mut est = StreamingEcdf::new(100, 0.95, 10_000.0).unwrap();
/// for x in [120.0, 250.0, 400.0] {
///     est.observe_started(x);
/// }
/// est.observe_censored(600.0); // cancelled at the strategy's timeout
/// let ecdf = est.snapshot().unwrap();
/// assert_eq!(ecdf.n_total(), 4);
/// assert_eq!(ecdf.n_body(), 3);
/// assert!(est.decayed_censored_fraction() > 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEcdf {
    /// Maximum observations retained for the snapshot window.
    window: usize,
    /// Per-observation decay factor in `(0, 1]` for the censored fraction.
    decay: f64,
    /// Censoring threshold stamped on snapshots (body samples at/above it
    /// are treated as outliers, exactly like [`Ecdf::from_samples`]).
    threshold: f64,
    buf: VecDeque<Observation>,
    /// Decayed total observation weight `Σ decay^age`.
    ew_weight: f64,
    /// Decayed weight of censored observations.
    ew_censored: f64,
    /// Lifetime observation count (window-independent).
    seen: u64,
}

impl StreamingEcdf {
    /// Creates an estimator; `window > 0`, `decay ∈ (0, 1]`,
    /// `threshold > 0` (`+∞` disables censoring: every started
    /// observation is body mass).
    pub fn new(window: usize, decay: f64, threshold: f64) -> Result<Self, String> {
        if window == 0 {
            return Err("window must hold at least one observation".into());
        }
        if !(decay.is_finite() && decay > 0.0 && decay <= 1.0) {
            return Err(format!("decay must be in (0, 1], got {decay}"));
        }
        if threshold.is_nan() || threshold <= 0.0 {
            return Err(format!("threshold must be positive, got {threshold}"));
        }
        Ok(StreamingEcdf {
            window,
            decay,
            threshold,
            // grown on demand: a short-lived stream (one adaptive user's
            // few tasks) never fills a wide window
            buf: VecDeque::new(),
            ew_weight: 0.0,
            ew_censored: 0.0,
            seen: 0,
        })
    }

    /// Ingests one observation.
    pub fn observe(&mut self, obs: Observation) {
        let x = obs.value();
        assert!(
            x.is_finite() && x >= 0.0,
            "observations must be finite and non-negative, got {x}"
        );
        if self.buf.len() == self.window {
            self.buf.pop_front();
        } else if self.buf.len() == self.buf.capacity() {
            // double, but never past the window
            let len = self.buf.len();
            self.buf.reserve_exact(len.max(4).min(self.window - len));
        }
        self.buf.push_back(obs);
        self.ew_weight = self.decay * self.ew_weight + 1.0;
        self.ew_censored *= self.decay;
        if obs.is_censored() {
            self.ew_censored += 1.0;
        }
        self.seen += 1;
    }

    /// Ingests an exact (started-job) latency.
    pub fn observe_started(&mut self, latency: f64) {
        self.observe(Observation::Started(latency));
    }

    /// Ingests a right-censored waiting time.
    pub fn observe_censored(&mut self, waited: f64) {
        self.observe(Observation::Censored(waited));
    }

    /// Forgets everything — back to the just-constructed state, keeping
    /// whatever window allocation was reached (the fleet/adaptive reset
    /// path).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.ew_weight = 0.0;
        self.ew_censored = 0.0;
        self.seen = 0;
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The observations currently buffered in the window, oldest first.
    pub fn observations(&self) -> impl Iterator<Item = Observation> + '_ {
        self.buf.iter().copied()
    }

    /// Replays every observation buffered in `other`'s window into this
    /// estimator, oldest first, then credits `other`'s already-evicted
    /// lifetime count — the deterministic merge used when independent
    /// streams (e.g. engine shards) are folded into one report. The merged
    /// window holds the union's most recent observations in replay order;
    /// the decayed censored fraction treats the replayed window as the most
    /// recent history (evicted observations cannot be recovered).
    pub fn absorb(&mut self, other: &StreamingEcdf) {
        let evicted = other.seen - other.buf.len() as u64;
        for obs in other.observations() {
            self.observe(obs);
        }
        self.seen += evicted;
    }

    /// True when no observation has been ingested (or all were cleared).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Started (non-censored) observations currently in the window.
    pub fn n_body(&self) -> usize {
        self.buf.iter().filter(|o| !o.is_censored()).count()
    }

    /// Lifetime observations ingested (not bounded by the window).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The window capacity.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The censored-fraction decay factor.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// The censoring threshold stamped on snapshots.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Exponentially-decayed fraction of censored observations
    /// (`NaN` before the first observation).
    pub fn decayed_censored_fraction(&self) -> f64 {
        self.ew_censored / self.ew_weight
    }

    /// Materialises the window as an exact [`Ecdf`]: started observations
    /// below the threshold form the body, censored observations (and
    /// started ones at/above the threshold) count as outlier mass.
    ///
    /// Errors when the window is empty or holds no body sample — the same
    /// degenerate cases [`Ecdf`] construction rejects.
    pub fn snapshot(&self) -> Result<Ecdf, EcdfError> {
        if self.buf.is_empty() {
            return Err(EcdfError::Empty);
        }
        let mut body: Vec<f64> = self
            .buf
            .iter()
            .filter_map(|o| match o {
                Observation::Started(x) if *x < self.threshold => Some(*x),
                _ => None,
            })
            .collect();
        let n_outliers = self.buf.len() - body.len();
        body.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite observations"));
        Ecdf::from_sorted_body_and_outliers(body, n_outliers, self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(StreamingEcdf::new(0, 0.9, 100.0).is_err());
        assert!(StreamingEcdf::new(10, 0.0, 100.0).is_err());
        assert!(StreamingEcdf::new(10, 1.1, 100.0).is_err());
        assert!(StreamingEcdf::new(10, 0.9, 0.0).is_err());
        assert!(StreamingEcdf::new(10, 0.9, f64::NAN).is_err());
        assert!(StreamingEcdf::new(10, 1.0, 100.0).is_ok());
        // +inf = "never censor": the uncensored-metrics configuration
        assert!(StreamingEcdf::new(10, 1.0, f64::INFINITY).is_ok());
    }

    #[test]
    fn infinite_threshold_disables_censoring() {
        let mut est = StreamingEcdf::new(8, 1.0, f64::INFINITY).unwrap();
        for x in [50.0, 1e6, 3.0] {
            est.observe_started(x);
        }
        let snap = est.snapshot().unwrap();
        assert_eq!(snap.n_body(), 3);
        assert_eq!(snap.body(), &[3.0, 50.0, 1e6]);
    }

    #[test]
    fn absorb_matches_sequential_replay() {
        let mut a = StreamingEcdf::new(16, 1.0, 1_000.0).unwrap();
        let mut b = StreamingEcdf::new(16, 1.0, 1_000.0).unwrap();
        for x in [10.0, 20.0] {
            a.observe_started(x);
        }
        b.observe_started(30.0);
        b.observe_censored(40.0);
        let mut merged = a.clone();
        merged.absorb(&b);
        // equivalent to observing a's stream then b's stream in order
        let mut seq = StreamingEcdf::new(16, 1.0, 1_000.0).unwrap();
        for x in [10.0, 20.0, 30.0] {
            seq.observe_started(x);
        }
        seq.observe_censored(40.0);
        assert_eq!(merged.len(), seq.len());
        assert_eq!(merged.seen(), seq.seen());
        assert_eq!(
            merged.snapshot().unwrap().body(),
            seq.snapshot().unwrap().body()
        );
        assert_eq!(
            merged.decayed_censored_fraction().to_bits(),
            seq.decayed_censored_fraction().to_bits()
        );
    }

    #[test]
    fn absorb_credits_evicted_observations() {
        let mut a = StreamingEcdf::new(2, 1.0, 1_000.0).unwrap();
        let mut b = StreamingEcdf::new(2, 1.0, 1_000.0).unwrap();
        for x in [1.0, 2.0, 3.0] {
            b.observe_started(x); // one eviction: window holds [2, 3]
        }
        a.observe_started(9.0);
        a.absorb(&b);
        assert_eq!(a.seen(), 4, "lifetime count covers evicted history");
        assert_eq!(a.len(), 2);
        assert_eq!(a.snapshot().unwrap().body(), &[2.0, 3.0]);
    }

    #[test]
    fn snapshot_matches_batch_ecdf_on_same_window() {
        let mut est = StreamingEcdf::new(64, 0.97, 1_000.0).unwrap();
        let xs = [10.0, 400.0, 30.0, 999.0, 70.0, 5.0];
        for &x in &xs {
            est.observe_started(x);
        }
        est.observe_censored(600.0);
        let snap = est.snapshot().unwrap();
        // batch equivalent: the started values as samples + one censored
        // counted as an outlier
        let batch = Ecdf::from_sorted_body_and_outliers(
            vec![5.0, 10.0, 30.0, 70.0, 400.0, 999.0],
            1,
            1_000.0,
        )
        .unwrap();
        assert_eq!(snap.n_total(), batch.n_total());
        for t in [0.0, 7.0, 50.0, 500.0, 2_000.0] {
            assert_eq!(snap.value(t).to_bits(), batch.value(t).to_bits());
            assert_eq!(
                snap.survival_integral(t).to_bits(),
                batch.survival_integral(t).to_bits()
            );
        }
    }

    #[test]
    fn window_slides() {
        let mut est = StreamingEcdf::new(3, 1.0, 1_000.0).unwrap();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            est.observe_started(x);
        }
        assert_eq!(est.len(), 3);
        assert_eq!(est.seen(), 5);
        let snap = est.snapshot().unwrap();
        assert_eq!(snap.body(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn started_at_or_above_threshold_counts_as_outlier() {
        let mut est = StreamingEcdf::new(8, 1.0, 100.0).unwrap();
        est.observe_started(50.0);
        est.observe_started(100.0); // exactly at the threshold: censored
        let snap = est.snapshot().unwrap();
        assert_eq!(snap.n_body(), 1);
        assert_eq!(snap.n_total(), 2);
    }

    #[test]
    fn decayed_summaries_track_drift() {
        let mut est = StreamingEcdf::new(1_000, 0.9, 10_000.0).unwrap();
        for _ in 0..200 {
            est.observe_started(100.0);
        }
        assert!(est.decayed_censored_fraction() < 1e-9);
        // the law shifts up and starts censoring: the decayed view follows
        // quickly even though the window still holds the old observations
        for _ in 0..40 {
            est.observe_started(500.0);
            est.observe_censored(600.0);
        }
        assert!(
            (est.decayed_censored_fraction() - 0.5).abs() < 0.05,
            "{}",
            est.decayed_censored_fraction()
        );
    }

    #[test]
    fn decay_one_reduces_to_plain_running_stats() {
        let mut est = StreamingEcdf::new(100, 1.0, 10_000.0).unwrap();
        for x in [10.0, 20.0, 30.0] {
            est.observe_started(x);
        }
        est.observe_censored(40.0);
        assert!((est.decayed_censored_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_snapshots_error() {
        let mut est = StreamingEcdf::new(4, 0.9, 100.0).unwrap();
        assert_eq!(est.snapshot().unwrap_err(), EcdfError::Empty);
        est.observe_censored(50.0);
        assert_eq!(est.snapshot().unwrap_err(), EcdfError::AllOutliers);
        est.observe_started(10.0);
        assert!(est.snapshot().is_ok());
        est.clear();
        assert_eq!(est.snapshot().unwrap_err(), EcdfError::Empty);
        assert_eq!(est.seen(), 0);
    }

    #[test]
    fn window_is_allocated_on_demand_and_clear_replays_identically() {
        let mut est = StreamingEcdf::new(150, 0.95, 1_000.0).unwrap();
        assert_eq!(est.buf.capacity(), 0, "no window before an observation");
        let stream: Vec<Observation> = (0..400)
            .map(|i| {
                let x = (i * 37 % 1_100) as f64 + 0.5;
                if i % 7 == 0 {
                    Observation::Censored(x)
                } else {
                    Observation::Started(x)
                }
            })
            .collect();
        let replay = |est: &mut StreamingEcdf| {
            let mut prints = Vec::new();
            for (i, &obs) in stream.iter().enumerate() {
                est.observe(obs);
                assert!(est.buf.capacity() <= est.window(), "window over-allocated");
                if i % 50 == 3 {
                    let snap = est.snapshot().unwrap();
                    prints.push((
                        snap.body().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        snap.n_total(),
                        est.decayed_censored_fraction().to_bits(),
                        est.seen(),
                    ));
                }
            }
            prints
        };
        let first = replay(&mut est);
        let reached = est.buf.capacity();
        est.clear();
        assert_eq!(est.buf.capacity(), reached, "clear keeps the allocation");
        assert_eq!(replay(&mut est), first);
        let mut fresh = StreamingEcdf::new(150, 0.95, 1_000.0).unwrap();
        assert_eq!(replay(&mut fresh), first);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_invalid_observations() {
        let mut est = StreamingEcdf::new(4, 0.9, 100.0).unwrap();
        est.observe_started(f64::NAN);
    }
}
