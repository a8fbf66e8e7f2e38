//! Delayed resubmission (paper §6) — the paper's novel strategy.
//!
//! Submit one job; at `t0`, if it has not started, submit a copy *without*
//! cancelling the first; cancel the first at `t∞`; iterate with period `t0`.
//! The constraint `0 < t0 ≤ t∞ ≤ 2·t0` guarantees at most two copies are in
//! the system at any instant.
//!
//! ## Survival-form expectation
//!
//! Job `n` (1-based) is submitted at `(n-1)t0` and cancelled at
//! `(n-1)t0 + t∞` if still pending, so with i.i.d. latencies `R_n`:
//!
//! ```text
//! J = min_n { (n-1)·t0 + R_n  :  R_n < t∞ }
//! ```
//!
//! Writing `s(u) = 1 - F̃(u)`, `q = s(t∞)` and integrating the survival
//! function `P(J > t) = Π_n s(clamp(t-(n-1)t0, 0, t∞))` interval by
//! interval gives the closed forms
//!
//! ```text
//! E[J]  = A(t0) + C0/(1-q) + q·C1/(1-q)
//! E[J²] = 2·[ B(t0) + D0/(1-q) + t0·C0/(1-q)² + q·D1/(1-q) + q·t0·C1/(1-q)² ]
//!
//! C0 = ∫₀^{t∞-t0} s(u+t0)·s(u) du      D0 = ∫₀^{t∞-t0} u·s(u+t0)·s(u) du
//! C1 = A(t0) - A(t∞-t0)                D1 = B(t0) - B(t∞-t0)
//! ```
//!
//! This is algebraically equivalent to the paper's eq. 5 (whose printed form
//! suffers OCR damage) but shorter and numerically friendlier; two built-in
//! consistency checks pin it down: at `t∞ = t0` it collapses exactly to the
//! single-resubmission eq. 1, and Monte-Carlo simulation agrees to
//! statistical precision (see `executor` integration tests).
//!
//! ## Parallel-job count `N_//` (§6.1)
//!
//! For a realised total latency `l`, the time-average number of jobs in the
//! system is the piecewise expression of §6.1, implemented in
//! [`DelayedResubmission::n_parallel_at`]. Tables 3–6 of the paper plug the
//! *expectation* into it (`N_// = N_//(E_J)`) — verified numerically against
//! Table 3 — and that convention is what [`DelayedOutcome::n_parallel`]
//! reports; the true `E[N_//(J)]` is available through the Monte-Carlo
//! executor for comparison.

use crate::latency::LatencyModel;
use gridstrat_stats::optimize::{grid_min_2d, refine_grid_1d, GridSpec};
use std::cell::Cell;

/// Outcome of evaluating/optimising the delayed strategy at `(t0, t∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayedOutcome {
    /// Resubmission delay `t0`, seconds.
    pub t0: f64,
    /// Cancellation timeout `t∞`, seconds.
    pub t_inf: f64,
    /// `E_J(t0, t∞)`, seconds.
    pub expectation: f64,
    /// `σ_J(t0, t∞)`, seconds (not reported by the paper — an extension).
    pub std_dev: f64,
    /// `N_//` evaluated at the expectation (the paper's convention).
    pub n_parallel: f64,
}

/// The closed forms of delayed resubmission (eq. 5 and §6.1), and of its
/// `b`-copy generalisation. An instance is
/// [`crate::cost::StrategyParams::Delayed`] (the paper's strategy) or
/// [`crate::cost::StrategyParams::DelayedMultiple`].
pub struct DelayedResubmission;

impl DelayedResubmission {
    /// Family name used in reports and sweeps.
    pub const FAMILY: &'static str = "delayed";

    /// Family name of the generalised (`b > 1` copies) variant.
    pub const FAMILY_MULTI: &'static str = "delayed-multiple";

    /// Feasibility of a parameter pair: `0 < t0 ≤ t∞ ≤ 2·t0`.
    pub fn feasible(t0: f64, t_inf: f64) -> bool {
        t0 > 0.0 && t0 <= t_inf && t_inf <= 2.0 * t0
    }

    /// `E_J(t0, t∞)` — eq. 5 in survival form. Returns `+∞` if the pair is
    /// infeasible or `F̃(t∞) = 0`.
    pub fn expectation<M: LatencyModel + ?Sized>(model: &M, t0: f64, t_inf: f64) -> f64 {
        Self::raw_moments(model, 1, t0, t_inf).0
    }

    /// `(E_J, σ_J)` at `(t0, t∞)`.
    pub fn moments<M: LatencyModel + ?Sized>(model: &M, t0: f64, t_inf: f64) -> (f64, f64) {
        Self::moments_with_copies(model, 1, t0, t_inf)
    }

    /// Generalisation beyond the paper: `b` copies are submitted at every
    /// echelon (so up to `2b` jobs are in flight). Substituting the
    /// echelon survival `s(·)ᵇ` into the eq.-5 derivation leaves the
    /// closed form intact with powered kernels. `b = 1` is the paper's
    /// strategy.
    pub fn expectation_with_copies<M: LatencyModel + ?Sized>(
        model: &M,
        b: u32,
        t0: f64,
        t_inf: f64,
    ) -> f64 {
        Self::raw_moments(model, b, t0, t_inf).0
    }

    /// `(E_J, σ_J)` of the generalized strategy with `b` copies per echelon.
    pub fn moments_with_copies<M: LatencyModel + ?Sized>(
        model: &M,
        b: u32,
        t0: f64,
        t_inf: f64,
    ) -> (f64, f64) {
        let (e, e2) = Self::raw_moments(model, b, t0, t_inf);
        if !e.is_finite() {
            return (f64::INFINITY, f64::INFINITY);
        }
        ((e), (e2 - e * e).max(0.0).sqrt())
    }

    /// Returns `(E[J], E[J²])` of the `b`-copy generalisation.
    fn raw_moments<M: LatencyModel + ?Sized>(model: &M, b: u32, t0: f64, t_inf: f64) -> (f64, f64) {
        Self::raw_moments_with(model, b, t0, t_inf, || {
            model.powered_survival_integrals(b, t0)
        })
    }

    /// [`Self::raw_moments`] with `(A(t0), B(t0))` supplied by `head`,
    /// which is called only for a feasible pair with `F̃(t∞) > 0`.
    fn raw_moments_with<M: LatencyModel + ?Sized>(
        model: &M,
        b: u32,
        t0: f64,
        t_inf: f64,
        head: impl FnOnce() -> (f64, f64),
    ) -> (f64, f64) {
        assert!(b >= 1, "need at least one copy per echelon");
        if !Self::feasible(t0, t_inf) {
            return (f64::INFINITY, f64::INFINITY);
        }
        let f = model.defective_cdf(t_inf);
        if f <= 0.0 {
            return (f64::INFINITY, f64::INFINITY);
        }
        // echelon timeout survival: q = s(t∞)^b
        let q = (1.0 - f).powi(b as i32);
        let l = t_inf - t0; // overlap window length, in [0, t0]
        let (a_t0, b_t0) = head();
        let ((c0, d0), (a_l, b_l)) = model.overlap_kernels(b, t0, l);
        let c1 = a_t0 - a_l;
        let d1 = b_t0 - b_l;
        let inv = 1.0 / (1.0 - q); // = 1/G_b(t∞)
        let e = a_t0 + c0 * inv + q * c1 * inv;
        let e2 =
            2.0 * (b_t0 + d0 * inv + t0 * c0 * inv * inv + q * d1 * inv + q * t0 * c1 * inv * inv);
        (e, e2)
    }

    /// Time-average number of parallel jobs of the `b`-copy generalisation:
    /// every echelon carries `b` identical jobs, so the count is `b` times
    /// the single-copy profile.
    pub fn n_parallel_at_with_copies(b: u32, l: f64, t0: f64, t_inf: f64) -> f64 {
        b as f64 * Self::n_parallel_at(l, t0, t_inf)
    }

    /// Time-average number of parallel jobs for a realised latency `l`
    /// (paper §6.1, all branches).
    pub fn n_parallel_at(l: f64, t0: f64, t_inf: f64) -> f64 {
        assert!(
            Self::feasible(t0, t_inf),
            "n_parallel_at requires a feasible (t0, t∞) pair"
        );
        if l <= t0 {
            return 1.0; // n = 0: the first job started before any copy
        }
        let n = (l / t0).floor() as u64; // l ∈ [n·t0, (n+1)·t0)
        let nf = n as f64;
        if l < (nf - 1.0) * t0 + t_inf {
            // interval I0: two copies currently in flight
            (t0 + (nf - 1.0) * t_inf + 2.0 * (l - nf * t0)) / l
        } else {
            // interval I1: the older copy was already cancelled
            (l + nf * (t_inf - t0)) / l
        }
    }

    /// Full evaluation at `(t0, t∞)`: moments plus the paper-convention
    /// `N_// = N_//(E_J)`.
    pub fn evaluate<M: LatencyModel + ?Sized>(model: &M, t0: f64, t_inf: f64) -> DelayedOutcome {
        let (e, s) = Self::moments(model, t0, t_inf);
        let n_par = if e.is_finite() {
            Self::n_parallel_at(e, t0, t_inf)
        } else {
            f64::NAN
        };
        DelayedOutcome {
            t0,
            t_inf,
            expectation: e,
            std_dev: s,
            n_parallel: n_par,
        }
    }

    /// Global minimisation of `E_J` over the feasible `(t0, t∞)` region by
    /// multi-resolution grid search (the surface of Fig. 5 is smooth but
    /// not convex; the paper also minimises numerically).
    pub fn optimize<M: LatencyModel + ?Sized>(model: &M) -> DelayedOutcome {
        Self::optimize_with_copies(model, 1)
    }

    /// [`DelayedResubmission::optimize`] for the `b`-copy generalisation:
    /// minimises the *b-copy* `E_J` (the optimal pair shifts with `b`,
    /// exactly as the multiple strategy's optimal timeout does).
    pub fn optimize_with_copies<M: LatencyModel + ?Sized>(model: &M, b: u32) -> DelayedOutcome {
        assert!(b >= 1, "need at least one copy per echelon");
        let (lo, hi) = model.plausible_range();
        // the grid walks t∞ at a fixed t0 in its inner loop, and
        // (A(t0), B(t0)) depend on t0 alone: one pair per grid row. A(t0)
        // is also the row's floor: before t0 only the first echelon is in
        // flight, so E_J ≥ A(t0) for any b
        let head = head_memo(model, b);
        let best = grid_min_2d(
            |t0, ti| Self::raw_moments_with(model, b, t0, ti, || head(t0)).0,
            |t0| head(t0).0,
            (lo, hi),
            (lo, (2.0 * hi).min(model.horizon())),
            48,
            10,
            &|t0, ti| Self::feasible(t0, ti),
        )
        .expect("feasible region is non-empty");
        let (e, s) = Self::moments_with_copies(model, b, best.x, best.y);
        let n_par = if e.is_finite() {
            Self::n_parallel_at_with_copies(b, e, best.x, best.y)
        } else {
            f64::NAN
        };
        DelayedOutcome {
            t0: best.x,
            t_inf: best.y,
            expectation: e,
            std_dev: s,
            n_parallel: n_par,
        }
    }

    /// Minimises `E_J` under the constraint `t∞ = ratio·t0`
    /// (Table 3's protocol), `ratio ∈ [1, 2]`.
    ///
    /// A 400-step grid over the plausible range of `t0`, then golden-section
    /// refinement (`refine_grid_1d`). The grid scan is floored by
    /// `A(t0) = ∫₀^{t0} s(u) du`: before `t0` only the first job is in
    /// flight, so `P(J > t) = s(t)` there and `E_J(t0, t∞) ≥ A(t0)`, and `A`
    /// is nondecreasing. Once `A(t0)` exceeds the incumbent by more than the
    /// quadrature slack (`floor_slack`), no larger `t0` can win and the
    /// scan stops; up to there it is exhaustive, so the result is the full
    /// scan's to the bit. The floor and the objective share one `A(t0)` per
    /// grid point.
    pub fn optimize_with_ratio<M: LatencyModel + ?Sized>(model: &M, ratio: f64) -> DelayedOutcome {
        assert!(
            (1.0..=2.0).contains(&ratio),
            "ratio t∞/t0 must be in [1, 2], got {ratio}"
        );
        let (lo, hi) = model.plausible_range();
        let head = head_memo(model, 1);
        let r = refine_grid_1d(
            |t0| {
                #[cfg(test)]
                RATIO_EVALS.with(|n| n.set(n.get() + 1));
                Self::raw_moments_with(model, 1, t0, ratio * t0, || head(t0)).0
            },
            |t0| head(t0).0,
            GridSpec::new(lo, hi, 400),
            1e-4,
        );
        Self::evaluate(model, r.x, ratio * r.x)
    }
}

/// `t0 ↦ (A(t0), B(t0))` of the `b`-copy law behind a one-entry memo keyed
/// on `t0`'s bits, for searches that ask for one `t0` several times in a
/// row: a 2-D grid row, or a ratio search's floor and objective.
fn head_memo<M: LatencyModel + ?Sized>(model: &M, b: u32) -> impl Fn(f64) -> (f64, f64) + '_ {
    let last: Cell<Option<(u64, (f64, f64))>> = Cell::new(None);
    move |t0| match last.get() {
        Some((key, pair)) if key == t0.to_bits() => pair,
        _ => {
            let pair = model.powered_survival_integrals(b, t0);
            last.set(Some((t0.to_bits(), pair)));
            pair
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Objective evaluations made by
    /// [`DelayedResubmission::optimize_with_ratio`] on this thread.
    static RATIO_EVALS: Cell<usize> = const { Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{EmpiricalModel, ParametricModel};
    use crate::strategy::SingleResubmission;
    use gridstrat_stats::optimize::{golden_section, Min1d};
    use gridstrat_stats::rng::derived_rng;
    use gridstrat_stats::{Distribution, LogNormal, Shifted};
    use rayon::prelude::*;

    fn heavy_model() -> ParametricModel<Shifted<LogNormal>> {
        let body = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        ParametricModel::new(body, 0.05, 1e4).unwrap()
    }

    /// The drift-week prior of the benchmark's drift sweep.
    fn drift() -> gridstrat_workload::WeekModel {
        gridstrat_workload::WeekModel::calibrate("drift-week", 570.0, 886.0, 0.20, 60.0, 10_000.0)
            .unwrap()
    }

    fn model_of(week: &gridstrat_workload::WeekModel) -> ParametricModel<Shifted<LogNormal>> {
        ParametricModel::new(week.body(), week.rho, week.threshold_s).unwrap()
    }

    #[test]
    fn feasibility() {
        assert!(DelayedResubmission::feasible(300.0, 450.0));
        assert!(DelayedResubmission::feasible(300.0, 300.0)); // degenerate
        assert!(DelayedResubmission::feasible(300.0, 600.0)); // boundary
        assert!(!DelayedResubmission::feasible(300.0, 601.0));
        assert!(!DelayedResubmission::feasible(300.0, 299.0));
        assert!(!DelayedResubmission::feasible(0.0, 0.0));
    }

    #[test]
    fn degenerate_pair_collapses_to_single_resubmission() {
        let m = heavy_model();
        for t in [250.0, 500.0, 900.0] {
            let d = DelayedResubmission::expectation(&m, t, t);
            let s = SingleResubmission::expectation(&m, t);
            assert!((d - s).abs() / s < 1e-6, "t={t}: delayed {d} vs single {s}");
            // σ too
            let (_, sd) = DelayedResubmission::moments(&m, t, t);
            let ss = SingleResubmission::std_dev(&m, t);
            assert!((sd - ss).abs() / ss < 1e-5, "σ at t={t}: {sd} vs {ss}");
        }
    }

    #[test]
    fn monte_carlo_agreement() {
        // direct simulation of the delayed protocol on a lognormal+outlier law
        let body = LogNormal::from_mean_std(500.0, 700.0).unwrap();
        let rho = 0.1;
        let m = ParametricModel::new(body, rho, 1e4).unwrap();
        let (t0, t_inf) = (350.0, 500.0);
        let e_model = DelayedResubmission::expectation(&m, t0, t_inf);
        let (_, s_model) = DelayedResubmission::moments(&m, t0, t_inf);

        let mut rng = derived_rng(321, 0);
        let trials = 50_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..trials {
            // J = min over n of (n-1)t0 + R_n with R_n < t_inf
            let mut j = f64::INFINITY;
            let mut n = 0u64;
            loop {
                let submit = n as f64 * t0;
                if submit >= j {
                    break; // no later job can improve the minimum
                }
                let lat = if rand::Rng::gen::<f64>(&mut rng) < rho {
                    f64::INFINITY
                } else {
                    body.sample(&mut rng)
                };
                if lat < t_inf {
                    j = j.min(submit + lat);
                }
                n += 1;
            }
            sum += j;
            sq += j * j;
        }
        let mean = sum / trials as f64;
        let std = (sq / trials as f64 - mean * mean).sqrt();
        assert!(
            (mean - e_model).abs() / e_model < 0.02,
            "MC mean {mean} vs model {e_model}"
        );
        assert!(
            (std - s_model).abs() / s_model < 0.04,
            "MC σ {std} vs model {s_model}"
        );
    }

    #[test]
    fn beats_single_resubmission_on_heavy_tails() {
        // the paper's headline for §6: optimal delayed < optimal single
        let m = heavy_model();
        let single = SingleResubmission::optimize(&m);
        let delayed = DelayedResubmission::optimize(&m);
        assert!(
            delayed.expectation < single.expectation,
            "delayed {} should beat single {}",
            delayed.expectation,
            single.expectation
        );
        // but not the multiple strategy with b = 2 (paper §6 observation)
        let multi2 = crate::strategy::MultipleSubmission::optimize(&m, 2);
        assert!(delayed.expectation > multi2.expectation);
    }

    #[test]
    fn optimizer_result_is_feasible_and_locally_minimal() {
        let m = heavy_model();
        let opt = DelayedResubmission::optimize(&m);
        assert!(DelayedResubmission::feasible(opt.t0, opt.t_inf));
        // no feasible neighbour improves noticeably
        for (dt0, dti) in [(-5.0, 0.0), (5.0, 0.0), (0.0, -5.0), (0.0, 5.0), (5.0, 5.0)] {
            let e = DelayedResubmission::expectation(&m, opt.t0 + dt0, opt.t_inf + dti);
            assert!(e >= opt.expectation - 0.5, "neighbour beats optimum: {e}");
        }
    }

    #[test]
    fn n_parallel_matches_paper_table3_values() {
        // Table 3 (2006-IX): ratio 1.3 → t0=406, t∞=528, EJ=438 ⇒ N≈1.07
        let n = DelayedResubmission::n_parallel_at(438.0, 406.0, 528.0);
        assert!((n - 1.07).abs() < 0.01, "N {n}");
        // ratio 1.4 → t0=354, t∞=496, EJ=432 ⇒ N≈1.18
        let n = DelayedResubmission::n_parallel_at(432.0, 354.0, 496.0);
        assert!((n - 1.18).abs() < 0.01, "N {n}");
        // ratio 1.6 → t0=272, t∞=435, EJ=444 ⇒ N≈1.37 (I1 branch)
        let n = DelayedResubmission::n_parallel_at(444.0, 272.0, 435.0);
        assert!((n - 1.37).abs() < 0.01, "N {n}");
        // l below t0 ⇒ exactly one job
        assert_eq!(DelayedResubmission::n_parallel_at(200.0, 300.0, 450.0), 1.0);
    }

    #[test]
    fn n_parallel_bounds_and_asymptote() {
        let (t0, t_inf) = (300.0, 450.0);
        // N ∈ [1, 2) always; → t∞/t0 as l → ∞
        let mut prev = 1.0;
        for l in [100.0, 350.0, 500.0, 1000.0, 5000.0, 100_000.0] {
            let n = DelayedResubmission::n_parallel_at(l, t0, t_inf);
            assert!((1.0..2.0).contains(&n), "N({l}) = {n}");
            prev = n;
        }
        assert!((prev - t_inf / t0).abs() < 0.01, "asymptote {prev}");
    }

    #[test]
    fn n_parallel_monte_carlo_agreement() {
        // simulate the protocol, measure the realised time-average count
        let (t0, t_inf) = (300.0, 450.0);
        let body = LogNormal::from_mean_std(500.0, 700.0).unwrap();
        let rho = 0.1;
        let mut rng = derived_rng(55, 0);
        let trials = 20_000;
        let mut analytic_sum = 0.0;
        let mut measured_sum = 0.0;
        for _ in 0..trials {
            // realise latencies job by job until one starts
            let mut lat = Vec::new();
            let j;
            let mut n = 0usize;
            loop {
                let submit = n as f64 * t0;
                let l = if rand::Rng::gen::<f64>(&mut rng) < rho {
                    f64::INFINITY
                } else {
                    body.sample(&mut rng)
                };
                lat.push(l);
                // check whether any submitted job has started by the time
                // the NEXT submission would occur
                let best = lat
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l < t_inf)
                    .map(|(k, &l)| k as f64 * t0 + l)
                    .fold(f64::INFINITY, f64::min);
                if best <= submit + t0 {
                    j = best;
                    break;
                }
                n += 1;
            }
            // measured integral of in-system job count on [0, j]
            let mut integral = 0.0;
            for (k, _) in lat.iter().enumerate() {
                let s = k as f64 * t0;
                if s >= j {
                    break;
                }
                let cancel = s + t_inf;
                integral += j.min(cancel) - s;
            }
            measured_sum += integral / j;
            analytic_sum += DelayedResubmission::n_parallel_at(j, t0, t_inf);
        }
        let measured = measured_sum / trials as f64;
        let analytic = analytic_sum / trials as f64;
        assert!(
            (measured - analytic).abs() < 0.01,
            "measured {measured} vs per-l formula {analytic}"
        );
    }

    #[test]
    fn generalized_b1_equals_paper_strategy() {
        let m = heavy_model();
        for (t0, ti) in [(300.0, 450.0), (400.0, 700.0)] {
            let paper = DelayedResubmission::moments(&m, t0, ti);
            let gen = DelayedResubmission::moments_with_copies(&m, 1, t0, ti);
            assert!((paper.0 - gen.0).abs() < 1e-9);
            assert!((paper.1 - gen.1).abs() < 1e-9);
        }
    }

    #[test]
    fn generalized_diagonal_equals_multiple_submission() {
        // at t∞ = t0 the b-copy delayed strategy degenerates to b-fold
        // burst submission with timeout t0 (eq. 3)
        let m = heavy_model();
        for b in [2u32, 4] {
            for t in [300.0, 600.0] {
                let gen = DelayedResubmission::expectation_with_copies(&m, b, t, t);
                let multi = crate::strategy::MultipleSubmission::expectation(&m, b, t);
                assert!(
                    (gen - multi).abs() / multi < 1e-6,
                    "b={b} t={t}: generalized {gen} vs multiple {multi}"
                );
            }
        }
    }

    #[test]
    fn generalized_more_copies_never_hurt() {
        let m = heavy_model();
        let (t0, ti) = (350.0, 520.0);
        let mut prev = f64::INFINITY;
        for b in 1..=5u32 {
            let e = DelayedResubmission::expectation_with_copies(&m, b, t0, ti);
            assert!(e < prev, "E(b={b}) = {e} did not improve on {prev}");
            prev = e;
        }
    }

    #[test]
    fn generalized_n_parallel_scales_linearly() {
        let n1 = DelayedResubmission::n_parallel_at(450.0, 300.0, 450.0);
        let n3 = DelayedResubmission::n_parallel_at_with_copies(3, 450.0, 300.0, 450.0);
        assert!((n3 - 3.0 * n1).abs() < 1e-12);
    }

    #[test]
    fn multi_copy_tuning_optimizes_its_own_law() {
        // tune on a b-copy instance must minimise the b-copy E_J, not the
        // single-copy objective: the b=1-optimal pair applied to the b-copy
        // law cannot beat the b-copy optimum
        use crate::cost::StrategyParams;
        use crate::strategy::Strategy;
        let m = heavy_model();
        let b = 3u32;
        let tuned = StrategyParams::DelayedMultiple {
            b,
            t0: 300.0,
            t_inf: 450.0,
        }
        .tune(&m);
        let StrategyParams::DelayedMultiple {
            b: copies,
            t0,
            t_inf,
        } = tuned
        else {
            panic!("tune changed the variant: {tuned:?}");
        };
        assert_eq!(copies, b);
        let own = DelayedResubmission::expectation_with_copies(&m, b, t0, t_inf);
        let single_opt = DelayedResubmission::optimize(&m);
        let borrowed =
            DelayedResubmission::expectation_with_copies(&m, b, single_opt.t0, single_opt.t_inf);
        assert!(
            own <= borrowed + 1e-6,
            "b-copy tune ({own}) beaten by the b=1 pair ({borrowed})"
        );
        // and the b=1 path is unchanged: optimize == optimize_with_copies(1)
        let a = DelayedResubmission::optimize(&m);
        let c = DelayedResubmission::optimize_with_copies(&m, 1);
        assert_eq!(a.expectation.to_bits(), c.expectation.to_bits());
        assert_eq!(a.n_parallel.to_bits(), c.n_parallel.to_bits());
    }

    /// A model whose overlap kernels are the two separate walks that
    /// [`LatencyModel::overlap_kernels`] replaced.
    struct TwoCall<'a>(&'a dyn LatencyModel);

    impl LatencyModel for TwoCall<'_> {
        fn defective_cdf(&self, t: f64) -> f64 {
            self.0.defective_cdf(t)
        }
        fn survival_integral(&self, t: f64) -> f64 {
            self.0.survival_integral(t)
        }
        fn moment_survival_integral(&self, t: f64) -> f64 {
            self.0.moment_survival_integral(t)
        }
        fn powered_survival_integrals(&self, b: u32, t: f64) -> (f64, f64) {
            self.0.powered_survival_integrals(b, t)
        }
        fn overlap_kernels(&self, b: u32, t0: f64, l: f64) -> ((f64, f64), (f64, f64)) {
            self.0.overlap_kernels_two_call(b, t0, l)
        }
        fn horizon(&self) -> f64 {
            self.0.horizon()
        }
        fn outlier_ratio(&self) -> f64 {
            self.0.outlier_ratio()
        }
        fn candidate_timeouts(&self) -> Vec<f64> {
            self.0.candidate_timeouts()
        }
        fn plausible_range(&self) -> (f64, f64) {
            self.0.plausible_range()
        }
        fn body_mean(&self) -> f64 {
            self.0.body_mean()
        }
    }

    /// The 2-D search with two-call overlap kernels and no row floor. With
    /// `shared_rows` it computes `(A(t0), B(t0))` once per grid row, as
    /// the search did before the shared walk; without it, once per point.
    fn optimize_oracle(model: &dyn LatencyModel, b: u32, shared_rows: bool) -> DelayedOutcome {
        let model = TwoCall(model);
        let (lo, hi) = model.plausible_range();
        let head = head_memo(&model, b);
        let best = grid_min_2d(
            |t0, ti| {
                if shared_rows {
                    DelayedResubmission::raw_moments_with(&model, b, t0, ti, || head(t0)).0
                } else {
                    DelayedResubmission::expectation_with_copies(&model, b, t0, ti)
                }
            },
            |_| f64::NEG_INFINITY,
            (lo, hi),
            (lo, (2.0 * hi).min(model.horizon())),
            48,
            10,
            &|t0, ti| DelayedResubmission::feasible(t0, ti),
        )
        .unwrap();
        let (e, s) = DelayedResubmission::moments_with_copies(&model, b, best.x, best.y);
        let n_par = if e.is_finite() {
            DelayedResubmission::n_parallel_at_with_copies(b, e, best.x, best.y)
        } else {
            f64::NAN
        };
        DelayedOutcome {
            t0: best.x,
            t_inf: best.y,
            expectation: e,
            std_dev: s,
            n_parallel: n_par,
        }
    }

    #[test]
    fn row_shared_search_is_bit_identical_to_the_unshared_one() {
        let trace = gridstrat_workload::WeekId::W2006Ix.generate(0xE6EE);
        let models: [Box<dyn LatencyModel>; 3] = [
            Box::new(heavy_model()),
            Box::new(model_of(&drift())),
            Box::new(EmpiricalModel::from_trace(&trace).unwrap()),
        ];
        for (m, model) in models.iter().enumerate() {
            for b in 1..=3 {
                let shared = DelayedResubmission::optimize_with_copies(model.as_ref(), b);
                let plain = optimize_oracle(model.as_ref(), b, false);
                for (x, y) in [
                    (shared.t0, plain.t0),
                    (shared.t_inf, plain.t_inf),
                    (shared.expectation, plain.expectation),
                    (shared.std_dev, plain.std_dev),
                    (shared.n_parallel, plain.n_parallel),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "model {m}, b = {b}");
                }
            }
        }
    }

    /// A body law that counts its CDF calls.
    struct Counted<D> {
        law: D,
        calls: Cell<usize>,
    }

    impl<D: Distribution> Distribution for Counted<D> {
        fn cdf(&self, t: f64) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.law.cdf(t)
        }
        fn pdf(&self, t: f64) -> f64 {
            self.law.pdf(t)
        }
        fn quantile(&self, p: f64) -> f64 {
            self.law.quantile(p)
        }
        fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            self.law.sample(rng)
        }
        fn mean(&self) -> Option<f64> {
            self.law.mean()
        }
        fn variance(&self) -> Option<f64> {
            self.law.variance()
        }
    }

    #[test]
    fn shared_walk_and_row_floor_cut_the_body_cdf_calls() {
        // the drift prior's 2-D search against the same search with
        // two-call kernels and no row floor (still one head pair per row).
        // Measured: 0.61 of the oracle's calls; 0.69 without the row floor,
        // 0.90 if the second lane evaluates s(u) again
        let week = drift();
        let body = Counted {
            law: week.body(),
            calls: Cell::new(0),
        };
        let model = ParametricModel::new(body, week.rho, week.threshold_s).unwrap();
        let fast = DelayedResubmission::optimize(&model);
        let calls = model.body().calls.replace(0);
        let oracle = optimize_oracle(&model, 1, true);
        let oracle_calls = model.body().calls.get();
        assert_eq!(outcome_bits(fast), outcome_bits(oracle));
        assert!(
            calls * 20 <= oracle_calls * 13,
            "{calls} body-CDF calls against the oracle's {oracle_calls}"
        );
    }

    /// The ratio search with no floor: every one of the 401 grid points is
    /// evaluated, then the same golden-section refinement runs.
    fn optimize_with_ratio_unfloored<M: LatencyModel + ?Sized>(
        model: &M,
        ratio: f64,
    ) -> DelayedOutcome {
        let (lo, hi) = model.plausible_range();
        let grid = GridSpec::new(lo, hi, 400);
        let f = |t0: f64| DelayedResubmission::expectation(model, t0, ratio * t0);
        let mut coarse = Min1d {
            x: lo,
            value: f64::INFINITY,
        };
        for x in grid.points() {
            let v = f(x);
            if v < coarse.value {
                coarse = Min1d { x, value: v };
            }
        }
        let h = grid.spacing();
        let refined = golden_section(f, (coarse.x - h).max(lo), (coarse.x + h).min(hi), 1e-4);
        let best = if refined.value < coarse.value {
            refined
        } else {
            coarse
        };
        DelayedResubmission::evaluate(model, best.x, ratio * best.x)
    }

    /// The ratio `t∞/t0` of the prior's 2-D optimum, as the adaptive
    /// θ-table fixes it.
    fn prior_ratio(week: &gridstrat_workload::WeekModel) -> f64 {
        let opt = DelayedResubmission::optimize(&model_of(week));
        (opt.t_inf / opt.t0).clamp(1.0, 2.0)
    }

    fn outcome_bits(o: DelayedOutcome) -> [u64; 5] {
        [o.t0, o.t_inf, o.expectation, o.std_dev, o.n_parallel].map(f64::to_bits)
    }

    #[test]
    fn floored_ratio_search_is_bit_identical_to_the_full_scan() {
        // the adaptive table's 65 load factors, log-spaced over [0.05, 20],
        // on the drift-week prior and the adaptive tests' base week
        let base =
            gridstrat_workload::WeekModel::calibrate("adapt", 500.0, 700.0, 0.05, 60.0, 10_000.0)
                .unwrap();
        let (lo, hi) = (0.05f64.ln(), 20.0f64.ln());
        for prior in [drift(), base] {
            let ratios = [1.0, 1.5, 2.0, prior_ratio(&prior)];
            let mismatches: Vec<Vec<String>> = (0..65usize)
                .into_par_iter()
                .map(|k| {
                    let theta = (lo + (hi - lo) * k as f64 / 64.0).exp();
                    let model = model_of(&prior.modulated(theta, theta));
                    ratios
                        .into_iter()
                        .filter_map(|r| {
                            let floored = DelayedResubmission::optimize_with_ratio(&model, r);
                            let full = optimize_with_ratio_unfloored(&model, r);
                            (outcome_bits(floored) != outcome_bits(full))
                                .then(|| format!("θ = {theta}, r = {r}: {floored:?} vs {full:?}"))
                        })
                        .collect()
                })
                .collect();
            let mismatches: Vec<String> = mismatches.concat();
            assert!(mismatches.is_empty(), "{}: {mismatches:#?}", prior.name);
        }
        // the empirical model floors on its ECDF prefix tables
        let trace = gridstrat_workload::WeekId::W2006Ix.generate(0xE6EE);
        let emp = EmpiricalModel::from_trace(&trace).unwrap();
        for r in [1.0, 1.3, 1.5, 2.0] {
            let floored = DelayedResubmission::optimize_with_ratio(&emp, r);
            let full = optimize_with_ratio_unfloored(&emp, r);
            assert_eq!(
                outcome_bits(floored),
                outcome_bits(full),
                "2006-IX, r = {r}"
            );
        }
    }

    #[test]
    fn floored_ratio_search_evaluates_a_fraction_of_the_grid() {
        // drift-week prior at θ = 1, along its own ratio: the scan stops
        // after a few dozen of its 401 grid points, and golden-section
        // refinement adds under 30 evaluations
        let prior = drift();
        let model = model_of(&prior.modulated(1.0, 1.0));
        let ratio = prior_ratio(&prior);
        RATIO_EVALS.with(|n| n.set(0));
        DelayedResubmission::optimize_with_ratio(&model, ratio);
        let evals = RATIO_EVALS.with(Cell::get);
        assert!(evals < 80, "{evals} objective evaluations");
    }

    #[test]
    fn ratio_constrained_optimization() {
        let m = heavy_model();
        let r13 = DelayedResubmission::optimize_with_ratio(&m, 1.3);
        assert!((r13.t_inf / r13.t0 - 1.3).abs() < 1e-9);
        assert!(r13.expectation.is_finite());
        // the free optimum is at least as good as any constrained one
        let free = DelayedResubmission::optimize(&m);
        assert!(free.expectation <= r13.expectation + 1.0);
    }

    #[test]
    fn empirical_model_expectation_finite_and_consistent() {
        let body = LogNormal::from_mean_std(500.0, 800.0).unwrap();
        let mut rng = derived_rng(77, 1);
        let mut xs: Vec<f64> = Vec::with_capacity(3000);
        for _ in 0..3000 {
            if rand::Rng::gen::<f64>(&mut rng) < 0.1 {
                xs.push(30_000.0);
            } else {
                xs.push(body.sample(&mut rng).min(30_000.0));
            }
        }
        let emp = EmpiricalModel::from_samples(&xs, 10_000.0).unwrap();
        let par = ParametricModel::new(body, 0.1, 1e4).unwrap();
        let (t0, ti) = (350.0, 500.0);
        let de = DelayedResubmission::expectation(&emp, t0, ti);
        let dp = DelayedResubmission::expectation(&par, t0, ti);
        assert!(
            (de - dp).abs() / dp < 0.06,
            "empirical {de} vs parametric {dp}"
        );
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn n_parallel_rejects_infeasible() {
        DelayedResubmission::n_parallel_at(100.0, 300.0, 700.0);
    }

    #[test]
    fn infeasible_pairs_are_infinite() {
        let m = heavy_model();
        assert_eq!(
            DelayedResubmission::expectation(&m, 300.0, 700.0),
            f64::INFINITY
        );
        assert_eq!(
            DelayedResubmission::expectation(&m, 300.0, 200.0),
            f64::INFINITY
        );
    }
}
