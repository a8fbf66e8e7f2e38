//! The strategy cost criterion `∆cost` (paper §7, eq. 6).
//!
//! Submitting redundant copies helps the user but loads the grid; yet if a
//! strategy with `N_//` average parallel jobs finishes more than `N_//`
//! times faster than plain single resubmission, the *total* expected
//! job-seconds in the system go down (Fig. 7). Equation 6 captures this:
//!
//! ```text
//! ∆cost = N_// · E_J(strategy) / E_J(single resub., optimal)
//! ```
//!
//! `∆cost = 1` for optimal single resubmission; `∆cost < 1` means the grid
//! is *less* loaded than under single resubmission while the user is
//! faster. The paper finds a minimum of ≈ 0.93–0.94 for the delayed
//! strategy at `t∞/t0 ≈ 1.25` on 2006-IX, while the multiple strategy
//! always costs `> 1` (1.3 at `b = 2`, growing ≈ linearly).

use crate::latency::LatencyModel;
use crate::strategy::{optimize_timeout, DelayedResubmission, Strategy};
use gridstrat_stats::optimize::grid_min_2d;

/// One point of a cost profile (Tables 3–4, Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct CostPoint {
    /// Strategy parameters behind this point.
    pub params: StrategyParams,
    /// Mean number of parallel jobs (`b` for multiple submission;
    /// `N_//(E_J)` for delayed).
    pub n_parallel: f64,
    /// Expected total latency `E_J`, seconds.
    pub expectation: f64,
    /// The cost criterion of eq. 6.
    pub delta_cost: f64,
}

/// A strategy instance: the family and its parameters. The one
/// implementor of [`crate::strategy::Strategy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyParams {
    /// Single resubmission at `t∞`.
    Single {
        /// Timeout, seconds.
        t_inf: f64,
    },
    /// `b`-fold multiple submission with collection timeout `t∞`.
    Multiple {
        /// Collection size.
        b: u32,
        /// Timeout, seconds.
        t_inf: f64,
    },
    /// Delayed resubmission with delay `t0` and timeout `t∞`.
    Delayed {
        /// Resubmission delay, seconds.
        t0: f64,
        /// Cancellation timeout, seconds.
        t_inf: f64,
    },
    /// Generalised delayed resubmission: `b` copies per echelon (extension
    /// beyond the paper; `b = 1` is [`StrategyParams::Delayed`]).
    DelayedMultiple {
        /// Copies per echelon.
        b: u32,
        /// Resubmission delay, seconds.
        t0: f64,
        /// Cancellation timeout, seconds.
        t_inf: f64,
    },
}

impl StrategyParams {
    /// The instance as the one client protocol every family is: submit an
    /// echelon of `b` copies every `t0` and cancel each echelon `t∞` after
    /// it was submitted. Returns `(b, t0, t∞)`; single and multiple
    /// submission take `t0 = t∞`, so each echelon replaces the last.
    pub fn echelon(self) -> (u32, f64, f64) {
        match self {
            StrategyParams::Single { t_inf } => (1, t_inf, t_inf),
            StrategyParams::Multiple { b, t_inf } => (b, t_inf, t_inf),
            StrategyParams::Delayed { t0, t_inf } => (1, t0, t_inf),
            StrategyParams::DelayedMultiple { b, t0, t_inf } => (b, t0, t_inf),
        }
    }
}

/// Eq. 6: `∆cost = N_// · E_J / E*_J(single)`.
pub fn delta_cost(n_parallel: f64, e_j: f64, e_j_single_opt: f64) -> f64 {
    assert!(
        e_j_single_opt > 0.0,
        "single-resubmission baseline must be positive"
    );
    n_parallel * e_j / e_j_single_opt
}

/// Evaluates the eq.-6 criterion for a strategy instance against the
/// single-resubmission baseline — the one place `E_J`, `N_//` and `∆cost`
/// are combined, shared by every profile/table below.
pub fn cost_point(
    model: &dyn LatencyModel,
    strategy: StrategyParams,
    e_j_single_opt: f64,
) -> CostPoint {
    // evaluate the closed form once; N_// is derived from the expectation
    // (this sits in the ∆cost optimizers' innermost loop)
    let expectation = strategy.expected_j(model);
    let n_parallel = strategy.n_parallel_for(expectation);
    let dc = if expectation.is_finite() {
        delta_cost(n_parallel, expectation, e_j_single_opt)
    } else {
        f64::INFINITY
    };
    CostPoint {
        params: strategy,
        n_parallel,
        expectation,
        delta_cost: dc,
    }
}

/// Cost profile of the delayed strategy over a set of `t∞/t0` ratios
/// (the protocol behind Tables 3–4's left half and Fig. 8's solid curve):
/// for each ratio, minimise `E_J`, then report `N_//(E_J)` and `∆cost`.
pub fn delayed_cost_profile(model: &dyn LatencyModel, ratios: &[f64]) -> Vec<CostPoint> {
    let single = optimize_timeout(model, 1);
    ratios
        .iter()
        .map(|&r| {
            let out = DelayedResubmission::optimize_with_ratio(model, r);
            let delayed = StrategyParams::Delayed {
                t0: out.t0,
                t_inf: out.t_inf,
            };
            cost_point(model, delayed, single.expectation)
        })
        .collect()
}

/// Cost profile of the multiple strategy over collection sizes
/// (Table 4's right half and Fig. 8's dashed curve). `N_// = b` exactly.
pub fn multiple_cost_profile(model: &dyn LatencyModel, bs: &[u32]) -> Vec<CostPoint> {
    let single = optimize_timeout(model, 1);
    bs.iter()
        .map(|&b| {
            let tuned = StrategyParams::Multiple {
                b,
                t_inf: optimize_timeout(model, b).timeout,
            };
            cost_point(model, tuned, single.expectation)
        })
        .collect()
}

/// The `∆cost` objective at an explicit `(t0, t∞)` pair, given the
/// single-resubmission baseline (Table 5/6 cells).
pub fn delayed_delta_cost_at(
    model: &dyn LatencyModel,
    t0: f64,
    t_inf: f64,
    e_j_single_opt: f64,
) -> CostPoint {
    cost_point(model, StrategyParams::Delayed { t0, t_inf }, e_j_single_opt)
}

/// Minimises `∆cost` over integer-second `(t0, t∞)` pairs (Table 5's
/// protocol: “the study was limited to integer values of t0 and t∞ because
/// having higher precision of resubmission is not realistic in practice”).
///
/// A continuous multi-resolution grid search locates the basin, then an
/// exhaustive integer scan of a ±12 s box (with `t∞ ≥ t0 + 1`) finishes.
pub fn optimize_delayed_delta_cost(model: &dyn LatencyModel) -> CostPoint {
    let single = optimize_timeout(model, 1);
    let e1 = single.expectation;
    let objective = |t0: f64, ti: f64| {
        let out = DelayedResubmission::evaluate(model, t0, ti);
        if out.expectation.is_finite() {
            delta_cost(out.n_parallel, out.expectation, e1)
        } else {
            f64::INFINITY
        }
    };
    let (lo, hi) = model.plausible_range();
    let coarse = grid_min_2d(
        objective,
        // A(t0) floors E_J, not ∆cost
        |_| f64::NEG_INFINITY,
        (lo, hi),
        (lo, (2.0 * hi).min(model.horizon())),
        48,
        8,
        &|t0, ti| DelayedResubmission::feasible(t0, ti) && ti >= t0 + 1.0,
    )
    .expect("feasible region is non-empty");

    // integer polish
    let (c0, ci) = (coarse.x.round() as i64, coarse.y.round() as i64);
    let mut best: Option<(f64, i64, i64)> = None;
    for t0 in (c0 - 12).max(1)..=(c0 + 12) {
        for ti in (ci - 12).max(t0 + 1)..=(ci + 12) {
            let (t0f, tif) = (t0 as f64, ti as f64);
            if !DelayedResubmission::feasible(t0f, tif) {
                continue;
            }
            let v = objective(t0f, tif);
            if best.is_none_or(|(bv, _, _)| v < bv) {
                best = Some((v, t0, ti));
            }
        }
    }
    let (_, t0, ti) = best.expect("integer box contains feasible pairs");
    delayed_delta_cost_at(model, t0 as f64, ti as f64, e1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ParametricModel;
    use gridstrat_stats::{LogNormal, Shifted};

    fn heavy_model() -> ParametricModel<Shifted<LogNormal>> {
        let body = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        ParametricModel::new(body, 0.05, 1e4).unwrap()
    }

    #[test]
    fn single_resubmission_costs_one_by_definition() {
        let m = heavy_model();
        let single = optimize_timeout(&m, 1);
        let dc = delta_cost(1.0, single.expectation, single.expectation);
        assert!((dc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_costs_grow_beyond_one() {
        // Table 4 right half: ∆cost(b=2) ≈ 1.3 and increasing in b
        let m = heavy_model();
        let profile = multiple_cost_profile(&m, &[2, 3, 5, 10]);
        let mut prev = 1.0;
        for p in &profile {
            assert!(p.delta_cost > prev, "∆cost must increase: {:?}", p.params);
            prev = p.delta_cost;
        }
        assert!(profile[0].delta_cost > 1.0 && profile[0].delta_cost < 2.0);
        // b=10: paper gets 4.2; wide tolerance for the synthetic law
        assert!(profile[3].delta_cost > 2.5 && profile[3].delta_cost < 7.0);
    }

    #[test]
    fn delayed_profile_has_sub_unit_minimum_on_heavy_tails() {
        // the paper's key claim: some ratio gives ∆cost < 1
        let m = heavy_model();
        let ratios = [1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.4, 1.5, 1.75, 2.0];
        let profile = delayed_cost_profile(&m, &ratios);
        let min = profile
            .iter()
            .map(|p| p.delta_cost)
            .fold(f64::INFINITY, f64::min);
        assert!(min < 1.0, "min ∆cost {min} should be < 1");
        assert!(min > 0.8, "min ∆cost {min} suspiciously low");
        // N_// stays below 2 (constraint of the delayed protocol)
        for p in &profile {
            assert!(p.n_parallel >= 1.0 && p.n_parallel < 2.0);
        }
    }

    #[test]
    fn optimizer_beats_profile_points() {
        let m = heavy_model();
        let best = optimize_delayed_delta_cost(&m);
        let profile = delayed_cost_profile(&m, &[1.1, 1.25, 1.5]);
        for p in &profile {
            assert!(
                best.delta_cost <= p.delta_cost + 1e-6,
                "profile point {:?} beats optimizer",
                p.params
            );
        }
        // integer parameters by construction
        if let StrategyParams::Delayed { t0, t_inf } = best.params {
            assert_eq!(t0.fract(), 0.0);
            assert_eq!(t_inf.fract(), 0.0);
            assert!(t_inf >= t0 + 1.0);
        } else {
            panic!("wrong params variant");
        }
    }

    #[test]
    fn delta_cost_at_explicit_pair_is_consistent() {
        let m = heavy_model();
        let single = optimize_timeout(&m, 1);
        let p = delayed_delta_cost_at(&m, 400.0, 520.0, single.expectation);
        assert!(p.expectation.is_finite());
        let manual = p.n_parallel * p.expectation / single.expectation;
        assert!((p.delta_cost - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "baseline must be positive")]
    fn rejects_bad_baseline() {
        delta_cost(1.0, 100.0, 0.0);
    }
}
