//! Sensitivity of the `∆cost` optimum to parameter perturbations
//! (paper §7.1, right part of Table 5).
//!
//! In practice `t0` and `t∞` are estimated from past traces, so the paper
//! checks how much `∆cost` degrades when each parameter is off by up to
//! ±5 s (integer grid): most weeks stay within a few percent, the worst
//! climbs 14% — “a relative stability that needs to be enforced by a good
//! estimation of both optimal t0 and t∞”.

use crate::cost::delayed_delta_cost_at;
use crate::latency::LatencyModel;
use crate::strategy::DelayedResubmission;

/// Result of a ±radius perturbation scan around a `(t0, t∞)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityReport {
    /// The centre `t0`, seconds.
    pub t0: f64,
    /// The centre `t∞`, seconds.
    pub t_inf: f64,
    /// `∆cost` at the centre.
    pub base_delta_cost: f64,
    /// Maximum `∆cost` over the feasible perturbed pairs.
    pub max_delta_cost: f64,
    /// `(max - base)/base`, in percent.
    pub max_rel_diff_pct: f64,
    /// Number of feasible perturbed pairs examined.
    pub examined: usize,
}

/// Scans all integer offsets `(dt0, dt∞) ∈ [-radius, radius]²` around the
/// pair, skipping infeasible combinations, and reports the worst `∆cost`.
///
/// `e_j_single_opt` is the week's optimal single-resubmission expectation
/// (the eq. 6 baseline).
pub fn stability_radius(
    model: &dyn LatencyModel,
    t0: f64,
    t_inf: f64,
    radius: u32,
    e_j_single_opt: f64,
) -> StabilityReport {
    assert!(
        DelayedResubmission::feasible(t0, t_inf),
        "centre pair must be feasible"
    );
    let base = delayed_delta_cost_at(model, t0, t_inf, e_j_single_opt).delta_cost;
    let r = radius as i64;
    let mut max = base;
    let mut examined = 0usize;
    for dt0 in -r..=r {
        for dti in -r..=r {
            let p0 = t0 + dt0 as f64;
            let pi = t_inf + dti as f64;
            if !DelayedResubmission::feasible(p0, pi) {
                continue;
            }
            examined += 1;
            let dc = delayed_delta_cost_at(model, p0, pi, e_j_single_opt).delta_cost;
            if dc > max {
                max = dc;
            }
        }
    }
    StabilityReport {
        t0,
        t_inf,
        base_delta_cost: base,
        max_delta_cost: max,
        max_rel_diff_pct: (max - base) / base * 100.0,
        examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ParametricModel;
    use crate::strategy::optimize_timeout;
    use gridstrat_stats::{LogNormal, Shifted};

    fn model() -> ParametricModel<Shifted<LogNormal>> {
        let body = Shifted::new(LogNormal::from_mean_std(360.0, 880.0).unwrap(), 150.0).unwrap();
        ParametricModel::new(body, 0.05, 1e4).unwrap()
    }

    #[test]
    fn perturbation_cannot_beat_max_and_includes_base() {
        let m = model();
        let single = optimize_timeout(&m, 1);
        let rep = stability_radius(&m, 420.0, 520.0, 5, single.expectation);
        assert!(rep.max_delta_cost >= rep.base_delta_cost);
        assert!(rep.max_rel_diff_pct >= 0.0);
        // full box minus infeasible corner combinations
        assert!(rep.examined > 0 && rep.examined <= 121);
    }

    #[test]
    fn optimum_neighbourhood_is_stable_like_the_paper() {
        // near the ∆cost optimum, ±5 s moves ∆cost by a few percent at most
        let m = model();
        let single = optimize_timeout(&m, 1);
        let best = crate::cost::optimize_delayed_delta_cost(&m);
        if let crate::cost::StrategyParams::Delayed { t0, t_inf } = best.params {
            let rep = stability_radius(&m, t0, t_inf, 5, single.expectation);
            assert!(
                rep.max_rel_diff_pct < 15.0,
                "unstable optimum: {}%",
                rep.max_rel_diff_pct
            );
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn radius_zero_is_just_the_base() {
        let m = model();
        let single = optimize_timeout(&m, 1);
        let rep = stability_radius(&m, 400.0, 500.0, 0, single.expectation);
        assert_eq!(rep.examined, 1);
        assert_eq!(rep.base_delta_cost, rep.max_delta_cost);
        assert_eq!(rep.max_rel_diff_pct, 0.0);
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn rejects_infeasible_centre() {
        let m = model();
        stability_radius(&m, 100.0, 500.0, 5, 400.0);
    }
}
