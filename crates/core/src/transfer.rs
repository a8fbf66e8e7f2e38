//! Week-to-week parameter transfer (paper §7.2 and Table 6).
//!
//! Exploiting `∆cost` in practice requires choosing `(t0, t∞)` *before*
//! execution, from earlier measurements. Table 6 quantifies the penalty:
//! each week is evaluated under every other week's optimal pair; the
//! variation stays within ≈ 13% overall and within 6% when using the
//! previous week's optimum — the protocol a production client would follow.

use crate::cost::{delayed_delta_cost_at, CostPoint};
use crate::latency::LatencyModel;
use crate::strategy::optimize_timeout;

/// One evaluated `(t0, t∞)` pair under some week's model.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferCell {
    /// Name of the week the pair was optimal for.
    pub param_week: String,
    /// The pair's `t0`, seconds.
    pub t0: f64,
    /// The pair's `t∞`, seconds.
    pub t_inf: f64,
    /// `E_J` under the evaluation week's model, seconds.
    pub expectation: f64,
    /// `∆cost` under the evaluation week's model.
    pub delta_cost: f64,
}

/// Table-6 row: one evaluation week against every week's optimal pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReport {
    /// The week whose model evaluates the pairs.
    pub eval_week: String,
    /// One cell per parameter source (same order as the input).
    pub cells: Vec<TransferCell>,
    /// Index of this week's own (optimal) pair in `cells`.
    pub own_index: usize,
    /// Max relative `∆cost` increase over the own-pair value, percent.
    pub max_diff_pct: f64,
    /// Relative increase when using the *previous* week's pair, percent
    /// (`None` for the first week).
    pub prev_diff_pct: Option<f64>,
}

/// Input: for each week, its name, its latency model, and its `∆cost`-optimal
/// `(t0, t∞)` pair. Output: one [`TransferReport`] per week, evaluating every
/// pair under that week's model (the full Table 6 matrix).
pub fn transfer_matrix<M: LatencyModel>(weeks: &[(String, M, (f64, f64))]) -> Vec<TransferReport> {
    assert!(!weeks.is_empty(), "need at least one week");
    weeks
        .iter()
        .enumerate()
        .map(|(i, (name, model, _))| {
            let single = optimize_timeout(model, 1);
            let cells: Vec<TransferCell> = weeks
                .iter()
                .map(|(pname, _, (t0, ti))| {
                    let p: CostPoint = delayed_delta_cost_at(model, *t0, *ti, single.expectation);
                    TransferCell {
                        param_week: pname.clone(),
                        t0: *t0,
                        t_inf: *ti,
                        expectation: p.expectation,
                        delta_cost: p.delta_cost,
                    }
                })
                .collect();
            let own = cells[i].delta_cost;
            let max = cells
                .iter()
                .map(|c| c.delta_cost)
                .fold(f64::NEG_INFINITY, f64::max);
            let prev_diff_pct = (i > 0).then(|| (cells[i - 1].delta_cost - own) / own * 100.0);
            TransferReport {
                eval_week: name.clone(),
                cells,
                own_index: i,
                max_diff_pct: (max - own) / own * 100.0,
                prev_diff_pct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{optimize_delayed_delta_cost, StrategyParams};
    use crate::latency::ParametricModel;
    use gridstrat_stats::{LogNormal, Shifted};

    type TestWeek = (String, ParametricModel<Shifted<LogNormal>>, (f64, f64));

    fn weeks() -> Vec<TestWeek> {
        // three similar-but-different weeks
        let specs = [
            ("w1", 480.0, 760.0, 0.12),
            ("w2", 520.0, 900.0, 0.10),
            ("w3", 450.0, 650.0, 0.15),
        ];
        specs
            .iter()
            .map(|&(name, mean, sd, rho)| {
                let body = Shifted::new(LogNormal::from_mean_std(mean - 150.0, sd).unwrap(), 150.0)
                    .unwrap();
                let m = ParametricModel::new(body, rho, 1e4).unwrap();
                let best = optimize_delayed_delta_cost(&m);
                let pair = match best.params {
                    StrategyParams::Delayed { t0, t_inf } => (t0, t_inf),
                    _ => unreachable!(),
                };
                (name.to_string(), m, pair)
            })
            .collect()
    }

    #[test]
    fn matrix_shape_and_own_optimality() {
        let ws = weeks();
        let reports = transfer_matrix(&ws);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.cells.len(), 3);
            assert_eq!(r.own_index, i);
            // own pair is optimal for its own week ⇒ every diff ≥ 0
            assert!(
                r.max_diff_pct >= -1e-9,
                "{}: own pair not optimal ({}%)",
                r.eval_week,
                r.max_diff_pct
            );
            if let Some(p) = r.prev_diff_pct {
                assert!(p >= -1e-9);
                assert!(p <= r.max_diff_pct + 1e-9);
            }
        }
        assert!(reports[0].prev_diff_pct.is_none());
        assert!(reports[1].prev_diff_pct.is_some());
    }

    #[test]
    fn similar_weeks_transfer_well() {
        // the paper's observation: neighbouring weeks' optima transfer
        // within ≈ 15%
        let ws = weeks();
        let reports = transfer_matrix(&ws);
        for r in &reports {
            assert!(
                r.max_diff_pct < 25.0,
                "{} transfers badly: {}%",
                r.eval_week,
                r.max_diff_pct
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one week")]
    fn rejects_empty_input() {
        transfer_matrix::<ParametricModel<LogNormal>>(&[]);
    }
}
