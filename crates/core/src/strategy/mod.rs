//! The three client-side submission strategies of the paper, unified
//! behind the [`Strategy`] trait.
//!
//! | Family | Paper | Parameters | Model |
//! |---|---|---|---|
//! | [`SingleResubmission`] | §4, eqs. 1–2 | timeout `t∞` | cancel + resubmit at `t∞` |
//! | [`MultipleSubmission`] | §5, eqs. 3–4 | copies `b`, timeout `t∞` | burst of `b`, cancel rest on first start |
//! | [`DelayedResubmission`] | §6, eq. 5 | delay `t0`, timeout `t∞` | copy at `t0`, cancel original at `t∞` |
//!
//! A strategy *instance* is a [`StrategyParams`] value: the plain-data
//! description every sweep, fleet, adaptive and benchmark path carries. It
//! is the one implementor of [`Strategy`], which computes `E_J`/`σ_J`/`N_//`
//! by matching on the family and calling its closed forms, and builds the
//! simulator controller realising the protocol. The three family types are
//! field-less namespaces of those closed forms (`expectation`, `std_dev`,
//! `optimize`, …) over any [`crate::latency::LatencyModel`]. The closed
//! forms are exact (single/multiple) or multi-resolution (delayed) — see
//! each module.
//!
//! Single resubmission is the `b = 1` case of multiple submission. Its
//! closed forms stay separate (eqs. 1–2 need no powered integrals), but it
//! runs on the same burst controller.

pub mod delayed;
pub mod distribution;
pub mod multiple;
pub mod single;

pub use delayed::{DelayedOutcome, DelayedResubmission};
pub use distribution::JDistribution;
pub use multiple::MultipleSubmission;
pub use single::SingleResubmission;

use crate::cost::StrategyParams;
use crate::executor::{BurstCtrl, DelayedCtrl, StrategyController};
use crate::latency::LatencyModel;

/// Outcome of a 1-D timeout optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeout1d {
    /// Optimal timeout `t∞` in seconds.
    pub timeout: f64,
    /// `E_J` at the optimum, seconds.
    pub expectation: f64,
    /// `σ_J` at the optimum, seconds.
    pub std_dev: f64,
}

/// A parameterised client-side submission strategy.
///
/// Unifies the two faces every strategy has in the reproduction:
///
/// * the **analytic** side — closed-form moments of the total latency `J`
///   and the paper's parallel-job count over any latency model
///   ([`Strategy::expected_j`], [`Strategy::std_j`],
///   [`Strategy::n_parallel`]);
/// * the **executable** side — a [`gridstrat_sim::Controller`] that drives
///   the discrete-event grid exactly as a user's wrapper script would
///   ([`Strategy::build_controller`]), used by the Monte-Carlo executors to
///   validate the closed forms.
///
/// [`StrategyParams`] is the one implementor. The analytic methods are
/// lenient: an instance that cannot complete (a timeout below the latency
/// floor, an infeasible delayed pair) yields `+∞`/`NaN` rather than a
/// panic, which parameter scans rely on. Executing one panics.
pub trait Strategy: Send + Sync {
    /// Short human-readable strategy family name.
    fn name(&self) -> &'static str;

    /// Expected total latency `E_J` over `model`, seconds
    /// (`+∞` when the instance cannot complete on this model).
    fn expected_j(&self, model: &dyn LatencyModel) -> f64;

    /// Standard deviation `σ_J` over `model`, seconds.
    fn std_j(&self, model: &dyn LatencyModel) -> f64;

    /// Mean number of parallel jobs `N_//` under the paper's convention
    /// given an already-computed expectation `e_j` (`N_//(E_J)`; exactly
    /// `b` for multiple submission and 1 for single resubmission). Callers
    /// that already hold `E_J` should prefer this over
    /// [`Strategy::n_parallel`], which recomputes it.
    fn n_parallel_for(&self, e_j: f64) -> f64;

    /// Mean number of parallel jobs `N_//` over `model` (the paper's
    /// `N_//(E_J)` convention).
    fn n_parallel(&self, model: &dyn LatencyModel) -> f64 {
        self.n_parallel_for(self.expected_j(model))
    }

    /// Builds the simulator controller that realises this strategy against
    /// a [`gridstrat_sim::GridSimulation`]. Panics for instances whose
    /// protocol cannot be executed: a timeout that is not finite and
    /// positive, no copies (`b = 0`), or an infeasible delayed pair.
    fn build_controller(&self) -> Box<dyn StrategyController>;

    /// Re-optimises the instance's *free* parameters on `model`, keeping
    /// structural ones (the collection size `b`, the copies-per-echelon
    /// count) fixed: the timeout for single/multiple, the `(t0, t∞)` pair
    /// for delayed.
    fn tune(&self, model: &dyn LatencyModel) -> Self
    where
        Self: Sized;
}

impl Strategy for StrategyParams {
    fn name(&self) -> &'static str {
        match self {
            StrategyParams::Single { .. } => SingleResubmission::FAMILY,
            StrategyParams::Multiple { .. } => MultipleSubmission::FAMILY,
            StrategyParams::Delayed { .. } => DelayedResubmission::FAMILY,
            StrategyParams::DelayedMultiple { .. } => DelayedResubmission::FAMILY_MULTI,
        }
    }

    fn expected_j(&self, model: &dyn LatencyModel) -> f64 {
        match *self {
            StrategyParams::Single { t_inf } => SingleResubmission::expectation(model, t_inf),
            StrategyParams::Multiple { b, t_inf } => {
                MultipleSubmission::expectation(model, b, t_inf)
            }
            StrategyParams::Delayed { t0, t_inf } => {
                DelayedResubmission::expectation(model, t0, t_inf)
            }
            StrategyParams::DelayedMultiple { b, t0, t_inf } => {
                DelayedResubmission::expectation_with_copies(model, b, t0, t_inf)
            }
        }
    }

    fn std_j(&self, model: &dyn LatencyModel) -> f64 {
        match *self {
            StrategyParams::Single { t_inf } => SingleResubmission::std_dev(model, t_inf),
            StrategyParams::Multiple { b, t_inf } => MultipleSubmission::std_dev(model, b, t_inf),
            StrategyParams::Delayed { t0, t_inf } => {
                DelayedResubmission::moments(model, t0, t_inf).1
            }
            StrategyParams::DelayedMultiple { b, t0, t_inf } => {
                DelayedResubmission::moments_with_copies(model, b, t0, t_inf).1
            }
        }
    }

    fn n_parallel_for(&self, e_j: f64) -> f64 {
        let (b, t0, t_inf) = match *self {
            // one job in flight at all times, or the whole collection of b
            StrategyParams::Single { .. } => return 1.0,
            StrategyParams::Multiple { b, .. } => return b as f64,
            StrategyParams::Delayed { t0, t_inf } => (1, t0, t_inf),
            StrategyParams::DelayedMultiple { b, t0, t_inf } => (b, t0, t_inf),
        };
        if e_j.is_finite() && DelayedResubmission::feasible(t0, t_inf) {
            DelayedResubmission::n_parallel_at_with_copies(b, e_j, t0, t_inf)
        } else {
            f64::NAN
        }
    }

    fn build_controller(&self) -> Box<dyn StrategyController> {
        match *self {
            StrategyParams::Single { t_inf } => Box::new(BurstCtrl::new(1, t_inf)),
            StrategyParams::Multiple { b, t_inf } => Box::new(BurstCtrl::new(b, t_inf)),
            StrategyParams::Delayed { t0, t_inf } => Box::new(DelayedCtrl::new(1, t0, t_inf)),
            StrategyParams::DelayedMultiple { b, t0, t_inf } => {
                Box::new(DelayedCtrl::new(b, t0, t_inf))
            }
        }
    }

    fn tune(&self, model: &dyn LatencyModel) -> Self {
        match *self {
            StrategyParams::Single { .. } => StrategyParams::Single {
                t_inf: SingleResubmission::optimize(model).timeout,
            },
            StrategyParams::Multiple { b, .. } => StrategyParams::Multiple {
                b,
                t_inf: MultipleSubmission::optimize(model, b).timeout,
            },
            StrategyParams::Delayed { .. } => {
                let out = DelayedResubmission::optimize(model);
                StrategyParams::Delayed {
                    t0: out.t0,
                    t_inf: out.t_inf,
                }
            }
            StrategyParams::DelayedMultiple { b, .. } => {
                let out = DelayedResubmission::optimize_with_copies(model, b);
                StrategyParams::DelayedMultiple {
                    b,
                    t0: out.t0,
                    t_inf: out.t_inf,
                }
            }
        }
    }
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
    fn params_evaluate_their_family_closed_forms() {
        let m = heavy_model();
        let cases: Vec<(StrategyParams, f64, f64)> = vec![
            (
                StrategyParams::Single { t_inf: 700.0 },
                SingleResubmission::expectation(&m, 700.0),
                1.0,
            ),
            (
                StrategyParams::Multiple { b: 3, t_inf: 800.0 },
                MultipleSubmission::expectation(&m, 3, 800.0),
                3.0,
            ),
            (
                StrategyParams::Delayed {
                    t0: 400.0,
                    t_inf: 560.0,
                },
                DelayedResubmission::expectation(&m, 400.0, 560.0),
                DelayedResubmission::evaluate(&m, 400.0, 560.0).n_parallel,
            ),
        ];
        for (spec, want_e, want_n) in cases {
            assert_eq!(spec.expected_j(&m).to_bits(), want_e.to_bits(), "{spec:?}");
            assert!((spec.n_parallel(&m) - want_n).abs() < 1e-12, "{spec:?}");
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        let m = heavy_model();
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(StrategyParams::Single { t_inf: 700.0 }),
            Box::new(StrategyParams::Multiple { b: 2, t_inf: 800.0 }),
            Box::new(StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            }),
        ];
        for s in &strategies {
            let e = s.expected_j(&m);
            assert!(e.is_finite() && e > 0.0, "{}", s.name());
            assert!(s.std_j(&m).is_finite());
            assert!(s.n_parallel(&m) >= 1.0);
        }
        // names are distinct per family
        assert_eq!(strategies[0].name(), "single");
        assert_eq!(strategies[1].name(), "multiple");
        assert_eq!(strategies[2].name(), "delayed");
    }

    // Executing an instance checks what the analytic side tolerates: each
    // test first shows the closed forms stay lenient, then that the
    // controller refuses the instance.

    #[test]
    #[should_panic(expected = "timeout must be finite and positive")]
    fn single_with_a_zero_timeout_panics_when_executed() {
        let spec = StrategyParams::Single { t_inf: 0.0 };
        assert_eq!(spec.expected_j(&heavy_model()), f64::INFINITY);
        spec.build_controller();
    }

    #[test]
    #[should_panic(expected = "timeout must be finite and positive")]
    fn multiple_with_an_infinite_timeout_panics_when_executed() {
        StrategyParams::Multiple {
            b: 2,
            t_inf: f64::INFINITY,
        }
        .build_controller();
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn multiple_without_copies_panics_when_executed() {
        let spec = StrategyParams::Multiple { b: 0, t_inf: 800.0 };
        assert_eq!(spec.n_parallel_for(500.0), 0.0);
        spec.build_controller();
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn infeasible_delayed_pair_panics_when_executed() {
        let spec = StrategyParams::Delayed {
            t0: 300.0,
            t_inf: 700.0,
        };
        assert_eq!(spec.expected_j(&heavy_model()), f64::INFINITY);
        assert!(spec.n_parallel_for(500.0).is_nan());
        spec.build_controller();
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn delayed_multiple_without_copies_panics_when_executed() {
        StrategyParams::DelayedMultiple {
            b: 0,
            t0: 400.0,
            t_inf: 560.0,
        }
        .build_controller();
    }

    #[test]
    fn tune_keeps_structural_parameters() {
        let m = heavy_model();
        let tuned = StrategyParams::Multiple { b: 4, t_inf: 123.0 }.tune(&m);
        match tuned {
            StrategyParams::Multiple { b, t_inf } => {
                assert_eq!(b, 4);
                let opt = MultipleSubmission::optimize(&m, 4);
                assert_eq!(t_inf.to_bits(), opt.timeout.to_bits());
            }
            other => panic!("tune changed the variant: {other:?}"),
        }
        let tuned = StrategyParams::Delayed {
            t0: 300.0,
            t_inf: 400.0,
        }
        .tune(&m);
        match tuned {
            StrategyParams::Delayed { t0, t_inf } => {
                assert!(DelayedResubmission::feasible(t0, t_inf));
            }
            other => panic!("tune changed the variant: {other:?}"),
        }
    }
}
