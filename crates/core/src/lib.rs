//! # gridstrat-core
//!
//! The primary contribution of *Modeling User Submission Strategies on
//! Production Grids* (Lingrand, Montagnat, Glatard — HPDC 2009), implemented
//! as a library.
//!
//! Grid latency `R` (submission → execution start) is modelled by a
//! *defective* CDF `F̃(t) = (1-ρ)·F_R(t)` where `ρ` is the outlier (fault)
//! ratio. On top of a [`latency::LatencyModel`] the crate provides:
//!
//! * [`StrategyParams`] — a strategy instance: the family and its
//!   parameters, as every sweep, fleet and adaptive path carries it. It
//!   implements [`strategy::Strategy`], which unifies the analytic side
//!   (`expected_j`/`std_j`/`n_parallel` over a latency model) with the
//!   executable side (the simulator controller realising the protocol);
//! * the closed forms of each family, as associated functions of a
//!   field-less type: [`strategy::SingleResubmission`] — cancel at `t∞`
//!   and resubmit (paper §4, eqs. 1–2); [`strategy::MultipleSubmission`] —
//!   submit `b` copies, cancel the rest on first start, resubmit the
//!   collection at `t∞` (§5, eqs. 3–4); [`strategy::DelayedResubmission`]
//!   — submit a copy at `t0` without cancelling before `t∞` (§6, eq. 5
//!   and the `N_//` analysis of §6.1);
//! * [`cost`] — the `∆cost` criterion of §7 (eq. 6) comparing user benefit
//!   against infrastructure load;
//! * [`stability`] — the ±5 s sensitivity analysis of Table 5;
//! * [`transfer`] — the week-to-week parameter-transfer protocol of
//!   Table 6 (§7.2, “practical implementation”);
//! * [`executor`] — Monte-Carlo execution of each strategy against the
//!   [`gridstrat_sim`] discrete-event grid, validating every closed form:
//!   [`executor::StrategyExecutor::run`] for one strategy,
//!   [`executor::StrategyExecutor::run_batch`] for the makespan of a batch
//!   of independent tasks, and the batched [`executor::ScenarioSweep`]
//!   evaluating a (strategy × week × grid-scenario) grid, all on one
//!   thread-count-independent trial loop. Its echelon controller is the
//!   only executable implementation of the protocols;
//! * [`replicate`] — the ordered replication fold behind the
//!   executors and the `gridstrat-fleet` sweeps: outputs are folded in
//!   index order as pool rounds finish, so memory is bounded by the pool,
//!   not by the trial or replication count;
//! * [`adaptive`] — online-adapting strategies on *nonstationary* live
//!   grids: the back-to-back task-sequence harness, with
//!   [`adaptive::run_adaptive_sequence`] re-tuning timeouts from the
//!   run's own observations, regret accounting against the instantaneous
//!   oracle optimum, and the (amplitude × retune-period)
//!   [`adaptive::AdaptiveSweep`];
//! * [`report`] — fixed-width table / CSV rendering for the reproduction
//!   harness.
//!
//! ## Exactness
//!
//! With an [`latency::EmpiricalModel`] every integral in eqs. 1–5 is an
//! integral of a step function and is evaluated **exactly** (prefix sums and
//! piecewise products — no quadrature). Moreover, because `E_J(t∞)` is
//! increasing-linear-over-constant between sample points, its minimum over
//! `t∞` is attained at a sample value, so the single- and multiple-strategy
//! optimizations are exact too.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod cost;
pub mod executor;
pub mod latency;
pub mod replicate;
pub mod report;
pub mod session;
pub mod stability;
pub mod strategy;
pub mod transfer;

pub use adaptive::{
    run_adaptive_sequence, run_fixed_sequence, AdaptiveCellOutcome, AdaptiveConfig, AdaptiveSweep,
    RegretFrontier, RetunePolicy, SequenceOutcome, SequenceSummary, TaskRecord,
};
pub use cost::{cost_point, delta_cost, CostPoint, StrategyParams};
pub use executor::{
    BatchOutcome, GridScenario, MonteCarloConfig, MonteCarloEstimate, ScenarioOutcome,
    ScenarioSweep, StrategyExecutor,
};
pub use latency::{EmpiricalModel, LatencyModel, ParametricModel};
pub use session::TaskSession;
pub use strategy::{
    DelayedOutcome, DelayedResubmission, MultipleSubmission, SingleResubmission, Strategy,
    Timeout1d,
};
