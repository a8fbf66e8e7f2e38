//! # gridstrat — umbrella crate
//!
//! Reproduction of *Modeling User Submission Strategies on Production Grids*
//! (Lingrand, Montagnat, Glatard — HPDC 2009) as a Rust workspace.
//!
//! This crate re-exports the public APIs of the four member crates so that
//! examples and downstream users can depend on a single package:
//!
//! * [`stats`] — empirical CDFs with exact integrals, distributions, MLE
//!   fitting, optimizers ([`gridstrat_stats`]).
//! * [`workload`] — latency trace model and the 13 synthetic EGEE-like
//!   weekly datasets calibrated to the paper's Table 1
//!   ([`gridstrat_workload`]).
//! * [`sim`] — discrete-event grid simulator (UI → WMS → CE) with fault
//!   injection and the constant-probe measurement harness
//!   ([`gridstrat_sim`]).
//! * [`core`] — the paper's contribution: latency models, the three
//!   submission strategies (single / multiple / delayed resubmission),
//!   timeout optimization, the `∆cost` criterion, stability and cross-week
//!   transfer analyses, Monte-Carlo strategy executors, and the
//!   online-adaptation layer (adaptive strategies with regret accounting
//!   on nonstationary live grids) ([`gridstrat_core`]).
//! * [`fleet`] — the multi-user ecosystem simulator (the paper's §8
//!   future work): populations of heterogeneous strategies multiplexed
//!   onto one shared grid, strategy-mix sweeps, fairness / slot-waste /
//!   utilisation metrics and best-response equilibrium search
//!   ([`gridstrat_fleet`]).
//!
//! ## Quickstart
//!
//! ```
//! use gridstrat::prelude::*;
//!
//! // Build a latency model from a synthetic EGEE-like week…
//! let trace = WeekId::W2006Ix.generate(0xE6EE);
//! let model = EmpiricalModel::from_trace(&trace).unwrap();
//!
//! // …and compute the single-resubmission optimum (paper §4, eq. 1): the
//! // echelon law at t0 = t∞ with one copy, over the candidate timeouts.
//! let single = optimize_timeout(&model, 1);
//! assert!(single.expectation.is_finite());
//! assert!(single.timeout > 0.0);
//! ```

pub use gridstrat_core as core;
pub use gridstrat_fleet as fleet;
pub use gridstrat_sim as sim;
pub use gridstrat_stats as stats;
pub use gridstrat_workload as workload;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use gridstrat_core::adaptive::{
        run_adaptive_sequence, run_fixed_sequence, AdaptiveCellOutcome, AdaptiveConfig,
        AdaptiveSweep, RegretFrontier, RetunePolicy, SequenceOutcome, SequenceSummary, TaskRecord,
    };
    pub use gridstrat_core::cost::{
        cost_point, delayed_cost_profile, delayed_delta_cost_at, delta_cost, multiple_cost_profile,
        optimize_delayed_delta_cost, CostPoint, StrategyParams,
    };
    pub use gridstrat_core::executor::{
        BatchOutcome, GridScenario, MonteCarloConfig, MonteCarloEstimate, ScenarioOutcome,
        ScenarioSweep, StrategyExecutor,
    };
    pub use gridstrat_core::latency::{EmpiricalModel, LatencyModel, ParametricModel};
    pub use gridstrat_core::report::Table;
    pub use gridstrat_core::stability::{stability_radius, StabilityReport};
    pub use gridstrat_core::strategy::{
        optimize_timeout, DelayedOutcome, DelayedResubmission, JDistribution, Strategy, Timeout1d,
    };
    pub use gridstrat_core::transfer::{transfer_matrix, TransferReport};
    pub use gridstrat_fleet::{
        jain_index, run_cell, shard_seed, user_stream_seed, ArrivalProcess, Assignment,
        BestResponseSearch, BestResponseStep, EquilibriumReport, FleetCellOutcome, FleetConfig,
        FleetController, FleetRun, FleetSweep, GroupReport, GroupStream, ShardedFleet,
        StrategyGroup, StrategyMix, UserOutcome,
    };
    pub use gridstrat_sim::{
        Controller, GridConfig, GridSimulation, JobId, JobRecord, JobState, Modulation,
        Notification, ProbeHarness, SimDuration, SimTime,
    };
    pub use gridstrat_stats::{
        bootstrap_ci, ConfidenceInterval, Distribution, Ecdf, HazardProfile, HazardTrend,
        LogNormal, Shifted, StreamingEcdf, Summary, Weibull,
    };
    pub use gridstrat_workload::{
        DiurnalModel, ProbeStatus, RegimeShiftModel, TraceSet, WeekId, WeekModel,
        CENSOR_THRESHOLD_S, MAX_FAULT_RATIO,
    };
}
