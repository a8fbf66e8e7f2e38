//! Monte-Carlo execution of the strategies against the discrete-event grid,
//! the batched scenario sweep, and batch makespans.
//!
//! Each closed form in this crate is validated by actually *running* the
//! corresponding client-side protocol against [`gridstrat_sim`]: a
//! controller submits, cancels and re-submits jobs exactly as a user's
//! wrapper script would, and the realised total latency `J`, submission
//! count and time-average parallel-job count are measured from the engine's
//! audit records. Every family runs on one controller, the echelon
//! protocol of [`StrategyParams::echelon`], so the executor never matches
//! on strategy variants. It is the only executable implementation of the
//! protocols; the closed forms and [`crate::strategy::JDistribution`] are
//! the analytic side it checks.
//!
//! Three entry points share one trial loop:
//!
//! * [`StrategyExecutor::run`] — many trials of **one** strategy on **one**
//!   latency law (the validation workhorse), run as a one-cell sweep;
//! * [`StrategyExecutor::run_batch`] — the makespan `max(J_1 … J_n)` of
//!   batches of `n` independent tasks launched together (the many-job
//!   applications of the paper's §1 and §3.3): batch `r` is trials
//!   `r·n .. (r+1)·n` of one cell;
//! * [`ScenarioSweep`] — a (strategy × week × grid-scenario) grid evaluated
//!   in **one** parallel pass. Every cell gets its own RNG stream via
//!   `derive_seed(master, cell)` and trials within a cell use
//!   `derive_seed(cell_seed, trial)`.
//!
//! The flat (cell × trial) index space runs through
//! [`crate::replicate::fold_ordered`]: each pool lane runs 8,192
//! consecutive trials per round, and the calling thread folds every
//! round's outcomes in trial order before the next round — into the cells'
//! Welford summaries, or into each batch's mean and maximum. The fold
//! order is the index order, so results are **bit-identical for any thread
//! count**, and memory is bounded by the lanes (256 KiB of outcomes each),
//! not by the trial count.

use crate::cost::StrategyParams;
use crate::latency::ParametricModel;
use crate::replicate::fold_ordered;
use crate::strategy::{DelayedResubmission, Strategy};
use gridstrat_sim::{
    Controller, GridConfig, GridSimulation, JobId, LatencyMode, Notification, SimDuration, TimerId,
};
use gridstrat_stats::rng::derive_seed;
use gridstrat_stats::Summary;
use gridstrat_workload::{WeekId, WeekModel, MAX_FAULT_RATIO};
use std::ops::Range;
use std::sync::Arc;

/// Monte-Carlo run configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloConfig {
    /// Number of independent trials.
    pub trials: usize,
    /// Master seed; trial `k` uses `derive_seed(seed, k)`.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            trials: 10_000,
            seed: 0xE6EE,
        }
    }
}

/// Aggregated Monte-Carlo estimates for one strategy instance.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloEstimate {
    /// Mean realised total latency `Ê_J`, seconds.
    pub mean_j: f64,
    /// Standard error of `mean_j`.
    pub stderr_j: f64,
    /// Realised standard deviation `σ̂_J`, seconds.
    pub std_j: f64,
    /// Mean number of submissions per task.
    pub mean_submissions: f64,
    /// Mean realised time-average parallel-job count `E[N_//(J)]`.
    pub mean_parallel: f64,
    /// Trials that completed (a job started before the horizon).
    pub completed_trials: usize,
}

/// Trials one pool lane runs between two folds of
/// [`crate::replicate::fold_ordered`]: 8,192 outcomes of 32 bytes, 256 KiB per lane.
const TRIAL_CHUNK: usize = 8_192;

/// One Monte-Carlo cell: trial `t` runs `strategy` on `grid` seeded
/// `derive_seed(seed, t)`.
struct TrialCell {
    grid: Arc<GridConfig>,
    strategy: StrategyParams,
    seed: u64,
}

/// Reusable per-lane trial state: one engine and one controller, both
/// rewound in place between trials so the hot loop never touches the
/// allocator.
struct TrialWorker {
    sim: GridSimulation,
    ctrl: EchelonCtrl,
}

impl TrialWorker {
    /// Returns the lane's worker primed for trial `seed` of `cell`: built
    /// on first use and whenever the lane crosses into another cell,
    /// rewound in place otherwise. Engine `reset` and controller `reset`
    /// are bit-exact, so whether a trial ran on a fresh or a reused worker
    /// is unobservable — the property that keeps results identical across
    /// thread counts (chunk boundaries decide reuse patterns).
    fn obtain<'s>(
        slot: &'s mut Option<(usize, TrialWorker)>,
        cell: usize,
        plan: &TrialCell,
        seed: u64,
    ) -> &'s mut TrialWorker {
        match slot {
            Some((c, worker)) if *c == cell => {
                worker.sim.reset(seed);
                worker.ctrl.reset();
            }
            _ => {
                let worker = TrialWorker {
                    sim: GridSimulation::new(Arc::clone(&plan.grid), seed)
                        .expect("executor grid configs are always valid"),
                    ctrl: EchelonCtrl::new(plan.strategy),
                };
                *slot = Some((cell, worker));
            }
        }
        &mut slot.as_mut().expect("worker just installed").1
    }

    /// One trial on the primed engine: returns
    /// `[J, submissions, parallel-average]`, or `None` if no job started
    /// before the horizon.
    fn run(&mut self) -> Option<[f64; 3]> {
        let sim = &mut self.sim;
        sim.run_controller(&mut self.ctrl);
        let j = self.ctrl.total_latency()?;

        let submissions = sim.stats().client_submitted as f64;
        // time-integral of the number of in-system jobs over [0, J]:
        // a job is "in the system" from submission until it starts, is
        // cancelled, or the task completes at J (a loser whose cancel
        // request is still in flight at J)
        let mut integral = 0.0;
        for rec in sim.jobs() {
            let s = rec.submitted_at().as_secs();
            if s >= j {
                continue;
            }
            let end = match (rec.started_at(), rec.terminated_at()) {
                (Some(st), _) => st.as_secs(),
                (None, Some(term)) => term.as_secs(),
                (None, None) => j,
            };
            integral += end.min(j) - s;
        }
        let n_par = if j > 0.0 { integral / j } else { 1.0 };
        Some([j, submissions, n_par])
    }
}

/// The estimate of one cell from the Welford summaries of its `J`,
/// submission counts and parallel-job averages.
fn estimate([j, submissions, parallel]: &[Summary; 3]) -> MonteCarloEstimate {
    MonteCarloEstimate {
        mean_j: j.mean(),
        stderr_j: j.stderr(),
        std_j: j.std(),
        mean_submissions: submissions.mean(),
        mean_parallel: parallel.mean(),
        completed_trials: j.count() as usize,
    }
}

/// Runs `trials` trials of every cell over the flat (cell × trial) index
/// space, `chunk` trials per lane and round, and feeds the outcome of
/// trial `k % trials` of cell `k / trials` to `fold(k, outcome)` in index
/// order — the one trial loop of every entry point.
fn run_cells(
    cells: &[TrialCell],
    trials: usize,
    chunk: usize,
    fold: impl FnMut(usize, Option<[f64; 3]>),
) {
    fold_ordered(
        cells.len() * trials,
        chunk,
        |slot, k| {
            let cell = k / trials;
            let plan = &cells[cell];
            let seed = derive_seed(plan.seed, (k % trials) as u64);
            TrialWorker::obtain(slot, cell, plan, seed).run()
        },
        fold,
    );
}

/// [`run_cells`] folded into each cell's Welford summaries.
fn estimate_cells(cells: &[TrialCell], trials: usize, chunk: usize) -> Vec<MonteCarloEstimate> {
    let mut folds = vec![[Summary::new(); 3]; cells.len()];
    run_cells(cells, trials, chunk, |k, outcome| {
        if let Some(xs) = outcome {
            for (summary, x) in folds[k / trials].iter_mut().zip(xs) {
                summary.push(x);
            }
        }
    });
    folds.iter().map(estimate).collect()
}

/// Batch-level statistics of an `n`-task application under one strategy.
#[derive(Debug, Clone, Copy)]
pub struct BatchOutcome {
    /// Tasks per batch.
    pub tasks: usize,
    /// Mean per-task total latency (seconds).
    pub mean_latency: f64,
    /// Mean batch makespan: `E[max(J_1…J_n)]` (seconds).
    pub mean_makespan: f64,
    /// 95th-percentile batch makespan across batches (seconds).
    pub p95_makespan: f64,
}

/// Runs submission strategies against an oracle- or resample-mode grid.
///
/// The grid configuration is held behind an `Arc`: the thousands of
/// engines a run spins up all share it, so a trial costs no configuration
/// copy — in resample mode that previously meant cloning the entire
/// recorded sample vector per trial.
#[derive(Debug, Clone)]
pub struct StrategyExecutor {
    grid: Arc<GridConfig>,
    config: MonteCarloConfig,
}

impl StrategyExecutor {
    /// Creates an executor drawing latencies from a weekly generative model
    /// (oracle mode).
    pub fn new(model: WeekModel, config: MonteCarloConfig) -> Self {
        StrategyExecutor {
            grid: Arc::new(GridConfig::oracle(model)),
            config,
        }
    }

    /// Creates an executor over an arbitrary validated grid configuration
    /// — the entry point for modulated (nonstationary) and pipeline-mode
    /// Monte-Carlo runs that the week-model convenience constructors
    /// cannot express.
    pub fn from_grid(grid: impl Into<Arc<GridConfig>>, config: MonteCarloConfig) -> Self {
        let grid = grid.into();
        grid.validate().expect("executor grid must validate");
        StrategyExecutor { grid, config }
    }

    /// Creates an executor that resamples latencies i.i.d. from a recorded
    /// trace — strategies then run against *exactly* the empirical law an
    /// [`crate::latency::EmpiricalModel`] of that trace describes.
    pub fn from_trace(trace: &gridstrat_workload::TraceSet, config: MonteCarloConfig) -> Self {
        let latencies: Vec<f64> = trace.records.iter().map(|r| r.latency_s).collect();
        StrategyExecutor {
            grid: Arc::new(GridConfig::resample(latencies, trace.threshold_s)),
            config,
        }
    }

    /// Runs `trials` independent executions of the strategy and aggregates.
    ///
    /// The one-cell case of the [`ScenarioSweep`] trial loop: trials run
    /// on the rayon pool in rounds and are folded in trial order as they
    /// finish, so the estimate is **bit-identical** for any thread count
    /// and memory stays bounded by the pool, not by `trials`. Each lane
    /// reuses one engine + controller across all its trials, so the
    /// per-trial cost is the protocol itself, not allocator traffic.
    pub fn run(&self, spec: StrategyParams) -> MonteCarloEstimate {
        estimate_cells(&[self.cell(spec)], self.config.trials, TRIAL_CHUNK).remove(0)
    }

    /// Runs `config.trials` batches of `tasks` independent tasks launched
    /// together, and returns their mean per-task latency and the mean and
    /// 95th percentile of the batch makespan `max(J_1 … J_n)` — a pure
    /// tail statistic of `J`, which is what the strategies reshape.
    ///
    /// Batch `r` is trials `r·tasks .. (r+1)·tasks` of the [`run`](Self::run)
    /// trial loop, so it is bit-identical for any thread count. Panics when
    /// a task does not start before the grid horizon.
    pub fn run_batch(&self, spec: StrategyParams, tasks: usize) -> BatchOutcome {
        let batches = self.config.trials;
        assert!(
            tasks > 0 && batches > 0,
            "a batch run needs tasks and batches"
        );
        let (mut sum, mut max) = (0.0, 0.0f64);
        let mut means = Summary::new();
        let mut makespans = Vec::with_capacity(batches);
        run_cells(
            &[self.cell(spec)],
            batches * tasks,
            TRIAL_CHUNK,
            |k, outcome| {
                let [j, ..] = outcome.expect("strategy cannot complete: a task never started");
                sum += j;
                max = max.max(j);
                if (k + 1) % tasks == 0 {
                    means.push(sum / tasks as f64);
                    makespans.push(max);
                    (sum, max) = (0.0, 0.0);
                }
            },
        );
        makespans.sort_unstable_by(f64::total_cmp);
        BatchOutcome {
            tasks,
            mean_latency: means.mean(),
            mean_makespan: makespans.iter().sum::<f64>() / batches as f64,
            p95_makespan: makespans[((0.95 * batches as f64) as usize).min(batches - 1)],
        }
    }

    /// The one-cell trial plan of `spec`, checked on the calling thread so
    /// that an instance the controller cannot run panics here, with the
    /// controller's message, and not inside a pool lane.
    fn cell(&self, spec: StrategyParams) -> TrialCell {
        EchelonCtrl::new(spec);
        TrialCell {
            grid: Arc::clone(&self.grid),
            strategy: spec,
            seed: self.config.seed,
        }
    }
}

// --- scenario sweep ----------------------------------------------------------

/// A named grid-condition variant applied on top of a week's calibrated
/// latency model — the sweep axis that workload-mining studies scan
/// (degraded fault rates, slower middleware, …).
#[derive(Debug, Clone)]
pub struct GridScenario {
    /// Scenario label (appears in sweep outcomes and report tables).
    pub name: String,
    /// Multiplier on the week's outlier/fault ratio `ρ` (result clamped to
    /// `[0, MAX_FAULT_RATIO]`).
    pub fault_scale: f64,
    /// Multiplier on body latency (scales the latency floor and the
    /// log-normal body; `1.0` = the calibrated week).
    pub latency_scale: f64,
}

impl GridScenario {
    /// The unmodified calibrated week.
    pub fn baseline() -> Self {
        GridScenario {
            name: "baseline".into(),
            fault_scale: 1.0,
            latency_scale: 1.0,
        }
    }

    /// A named variant scaling the fault ratio and body latency.
    pub fn new(name: impl Into<String>, fault_scale: f64, latency_scale: f64) -> Self {
        assert!(
            fault_scale.is_finite() && fault_scale >= 0.0,
            "fault scale must be non-negative"
        );
        assert!(
            latency_scale.is_finite() && latency_scale > 0.0,
            "latency scale must be positive"
        );
        GridScenario {
            name: name.into(),
            fault_scale,
            latency_scale,
        }
    }

    /// Applies the scenario to a full grid configuration — the overlay the
    /// multi-user fleet layer sweeps over.
    ///
    /// * **Oracle** mode: the week model is rescaled via
    ///   [`GridScenario::apply`].
    /// * **Pipeline** mode: `latency_scale` multiplies every middleware hop
    ///   delay (UI→WMS, match-making, dispatch, and a non-zero cancellation
    ///   delay), and `fault_scale` multiplies both fault probabilities
    ///   (clamped to `[0, MAX_FAULT_RATIO]`).
    /// * **Resample** mode: recorded latencies are left untouched; only the
    ///   fault knobs would apply, and resample mode has none — the config
    ///   passes through unchanged.
    pub fn apply_grid(&self, cfg: &GridConfig) -> GridConfig {
        let mut out = cfg.clone();
        match &mut out.latency {
            LatencyMode::Oracle(model) => *model = self.apply(model),
            LatencyMode::Resample { .. } => {}
            LatencyMode::Pipeline => {
                out.wms.ui_to_wms_mean_s *= self.latency_scale;
                out.wms.matchmaking_mean_s *= self.latency_scale;
                out.wms.dispatch_mean_s *= self.latency_scale;
                out.wms.cancellation_delay_mean_s *= self.latency_scale;
                out.faults.p_silent_loss =
                    (out.faults.p_silent_loss * self.fault_scale).clamp(0.0, MAX_FAULT_RATIO);
                out.faults.p_transient_failure =
                    (out.faults.p_transient_failure * self.fault_scale).clamp(0.0, MAX_FAULT_RATIO);
            }
        }
        out
    }

    /// Applies the scenario to a calibrated week model. The fault ratio
    /// saturates at the same [`MAX_FAULT_RATIO`] ceiling as the pipeline
    /// overlay ([`GridScenario::apply_grid`]) and the live modulation
    /// paths — the oracle clamp had drifted to 0.9 while every other path
    /// used 0.95, so the *same* scenario saturated at different fault
    /// levels depending on the latency mode.
    pub fn apply(&self, week: &WeekModel) -> WeekModel {
        let mut out = week.clone();
        out.name = format!("{}:{}", week.name, self.name);
        out.rho = (week.rho * self.fault_scale).clamp(0.0, MAX_FAULT_RATIO);
        // scaling a shifted log-normal by s: shift ×= s, μ += ln s
        out.shift_s = week.shift_s * self.latency_scale;
        out.body_mu = week.body_mu + self.latency_scale.ln();
        out
    }
}

/// One evaluated cell of a [`ScenarioSweep`].
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The strategy evaluated in this cell.
    pub strategy: StrategyParams,
    /// The week whose calibrated model the cell used.
    pub week: WeekId,
    /// The grid-scenario label.
    pub scenario: String,
    /// Closed-form `E_J` on the cell's (scenario-adjusted) analytic model.
    pub analytic_e_j: f64,
    /// The paper-convention `N_//` on the analytic model.
    pub analytic_n_parallel: f64,
    /// Monte-Carlo estimates from executing the protocol.
    pub estimate: MonteCarloEstimate,
}

/// Batched evaluation of a (strategy × week × grid-scenario) grid in one
/// rayon pass.
///
/// Cells are laid out strategy-major
/// (`cell = (s·|weeks| + w)·|scenarios| + g`); the flat (cell × trial)
/// index space is distributed over the thread pool as a whole, so small
/// sweeps still saturate the machine and wall-clock is bounded by total
/// work, not by the slowest cell. Outcomes are folded as they finish, so
/// the sweep never holds one outcome per trial.
#[derive(Debug, Clone)]
pub struct ScenarioSweep {
    /// Strategy instances to evaluate (plain-data form).
    pub strategies: Vec<StrategyParams>,
    /// Weeks whose calibrated models define the latency laws.
    pub weeks: Vec<WeekId>,
    /// Grid-condition variants applied to every week.
    pub scenarios: Vec<GridScenario>,
    /// Trials per cell and the sweep's master seed.
    pub config: MonteCarloConfig,
}

impl ScenarioSweep {
    /// Builds a sweep; every axis must be non-empty.
    pub fn new(
        strategies: Vec<StrategyParams>,
        weeks: Vec<WeekId>,
        scenarios: Vec<GridScenario>,
        config: MonteCarloConfig,
    ) -> Self {
        assert!(!strategies.is_empty(), "sweep needs at least one strategy");
        assert!(!weeks.is_empty(), "sweep needs at least one week");
        assert!(!scenarios.is_empty(), "sweep needs at least one scenario");
        assert!(config.trials > 0, "sweep needs at least one trial per cell");
        // executing an infeasible delayed pair would panic mid-run inside a
        // worker thread; reject it here with a pointed message instead
        for (i, s) in strategies.iter().enumerate() {
            if let StrategyParams::Delayed { t0, t_inf }
            | StrategyParams::DelayedMultiple { t0, t_inf, .. } = *s
            {
                assert!(
                    DelayedResubmission::feasible(t0, t_inf),
                    "sweep strategy {i}: infeasible delayed pair ({t0}, {t_inf})"
                );
            }
        }
        ScenarioSweep {
            strategies,
            weeks,
            scenarios,
            config,
        }
    }

    /// A single-week, baseline-scenario sweep over `strategies` — the most
    /// common validation shape.
    pub fn over_strategies(
        strategies: Vec<StrategyParams>,
        week: WeekId,
        config: MonteCarloConfig,
    ) -> Self {
        ScenarioSweep::new(
            strategies,
            vec![week],
            vec![GridScenario::baseline()],
            config,
        )
    }

    /// Number of cells in the grid.
    pub fn n_cells(&self) -> usize {
        self.strategies.len() * self.weeks.len() * self.scenarios.len()
    }

    /// Total number of engine trials the sweep will run.
    pub fn n_trials_total(&self) -> usize {
        self.n_cells() * self.config.trials
    }

    /// Evaluates the whole grid in one parallel pass.
    ///
    /// Returns one outcome per cell, in cell order. Bit-identical for any
    /// thread count: per-trial RNGs are derived from
    /// `(derive_seed(seed, cell), trial)` and the calling thread folds the
    /// outcomes in index order as the rounds finish.
    pub fn run(&self) -> Vec<ScenarioOutcome> {
        let mut cells = Vec::with_capacity(self.n_cells());
        let mut outcomes = Vec::with_capacity(self.n_cells());
        for strategy in &self.strategies {
            for &week in &self.weeks {
                let base = week.model();
                for scenario in &self.scenarios {
                    let model = scenario.apply(&base);
                    // closed forms on the scenario-adjusted parametric law
                    // (evaluated once; N_// is derived from the expectation)
                    let reference =
                        ParametricModel::new(model.body(), model.rho, model.threshold_s)
                            .expect("scenario-adjusted models stay valid");
                    let e = strategy.expected_j(&reference);
                    outcomes.push((*strategy, week, scenario.name.clone(), e));
                    cells.push(TrialCell {
                        grid: Arc::new(GridConfig::oracle(model)),
                        strategy: *strategy,
                        seed: derive_seed(self.config.seed, cells.len() as u64),
                    });
                }
            }
        }

        estimate_cells(&cells, self.config.trials, TRIAL_CHUNK)
            .into_iter()
            .zip(outcomes)
            .map(
                |(estimate, (strategy, week, scenario, analytic_e_j))| ScenarioOutcome {
                    strategy,
                    week,
                    scenario,
                    analytic_e_j,
                    analytic_n_parallel: strategy.n_parallel_for(analytic_e_j),
                    estimate,
                },
            )
            .collect()
    }
}

// --- the echelon controller ----------------------------------------------------

/// Timer-token flags: the timer of echelon `k` carries `k << 2 | flags`.
const CANCEL: u64 = 1;
const SUBMIT: u64 = 2;

/// The one client protocol behind every strategy family: submit an echelon
/// of `b` copies every `t0`, cancel each echelon `t∞` after it was
/// submitted, and on the first start of a job of a live (not yet
/// cancelled) echelon cancel every other live job. Single and multiple
/// submission are `t0 = t∞`, where one timer both cancels an echelon and
/// submits the next; delayed resubmission arms a cancel timer and a
/// next-submission timer per echelon.
///
/// An echelon's jobs have consecutive ids, so it is stored as its first id.
/// `t∞ ≤ 2·t0` keeps at most two echelons live, three for the millisecond
/// by which rounding can put `t∞` past `2·t0`, so a ring of three first ids
/// and cancel timers covers every live echelon and the controller allocates
/// nothing. When a job wins, the controller cancels the timers still
/// pending, so they never reach the engine's event loop.
pub(crate) struct EchelonCtrl {
    b: u32,
    t0: SimDuration,
    t_inf: SimDuration,
    /// Echelons submitted so far; echelon `k` starts at `first[k % 3]`.
    submitted: u64,
    /// Echelons cancelled so far: echelons `cancelled..submitted` are live.
    cancelled: u64,
    first: [JobId; 3],
    /// Echelon `k`'s cancel timer, pending while the echelon is live.
    cancel_timer: [Option<TimerId>; 3],
    /// The newest echelon's next-submission timer when `t0 < t∞`.
    submit_timer: Option<TimerId>,
    j: Option<f64>,
}

impl EchelonCtrl {
    /// Panics for an instance whose protocol cannot be executed: no copies
    /// (`b = 0`), a timeout that is not finite and positive, or an
    /// infeasible delayed pair.
    pub(crate) fn new(params: StrategyParams) -> Self {
        let (b, t0, t_inf) = params.echelon();
        assert!(b >= 1, "need at least one job per echelon, got b = {b}");
        assert!(
            t_inf.is_finite() && t_inf > 0.0,
            "timeout must be finite and positive, got {t_inf}"
        );
        assert!(
            DelayedResubmission::feasible(t0, t_inf),
            "an echelon needs a feasible pair t0 <= t_inf <= 2 t0, got ({t0}, {t_inf})"
        );
        EchelonCtrl {
            b,
            t0: SimDuration::from_secs(t0),
            t_inf: SimDuration::from_secs(t_inf),
            submitted: 0,
            cancelled: 0,
            first: [JobId(0); 3],
            cancel_timer: [None; 3],
            submit_timer: None,
            j: None,
        }
    }

    /// The realised total latency `J` in seconds, once a job has won.
    pub(crate) fn total_latency(&self) -> Option<f64> {
        self.j
    }

    /// Rewinds to the state `new` builds, so a reused controller drives a
    /// trial bit-identically to a fresh one.
    pub(crate) fn reset(&mut self) {
        self.submitted = 0;
        self.cancelled = 0;
        self.cancel_timer = [None; 3];
        self.submit_timer = None;
        self.j = None;
    }

    /// Echelon `k`'s job ids.
    fn echelon(&self, k: u64) -> Range<u64> {
        let first = self.first[(k % 3) as usize].0;
        first..first + u64::from(self.b)
    }

    fn is_live(&self, id: JobId) -> bool {
        (self.cancelled..self.submitted).any(|k| self.echelon(k).contains(&id.0))
    }

    fn submit_echelon(&mut self, sim: &mut GridSimulation) {
        debug_assert!(
            self.submitted - self.cancelled < 3,
            "a live echelon would be lost"
        );
        let (k, first) = (self.submitted, sim.submit());
        for n in 1..u64::from(self.b) {
            let id = sim.submit();
            debug_assert_eq!(id.0, first.0 + n, "an echelon's jobs must be consecutive");
        }
        self.first[(k % 3) as usize] = first;
        self.submitted += 1;
        if self.t0 == self.t_inf {
            self.cancel_timer[(k % 3) as usize] =
                Some(sim.set_timer(self.t_inf, k << 2 | CANCEL | SUBMIT));
        } else {
            self.cancel_timer[(k % 3) as usize] = Some(sim.set_timer(self.t_inf, k << 2 | CANCEL));
            self.submit_timer = Some(sim.set_timer(self.t0, k << 2 | SUBMIT));
        }
    }
}

impl Controller for EchelonCtrl {
    fn start(&mut self, sim: &mut GridSimulation) {
        self.submit_echelon(sim);
    }

    fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
        if self.j.is_some() {
            return;
        }
        match ev {
            Notification::JobStarted { id, at } if self.is_live(id) => {
                self.j = Some(at.as_secs());
                for k in self.cancelled..self.submitted {
                    for o in self.echelon(k).filter(|&o| o != id.0) {
                        sim.cancel(JobId(o));
                    }
                    let timer = self.cancel_timer[(k % 3) as usize].take();
                    sim.cancel_timer(timer.expect("a live echelon's cancel timer is pending"));
                }
                if let Some(timer) = self.submit_timer.take() {
                    sim.cancel_timer(timer);
                }
            }
            Notification::Timer { token, .. } => {
                let k = token >> 2;
                if token & CANCEL != 0 {
                    debug_assert_eq!(k, self.cancelled, "echelons are cancelled in order");
                    for o in self.echelon(k) {
                        sim.cancel(JobId(o));
                    }
                    self.cancelled += 1;
                }
                if token & SUBMIT != 0 {
                    debug_assert_eq!(
                        k + 1,
                        self.submitted,
                        "only the newest echelon has a successor"
                    );
                    self.submit_echelon(sim);
                }
            }
            _ => {}
        }
    }

    fn done(&self) -> bool {
        self.j.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::EmpiricalModel;
    use crate::strategy::optimize_timeout;
    use crate::LatencyModel;

    fn week() -> WeekModel {
        WeekModel::calibrate("mc", 500.0, 700.0, 0.10, 60.0, 10_000.0).unwrap()
    }

    /// Builds the *exact* empirical model of the oracle by sampling the
    /// model heavily — the analytic predictions are then compared on the
    /// same law the simulator draws from.
    fn reference_model(
        w: &WeekModel,
    ) -> crate::latency::ParametricModel<impl gridstrat_stats::Distribution> {
        crate::latency::ParametricModel::new(w.body(), w.rho, w.threshold_s).unwrap()
    }

    fn cfg(trials: usize) -> MonteCarloConfig {
        MonteCarloConfig { trials, seed: 1234 }
    }

    #[test]
    fn single_strategy_matches_analytic() {
        let w = week();
        let m = reference_model(&w);
        let t_inf = 700.0;
        let spec = StrategyParams::Single { t_inf };
        let analytic = spec.expected_j(&m);
        let mc = StrategyExecutor::new(w, cfg(6_000)).run(spec);
        assert_eq!(mc.completed_trials, 6_000);
        let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
        assert!(z < 4.0, "MC {} vs analytic {analytic} (z = {z})", mc.mean_j);
        // submissions per task: geometric with success prob F̃(t∞)
        let f = m.defective_cdf(t_inf);
        let expected_subs = 1.0 / f;
        assert!(
            (mc.mean_submissions - expected_subs).abs() / expected_subs < 0.05,
            "subs {} vs {expected_subs}",
            mc.mean_submissions
        );
        // exactly one job in flight at all times
        assert!((mc.mean_parallel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_strategy_matches_analytic() {
        let w = week();
        let m = reference_model(&w);
        let (b, t_inf) = (3u32, 800.0);
        let spec = StrategyParams::Multiple { b, t_inf };
        let analytic = spec.expected_j(&m);
        let mc = StrategyExecutor::new(w, cfg(6_000)).run(spec);
        let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
        assert!(z < 4.0, "MC {} vs analytic {analytic} (z = {z})", mc.mean_j);
        // the collection keeps b jobs in flight until J
        assert!(
            (mc.mean_parallel - b as f64).abs() < 0.02,
            "N {}",
            mc.mean_parallel
        );
    }

    #[test]
    fn delayed_strategy_matches_analytic() {
        let w = week();
        let m = reference_model(&w);
        let (t0, t_inf) = (400.0, 550.0);
        let analytic = DelayedResubmission::expectation(&m, t0, t_inf);
        let (_, sigma) = DelayedResubmission::moments(&m, t0, t_inf);
        let mc = StrategyExecutor::new(w, cfg(8_000)).run(StrategyParams::Delayed { t0, t_inf });
        let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
        assert!(z < 4.0, "MC {} vs analytic {analytic} (z = {z})", mc.mean_j);
        assert!(
            (mc.std_j - sigma).abs() / sigma < 0.05,
            "σ MC {} vs analytic {sigma}",
            mc.std_j
        );
        // N_// stays inside the protocol's [1, 2) band
        assert!(mc.mean_parallel >= 1.0 && mc.mean_parallel < 2.0);
    }

    #[test]
    fn generalized_delayed_matches_analytic() {
        let w = week();
        let m = reference_model(&w);
        let (b, t0, t_inf) = (2u32, 400.0, 550.0);
        let analytic = DelayedResubmission::expectation_with_copies(&m, b, t0, t_inf);
        let mc = StrategyExecutor::new(w, cfg(8_000)).run(StrategyParams::DelayedMultiple {
            b,
            t0,
            t_inf,
        });
        let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
        assert!(z < 4.0, "MC {} vs analytic {analytic} (z = {z})", mc.mean_j);
        // up to 2b jobs in flight; realised average in (b, 2b)
        assert!(mc.mean_parallel > 1.0 && mc.mean_parallel < 4.0);
    }

    #[test]
    fn delayed_n_parallel_convention_vs_realised() {
        // the paper's N_//(E_J) and the realised E[N_//(J)] should be close
        // but need not coincide — both are reported
        let w = week();
        let m = reference_model(&w);
        let (t0, t_inf) = (400.0, 550.0);
        let paper_convention = DelayedResubmission::evaluate(&m, t0, t_inf).n_parallel;
        let mc = StrategyExecutor::new(w, cfg(6_000)).run(StrategyParams::Delayed { t0, t_inf });
        assert!(
            (mc.mean_parallel - paper_convention).abs() < 0.15,
            "realised {} vs convention {paper_convention}",
            mc.mean_parallel
        );
    }

    #[test]
    fn engine_reuse_is_unobservable() {
        // 1 thread = one worker reused for every trial; as many threads as
        // trials = every trial on a freshly-built engine + controller.
        // The two extremes must agree to the bit, for every strategy
        // family (reset() correctness of each controller).
        let trials = 48usize;
        let w = week();
        for spec in [
            StrategyParams::Single { t_inf: 700.0 },
            StrategyParams::Multiple { b: 3, t_inf: 800.0 },
            StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            },
            StrategyParams::DelayedMultiple {
                b: 2,
                t0: 400.0,
                t_inf: 560.0,
            },
            // t0 = t∞: one merged timer per echelon
            StrategyParams::Delayed {
                t0: 700.0,
                t_inf: 700.0,
            },
            StrategyParams::DelayedMultiple {
                b: 3,
                t0: 800.0,
                t_inf: 800.0,
            },
            // t∞ = 2·t0 in f64, one millisecond past it once rounded, so
            // three echelons are live for that millisecond
            StrategyParams::DelayedMultiple {
                b: 2,
                t0: 200.0003,
                t_inf: 400.0006,
            },
        ] {
            let run_with = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                pool.install(|| StrategyExecutor::new(w.clone(), cfg(trials)).run(spec))
            };
            let reused = run_with(1);
            let fresh = run_with(trials);
            assert_eq!(
                reused.mean_j.to_bits(),
                fresh.mean_j.to_bits(),
                "{spec:?}: reused engine diverged from fresh"
            );
            assert_eq!(reused.std_j.to_bits(), fresh.std_j.to_bits());
            assert_eq!(
                reused.mean_submissions.to_bits(),
                fresh.mean_submissions.to_bits()
            );
            assert_eq!(
                reused.mean_parallel.to_bits(),
                fresh.mean_parallel.to_bits()
            );
        }
    }

    #[test]
    fn modulated_engine_reuse_and_thread_counts_are_unobservable() {
        // the engine_reuse_is_unobservable family under an active
        // Modulation: single-thread (one reused worker) vs one-thread-per-
        // trial (all-fresh workers) must agree to the bit when the grid
        // drifts mid-trial, for every strategy family
        use gridstrat_workload::DiurnalModel;
        let trials = 32usize;
        let w = week();
        let mut grid = GridConfig::oracle(w.clone());
        grid.modulation = Some(Arc::new(DiurnalModel::new(w, 0.7, 2_000.0).unwrap()) as Arc<_>);
        let grid = Arc::new(grid);
        for spec in [
            StrategyParams::Single { t_inf: 700.0 },
            StrategyParams::Multiple { b: 3, t_inf: 800.0 },
            StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            },
        ] {
            let run_with = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                pool.install(|| {
                    StrategyExecutor::from_grid(Arc::clone(&grid), cfg(trials)).run(spec)
                })
            };
            let reused = run_with(1);
            let fresh = run_with(trials);
            assert_eq!(
                reused.mean_j.to_bits(),
                fresh.mean_j.to_bits(),
                "{spec:?}: modulated reuse diverged from fresh"
            );
            assert_eq!(reused.std_j.to_bits(), fresh.std_j.to_bits());
            assert_eq!(
                reused.mean_parallel.to_bits(),
                fresh.mean_parallel.to_bits()
            );
        }
    }

    #[test]
    fn one_protocol_covers_every_family() {
        // every family is the echelon protocol: single resubmission is the
        // one-copy burst, and delayed resubmission at t0 = t∞ is the burst
        // of its copies, so each pair replays the same history to the bit
        let ex = StrategyExecutor::new(week(), cfg(2_000));
        for (a, b) in [
            (
                StrategyParams::Single { t_inf: 700.0 },
                StrategyParams::Multiple { b: 1, t_inf: 700.0 },
            ),
            (
                StrategyParams::Single { t_inf: 700.0 },
                StrategyParams::Delayed {
                    t0: 700.0,
                    t_inf: 700.0,
                },
            ),
            (
                StrategyParams::Multiple { b: 3, t_inf: 800.0 },
                StrategyParams::DelayedMultiple {
                    b: 3,
                    t0: 800.0,
                    t_inf: 800.0,
                },
            ),
        ] {
            let (x, y) = (ex.run(a), ex.run(b));
            assert_eq!(format!("{x:?}"), format!("{y:?}"), "{a:?} vs {b:?}");
            assert!(x.mean_submissions > 1.0, "{a:?}: no resubmission happened");
        }
    }

    /// One site, no background, no faults and a cancellation delay far
    /// above the pipeline's hop delays: a cancelled job usually reaches its
    /// slot before its cancellation does, and a second request for a job
    /// would draw a second delay.
    fn slow_cancel_grid() -> GridConfig {
        let mut grid = GridConfig::pipeline_default();
        grid.sites.truncate(1);
        grid.background = None;
        grid.faults.p_silent_loss = 0.0;
        grid.faults.p_transient_failure = 0.0;
        grid.wms.cancellation_delay_mean_s = 2_000.0;
        grid
    }

    /// The four families with `t∞` near the pipeline's latency body, so
    /// every family resubmits on [`slow_cancel_grid`].
    const SLOW_CANCEL_FAMILIES: [StrategyParams; 4] = [
        StrategyParams::Single { t_inf: 90.0 },
        StrategyParams::Multiple { b: 2, t_inf: 90.0 },
        StrategyParams::Delayed {
            t0: 60.0,
            t_inf: 90.0,
        },
        StrategyParams::DelayedMultiple {
            b: 2,
            t0: 60.0,
            t_inf: 90.0,
        },
    ];

    #[test]
    fn a_start_from_a_cancelled_echelon_never_completes_the_task() {
        // A cancelled job that starts before its cancellation lands must
        // not complete the task, and no job may be asked to cancel twice,
        // so every job but the winner gets exactly one request.
        let grid = slow_cancel_grid();
        for spec in SLOW_CANCEL_FAMILIES {
            let t_inf = crate::adaptive::timeout_of(spec);
            let mut sim = GridSimulation::new(grid.clone(), 5).expect("valid grid");
            let mut session = crate::TaskSession::new(spec);
            let mut late_starts = 0;
            for scope in 1..=40 {
                let requests = sim.stats().client_cancel_requests;
                session.begin(scope, SimDuration::ZERO);
                sim.run_controller(&mut session);
                let j = session.total_latency().expect("the task completes");
                let winner = session
                    .jobs()
                    .iter()
                    .map(|&id| sim.job(id))
                    .find(|rec| rec.started_at().map(|t| t.as_secs()) == Some(j))
                    .expect("the winner started at J");
                assert!(
                    j - winner.submitted_at().as_secs() <= t_inf,
                    "{spec:?}, task {scope}: a job started {} s after its \
                     submission, past t_inf = {t_inf}, and completed the task",
                    j - winner.submitted_at().as_secs()
                );
                assert_eq!(
                    sim.stats().client_cancel_requests - requests,
                    session.jobs().len() as u64 - 1,
                    "{spec:?}, task {scope}: every job but the winner is asked once"
                );
                late_starts += session
                    .jobs()
                    .iter()
                    .map(|&id| sim.job(id))
                    .filter(|rec| {
                        rec.started_at().is_some_and(|st| {
                            let st = st.as_secs();
                            st - rec.submitted_at().as_secs() > t_inf && st < j
                        })
                    })
                    .count();
            }
            assert!(
                late_starts > 0,
                "{spec:?}: no cancelled job started before its task completed"
            );
        }
    }

    #[test]
    fn a_trial_asks_every_job_but_the_winner_to_cancel_once() {
        // the Monte-Carlo lane: the controller's requests are the only
        // ones, so a loser whose request is still in flight at J is not
        // asked again
        let grid = Arc::new(slow_cancel_grid());
        for spec in SLOW_CANCEL_FAMILIES {
            let plan = TrialCell {
                grid: Arc::clone(&grid),
                strategy: spec,
                seed: 5,
            };
            let mut slot = None;
            let mut in_flight_at_j = 0;
            for t in 0..200 {
                let worker = TrialWorker::obtain(&mut slot, 0, &plan, derive_seed(plan.seed, t));
                worker.run().expect("the trial completes");
                let stats = worker.sim.stats();
                assert_eq!(
                    stats.client_cancel_requests,
                    stats.client_submitted - 1,
                    "{spec:?}, trial {t}: every job but the winner is asked once"
                );
                in_flight_at_j += worker
                    .sim
                    .jobs()
                    .iter()
                    .filter(|rec| rec.terminated_at().is_none() && rec.started_at().is_none())
                    .count();
            }
            assert!(
                in_flight_at_j > 0,
                "{spec:?}: no loser was still pending at J"
            );
        }
    }

    #[test]
    fn deterministic_across_repeats() {
        let w = week();
        let a =
            StrategyExecutor::new(w.clone(), cfg(300)).run(StrategyParams::Single { t_inf: 700.0 });
        let b = StrategyExecutor::new(w, cfg(300)).run(StrategyParams::Single { t_inf: 700.0 });
        assert_eq!(a.mean_j.to_bits(), b.mean_j.to_bits());
        assert_eq!(a.mean_submissions.to_bits(), b.mean_submissions.to_bits());
    }

    #[test]
    fn resample_executor_matches_empirical_model_exactly() {
        // the tightest loop: tune on a trace's ECDF, execute by resampling
        // the very same trace — analytic and simulated laws coincide, so
        // agreement is limited only by Monte-Carlo error
        let w = week();
        let trace = w.generate(2_500, 4242);
        let emp = EmpiricalModel::from_trace(&trace).unwrap();
        let ex = StrategyExecutor::from_trace(&trace, cfg(8_000));
        for (label, spec) in [
            ("single", StrategyParams::Single { t_inf: 650.0 }),
            ("multiple", StrategyParams::Multiple { b: 3, t_inf: 800.0 }),
            (
                "delayed",
                StrategyParams::Delayed {
                    t0: 400.0,
                    t_inf: 560.0,
                },
            ),
        ] {
            let analytic = spec.expected_j(&emp);
            let mc = ex.run(spec);
            let z = (mc.mean_j - analytic).abs() / mc.stderr_j;
            assert!(
                z < 4.0,
                "{label}: MC {} vs analytic {analytic} (z = {z})",
                mc.mean_j
            );
        }
    }

    #[test]
    fn empirical_model_from_simulated_trace_closes_the_loop() {
        // generate a trace from the model, fit an empirical model, and
        // check the analytic E_J on it is near the oracle-based MC
        let w = week();
        let trace = w.generate(4000, 99);
        let emp = EmpiricalModel::from_trace(&trace).unwrap();
        let t_inf = 700.0;
        let spec = StrategyParams::Single { t_inf };
        let analytic = spec.expected_j(&emp);
        let mc = StrategyExecutor::new(w, cfg(4_000)).run(spec);
        assert!(
            (mc.mean_j - analytic).abs() / analytic < 0.08,
            "trace-fitted {analytic} vs MC {}",
            mc.mean_j
        );
    }

    // --- batch makespans ----------------------------------------------------

    /// The resampled trace of the batch tests: 4,000 probes of a week with
    /// 12% outliers at the 10,000 s threshold.
    fn app_trace() -> gridstrat_workload::TraceSet {
        WeekModel::calibrate("app", 500.0, 650.0, 0.12, 150.0, 10_000.0)
            .unwrap()
            .generate(4_000, 77)
    }

    fn batch_executor(batches: usize, seed: u64) -> StrategyExecutor {
        StrategyExecutor::from_trace(
            &app_trace(),
            MonteCarloConfig {
                trials: batches,
                seed,
            },
        )
    }

    #[test]
    fn a_batch_of_one_matches_the_closed_forms() {
        // a one-task batch is one draw of J; a timeout past the trace
        // threshold resubmits outliers at t∞, not at the threshold
        let model = EmpiricalModel::from_trace(&app_trace()).unwrap();
        for (spec, batches) in [
            (StrategyParams::Single { t_inf: 700.0 }, 60_000),
            (StrategyParams::Multiple { b: 3, t_inf: 800.0 }, 60_000),
            (
                StrategyParams::Delayed {
                    t0: 400.0,
                    t_inf: 560.0,
                },
                60_000,
            ),
            (StrategyParams::Single { t_inf: 15_000.0 }, 100_000),
            (
                StrategyParams::Multiple {
                    b: 2,
                    t_inf: 15_000.0,
                },
                100_000,
            ),
        ] {
            let analytic = spec.expected_j(&model);
            let batch = batch_executor(batches, 1).run_batch(spec, 1);
            assert!(
                (batch.mean_latency - analytic).abs() / analytic < 0.02,
                "{spec:?}: engine {} vs closed form {analytic}",
                batch.mean_latency
            );
        }
    }

    #[test]
    fn run_batch_is_identical_across_thread_counts() {
        // 3 batches of 3,000 tasks: the third batch straddles the first
        // chunk's end, so its fold spans two lanes' outputs
        let ex = batch_executor(3, 8);
        for spec in [
            StrategyParams::Multiple { b: 2, t_inf: 800.0 },
            StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            },
        ] {
            let runs: Vec<String> = [1, 2, 3, 7]
                .into_iter()
                .map(|threads| format!("{:?}", on_threads(threads, || ex.run_batch(spec, 3_000))))
                .collect();
            assert!(runs.iter().all(|r| *r == runs[0]), "{spec:?}: {runs:?}");
        }
    }

    #[test]
    fn makespan_grows_with_batch_size() {
        let ex = batch_executor(300, 2);
        let spec = StrategyParams::Single { t_inf: 700.0 };
        let small = ex.run_batch(spec, 10);
        let large = ex.run_batch(spec, 1_000);
        assert!(large.mean_makespan > small.mean_makespan);
        // mean per-task latency is batch-size independent
        assert!((large.mean_latency - small.mean_latency).abs() / small.mean_latency < 0.1);
        assert!(large.p95_makespan >= large.mean_makespan);
    }

    #[test]
    fn multiple_submission_crushes_the_makespan_tail() {
        // the strategy's variance reduction matters MORE at batch level:
        // the b=5 makespan must beat single's by a larger factor than the
        // mean-latency improvement
        let model = EmpiricalModel::from_trace(&app_trace()).unwrap();
        let single_t = optimize_timeout(&model, 1).timeout;
        let multi_t = optimize_timeout(&model, 5).timeout;
        let ex = batch_executor(200, 3);
        let b1 = ex.run_batch(StrategyParams::Single { t_inf: single_t }, 500);
        let b5 = ex.run_batch(
            StrategyParams::Multiple {
                b: 5,
                t_inf: multi_t,
            },
            500,
        );
        let mean_gain = b1.mean_latency / b5.mean_latency;
        let makespan_gain = b1.mean_makespan / b5.mean_makespan;
        assert!(
            makespan_gain > mean_gain,
            "makespan gain {makespan_gain} should exceed mean gain {mean_gain}"
        );
        assert!(makespan_gain > 2.0);
    }

    #[test]
    fn batch_is_deterministic_in_seed() {
        let spec = StrategyParams::Delayed {
            t0: 300.0,
            t_inf: 450.0,
        };
        let a = batch_executor(100, 9).run_batch(spec, 50);
        let b = batch_executor(100, 9).run_batch(spec, 50);
        assert_eq!(a.mean_makespan.to_bits(), b.mean_makespan.to_bits());
    }

    #[test]
    #[should_panic(expected = "feasible pair")]
    fn run_batch_rejects_infeasible_delayed() {
        batch_executor(4, 0).run_batch(
            StrategyParams::Delayed {
                t0: 100.0,
                t_inf: 500.0,
            },
            10,
        );
    }

    #[test]
    #[should_panic(expected = "strategy cannot complete")]
    fn run_batch_panics_when_a_task_never_starts() {
        let mut grid = GridConfig::oracle(week());
        grid.horizon = SimDuration::from_secs(450.0);
        StrategyExecutor::from_grid(grid, cfg(20))
            .run_batch(StrategyParams::Single { t_inf: 700.0 }, 5);
    }

    // --- scenario sweep ------------------------------------------------------

    fn small_sweep(seed: u64, trials: usize) -> ScenarioSweep {
        ScenarioSweep::new(
            vec![
                StrategyParams::Single { t_inf: 700.0 },
                StrategyParams::Multiple { b: 2, t_inf: 800.0 },
                StrategyParams::Delayed {
                    t0: 400.0,
                    t_inf: 560.0,
                },
            ],
            vec![WeekId::W2006Ix, WeekId::W2007_51],
            vec![
                GridScenario::baseline(),
                GridScenario::new("faulty", 2.0, 1.0),
            ],
            MonteCarloConfig { trials, seed },
        )
    }

    #[test]
    fn sweep_shape_and_cell_order() {
        let sweep = small_sweep(7, 50);
        assert_eq!(sweep.n_cells(), 12);
        assert_eq!(sweep.n_trials_total(), 600);
        let out = sweep.run();
        assert_eq!(out.len(), 12);
        // strategy-major, then week, then scenario
        assert_eq!(out[0].scenario, "baseline");
        assert_eq!(out[1].scenario, "faulty");
        assert_eq!(out[0].week, WeekId::W2006Ix);
        assert_eq!(out[2].week, WeekId::W2007_51);
        assert!(matches!(out[0].strategy, StrategyParams::Single { .. }));
        assert!(matches!(out[4].strategy, StrategyParams::Multiple { .. }));
        assert!(matches!(out[8].strategy, StrategyParams::Delayed { .. }));
    }

    #[test]
    fn sweep_matches_analytic_per_cell() {
        let out = ScenarioSweep::over_strategies(
            vec![
                StrategyParams::Single { t_inf: 700.0 },
                StrategyParams::Multiple { b: 3, t_inf: 800.0 },
            ],
            WeekId::W2006Ix,
            MonteCarloConfig {
                trials: 4_000,
                seed: 0xCE11,
            },
        )
        .run();
        for cell in &out {
            let z = (cell.estimate.mean_j - cell.analytic_e_j).abs() / cell.estimate.stderr_j;
            assert!(
                z < 4.5,
                "{:?}/{}: MC {} vs analytic {} (z = {z})",
                cell.strategy,
                cell.scenario,
                cell.estimate.mean_j,
                cell.analytic_e_j
            );
        }
    }

    #[test]
    fn sweep_scenarios_shift_the_law_as_configured() {
        let out = ScenarioSweep::new(
            vec![StrategyParams::Single { t_inf: 700.0 }],
            vec![WeekId::W2006Ix],
            vec![
                GridScenario::baseline(),
                GridScenario::new("slow", 1.0, 1.5),
                GridScenario::new("faulty", 3.0, 1.0),
            ],
            MonteCarloConfig {
                trials: 2_000,
                seed: 5,
            },
        )
        .run();
        // slower grid and faultier grid both push E_J up
        assert!(
            out[1].analytic_e_j > out[0].analytic_e_j,
            "latency scale had no effect"
        );
        assert!(
            out[2].analytic_e_j > out[0].analytic_e_j,
            "fault scale had no effect"
        );
        assert!(out[1].estimate.mean_j > out[0].estimate.mean_j);
        assert!(out[2].estimate.mean_j > out[0].estimate.mean_j);
    }

    #[test]
    fn sweep_identical_across_thread_counts() {
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| small_sweep(99, 200).run())
        };
        let a = run_with(1);
        let b = run_with(5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.estimate.mean_j.to_bits(), y.estimate.mean_j.to_bits());
            assert_eq!(x.estimate.std_j.to_bits(), y.estimate.std_j.to_bits());
            assert_eq!(
                x.estimate.mean_parallel.to_bits(),
                y.estimate.mean_parallel.to_bits()
            );
        }
    }

    #[test]
    fn sweep_identical_under_rayon_num_threads_env() {
        // the env knob users actually reach for must not change results.
        // NOTE: mutates process-global env for a short window. This is
        // sound here because every env access in this workspace goes
        // through std::env (set_var/var share std's internal env lock) and
        // the dependency tree is pure Rust — no FFI code reads the
        // environment concurrently via raw getenv. Concurrent tests may
        // briefly run single-threaded, but their *results* are
        // thread-count-independent by design, so only wall-clock shifts.
        let before = small_sweep(3, 120).run();
        let prev = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let after = small_sweep(3, 120).run();
        match prev {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        for (x, y) in before.iter().zip(&after) {
            assert_eq!(x.estimate.mean_j.to_bits(), y.estimate.mean_j.to_bits());
        }
    }

    // --- streamed fold vs the collect-everything oracle ----------------------

    /// The pre-streaming path: every trial of every cell runs on a fresh
    /// worker, all outcomes are collected, then each cell is folded.
    fn collect_then_aggregate(cells: &[TrialCell], trials: usize) -> Vec<MonteCarloEstimate> {
        let outcomes: Vec<Vec<Option<[f64; 3]>>> = cells
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                (0..trials)
                    .map(|t| {
                        let seed = derive_seed(plan.seed, t as u64);
                        TrialWorker::obtain(&mut None, c, plan, seed).run()
                    })
                    .collect()
            })
            .collect();
        outcomes
            .iter()
            .map(|cell| {
                let (mut j, mut subs, mut par) = (Summary::new(), Summary::new(), Summary::new());
                for &[a, b, c] in cell.iter().flatten() {
                    j.push(a);
                    subs.push(b);
                    par.push(c);
                }
                MonteCarloEstimate {
                    mean_j: j.mean(),
                    stderr_j: j.stderr(),
                    std_j: j.std(),
                    mean_submissions: subs.mean(),
                    mean_parallel: par.mean(),
                    completed_trials: j.count() as usize,
                }
            })
            .collect()
    }

    fn on_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(f)
    }

    #[test]
    fn streamed_cells_match_the_collect_then_aggregate_oracle() {
        // 37 trials per cell: not a multiple of any chunk or lane count
        // below, so rounds end mid-chunk and chunks straddle cells. The
        // second grid's horizon cuts trials short (outcome `None`).
        let w = week();
        let mut cut = GridConfig::oracle(w.clone());
        cut.horizon = SimDuration::from_secs(450.0);
        let (full, cut) = (Arc::new(GridConfig::oracle(w)), Arc::new(cut));
        let single = StrategyParams::Single { t_inf: 700.0 };
        let delayed = StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        };
        let cells = [
            TrialCell {
                grid: Arc::clone(&full),
                strategy: single,
                seed: 11,
            },
            TrialCell {
                grid: Arc::clone(&cut),
                strategy: delayed,
                seed: 12,
            },
            TrialCell {
                grid: full,
                strategy: delayed,
                seed: 13,
            },
        ];
        let trials = 37;
        let oracle = collect_then_aggregate(&cells, trials);
        let cut_done = oracle[1].completed_trials;
        assert!(
            cut_done > 0 && cut_done < trials,
            "the horizon must cut some trials, not all ({cut_done} of {trials} completed)"
        );
        for chunk in [1, 5, 8, 40, TRIAL_CHUNK] {
            for threads in [1, 2, 3, 7] {
                let streamed = on_threads(threads, || estimate_cells(&cells, trials, chunk));
                assert_eq!(
                    format!("{streamed:?}"),
                    format!("{oracle:?}"),
                    "chunk {chunk}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sweep_and_executor_match_the_oracle_across_full_chunks() {
        // one trial more than a chunk: the second chunk runs into the next
        // cell, and the last round is a single trial
        let trials = TRIAL_CHUNK + 1;
        let sweep = ScenarioSweep::over_strategies(
            vec![
                StrategyParams::Single { t_inf: 700.0 },
                StrategyParams::Multiple { b: 2, t_inf: 800.0 },
            ],
            WeekId::W2007_51,
            MonteCarloConfig { trials, seed: 21 },
        );
        let grid = Arc::new(GridConfig::oracle(WeekId::W2007_51.model()));
        let cells: Vec<TrialCell> = sweep
            .strategies
            .iter()
            .enumerate()
            .map(|(c, &strategy)| TrialCell {
                grid: Arc::clone(&grid),
                strategy,
                seed: derive_seed(21, c as u64),
            })
            .collect();
        let oracle = collect_then_aggregate(&cells, trials);
        for threads in [1, 2, 3, 7] {
            let out = on_threads(threads, || sweep.run());
            let streamed: Vec<MonteCarloEstimate> = out.iter().map(|o| o.estimate).collect();
            assert_eq!(
                format!("{streamed:?}"),
                format!("{oracle:?}"),
                "{threads} threads"
            );
        }
        // the executor is the one-cell case of the same trial loop
        let exec = StrategyExecutor::new(
            WeekId::W2007_51.model(),
            MonteCarloConfig {
                trials,
                seed: cells[1].seed,
            },
        );
        let one = on_threads(3, || exec.run(sweep.strategies[1]));
        assert_eq!(format!("{one:?}"), format!("{:?}", oracle[1]));
    }

    #[test]
    fn grid_scenario_apply_scales_fields() {
        let w = week();
        let s = GridScenario::new("x", 2.0, 1.25);
        let out = s.apply(&w);
        assert!((out.rho - 0.2).abs() < 1e-12);
        assert!((out.shift_s - w.shift_s * 1.25).abs() < 1e-12);
        // body mean scales linearly with the latency scale
        assert!((out.body_mean() - w.body_mean() * 1.25).abs() / w.body_mean() < 1e-9);
        assert!(out.name.contains(":x"));
        // extreme fault scaling clamps at the shared ceiling
        assert_eq!(
            GridScenario::new("f", 100.0, 1.0).apply(&w).rho,
            MAX_FAULT_RATIO
        );
    }

    #[test]
    fn fault_clamp_saturates_identically_across_all_scaling_paths() {
        // Regression for the clamp drift: `GridScenario::apply` saturated
        // ρ at 0.9 while `apply_grid` (pipeline overlay) and the
        // nonstationary models saturated at 0.95. All fault-scaling paths
        // must hit exactly MAX_FAULT_RATIO.
        let w = week(); // rho = 0.10
        let scale = 1_000.0;

        // path 1: oracle week-model overlay
        let via_apply = GridScenario::new("sat", scale, 1.0).apply(&w).rho;

        // path 2: pipeline fault-probability overlay
        let mut pipeline = GridConfig::pipeline_default();
        pipeline.faults.p_silent_loss = 0.10;
        pipeline.faults.p_transient_failure = 0.10;
        let overlaid = GridScenario::new("sat", scale, 1.0).apply_grid(&pipeline);
        let via_apply_grid = overlaid.faults.p_silent_loss;

        // path 3: oracle mode through apply_grid (delegates to apply)
        let via_grid_oracle = match GridScenario::new("sat", scale, 1.0)
            .apply_grid(&GridConfig::oracle(w.clone()))
            .latency
        {
            LatencyMode::Oracle(m) => m.rho,
            other => panic!("latency mode changed: {other:?}"),
        };

        // path 4: the nonstationary models' instantaneous fault ratio
        let diurnal = gridstrat_workload::DiurnalModel::new(
            WeekModel::calibrate("hot", 500.0, 700.0, 0.8, 60.0, 10_000.0).unwrap(),
            0.9,
            86_400.0,
        )
        .unwrap();
        let via_rho_at = diurnal.rho_at(21_600.0); // intensity 1.9 → 1.52 pre-clamp
        let via_modulated = w.modulated(1.0, scale).rho;

        for (label, got) in [
            ("GridScenario::apply", via_apply),
            ("GridScenario::apply_grid (pipeline)", via_apply_grid),
            ("GridScenario::apply_grid (oracle)", via_grid_oracle),
            ("DiurnalModel::rho_at", via_rho_at),
            ("WeekModel::modulated", via_modulated),
        ] {
            assert_eq!(
                got.to_bits(),
                MAX_FAULT_RATIO.to_bits(),
                "{label} saturated at {got}, want MAX_FAULT_RATIO"
            );
        }
        assert!(overlaid.validate().is_ok());
    }

    #[test]
    fn grid_scenario_apply_grid_scales_pipeline_and_oracle() {
        // pipeline: hop delays scale, fault probabilities scale and clamp
        let base = GridConfig::pipeline_default();
        let s = GridScenario::new("stress", 3.0, 2.0);
        let out = s.apply_grid(&base);
        assert!((out.wms.matchmaking_mean_s - base.wms.matchmaking_mean_s * 2.0).abs() < 1e-12);
        assert!((out.wms.ui_to_wms_mean_s - base.wms.ui_to_wms_mean_s * 2.0).abs() < 1e-12);
        assert!((out.faults.p_silent_loss - base.faults.p_silent_loss * 3.0).abs() < 1e-12);
        let extreme = GridScenario::new("melt", 1000.0, 1.0).apply_grid(&base);
        assert!(extreme.faults.p_silent_loss <= 0.95);
        assert!(extreme.validate().is_ok(), "overlay must stay valid");

        // oracle: delegates to the week-model overlay
        let w = week();
        let oracle = GridConfig::oracle(w.clone());
        let out = GridScenario::new("x", 2.0, 1.25).apply_grid(&oracle);
        match &out.latency {
            gridstrat_sim::LatencyMode::Oracle(m) => {
                assert!((m.rho - w.rho * 2.0).abs() < 1e-12);
            }
            other => panic!("latency mode changed: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one strategy")]
    fn sweep_rejects_empty_axes() {
        ScenarioSweep::new(
            vec![],
            vec![WeekId::W2006Ix],
            vec![GridScenario::baseline()],
            MonteCarloConfig::default(),
        );
    }
}
