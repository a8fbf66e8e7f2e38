//! Online-adapting strategies on nonstationary live grids, with regret
//! accounting.
//!
//! The paper tunes each strategy's timeout *offline* against a known,
//! stationary weekly law, while stressing (§1) that production workloads
//! are "high and non-stationary". This module measures exactly what that
//! mismatch costs and how much online adaptation claws back:
//!
//! * [`run_fixed_sequence`] / [`run_adaptive_sequence`] — a **task
//!   sequence harness**: one engine runs many tasks back to back, so the
//!   simulation clock sweeps across the grid's [`Modulation`] (diurnal
//!   cycles, regime shifts) and each task experiences the instantaneous
//!   law of its launch time. Each task runs in a [`TaskSession`] over the
//!   engine's client-scope hooks (owner-tagged jobs, namespaced timers), so
//!   a stale echo of a finished task can never corrupt the next task's
//!   protocol state.
//! * **Online adaptation** — [`run_adaptive_sequence`] starts from an
//!   (offline-tuned) [`StrategyParams`] and, between tasks, feeds its
//!   *own* per-job observations (exact latencies of started jobs,
//!   right-censored waits of abandoned ones) into a [`StreamingEcdf`] and
//!   re-tunes the free parameters every `retune_every` tasks, according to
//!   an [`AdaptiveConfig`] and its [`RetunePolicy`].
//! * [`RegretFrontier`] — the per-instant omniscient benchmark: at each
//!   task's launch time the frozen modulated law is known analytically, so
//!   the optimum `E*_J` an oracle-tuned strategy of the same family would
//!   achieve *at that instant* is computable. Per-task regret is
//!   `J_i − E*_J(τ_i)`; its mean separates "the grid drifted" (which hits
//!   everyone) from "my timeout was stale" (which adaptation removes).
//! * [`AdaptiveSweep`] — a (modulation amplitude × retune period) grid
//!   comparing tuned-once against online-retuned strategies in one
//!   parallel pass, bit-identical for any thread count.
//!
//! Everything here is deterministic: the engine is single-threaded, the
//! estimator and retuning consume no randomness, and sweep cells derive
//! their seeds from `(master, cell)`.

use crate::cost::StrategyParams;
use crate::latency::{LatencyModel, ParametricModel};
use crate::session::TaskSession;
use crate::strategy::Strategy;
use gridstrat_sim::{GridConfig, GridSimulation, Modulation, SimDuration};
use gridstrat_stats::rng::derive_seed;
use gridstrat_stats::StreamingEcdf;
use gridstrat_workload::{DiurnalModel, WeekModel};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// How an adaptive run turns its observation stream into new parameters
/// at a retune point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetunePolicy {
    /// Purely empirical: re-tune on the window's censoring-aware ECDF
    /// snapshot. Because a user can never observe latencies beyond its own
    /// timeout, the snapshot alone can only *shrink* timeouts; when the
    /// exponentially-decayed censored fraction exceeds
    /// `max_censored_fraction` the policy instead **grows** every timeout
    /// by `growth` (multiplicative backoff) — the probe that lets it
    /// recover when the grid slows past the current timeout.
    EmpiricalBackoff {
        /// Decayed censored fraction above which the policy backs off
        /// (grows timeouts) instead of tuning on the snapshot.
        max_censored_fraction: f64,
        /// Multiplicative timeout growth applied when backing off (> 1).
        growth: f64,
    },
    /// Scale-tracking against the offline prior: estimate the current
    /// load-intensity factor `θ̂` by matching the exponentially-decayed
    /// mean of the user's *own task completions* to the analytic
    /// `E_J(params; prior scaled by θ)` — monotone in `θ` and free of the
    /// censoring truncation, since a completed task's latency is always
    /// fully observed — then re-tune on the prior scaled by `θ̂` (queue
    /// wait and fault ratio both, mirroring how the grid modulations
    /// couple them). Upward- and downward-capable, because the prior
    /// supplies the unobservable tail shape. Requires the prior law, so it
    /// is only active inside [`run_adaptive_sequence`]; elsewhere (e.g.
    /// fleet agents on an emergent pipeline law) it degrades to the
    /// empirical-snapshot retune.
    ScaledPrior,
}

/// Configuration of the online-adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Re-tune after every this many completed tasks.
    pub retune_every: usize,
    /// Observation-window capacity of the streaming estimator.
    pub window: usize,
    /// Exponential decay factor of the estimator's scalar summaries.
    pub decay: f64,
    /// Minimum started-job observations in the window before any retune
    /// touches the parameters.
    pub min_body: usize,
    /// The retuning policy.
    pub policy: RetunePolicy,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        // tracking a diurnal cycle of ~150 tasks needs a short memory:
        // decay 0.9 weights roughly the last 10 observations, so the
        // intensity estimate lags the cycle by only a few percent of a
        // period — a window spanning a large fraction of the period would
        // average the drift away and adapt to nothing
        AdaptiveConfig {
            retune_every: 5,
            window: 150,
            decay: 0.9,
            min_body: 10,
            policy: RetunePolicy::ScaledPrior,
        }
    }
}

impl AdaptiveConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.retune_every == 0 {
            return Err("retune_every must be at least 1".into());
        }
        if self.window == 0 {
            return Err("window must hold at least one observation".into());
        }
        if !(self.decay.is_finite() && self.decay > 0.0 && self.decay <= 1.0) {
            return Err(format!("decay must be in (0, 1], got {}", self.decay));
        }
        if let RetunePolicy::EmpiricalBackoff {
            max_censored_fraction,
            growth,
        } = self.policy
        {
            if !(max_censored_fraction.is_finite() && (0.0..1.0).contains(&max_censored_fraction)) {
                return Err(format!(
                    "max_censored_fraction must be in [0, 1), got {max_censored_fraction}"
                ));
            }
            if !(growth.is_finite() && growth > 1.0) {
                return Err(format!("backoff growth must exceed 1, got {growth}"));
            }
        }
        Ok(())
    }
}

/// The cancellation timeout `t∞` every strategy family carries.
pub fn timeout_of(p: StrategyParams) -> f64 {
    match p {
        StrategyParams::Single { t_inf }
        | StrategyParams::Multiple { t_inf, .. }
        | StrategyParams::Delayed { t_inf, .. }
        | StrategyParams::DelayedMultiple { t_inf, .. } => t_inf,
    }
}

/// Whether an abandoned job's waiting time is *timeout-censoring
/// evidence*: only waits that reached the timeout in effect say anything
/// about the latency law's tail. Jobs a controller cancels early —
/// redundant burst/delayed copies dropped **because the task already
/// succeeded** — are protocol cleanup, not censoring: for `Multiple{b}`
/// exactly `b−1` of every `b` jobs end that way, so counting them would
/// put a structural `(b−1)/b` floor under the censored fraction (falsely
/// triggering the backoff probe on a perfectly calm grid) and inflate the
/// snapshot ECDF's outlier mass for every multi-copy family.
pub fn is_timeout_censored(waited: f64, t_inf: f64) -> bool {
    waited >= 0.999 * t_inf
}

/// Scales every timeout of a strategy by `factor`, capping `t∞` at
/// `max_t_inf`. Delayed pairs are scaled uniformly, so feasibility
/// (`t0 ≤ t∞ ≤ 2·t0`) is preserved exactly.
fn scale_timeouts(p: StrategyParams, factor: f64, max_t_inf: f64) -> StrategyParams {
    let f = |t_inf: f64| ((t_inf * factor).min(max_t_inf) / t_inf).max(f64::MIN_POSITIVE);
    match p {
        StrategyParams::Single { t_inf } => StrategyParams::Single {
            t_inf: t_inf * f(t_inf),
        },
        StrategyParams::Multiple { b, t_inf } => StrategyParams::Multiple {
            b,
            t_inf: t_inf * f(t_inf),
        },
        StrategyParams::Delayed { t0, t_inf } => {
            let s = f(t_inf);
            StrategyParams::Delayed {
                t0: t0 * s,
                t_inf: t_inf * s,
            }
        }
        StrategyParams::DelayedMultiple { b, t0, t_inf } => {
            let s = f(t_inf);
            StrategyParams::DelayedMultiple {
                b,
                t0: t0 * s,
                t_inf: t_inf * s,
            }
        }
    }
}

/// The analytic expected task latency of `params` on the prior scaled by
/// load factor `θ` (queue wait and fault ratio both, mirroring how the
/// grid modulations couple them). Test oracle for the policy table.
#[cfg(test)]
fn expected_j_at_scale(prior: &WeekModel, params: StrategyParams, theta: f64) -> f64 {
    let law = prior.modulated(theta, theta);
    match ParametricModel::new(law.body(), law.rho, law.threshold_s) {
        Ok(model) => params.expected_j(&model),
        Err(_) => f64::NAN,
    }
}

/// The θ bracket every scale-tracking component works over.
const THETA_LO: f64 = 0.05;
const THETA_HI: f64 = 20.0;

/// A precomputed θ-indexed retuning policy: on a log-spaced grid of load
/// factors over `[0.05, 20]`, the family's re-tuned parameters on the
/// θ-scaled prior and the optimal expected latency `E*_J(θ)` they achieve.
///
/// This is what a real user would compute *offline* from last week's
/// calibration ("if the grid runs at θ× its usual load, my timeout should
/// be …"); online adaptation then reduces to estimating θ̂ and looking the
/// answer up — no quadrature on the retune path, and the same table
/// serves the regret frontier's per-instant optimum.
struct ScalePolicy {
    /// The tuner the table was built with, shared with the sequence
    /// harness and the regret frontier.
    tuner: FastTuner,
    log_thetas: Vec<f64>,
    params: Vec<StrategyParams>,
    e_star: Vec<f64>,
}

impl ScalePolicy {
    const POINTS: usize = 65;

    fn build(prior: &WeekModel, family: StrategyParams, max_t_inf: f64, tuner: FastTuner) -> Self {
        let (lo, hi) = (THETA_LO.ln(), THETA_HI.ln());
        // independent tunes; the ordered collect keeps the table
        // bit-identical for any thread count
        let points: Vec<(f64, (StrategyParams, f64))> = (0..Self::POINTS)
            .into_par_iter()
            .map(|k| {
                let log_theta = lo + (hi - lo) * k as f64 / (Self::POINTS - 1) as f64;
                let theta = log_theta.exp();
                let law = prior.modulated(theta, theta);
                let model = ParametricModel::new(law.body(), law.rho, law.threshold_s)
                    .expect("scaled priors stay valid");
                let tuned = scale_timeouts(tuner.tune(family, &model), 1.0, max_t_inf);
                (log_theta, (tuned, tuned.expected_j(&model)))
            })
            .collect();
        let (log_thetas, (params, e_star)) = points.into_iter().unzip();
        ScalePolicy {
            tuner,
            log_thetas,
            params,
            e_star,
        }
    }

    /// Index of the grid point nearest to `theta` in log space.
    fn nearest(&self, theta: f64) -> usize {
        let lt = theta.clamp(THETA_LO, THETA_HI).ln();
        let j = self.log_thetas.partition_point(|&x| x < lt);
        if j == 0 {
            return 0;
        }
        if j >= self.log_thetas.len() {
            return self.log_thetas.len() - 1;
        }
        if lt - self.log_thetas[j - 1] <= self.log_thetas[j] - lt {
            j - 1
        } else {
            j
        }
    }

    /// The re-tuned parameters for an estimated load factor.
    fn params_for(&self, theta: f64) -> StrategyParams {
        self.params[self.nearest(theta)]
    }

    /// The oracle-optimal expected latency at load factor `theta`
    /// (log-linear interpolation between grid points).
    fn e_star_at(&self, theta: f64) -> f64 {
        let lt = theta.clamp(THETA_LO, THETA_HI).ln();
        let j = self.log_thetas.partition_point(|&x| x < lt);
        if j == 0 {
            return self.e_star[0];
        }
        if j >= self.log_thetas.len() {
            return *self.e_star.last().expect("non-empty table");
        }
        let w = (lt - self.log_thetas[j - 1]) / (self.log_thetas[j] - self.log_thetas[j - 1]);
        self.e_star[j - 1] * (1.0 - w) + self.e_star[j] * w
    }

    /// Inverts the (monotone) `E*_J(θ)` curve at an observed mean task
    /// latency — the scale-tracking estimate `θ̂`. Observations outside
    /// the attainable range clamp to the bracket.
    fn invert_mean_j(&self, observed: f64) -> f64 {
        if !observed.is_finite() {
            return 1.0;
        }
        if observed <= self.e_star[0] {
            return THETA_LO;
        }
        let last = *self.e_star.last().expect("non-empty table");
        if observed >= last {
            return THETA_HI;
        }
        let j = self.e_star.partition_point(|&e| e < observed);
        let w = (observed - self.e_star[j - 1]) / (self.e_star[j] - self.e_star[j - 1]);
        (self.log_thetas[j - 1] * (1.0 - w) + self.log_thetas[j] * w).exp()
    }
}

/// The scale-tracking state of a [`RetunePolicy::ScaledPrior`] run: an
/// exponentially-decayed mean of the user's own task latencies plus the
/// geometrically-damped intensity estimate (damping halves the tracker's
/// variance — task latencies are noisy — at the cost of one retune period
/// of extra lag).
#[derive(Debug, Clone, Copy)]
struct ScaleTracker {
    theta: f64,
    ew_j: f64,
    ew_w: f64,
    decay: f64,
}

impl ScaleTracker {
    fn new(decay: f64) -> Self {
        ScaleTracker {
            theta: 1.0,
            ew_j: 0.0,
            ew_w: 0.0,
            decay,
        }
    }

    fn observe_task(&mut self, j: f64) {
        self.ew_j = self.decay * self.ew_j + j;
        self.ew_w = self.decay * self.ew_w + 1.0;
    }

    fn mean_j(&self) -> f64 {
        self.ew_j / self.ew_w
    }

    /// One tracking step: raw estimate from the latest decayed mean,
    /// geometrically blended with the previous estimate.
    fn update(&mut self, policy: &ScalePolicy) -> f64 {
        let raw = policy.invert_mean_j(self.mean_j());
        self.theta = (self.theta * raw).sqrt();
        self.theta
    }
}

/// Re-tunes a strategy family on a model, with an optional fast path for
/// the delayed family: a full 2-D `(t0, t∞)` search per retune (or per
/// regret-frontier bucket) is two orders of magnitude more quadrature than
/// the 1-D searches, and the paper itself observes that the optimal
/// `t∞/t0` ratio is stable across laws (§7) — so the ratio is fixed once
/// at its prior-optimal value and only the scale is re-optimised. Each
/// entry point builds one tuner and hands it to everything it runs.
#[derive(Debug, Clone, Copy)]
struct FastTuner {
    delayed_ratio: Option<f64>,
}

impl FastTuner {
    /// A tuner with no precomputation: every family gets the full search.
    fn full() -> Self {
        FastTuner {
            delayed_ratio: None,
        }
    }

    /// Reads the delayed ratio off parameters already tuned on the prior
    /// (no-op for other families).
    fn from_tuned(tuned: StrategyParams) -> Self {
        let delayed_ratio = match tuned {
            StrategyParams::Delayed { t0, t_inf } => Some((t_inf / t0).clamp(1.0, 2.0)),
            _ => None,
        };
        FastTuner { delayed_ratio }
    }

    /// Optimises the delayed ratio on the prior week: one 2-D search for
    /// the delayed family, none for the others or for an invalid prior.
    fn for_family(family: StrategyParams, prior: &WeekModel) -> Self {
        match (
            family,
            ParametricModel::new(prior.body(), prior.rho, prior.threshold_s),
        ) {
            (StrategyParams::Delayed { .. }, Ok(model)) => Self::from_tuned(family.tune(&model)),
            _ => Self::full(),
        }
    }

    fn tune(&self, family: StrategyParams, model: &dyn LatencyModel) -> StrategyParams {
        match (family, self.delayed_ratio) {
            (StrategyParams::Delayed { .. }, Some(ratio)) => {
                let opt = crate::strategy::DelayedResubmission::optimize_with_ratio(model, ratio);
                StrategyParams::Delayed {
                    t0: opt.t0,
                    t_inf: opt.t_inf,
                }
            }
            _ => family.tune(model),
        }
    }
}

/// One estimator-driven retune step: maps the current parameters plus the
/// observation stream to new parameters. Shared by the single-user
/// harness and the fleet's adaptive agents. The
/// [`RetunePolicy::ScaledPrior`] *scale-tracking* loop needs the task-mean
/// state only the sequence harness holds, so here (and for agents with no
/// prior law) it degrades to the conservative empirical-snapshot retune.
pub fn retune_params(
    params: StrategyParams,
    estimator: &StreamingEcdf,
    config: &AdaptiveConfig,
) -> StrategyParams {
    retune_with(params, estimator, config, &FastTuner::full())
}

fn retune_with(
    params: StrategyParams,
    estimator: &StreamingEcdf,
    config: &AdaptiveConfig,
    tuner: &FastTuner,
) -> StrategyParams {
    if estimator.n_body() < config.min_body {
        return params;
    }
    let max_t_inf = 0.99 * estimator.threshold();
    if let RetunePolicy::EmpiricalBackoff {
        max_censored_fraction,
        growth,
    } = config.policy
    {
        let censored = estimator.decayed_censored_fraction();
        if censored.is_finite() && censored > max_censored_fraction {
            return scale_timeouts(params, growth, max_t_inf);
        }
    }
    match estimator.snapshot() {
        Ok(snapshot) => {
            let model = crate::latency::EmpiricalModel::from_ecdf(snapshot);
            scale_timeouts(tuner.tune(params, &model), 1.0, max_t_inf)
        }
        Err(_) => params,
    }
}

// --- task-sequence harness ----------------------------------------------------

/// One completed task of a sequence run.
#[derive(Debug, Clone, Copy)]
pub struct TaskRecord {
    /// Launch instant on the engine clock, seconds.
    pub launched_at: f64,
    /// Realised total latency `J` of the task, seconds.
    pub latency: f64,
    /// The timeout `t∞` in effect while the task ran.
    pub t_inf: f64,
}

/// Outcome of a task-sequence run.
#[derive(Debug, Clone)]
pub struct SequenceOutcome {
    /// Completed tasks in launch order (may be shorter than requested if
    /// the engine horizon cut the run).
    pub tasks: Vec<TaskRecord>,
    /// Total client submissions over the run.
    pub submissions: u64,
    /// Number of retunes that changed the parameters.
    pub retunes: usize,
    /// Parameters in effect when the run ended.
    pub final_params: StrategyParams,
}

impl SequenceOutcome {
    /// Mean realised task latency.
    pub fn mean_latency(&self) -> f64 {
        self.tasks.iter().map(|t| t.latency).sum::<f64>() / self.tasks.len() as f64
    }

    /// Mean submissions per completed task.
    pub fn submissions_per_task(&self) -> f64 {
        self.submissions as f64 / self.tasks.len() as f64
    }
}

/// The adaptive side of a sequence run: the observation stream, the
/// precomputed fast paths, and the scale tracker.
struct AdaptState<'a> {
    config: &'a AdaptiveConfig,
    estimator: StreamingEcdf,
    /// The empirical-retune tuner (unused while `policy` is set).
    tuner: FastTuner,
    /// The θ-indexed policy table ([`RetunePolicy::ScaledPrior`] with a
    /// prior only).
    policy: Option<Arc<ScalePolicy>>,
    tracker: ScaleTracker,
}

impl<'a> AdaptState<'a> {
    fn new(
        config: &'a AdaptiveConfig,
        threshold: f64,
        tuner: FastTuner,
        policy: Option<Arc<ScalePolicy>>,
    ) -> Self {
        AdaptState {
            config,
            estimator: StreamingEcdf::new(config.window, config.decay, threshold)
                .expect("validated config"),
            tuner,
            policy,
            tracker: ScaleTracker::new(config.decay),
        }
    }
}

/// Internal driver shared by the fixed and adaptive entry points.
fn run_sequence(
    grid: &Arc<GridConfig>,
    initial: StrategyParams,
    n_tasks: usize,
    seed: u64,
    mut adapt: Option<AdaptState<'_>>,
) -> SequenceOutcome {
    assert!(n_tasks > 0, "a sequence needs at least one task");
    assert!(
        (n_tasks as u64) < u32::MAX as u64,
        "task scopes must fit in 32 bits"
    );
    let mut sim = GridSimulation::new(Arc::clone(grid), seed)
        .expect("sequence grid configs are always valid");
    let mut params = initial;
    let mut session = TaskSession::new(params.build_controller());
    let mut tasks = Vec::with_capacity(n_tasks);
    let mut retunes = 0usize;

    for task in 0..n_tasks {
        let launched_at = sim.now().as_secs();
        session.begin(task as u64 + 1, SimDuration::ZERO);
        sim.run_controller(&mut session);
        let Some(j_abs) = session.total_latency() else {
            break; // horizon reached mid-task
        };
        let latency = j_abs - launched_at;
        tasks.push(TaskRecord {
            launched_at,
            latency,
            t_inf: timeout_of(params),
        });
        if let Some(state) = adapt.as_mut() {
            state.tracker.observe_task(latency);
        }
        // leftovers of a finished task must not haunt later tasks
        session.cancel_pending(&mut sim);

        if let Some(state) = adapt.as_mut() {
            session.harvest(&sim, timeout_of(params), &mut state.estimator);
            if (task + 1).is_multiple_of(state.config.retune_every) && task + 1 < n_tasks {
                let next = match state.policy.as_ref() {
                    // scale tracking: invert the observed decayed task-
                    // latency mean through the precomputed E*(θ) curve and
                    // look the re-tuned parameters up — no quadrature on
                    // the retune path
                    Some(policy) if state.estimator.n_body() >= state.config.min_body => {
                        let theta = state.tracker.update(policy);
                        policy.params_for(theta)
                    }
                    Some(_) => params,
                    None => retune_with(params, &state.estimator, state.config, &state.tuner),
                };
                if next != params {
                    params = next;
                    session = TaskSession::new(params.build_controller());
                    retunes += 1;
                }
            }
        }
    }

    SequenceOutcome {
        tasks,
        submissions: sim.stats().client_submitted,
        retunes,
        final_params: params,
    }
}

/// Runs `n_tasks` back-to-back tasks of a **fixed** (tuned-once) strategy
/// on one engine — the paper's offline-tuning discipline exposed to a
/// drifting grid.
pub fn run_fixed_sequence(
    grid: &Arc<GridConfig>,
    strategy: &StrategyParams,
    n_tasks: usize,
    seed: u64,
) -> SequenceOutcome {
    run_sequence(grid, *strategy, n_tasks, seed, None)
}

/// The observation censor threshold of a sequence run: the prior's when
/// available, else the grid's oracle model's, else the paper's 10 000 s.
/// One resolution point, shared by the policy-table cap and the
/// estimator, so the two can never disagree.
fn censor_threshold(grid: &GridConfig, prior: Option<&WeekModel>) -> f64 {
    prior
        .map(|w| w.threshold_s)
        .or(match &grid.latency {
            gridstrat_sim::LatencyMode::Oracle(m) => Some(m.threshold_s),
            _ => None,
        })
        .unwrap_or(gridstrat_workload::CENSOR_THRESHOLD_S)
}

/// Runs `n_tasks` back-to-back tasks starting from the `initial`
/// (typically offline-tuned) parameters, re-tuning them from the run's own
/// observations every `config.retune_every` tasks. Structural parameters
/// (collection size `b`, copies per echelon) stay fixed; only timeouts are
/// re-tuned, exactly like [`Strategy::tune`]. `prior` is the
/// offline-calibrated stationary law the [`RetunePolicy::ScaledPrior`]
/// policy scales (pass the week the initial instance was tuned on).
///
/// The observation censor threshold is taken from `prior` when available,
/// else from the grid's oracle model, else the paper's 10 000 s. Panics on
/// an invalid `config`.
pub fn run_adaptive_sequence(
    grid: &Arc<GridConfig>,
    initial: StrategyParams,
    config: &AdaptiveConfig,
    prior: Option<&WeekModel>,
    n_tasks: usize,
    seed: u64,
) -> SequenceOutcome {
    config.validate().expect("valid adaptive config");
    let threshold = censor_threshold(grid, prior);
    // the prior-optimal delayed ratio and the scale-tracking policy table
    // are computed once per run (a real user would compute them offline
    // from last week's calibration)
    let tuner = prior.map_or(FastTuner::full(), |w| FastTuner::for_family(initial, w));
    let policy = match (config.policy, prior) {
        (RetunePolicy::ScaledPrior, Some(w)) => Some(Arc::new(ScalePolicy::build(
            w,
            initial,
            0.99 * threshold,
            tuner,
        ))),
        _ => None,
    };
    let state = AdaptState::new(config, threshold, tuner, policy);
    run_sequence(grid, initial, n_tasks, seed, Some(state))
}

// --- regret accounting --------------------------------------------------------

/// The omniscient per-instant benchmark: for each task launch time `τ`,
/// the expected latency `E*_J(τ)` of the same strategy family re-tuned on
/// the *frozen* modulated law at `τ`.
///
/// Factors are quantized (default step 1/64) and the per-bucket optimum is
/// cached, so a long sequence costs a bounded number of tunings and the
/// benchmark is deterministic regardless of evaluation order.
pub struct RegretFrontier {
    base: WeekModel,
    modulation: Arc<dyn Modulation>,
    family: StrategyParams,
    /// Coupled-factor fast path: when a bucket has intensity == fault
    /// factor (every [`DiurnalModel`] instant, and any regime with coupled
    /// factors), the frozen law is exactly a θ-scaled base, so the
    /// precomputed `E*(θ)` curve answers without a search. Other buckets
    /// re-tune with the table's tuner.
    policy: Arc<ScalePolicy>,
    quant: f64,
    cache: HashMap<(i64, i64), f64>,
}

impl RegretFrontier {
    /// Builds a frontier for a strategy family over a modulated base week.
    /// For delayed families the `t∞/t0` ratio is fixed at its base-law
    /// optimum (stable across laws, per the paper) so each frontier bucket
    /// costs at most one 1-D search.
    pub fn new(base: WeekModel, modulation: Arc<dyn Modulation>, family: StrategyParams) -> Self {
        let tuner = FastTuner::for_family(family, &base);
        let policy = Arc::new(ScalePolicy::build(
            &base,
            family,
            0.99 * base.threshold_s,
            tuner,
        ));
        Self::with_policy(base, modulation, family, policy)
    }

    fn with_policy(
        base: WeekModel,
        modulation: Arc<dyn Modulation>,
        family: StrategyParams,
        policy: Arc<ScalePolicy>,
    ) -> Self {
        RegretFrontier {
            base,
            modulation,
            family,
            policy,
            quant: 1.0 / 64.0,
            cache: HashMap::new(),
        }
    }

    /// The oracle-tuned expected latency on the frozen law at time `t`.
    pub fn optimum_at(&mut self, t: f64) -> f64 {
        let qi = (self.modulation.intensity_at(t) / self.quant).round() as i64;
        let qf = (self.modulation.fault_factor_at(t) / self.quant).round() as i64;
        let (qi, qf) = (qi.max(1), qf.max(0));
        if qi == qf {
            return self.policy.e_star_at(qi as f64 * self.quant);
        }
        let (base, family, quant, tuner) = (&self.base, self.family, self.quant, self.policy.tuner);
        *self.cache.entry((qi, qf)).or_insert_with(|| {
            let intensity = qi as f64 * quant;
            let fault = qf as f64 * quant;
            let law = base.modulated(intensity, fault);
            let model = ParametricModel::new(law.body(), law.rho, law.threshold_s)
                .expect("modulated laws stay valid");
            let tuned = tuner.tune(family, &model);
            tuned.expected_j(&model)
        })
    }

    /// Mean per-task regret `J_i − E*_J(τ_i)` of a finished sequence.
    pub fn mean_regret(&mut self, outcome: &SequenceOutcome) -> f64 {
        assert!(!outcome.tasks.is_empty(), "no completed tasks");
        outcome
            .tasks
            .iter()
            .map(|t| t.latency - self.optimum_at(t.launched_at))
            .sum::<f64>()
            / outcome.tasks.len() as f64
    }
}

// --- amplitude × retune-period sweep ------------------------------------------

/// Summary statistics of one sequence inside a sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct SequenceSummary {
    /// Mean realised task latency, seconds.
    pub mean_latency: f64,
    /// Mean per-task regret vs the instantaneous oracle optimum, seconds.
    pub mean_regret: f64,
    /// Completed tasks.
    pub tasks: usize,
    /// Mean submissions per task.
    pub submissions_per_task: f64,
}

fn summarize(outcome: &SequenceOutcome, frontier: &mut RegretFrontier) -> SequenceSummary {
    SequenceSummary {
        mean_latency: outcome.mean_latency(),
        mean_regret: frontier.mean_regret(outcome),
        tasks: outcome.tasks.len(),
        submissions_per_task: outcome.submissions_per_task(),
    }
}

/// One evaluated cell of an [`AdaptiveSweep`].
#[derive(Debug, Clone)]
pub struct AdaptiveCellOutcome {
    /// Diurnal amplitude of the cell's modulation.
    pub amplitude: f64,
    /// Retune period of the adaptive user.
    pub retune_every: usize,
    /// The tuned-once (stationary-optimal) strategy's summary.
    pub fixed: SequenceSummary,
    /// The online-retuned strategy's summary.
    pub adaptive: SequenceSummary,
    /// Retunes the adaptive run applied.
    pub retunes: usize,
}

/// A (diurnal amplitude × retune period) grid: every cell runs the same
/// tuned-once strategy and its adaptive wrapper over the same modulated
/// grid and reports mean latency and mean regret for both.
///
/// Cells are laid out amplitude-major and evaluated in one rayon pass;
/// per-cell seeds derive from `(seed, cell)` and results are collected in
/// cell order, so the sweep is **bit-identical for any thread count**.
#[derive(Debug, Clone)]
pub struct AdaptiveSweep {
    /// The stationary base week (the offline-calibration prior).
    pub base: WeekModel,
    /// Oscillation period of the diurnal modulation, seconds.
    pub period_s: f64,
    /// Modulation amplitudes to evaluate (`0 ≤ a < 1`).
    pub amplitudes: Vec<f64>,
    /// Retune periods (tasks between retunes) to evaluate.
    pub retune_periods: Vec<usize>,
    /// Strategy family template; its free parameters are re-tuned on the
    /// stationary base to produce the tuned-once reference instance.
    pub family: StrategyParams,
    /// Adaptation configuration (its `retune_every` is overridden by the
    /// cell's retune period).
    pub adaptive: AdaptiveConfig,
    /// Tasks per sequence.
    pub n_tasks: usize,
    /// Master seed.
    pub seed: u64,
}

impl AdaptiveSweep {
    /// Number of cells in the grid.
    pub fn n_cells(&self) -> usize {
        self.amplitudes.len() * self.retune_periods.len()
    }

    /// Evaluates the whole grid in one parallel pass (see type docs).
    pub fn run(&self) -> Vec<AdaptiveCellOutcome> {
        assert!(!self.amplitudes.is_empty(), "sweep needs amplitudes");
        assert!(
            !self.retune_periods.is_empty(),
            "sweep needs retune periods"
        );
        assert!(self.n_tasks > 0, "sweep needs tasks");
        self.adaptive.validate().expect("valid adaptive config");

        // the tuned-once reference: the family optimised on the stationary
        // prior — exactly the paper's offline discipline. Its delayed ratio
        // is the prior-optimal one, so the shared θ-indexed policy/frontier
        // table, every cell's sequence and every cell's frontier reuse it
        let prior_model =
            ParametricModel::new(self.base.body(), self.base.rho, self.base.threshold_s)
                .expect("calibrated weeks are valid");
        let tuned_once = self.family.tune(&prior_model);
        let policy = Arc::new(ScalePolicy::build(
            &self.base,
            tuned_once,
            0.99 * self.base.threshold_s,
            FastTuner::from_tuned(tuned_once),
        ));

        let cells: Vec<(f64, usize)> = self
            .amplitudes
            .iter()
            .flat_map(|&a| self.retune_periods.iter().map(move |&k| (a, k)))
            .collect();

        let cells_ref = &cells;
        let policy_ref = &policy;
        (0..cells.len())
            .into_par_iter()
            .map(move |cell| {
                let (amplitude, retune_every) = cells_ref[cell];
                let modulation: Arc<dyn Modulation> = Arc::new(
                    DiurnalModel::new(self.base.clone(), amplitude, self.period_s)
                        .expect("validated amplitudes"),
                );
                let mut grid = GridConfig::oracle(self.base.clone());
                grid.modulation = Some(Arc::clone(&modulation));
                let grid = Arc::new(grid);

                let cell_seed = derive_seed(self.seed, cell as u64);
                let fixed_outcome =
                    run_fixed_sequence(&grid, &tuned_once, self.n_tasks, derive_seed(cell_seed, 0));
                let mut config = self.adaptive;
                config.retune_every = retune_every;
                config.validate().expect("valid adaptive config");
                let state = AdaptState::new(
                    &config,
                    self.base.threshold_s,
                    policy_ref.tuner,
                    matches!(config.policy, RetunePolicy::ScaledPrior)
                        .then(|| Arc::clone(policy_ref)),
                );
                let adaptive_outcome = run_sequence(
                    &grid,
                    tuned_once,
                    self.n_tasks,
                    derive_seed(cell_seed, 1),
                    Some(state),
                );

                let mut frontier = RegretFrontier::with_policy(
                    self.base.clone(),
                    modulation,
                    self.family,
                    Arc::clone(policy_ref),
                );
                AdaptiveCellOutcome {
                    amplitude,
                    retune_every,
                    fixed: summarize(&fixed_outcome, &mut frontier),
                    adaptive: summarize(&adaptive_outcome, &mut frontier),
                    retunes: adaptive_outcome.retunes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WeekModel {
        WeekModel::calibrate("adapt", 500.0, 700.0, 0.05, 60.0, 10_000.0).unwrap()
    }

    fn modulated_grid(amplitude: f64) -> (Arc<GridConfig>, Arc<dyn Modulation>) {
        let b = base();
        let m: Arc<dyn Modulation> =
            Arc::new(DiurnalModel::new(b.clone(), amplitude, 86_400.0).unwrap());
        let mut grid = GridConfig::oracle(b);
        grid.modulation = Some(Arc::clone(&m));
        (Arc::new(grid), m)
    }

    fn tuned_once() -> StrategyParams {
        let b = base();
        let model = ParametricModel::new(b.body(), b.rho, b.threshold_s).unwrap();
        StrategyParams::Single { t_inf: 700.0 }.tune(&model)
    }

    #[test]
    fn sequence_advances_the_clock_and_isolates_tasks() {
        let (grid, _) = modulated_grid(0.5);
        let out = run_fixed_sequence(&grid, &tuned_once(), 50, 42);
        assert_eq!(out.tasks.len(), 50);
        // launches strictly increase (back-to-back tasks, each takes time)
        for w in out.tasks.windows(2) {
            assert!(w[1].launched_at > w[0].launched_at);
        }
        // every realised latency is at least the floor
        assert!(out.tasks.iter().all(|t| t.latency >= 60.0));
        assert!(out.submissions >= 50);
    }

    #[test]
    fn sequences_are_deterministic() {
        let (grid, _) = modulated_grid(0.6);
        let a = run_fixed_sequence(&grid, &tuned_once(), 40, 7);
        let b = run_fixed_sequence(&grid, &tuned_once(), 40, 7);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.latency.to_bits(), y.latency.to_bits());
            assert_eq!(x.launched_at.to_bits(), y.launched_at.to_bits());
        }
        let c = run_fixed_sequence(&grid, &tuned_once(), 40, 8);
        assert_ne!(
            a.tasks[5].latency.to_bits(),
            c.tasks[5].latency.to_bits(),
            "different seeds must differ"
        );
    }

    #[test]
    fn adaptive_run_retunes_and_tracks_drift() {
        let (grid, _) = modulated_grid(0.6);
        let config = AdaptiveConfig {
            retune_every: 10,
            window: 300,
            decay: 0.97,
            min_body: 15,
            policy: RetunePolicy::ScaledPrior,
        };
        let out = run_adaptive_sequence(&grid, tuned_once(), &config, Some(&base()), 120, 21);
        assert_eq!(out.tasks.len(), 120);
        assert!(out.retunes > 0, "no retune ever fired");
        // the timeout actually moved over the run
        let t0 = out.tasks.first().unwrap().t_inf;
        assert!(
            out.tasks.iter().any(|t| (t.t_inf - t0).abs() > 1.0),
            "timeout never moved"
        );
    }

    #[test]
    fn adaptive_beats_tuned_once_on_mean_regret_under_drift() {
        // the acceptance-shaped property at test scale: a heavy-drift week
        // (paper-like tail, ρ = 0.2, amplitude 0.8 — faults track load, so
        // peak phases censor hard), the delayed family whose optimum is
        // sharpest, fixed seeds, regret vs the instantaneous oracle
        let b = WeekModel::calibrate("drift", 570.0, 886.0, 0.20, 60.0, 10_000.0).unwrap();
        let modulation: Arc<dyn Modulation> =
            Arc::new(DiurnalModel::new(b.clone(), 0.8, 86_400.0).unwrap());
        let mut grid = GridConfig::oracle(b.clone());
        grid.modulation = Some(Arc::clone(&modulation));
        let grid = Arc::new(grid);

        let model = ParametricModel::new(b.body(), b.rho, b.threshold_s).unwrap();
        let tuned = StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        }
        .tune(&model);
        let n = 1_000;
        let fixed = run_fixed_sequence(&grid, &tuned, n, 1234);
        let adaptive =
            run_adaptive_sequence(&grid, tuned, &AdaptiveConfig::default(), Some(&b), n, 1234);
        let mut frontier = RegretFrontier::new(b, modulation, tuned);
        let r_fixed = frontier.mean_regret(&fixed);
        let r_adaptive = frontier.mean_regret(&adaptive);
        assert!(
            r_adaptive < r_fixed,
            "adaptive regret {r_adaptive} not below tuned-once {r_fixed}"
        );
    }

    #[test]
    fn empirical_backoff_recovers_from_a_storm() {
        // a permanent 2.5x storm from t=0: the stationary timeout censors
        // heavily; the backoff probe must grow the timeout
        let b = base();
        let storm: Arc<dyn Modulation> = Arc::new(
            gridstrat_workload::RegimeShiftModel::new(
                b.clone(),
                vec![1e9],
                vec![2.5, 1.0],
                vec![1.0, 1.0],
            )
            .unwrap(),
        );
        let mut grid = GridConfig::oracle(b);
        grid.modulation = Some(storm);
        let grid = Arc::new(grid);
        let tuned = tuned_once();
        let config = AdaptiveConfig {
            retune_every: 10,
            window: 200,
            decay: 0.95,
            min_body: 10,
            policy: RetunePolicy::EmpiricalBackoff {
                max_censored_fraction: 0.35,
                growth: 1.4,
            },
        };
        let out = run_adaptive_sequence(&grid, tuned, &config, None, 150, 99);
        let final_t = timeout_of(out.final_params);
        assert!(
            final_t > 1.3 * timeout_of(tuned),
            "backoff never grew the timeout: {final_t} vs {}",
            timeout_of(tuned)
        );
        // and the grown timeout completes tasks with fewer submissions
        let early: f64 = out.tasks[..30].iter().map(|t| t.latency).sum::<f64>() / 30.0;
        let late: f64 = out.tasks[out.tasks.len() - 30..]
            .iter()
            .map(|t| t.latency)
            .sum::<f64>()
            / 30.0;
        assert!(late < early, "adaptation never paid off: {late} vs {early}");
    }

    #[test]
    fn sibling_cancellations_are_not_censoring_evidence() {
        // Regression: a Multiple{b} task cancels b-1 copies every time it
        // *succeeds*; counting those as censored observations puts a
        // structural (b-1)/b floor under the censored fraction, which
        // falsely triggers the EmpiricalBackoff growth probe on a calm,
        // perfectly stationary grid and ratchets the timeout to the cap.
        let b = base();
        let grid = Arc::new(GridConfig::oracle(b.clone())); // no modulation
        let model = ParametricModel::new(b.body(), b.rho, b.threshold_s).unwrap();
        let tuned = StrategyParams::Multiple { b: 3, t_inf: 800.0 }.tune(&model);
        let config = AdaptiveConfig {
            retune_every: 5,
            window: 200,
            decay: 0.95,
            min_body: 10,
            policy: RetunePolicy::EmpiricalBackoff {
                max_censored_fraction: 0.35,
                growth: 1.5,
            },
        };
        let out = run_adaptive_sequence(&grid, tuned, &config, None, 120, 77);
        let final_t = timeout_of(out.final_params);
        assert!(
            final_t < 1.5 * timeout_of(tuned),
            "backoff ratcheted on a stationary grid: {} -> {final_t}",
            timeout_of(tuned)
        );
        // the empirical retune stays near the true optimum
        let e_final = out.final_params.expected_j(&model);
        let e_opt = tuned.expected_j(&model);
        assert!(
            e_final < 1.1 * e_opt,
            "retuned params degraded on a stationary grid: {e_final} vs {e_opt}"
        );
    }

    #[test]
    fn retune_respects_min_body_gate() {
        let mut est = StreamingEcdf::new(100, 0.98, 10_000.0).unwrap();
        for _ in 0..5 {
            est.observe_started(400.0);
        }
        let cfg = AdaptiveConfig {
            min_body: 20,
            ..AdaptiveConfig::default()
        };
        let p = StrategyParams::Single { t_inf: 700.0 };
        assert_eq!(retune_params(p, &est, &cfg), p);
    }

    #[test]
    fn scale_timeouts_preserves_delayed_feasibility() {
        let p = StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        };
        for factor in [0.3, 1.0, 1.7, 50.0] {
            match scale_timeouts(p, factor, 9_900.0) {
                StrategyParams::Delayed { t0, t_inf } => {
                    assert!(crate::strategy::DelayedResubmission::feasible(t0, t_inf));
                    assert!(t_inf <= 9_900.0 + 1e-9);
                }
                other => panic!("variant changed: {other:?}"),
            }
        }
    }

    #[test]
    fn scale_policy_recovers_known_scale() {
        let b = base();
        let family = StrategyParams::Single { t_inf: 700.0 };
        let policy = ScalePolicy::build(&b, family, 9_900.0, FastTuner::full());
        for theta_true in [0.5, 1.0, 1.6, 3.0] {
            // noiseless observation: the oracle expectation on the scaled
            // law — inversion must recover the scale to grid precision
            let observed = policy.e_star_at(theta_true);
            let theta_hat = policy.invert_mean_j(observed);
            assert!(
                (theta_hat - theta_true).abs() / theta_true < 0.05,
                "theta {theta_true} estimated as {theta_hat}"
            );
            // the tabulated E* matches a direct evaluation of the
            // tabulated parameters on the scaled law
            let direct = expected_j_at_scale(&b, policy.params_for(theta_true), theta_true);
            assert!(
                (policy.e_star_at(theta_true) - direct).abs() / direct < 0.02,
                "table E* diverged from direct evaluation at theta {theta_true}"
            );
        }
        // clamps at the bracket instead of diverging
        assert_eq!(policy.invert_mean_j(0.0), THETA_LO);
        assert_eq!(policy.invert_mean_j(1e9), THETA_HI);
        assert_eq!(policy.invert_mean_j(f64::NAN), 1.0);
    }

    #[test]
    fn adaptive_sweep_is_bit_identical_across_thread_counts() {
        let single = AdaptiveSweep {
            base: base(),
            period_s: 86_400.0,
            amplitudes: vec![0.3, 0.6],
            retune_periods: vec![10],
            family: StrategyParams::Single { t_inf: 700.0 },
            adaptive: AdaptiveConfig::default(),
            n_tasks: 60,
            seed: 0xADA9,
        };
        // one Delayed cell: its θ-table is the costly, parallel one
        for sweep in [single, delayed_cell()] {
            let run_with = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                pool.install(|| sweep.run())
            };
            let a = run_with(1);
            let b = run_with(4);
            assert_eq!(a.len(), sweep.n_cells());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.fixed.mean_latency.to_bits(),
                    y.fixed.mean_latency.to_bits()
                );
                assert_eq!(
                    x.adaptive.mean_regret.to_bits(),
                    y.adaptive.mean_regret.to_bits()
                );
                assert_eq!(x.retunes, y.retunes);
            }
        }
    }

    /// One 60-task Delayed cell of [`AdaptiveSweep`] on [`base`].
    fn delayed_cell() -> AdaptiveSweep {
        AdaptiveSweep {
            base: base(),
            period_s: 86_400.0,
            amplitudes: vec![0.6],
            retune_periods: vec![10],
            family: StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            },
            adaptive: AdaptiveConfig::default(),
            n_tasks: 60,
            seed: 0xADA9,
        }
    }

    #[test]
    fn delayed_ratio_from_tuned_params_matches_the_prior_search() {
        let family = StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        };
        let drift = WeekModel::calibrate("drift", 570.0, 886.0, 0.20, 60.0, 10_000.0).unwrap();
        for week in [base(), drift] {
            let model = ParametricModel::new(week.body(), week.rho, week.threshold_s).unwrap();
            let shared = FastTuner::from_tuned(family.tune(&model)).delayed_ratio;
            let searched = FastTuner::for_family(family, &week).delayed_ratio;
            // the prior-optimal pair of the delayed strategy's own 2-D search
            let opt = crate::strategy::DelayedResubmission::optimize(&model);
            let direct = (opt.t_inf / opt.t0).clamp(1.0, 2.0).to_bits();
            assert_eq!(shared.map(f64::to_bits), Some(direct));
            assert_eq!(searched.map(f64::to_bits), Some(direct));
        }
    }

    #[test]
    fn delayed_sweep_cell_matches_the_public_sequence_calls() {
        let sweep = delayed_cell();
        let cell = &sweep.run()[0];
        let (grid, modulation) = modulated_grid(0.6);
        let b = base();
        let model = ParametricModel::new(b.body(), b.rho, b.threshold_s).unwrap();
        let tuned = sweep.family.tune(&model);
        let cell_seed = derive_seed(sweep.seed, 0);
        let fixed = run_fixed_sequence(&grid, &tuned, 60, derive_seed(cell_seed, 0));
        let config = AdaptiveConfig {
            retune_every: 10,
            ..sweep.adaptive
        };
        let adaptive = run_adaptive_sequence(
            &grid,
            tuned,
            &config,
            Some(&b),
            60,
            derive_seed(cell_seed, 1),
        );
        let mut frontier = RegretFrontier::new(b, modulation, sweep.family);
        for (summary, outcome) in [(&cell.fixed, &fixed), (&cell.adaptive, &adaptive)] {
            let rebuilt = summarize(outcome, &mut frontier);
            assert_eq!(summary.tasks, rebuilt.tasks);
            for (x, y) in [
                (summary.mean_latency, rebuilt.mean_latency),
                (summary.mean_regret, rebuilt.mean_regret),
                (summary.submissions_per_task, rebuilt.submissions_per_task),
            ] {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(cell.retunes, adaptive.retunes);
    }

    #[test]
    fn delayed_sweep_cell_matches_golden_bits() {
        let cell = &delayed_cell().run()[0];
        // (mean latency, mean regret, submissions per task) of the
        // tuned-once and the adaptive sequence, captured before the tuner
        // was shared; a change that moves them must say why in CHANGES.md
        let golden = [
            (
                0x407d_f51b_089a_0275,
                0x403e_d1dd_a92e_6a5c,
                0x400a_eeee_eeee_eeef,
            ),
            (
                0x407e_ab3b_75d4_0949,
                0x4048_0fce_8fbe_7a31,
                0x4009_7777_7777_7777,
            ),
        ];
        for (s, (latency, regret, submissions)) in
            [&cell.fixed, &cell.adaptive].into_iter().zip(golden)
        {
            assert_eq!(s.tasks, 60);
            assert_eq!(s.mean_latency.to_bits(), latency);
            assert_eq!(s.mean_regret.to_bits(), regret);
            assert_eq!(s.submissions_per_task.to_bits(), submissions);
        }
        assert_eq!(cell.retunes, 3);
    }
}
