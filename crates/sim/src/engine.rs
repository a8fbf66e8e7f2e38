//! The simulation engine and the controller API through which client-side
//! submission strategies drive it.
//!
//! The engine is a single-threaded, deterministic discrete-event loop. All
//! randomness flows from one seeded RNG, and same-instant events fire in
//! scheduling order, so a `(config, seed, controller)` triple always yields
//! the same history. Parallelism lives one level up: Monte-Carlo executors
//! run many engines concurrently (one per trial) with rayon.

use crate::config::{GridConfig, LatencyMode, RankingPolicy};
use crate::event::{EventKind, EventQueue};
use crate::job::{JobId, JobOrigin, JobRecord, JobState};
use crate::modulation::{clamp_fault, MIN_INTENSITY};
use crate::time::{SimDuration, SimTime};
use gridstrat_stats::dist::{sample_standard_normal, Distribution, LogNormal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Events surfaced to the client-side controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notification {
    /// A client job started running.
    JobStarted {
        /// The job.
        id: JobId,
        /// Start instant.
        at: SimTime,
    },
    /// A client job finished executing.
    JobFinished {
        /// The job.
        id: JobId,
        /// Completion instant.
        at: SimTime,
    },
    /// A client job failed with a visible middleware error.
    JobFailed {
        /// The job.
        id: JobId,
        /// Failure instant.
        at: SimTime,
    },
    /// A timer set via [`GridSimulation::set_timer`] expired.
    Timer {
        /// The token passed at arming time.
        token: u64,
        /// Expiry instant.
        at: SimTime,
    },
}

/// A client-side submission controller (a strategy, a probe harness, …).
///
/// The controller is called re-entrantly with a mutable handle on the
/// simulation: it may submit, cancel and arm timers from both hooks.
pub trait Controller {
    /// Called once before any event is processed.
    fn start(&mut self, sim: &mut GridSimulation);
    /// Called for every notification addressed to the client.
    fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification);
    /// When true, the run loop returns.
    fn done(&self) -> bool;
}

#[derive(Debug, Default)]
struct SiteState {
    running: usize,
    /// Batch queue in arrival order. Cancelled jobs stay in it until a
    /// slot assignment skips them.
    queue: VecDeque<JobId>,
    /// Jobs in `queue` still waiting to start (cancelled residue excluded):
    /// the queue length the least-loaded ranking sees.
    queued: usize,
}

/// Aggregate run counters (client and background populations separately).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Client jobs submitted.
    pub client_submitted: u64,
    /// Client jobs that started running.
    pub client_started: u64,
    /// Client jobs cancelled before starting.
    pub client_cancelled: u64,
    /// Cancel requests issued for pending client jobs; a job asked twice
    /// while its first request is in flight counts twice (and draws a
    /// second delay), so a client asks once per job.
    pub client_cancel_requests: u64,
    /// Client jobs that failed visibly.
    pub client_failed: u64,
    /// Client jobs silently lost (outliers).
    pub client_stuck: u64,
    /// Background jobs submitted.
    pub background_submitted: u64,
    /// Background jobs that started.
    pub background_started: u64,
    /// Timers cancelled through [`GridSimulation::cancel_timer`].
    pub timers_cancelled: u64,
}

/// Handle of an armed timer, returned by [`GridSimulation::set_timer`] and
/// taken by [`GridSimulation::cancel_timer`]. Valid until the timer fires,
/// is cancelled, or the engine is [reset](GridSimulation::reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u64);

/// The discrete-event grid simulation.
///
/// See the crate docs for the modelled pipeline. Typical use:
///
/// ```
/// use gridstrat_sim::{Controller, GridConfig, GridSimulation, Notification};
/// use gridstrat_workload::WeekModel;
///
/// struct OneShot { started: Option<f64> }
/// impl Controller for OneShot {
///     fn start(&mut self, sim: &mut GridSimulation) { sim.submit(); }
///     fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
///         if let Notification::JobStarted { at, .. } = ev {
///             self.started = Some(at.as_secs());
///         }
///     }
///     fn done(&self) -> bool { self.started.is_some() }
/// }
///
/// let model = WeekModel::calibrate("demo", 500.0, 700.0, 0.0, 50.0, 1e4).unwrap();
/// let mut sim = GridSimulation::new(GridConfig::oracle(model), 42).unwrap();
/// let mut ctrl = OneShot { started: None };
/// sim.run_controller(&mut ctrl);
/// assert!(ctrl.started.unwrap() >= 50.0);
/// ```
#[derive(Debug)]
pub struct GridSimulation {
    /// Shared, immutable configuration. An `Arc` so Monte-Carlo layers can
    /// hand thousands of engines the same config without deep-cloning the
    /// latency model (oracle mode) or the recorded sample vector
    /// (resample mode).
    cfg: Arc<GridConfig>,
    now: SimTime,
    queue: EventQueue,
    /// The job table: one record per submitted job, indexed by [`JobId`].
    jobs: Vec<JobRecord>,
    sites: Vec<SiteState>,
    rng: StdRng,
    notifications: VecDeque<Notification>,
    stats: EngineStats,
    /// Active client scope: owner tag for submissions and namespace for
    /// timer tokens. `0` = unscoped (single-owner legacy behaviour).
    scope: u64,
    /// Execution time applied by [`GridSimulation::submit`] while set.
    default_exec: SimDuration,
}

impl GridSimulation {
    /// Builds a simulation from a validated config and a seed.
    ///
    /// Accepts either an owned [`GridConfig`] or an `Arc<GridConfig>`;
    /// executors that run many engines over one config should pass the
    /// `Arc` so construction never copies sample vectors or site tables.
    pub fn new(cfg: impl Into<Arc<GridConfig>>, seed: u64) -> Result<Self, String> {
        let cfg = cfg.into();
        cfg.validate()?;
        let sites = cfg.sites.iter().map(|_| SiteState::default()).collect();
        let mut sim = GridSimulation {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            jobs: Vec::new(),
            sites,
            rng: StdRng::seed_from_u64(seed),
            notifications: VecDeque::new(),
            stats: EngineStats::default(),
            scope: 0,
            default_exec: SimDuration::ZERO,
        };
        if sim.cfg.background.is_some() {
            sim.schedule_next_background_arrival();
        }
        Ok(sim)
    }

    /// Rewinds the engine in place to the state a freshly-constructed
    /// `GridSimulation::new(cfg, seed)` would have — but keeping every
    /// internal allocation (job table, event queue, site queues,
    /// notification buffer). A trial loop that calls `reset` between runs
    /// produces **bit-identical** histories to one that constructs a new
    /// engine per trial, without touching the allocator on the hot path.
    pub fn reset(&mut self, seed: u64) {
        self.now = SimTime::ZERO;
        self.queue.clear();
        self.jobs.clear();
        for site in &mut self.sites {
            site.running = 0;
            site.queue.clear();
            site.queued = 0;
        }
        self.rng = StdRng::seed_from_u64(seed);
        self.notifications.clear();
        self.stats = EngineStats::default();
        self.scope = 0;
        self.default_exec = SimDuration::ZERO;
        if self.cfg.background.is_some() {
            self.schedule_next_background_arrival();
        }
    }

    /// The shared configuration this engine runs against.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a job's audit record.
    pub fn job(&self, id: JobId) -> &JobRecord {
        &self.jobs[id.0 as usize]
    }

    /// All job records (client and background), in submission order: the
    /// record of [`JobId`] `i` is entry `i`.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Sets the active client **scope** — the multi-owner routing hook.
    ///
    /// While a non-zero scope is active:
    ///
    /// * every submitted client job carries the scope in its
    ///   [`JobRecord::owner`], so a multiplexing controller can route
    ///   job notifications back to the agent that submitted them;
    /// * timer tokens are namespaced: [`GridSimulation::set_timer`] stores
    ///   `scope << 32 | token` (the raw token must fit in 32 bits), and the
    ///   resulting [`Notification::Timer`] carries the namespaced value —
    ///   so independently-written controllers sharing one engine can never
    ///   collide on timer tokens.
    ///
    /// Scope `0` restores the single-owner legacy behaviour (tokens pass
    /// through untouched, owners are `0`). Scopes must fit in 32 bits.
    /// [`GridSimulation::reset`] clears the scope.
    pub fn set_scope(&mut self, scope: u64) {
        assert!(scope <= u32::MAX as u64, "client scope must fit in 32 bits");
        self.scope = scope;
    }

    /// The active client scope (`0` when unscoped).
    pub fn scope(&self) -> u64 {
        self.scope
    }

    /// Sets the execution time applied by [`GridSimulation::submit`].
    ///
    /// Submission-strategy controllers call `submit()` (historically a
    /// zero-execution probe); a multi-user layer sets this before
    /// delegating to them so every job of the wrapped protocol holds a
    /// worker slot for the task's execution time — the mechanism by which
    /// one user's redundant copies degrade everyone else's latency.
    /// Cleared by [`GridSimulation::reset`].
    pub fn set_default_exec(&mut self, exec: SimDuration) {
        self.default_exec = exec;
    }

    /// Submits a client job that holds its slot for the default execution
    /// time once started (zero unless overridden via
    /// [`GridSimulation::set_default_exec`] — i.e. a probe).
    pub fn submit(&mut self) -> JobId {
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(JobRecord::new(
            JobOrigin::Client,
            self.scope,
            self.now,
            self.default_exec,
        ));
        self.stats.client_submitted += 1;
        self.route_submission(id);
        id
    }

    /// Cancels a client job. Returns `true` if the job was still pending
    /// when the request was issued; `false` if it had already started,
    /// finished or otherwise terminated.
    ///
    /// With a zero configured cancellation delay the job is removed
    /// immediately; with a positive delay the request travels through the
    /// middleware first, and the job may *still start* in the meantime —
    /// the realistic failure mode of burst-cancellation on EGEE.
    ///
    /// The engine keeps no record of requests in flight: asking again for
    /// a job still pending draws another delay, and the earliest request
    /// lands, which shortens the modelled delay. Callers ask once per job.
    pub fn cancel(&mut self, id: JobId) -> bool {
        let state = self.jobs[id.0 as usize].state();
        if !(state.is_pending() || state == JobState::Stuck) {
            return false;
        }
        self.stats.client_cancel_requests += 1;
        if self.cfg.wms.cancellation_delay_mean_s > 0.0 {
            let d = self.exp_delay(self.cfg.wms.cancellation_delay_mean_s);
            self.queue
                .schedule(self.now.after(d), EventKind::CancelApply(id));
        } else {
            self.apply_cancel(id);
        }
        true
    }

    fn apply_cancel(&mut self, id: JobId) {
        let rec = &mut self.jobs[id.0 as usize];
        let state = rec.state();
        if state.is_pending() || state == JobState::Stuck {
            if state == JobState::Queued {
                // the queue itself is purged lazily when slots are assigned
                let site = rec.site().expect("queued jobs have a site");
                self.sites[site].queued -= 1;
            }
            rec.terminate(JobState::Cancelled, self.now);
            self.stats.client_cancelled += 1;
        }
    }

    /// Schedules a synthetic background job to arrive at absolute instant
    /// `at` (which must not be in the past) holding a slot for `exec` once
    /// started. The target site is drawn at arrival time from the site
    /// weights, exactly like configured background traffic. This is the
    /// cross-shard coupling hook: a sharding layer injects the load the
    /// rest of the community would have imposed on this partition.
    pub fn inject_background(&mut self, at: SimTime, exec: SimDuration) {
        assert!(at >= self.now, "cannot inject background work in the past");
        self.queue.schedule(at, EventKind::InjectedArrival { exec });
    }

    /// Arms a timer; a [`Notification::Timer`] fires after `delay`, unless
    /// the returned [`TimerId`] is passed to
    /// [`GridSimulation::cancel_timer`] first.
    ///
    /// With scope `0` the notification carries `token` verbatim. Under an
    /// active client scope (see [`GridSimulation::set_scope`]) the token is
    /// namespaced to `scope << 32 | token` and must fit in 32 bits.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let token = if self.scope == 0 {
            token
        } else {
            assert!(
                token <= u32::MAX as u64,
                "timer tokens must fit in 32 bits while a client scope is active"
            );
            self.scope << 32 | token
        };
        TimerId(
            self.queue
                .schedule(self.now.after(delay), EventKind::Timer { token }),
        )
    }

    /// Cancels a pending timer: its [`Notification::Timer`] never fires,
    /// and its expiry no longer counts as an event, so it cannot move the
    /// clock of a run that drains its queue. Consumes no randomness.
    ///
    /// Cancel a timer at most once, and only before it fires; debug builds
    /// assert both.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.queue.cancel(id.0);
        self.stats.timers_cancelled += 1;
    }

    /// Runs the event loop, surfacing notifications to `ctrl`, until the
    /// controller reports done, the queue drains, or the horizon passes.
    pub fn run_controller<C: Controller + ?Sized>(&mut self, ctrl: &mut C) {
        self.start_controller(ctrl);
        self.step_controller_until(ctrl, SimTime::MAX);
    }

    /// Invokes the controller's `start` hook and drains the notifications
    /// it produced — the first half of [`GridSimulation::run_controller`],
    /// split out so a coupling layer (e.g. a sharded fleet) can step the
    /// run in epochs via [`GridSimulation::step_controller_until`].
    pub fn start_controller<C: Controller + ?Sized>(&mut self, ctrl: &mut C) {
        ctrl.start(self);
        self.drain_notifications(ctrl);
    }

    /// Processes events whose fire time is at or before `until` (still
    /// bounded by the configured horizon), stopping early when the
    /// controller reports done or the queue drains. Events beyond the cap
    /// stay queued, so repeated calls with increasing `until` replay
    /// exactly the history one uninterrupted
    /// [`GridSimulation::run_controller`] would produce — pausing consumes
    /// no randomness and moves no state.
    pub fn step_controller_until<C: Controller + ?Sized>(&mut self, ctrl: &mut C, until: SimTime) {
        let cap = until.min(SimTime::ZERO.after(self.cfg.horizon));
        while !ctrl.done() {
            // an event past the cap stays queued and the queue's floor
            // stays at the last popped instant, so the caller may still
            // schedule anything from `now` on (injected load at an epoch
            // boundary, the next task of a sequence)
            let Some((t, kind)) = self.queue.pop_until(cap) else {
                break;
            };
            debug_assert!(t >= self.now, "event queue yielded a past event");
            self.now = t;
            self.handle(kind);
            self.drain_notifications(ctrl);
        }
    }

    fn drain_notifications<C: Controller + ?Sized>(&mut self, ctrl: &mut C) {
        while let Some(n) = self.notifications.pop_front() {
            ctrl.on_event(self, n);
            if ctrl.done() {
                return;
            }
        }
    }

    // ---- internal mechanics ------------------------------------------------

    fn exp_delay(&mut self, mean_s: f64) -> SimDuration {
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        SimDuration::from_secs(-u.ln() * mean_s)
    }

    /// The active modulation's `(intensity, fault factor)` at the current
    /// clock; `None` when the grid is stationary. The stationary path must
    /// stay exactly as it was (no `× 1.0`, no clamping of validated
    /// configuration probabilities), so callers branch on the option
    /// rather than multiplying through neutral factors.
    fn modulation_factors(&self) -> Option<(f64, f64)> {
        self.cfg.modulation.as_ref().map(|m| {
            let t = self.now.as_secs();
            let intensity = m.intensity_at(t);
            let fault = m.fault_factor_at(t);
            debug_assert!(
                intensity.is_finite() && fault.is_finite() && fault >= 0.0,
                "modulation returned non-finite factors at t={t}"
            );
            (intensity.max(MIN_INTENSITY), fault.max(0.0))
        })
    }

    fn route_submission(&mut self, id: JobId) {
        // `self.cfg.latency` and `self.rng` are disjoint fields, so the
        // model can be sampled in place — deep-cloning the latency model
        // per submission (the old code) was the single largest allocation
        // on the Monte-Carlo hot path
        let factors = self.modulation_factors();
        match &self.cfg.latency {
            LatencyMode::Oracle(model) => {
                let raw = match factors {
                    None => model.sample_latency(&mut self.rng),
                    // the modulated law at the submission instant: scaled
                    // fault ratio (shared MAX_FAULT_RATIO ceiling), scaled
                    // queue-wait, hard floor at the incompressible shift
                    Some((intensity, fault)) => {
                        if self.rng.gen::<f64>() < clamp_fault(model.rho * fault) {
                            model.outlier_tail().sample(&mut self.rng)
                        } else {
                            let body = model.body().sample(&mut self.rng);
                            (model.shift_s + (body - model.shift_s) * intensity).max(model.shift_s)
                        }
                    }
                };
                if raw >= model.threshold_s {
                    // silently lost: the client only learns via its own timeout
                    self.jobs[id.0 as usize].set_state(JobState::Stuck);
                    self.stats.client_stuck += 1;
                } else {
                    self.queue.schedule(
                        self.now.after(SimDuration::from_secs(raw)),
                        EventKind::Start(id),
                    );
                }
            }
            LatencyMode::Resample {
                latencies,
                threshold_s,
            } => {
                // recorded traces are replayed as-is: a modulation has no
                // access to the (unknown) queue-wait decomposition of a
                // recorded latency, so resample mode stays stationary
                let idx = self.rng.gen_range(0..latencies.len());
                let raw = latencies[idx];
                if raw >= *threshold_s {
                    self.jobs[id.0 as usize].set_state(JobState::Stuck);
                    self.stats.client_stuck += 1;
                } else {
                    self.queue.schedule(
                        self.now.after(SimDuration::from_secs(raw)),
                        EventKind::Start(id),
                    );
                }
            }
            LatencyMode::Pipeline => {
                let (p_loss, ui_mean) = match factors {
                    None => (self.cfg.faults.p_silent_loss, self.cfg.wms.ui_to_wms_mean_s),
                    Some((intensity, fault)) => (
                        clamp_fault(self.cfg.faults.p_silent_loss * fault),
                        self.cfg.wms.ui_to_wms_mean_s * intensity,
                    ),
                };
                if self.rng.gen::<f64>() < p_loss {
                    self.jobs[id.0 as usize].set_state(JobState::Stuck);
                    self.stats.client_stuck += 1;
                    return;
                }
                let d = self.exp_delay(ui_mean);
                self.queue
                    .schedule(self.now.after(d), EventKind::ArriveAtWms(id));
            }
        }
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::ArriveAtWms(id) => self.on_arrive_at_wms(id),
            EventKind::Dispatch(id) => self.on_dispatch(id),
            EventKind::EnterQueue(id) => self.on_enter_queue(id),
            EventKind::Start(id) => self.on_oracle_start(id),
            EventKind::Finish(id) => self.on_finish(id),
            EventKind::Fail(id) => self.on_fail(id),
            EventKind::CancelApply(id) => self.apply_cancel(id),
            EventKind::BackgroundArrival { site } => self.on_background_arrival(site),
            EventKind::InjectedArrival { exec } => self.on_injected_arrival(exec),
            EventKind::Timer { token } => {
                self.notifications.push_back(Notification::Timer {
                    token,
                    at: self.now,
                });
            }
        }
    }

    fn on_arrive_at_wms(&mut self, id: JobId) {
        if !self.jobs[id.0 as usize].state().is_pending() {
            return; // cancelled in flight
        }
        self.jobs[id.0 as usize].set_state(JobState::AtWms);
        let (p_fail, mm_mean) = match self.modulation_factors() {
            None => (
                self.cfg.faults.p_transient_failure,
                self.cfg.wms.matchmaking_mean_s,
            ),
            Some((intensity, fault)) => (
                clamp_fault(self.cfg.faults.p_transient_failure * fault),
                self.cfg.wms.matchmaking_mean_s * intensity,
            ),
        };
        if self.rng.gen::<f64>() < p_fail {
            let d = self.exp_delay(self.cfg.faults.failure_delay_mean_s);
            self.queue.schedule(self.now.after(d), EventKind::Fail(id));
        } else {
            let d = self.exp_delay(mm_mean);
            self.queue
                .schedule(self.now.after(d), EventKind::Dispatch(id));
        }
    }

    fn select_site(&mut self) -> usize {
        let stale = match self.cfg.wms.ranking {
            RankingPolicy::WeightedRandom => true,
            RankingPolicy::LeastLoaded { stale_prob } => self.rng.gen::<f64>() < stale_prob,
        };
        if stale {
            self.weighted_site()
        } else {
            // least (running + live queued) / slots ratio; ties go to the
            // lower index
            let mut best = 0usize;
            let mut best_load = f64::INFINITY;
            for (i, (sc, st)) in self.cfg.sites.iter().zip(&self.sites).enumerate() {
                let load = (st.running + st.queued) as f64 / sc.slots as f64;
                if load < best_load {
                    best_load = load;
                    best = i;
                }
            }
            best
        }
    }

    fn on_dispatch(&mut self, id: JobId) {
        if !self.jobs[id.0 as usize].state().is_pending() {
            return;
        }
        let site = self.select_site();
        let rec = &mut self.jobs[id.0 as usize];
        rec.set_state(JobState::Matched);
        rec.set_site(site);
        let dispatch_mean = match self.modulation_factors() {
            None => self.cfg.wms.dispatch_mean_s,
            Some((intensity, _)) => self.cfg.wms.dispatch_mean_s * intensity,
        };
        let d = self.exp_delay(dispatch_mean);
        self.queue
            .schedule(self.now.after(d), EventKind::EnterQueue(id));
    }

    fn on_enter_queue(&mut self, id: JobId) {
        if !self.jobs[id.0 as usize].state().is_pending() {
            return;
        }
        let rec = &mut self.jobs[id.0 as usize];
        let site = rec.site().expect("matched before queued");
        rec.set_state(JobState::Queued);
        self.enqueue(site, id);
    }

    /// Appends a queued job to a site's batch queue and fills free slots.
    fn enqueue(&mut self, site: usize, id: JobId) {
        self.sites[site].queue.push_back(id);
        self.sites[site].queued += 1;
        self.try_start_jobs(site);
    }

    /// Assigns free slots to queued live jobs, skipping cancelled residue.
    fn try_start_jobs(&mut self, site: usize) {
        while self.sites[site].running < self.cfg.sites[site].slots {
            let Some(id) = self.sites[site].queue.pop_front() else {
                break;
            };
            if self.jobs[id.0 as usize].state() != JobState::Queued {
                continue; // cancelled while waiting
            }
            self.sites[site].queued -= 1;
            self.sites[site].running += 1;
            self.start_job(id);
        }
    }

    fn start_job(&mut self, id: JobId) {
        let rec = &mut self.jobs[id.0 as usize];
        rec.start(self.now);
        let (exec, origin) = (rec.exec(), rec.origin());
        self.queue
            .schedule(self.now.after(exec), EventKind::Finish(id));
        match origin {
            JobOrigin::Client => {
                self.stats.client_started += 1;
                self.notifications
                    .push_back(Notification::JobStarted { id, at: self.now });
            }
            JobOrigin::Background => self.stats.background_started += 1,
        }
    }

    fn on_oracle_start(&mut self, id: JobId) {
        if !self.jobs[id.0 as usize].state().is_pending() {
            return; // cancelled before its latency elapsed
        }
        self.start_job(id);
    }

    fn on_finish(&mut self, id: JobId) {
        let rec = &mut self.jobs[id.0 as usize];
        if rec.state() != JobState::Running {
            return;
        }
        rec.terminate(JobState::Finished, self.now);
        let origin = rec.origin();
        if let Some(site) = rec.site() {
            self.sites[site].running = self.sites[site].running.saturating_sub(1);
            self.try_start_jobs(site);
        }
        if origin == JobOrigin::Client {
            self.notifications
                .push_back(Notification::JobFinished { id, at: self.now });
        }
    }

    fn on_fail(&mut self, id: JobId) {
        if !self.jobs[id.0 as usize].state().is_pending() {
            return;
        }
        self.jobs[id.0 as usize].terminate(JobState::Failed, self.now);
        self.stats.client_failed += 1;
        self.notifications
            .push_back(Notification::JobFailed { id, at: self.now });
    }

    fn schedule_next_background_arrival(&mut self) {
        let Some(bg) = self.cfg.background else {
            return;
        };
        let d = self.exp_delay(1.0 / bg.arrival_rate_per_s);
        // target site chosen at arrival time; store a placeholder here
        let site = self.weighted_site();
        self.queue
            .schedule(self.now.after(d), EventKind::BackgroundArrival { site });
    }

    /// Weight-proportional random site: one uniform draw, none (site 0)
    /// on an empty topology.
    fn weighted_site(&mut self) -> usize {
        if self.cfg.sites.is_empty() {
            return 0;
        }
        let total: f64 = self.cfg.sites.iter().map(|s| s.weight).sum();
        let mut x = self.rng.gen::<f64>() * total;
        for (i, s) in self.cfg.sites.iter().enumerate() {
            x -= s.weight;
            if x <= 0.0 {
                return i;
            }
        }
        self.cfg.sites.len() - 1
    }

    fn on_background_arrival(&mut self, site: usize) {
        let Some(bg) = self.cfg.background else {
            return;
        };
        if self.cfg.sites.is_empty() {
            return; // background load is meaningless without topology
        }
        // draw a log-normal execution time
        let ln = LogNormal::from_mean_std(bg.exec_mean_s, bg.exec_cv * bg.exec_mean_s)
            .expect("validated background config");
        let z = sample_standard_normal(&mut self.rng);
        let exec = (ln.mu() + ln.sigma() * z).exp();
        self.enqueue_background(site, SimDuration::from_secs(exec));
        self.schedule_next_background_arrival();
    }

    fn on_injected_arrival(&mut self, exec: SimDuration) {
        if self.cfg.sites.is_empty() {
            return; // no topology to land on
        }
        let site = self.weighted_site();
        self.enqueue_background(site, exec);
    }

    /// Inserts a background-origin job straight into a site's batch queue.
    fn enqueue_background(&mut self, site: usize, exec: SimDuration) {
        let id = JobId(self.jobs.len() as u64);
        let mut rec = JobRecord::new(JobOrigin::Background, 0, self.now, exec);
        rec.set_state(JobState::Queued);
        rec.set_site(site);
        self.jobs.push(rec);
        self.stats.background_submitted += 1;
        self.enqueue(site, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridstrat_workload::WeekModel;

    fn oracle_model(rho: f64) -> WeekModel {
        // light body (cv = 0.6) so natural tail censoring is negligible and
        // every non-outlier probe is guaranteed to start
        WeekModel::calibrate("t", 500.0, 300.0, rho, 50.0, 10_000.0).unwrap()
    }

    /// Controller that submits `n` probes at start and records their starts.
    struct CollectStarts {
        n: usize,
        latencies: Vec<f64>,
        submitted: Vec<JobId>,
        deadline_tokens: u64,
    }

    impl CollectStarts {
        fn new(n: usize) -> Self {
            CollectStarts {
                n,
                latencies: Vec::new(),
                submitted: Vec::new(),
                deadline_tokens: 0,
            }
        }
    }

    impl Controller for CollectStarts {
        fn start(&mut self, sim: &mut GridSimulation) {
            for _ in 0..self.n {
                let id = sim.submit();
                self.submitted.push(id);
            }
            // safety timeout so stuck jobs do not hang the run
            sim.set_timer(SimDuration::from_secs(20_000.0), 0);
        }
        fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
            match ev {
                Notification::JobStarted { id, at } => {
                    let lat = at.since(sim.job(id).submitted_at()).as_secs();
                    self.latencies.push(lat);
                }
                Notification::Timer { .. } => self.deadline_tokens += 1,
                _ => {}
            }
        }
        fn done(&self) -> bool {
            self.latencies.len() == self.n || self.deadline_tokens > 0
        }
    }

    #[test]
    fn oracle_latencies_match_model_mean() {
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 1).unwrap();
        let mut ctrl = CollectStarts::new(4000);
        sim.run_controller(&mut ctrl);
        assert_eq!(ctrl.latencies.len(), 4000);
        let mean = ctrl.latencies.iter().sum::<f64>() / 4000.0;
        assert!((mean - 500.0).abs() < 40.0, "mean {mean}");
        assert!(ctrl.latencies.iter().all(|&l| l >= 50.0));
    }

    #[test]
    fn oracle_outliers_become_stuck() {
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.3)), 2).unwrap();
        let mut ctrl = CollectStarts::new(2000);
        sim.run_controller(&mut ctrl);
        // the run ends via the deadline timer; stuck fraction ≈ 0.3
        let stuck = sim.stats().client_stuck as f64 / 2000.0;
        assert!((stuck - 0.3).abs() < 0.05, "stuck fraction {stuck}");
        assert!(ctrl.deadline_tokens > 0);
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed: u64| {
            let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.1)), seed).unwrap();
            let mut ctrl = CollectStarts::new(500);
            sim.run_controller(&mut ctrl);
            ctrl.latencies
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// One job's audit fields as read through the record's accessors:
    /// id (its table index), state, submission, start and termination
    /// instants (as `f64` bits), execution time, site, owner and origin.
    type JobPrint = (
        usize,
        JobState,
        u64,
        Option<u64>,
        Option<u64>,
        SimDuration,
        Option<usize>,
        u64,
        JobOrigin,
    );

    /// Full bit-level fingerprint of a finished run: every audit field of
    /// every job.
    fn fingerprint(sim: &GridSimulation) -> Vec<JobPrint> {
        sim.jobs()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    i,
                    r.state(),
                    r.submitted_at().as_secs().to_bits(),
                    r.started_at().map(|t| t.as_secs().to_bits()),
                    r.terminated_at().map(|t| t.as_secs().to_bits()),
                    r.exec(),
                    r.site(),
                    r.owner(),
                    r.origin(),
                )
            })
            .collect()
    }

    #[test]
    fn reset_reproduces_fresh_engine_bit_for_bit() {
        // a reused engine must be indistinguishable from a new one: same
        // job histories (to the bit), same stats, same collected latencies
        let run_fresh = |cfg: &GridConfig, seed: u64| {
            let mut sim = GridSimulation::new(cfg.clone(), seed).unwrap();
            let mut ctrl = CollectStarts::new(300);
            sim.run_controller(&mut ctrl);
            (fingerprint(&sim), sim.stats(), ctrl.latencies)
        };

        // oracle mode and pipeline mode with background load: the latter
        // exercises the event queue, site queues and background RNG stream
        let mut pipeline = GridConfig::pipeline_default();
        pipeline.background = Some(crate::config::BackgroundLoadConfig {
            arrival_rate_per_s: 0.05,
            exec_mean_s: 300.0,
            exec_cv: 1.0,
        });
        for cfg in [GridConfig::oracle(oracle_model(0.12)), pipeline] {
            // one engine reused across seeds — dirty state from seed 11
            // must not leak into the seed-22 run
            let mut sim = GridSimulation::new(cfg.clone(), 11).unwrap();
            let mut first = CollectStarts::new(300);
            sim.run_controller(&mut first);
            for seed in [11u64, 22, 33] {
                sim.reset(seed);
                let mut ctrl = CollectStarts::new(300);
                sim.run_controller(&mut ctrl);
                let (jobs, stats, latencies) = run_fresh(&cfg, seed);
                assert_eq!(fingerprint(&sim), jobs, "job audit diverged (seed {seed})");
                assert_eq!(sim.stats(), stats, "stats diverged (seed {seed})");
                assert_eq!(
                    ctrl.latencies
                        .iter()
                        .map(|l| l.to_bits())
                        .collect::<Vec<_>>(),
                    latencies.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    "latency stream diverged (seed {seed})"
                );
            }
        }
    }

    /// Submits jobs one after another (next on start, or on a safety
    /// timeout for stuck/failed ones), so submission instants sweep across
    /// a modulation's time axis instead of all landing at t = 0.
    struct Chain {
        n: usize,
        submitted: usize,
        current: Option<JobId>,
        latencies: Vec<f64>,
    }
    impl Chain {
        fn new(n: usize) -> Self {
            Chain {
                n,
                submitted: 0,
                current: None,
                latencies: Vec::new(),
            }
        }
        fn next(&mut self, sim: &mut GridSimulation) {
            let id = sim.submit();
            sim.set_timer(SimDuration::from_secs(11_000.0), id.0);
            self.current = Some(id);
            self.submitted += 1;
        }
    }
    impl Controller for Chain {
        fn start(&mut self, sim: &mut GridSimulation) {
            self.next(sim);
        }
        fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
            match ev {
                Notification::JobStarted { id, at } if self.current == Some(id) => {
                    self.latencies
                        .push(at.since(sim.job(id).submitted_at()).as_secs());
                    if self.submitted < self.n {
                        self.next(sim);
                    } else {
                        self.current = None;
                    }
                }
                Notification::Timer { token, .. } if self.current == Some(JobId(token)) => {
                    // stuck or failed: abandon it and move on
                    sim.cancel(JobId(token));
                    if self.submitted < self.n {
                        self.next(sim);
                    } else {
                        self.current = None;
                    }
                }
                _ => {}
            }
        }
        fn done(&self) -> bool {
            self.submitted >= self.n && self.current.is_none()
        }
    }

    #[test]
    fn modulated_oracle_peak_is_slower_than_trough() {
        use gridstrat_workload::DiurnalModel;
        // strong diurnal swing on a zero-fault oracle: jobs submitted in
        // the fast trough phase must start much sooner than peak-phase ones
        let base = oracle_model(0.0);
        let diurnal = DiurnalModel::new(base.clone(), 0.8, 86_400.0).unwrap();
        let mut cfg = GridConfig::oracle(base);
        cfg.modulation = Some(std::sync::Arc::new(diurnal));
        let mut sim = GridSimulation::new(cfg, 17).unwrap();
        let mut ctrl = Chain::new(3_000);
        sim.run_controller(&mut ctrl);
        assert_eq!(ctrl.latencies.len(), 3_000);
        // bucket latencies by submission phase
        let (mut peak, mut trough) = (Vec::new(), Vec::new());
        for rec in sim.jobs() {
            let Some(start) = rec.started_at() else {
                continue;
            };
            let lat = start.since(rec.submitted_at()).as_secs();
            let phase = (rec.submitted_at().as_secs() / 86_400.0).fract();
            if (0.15..0.35).contains(&phase) {
                peak.push(lat);
            } else if (0.65..0.85).contains(&phase) {
                trough.push(lat);
            }
        }
        assert!(peak.len() > 50 && trough.len() > 50);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&peak) > 2.0 * mean(&trough),
            "peak {} vs trough {}",
            mean(&peak),
            mean(&trough)
        );
        // the hard floor survives modulation
        assert!(ctrl.latencies.iter().all(|&l| l >= 50.0));
    }

    #[test]
    fn modulated_reset_reproduces_fresh_engine_bit_for_bit() {
        use gridstrat_workload::{DiurnalModel, RegimeShiftModel};
        // the engine_reuse_is_unobservable family, under an active
        // modulation: a reused engine must replay a modulated history
        // exactly (the modulation lives in the shared config and consumes
        // no per-engine state)
        let base = oracle_model(0.12);
        let mut oracle = GridConfig::oracle(base.clone());
        oracle.modulation = Some(std::sync::Arc::new(
            DiurnalModel::new(base.clone(), 0.6, 86_400.0).unwrap(),
        ));
        let mut pipeline = GridConfig::pipeline_default();
        pipeline.background = Some(crate::config::BackgroundLoadConfig {
            arrival_rate_per_s: 0.05,
            exec_mean_s: 300.0,
            exec_cv: 1.0,
        });
        pipeline.modulation = Some(std::sync::Arc::new(
            RegimeShiftModel::step(base, 500.0, 1.0, 2.5).unwrap(),
        ));
        // sequential submissions, so the oracle path samples the
        // modulation at many distinct instants, not just t = 0
        let chain = || Chain::new(300);
        let run_fresh = |cfg: &GridConfig, seed: u64| {
            let mut sim = GridSimulation::new(cfg.clone(), seed).unwrap();
            let mut ctrl = chain();
            sim.run_controller(&mut ctrl);
            (fingerprint(&sim), sim.stats(), ctrl.latencies)
        };
        for cfg in [oracle, pipeline] {
            let mut sim = GridSimulation::new(cfg.clone(), 11).unwrap();
            let mut first = chain();
            sim.run_controller(&mut first);
            for seed in [11u64, 22, 33] {
                sim.reset(seed);
                let mut ctrl = chain();
                sim.run_controller(&mut ctrl);
                let (jobs, stats, latencies) = run_fresh(&cfg, seed);
                assert_eq!(
                    fingerprint(&sim),
                    jobs,
                    "modulated job audit diverged (seed {seed})"
                );
                assert_eq!(sim.stats(), stats, "modulated stats diverged (seed {seed})");
                assert_eq!(
                    ctrl.latencies
                        .iter()
                        .map(|l| l.to_bits())
                        .collect::<Vec<_>>(),
                    latencies.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                    "modulated latency stream diverged (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn modulated_pipeline_storm_raises_faults_and_delays() {
        use gridstrat_workload::RegimeShiftModel;
        let base = oracle_model(0.0); // only used as the modulation base
        let mut calm_cfg = GridConfig::pipeline_default();
        calm_cfg.background = None;
        calm_cfg.faults.p_transient_failure = 0.0;
        calm_cfg.faults.p_silent_loss = 0.1;
        let mut storm_cfg = calm_cfg.clone();
        // storm from t = 0 (first regime): 3x hop delays, 4x silent loss
        storm_cfg.modulation = Some(std::sync::Arc::new(
            RegimeShiftModel::new(base, vec![1e9], vec![3.0, 1.0], vec![4.0, 1.0]).unwrap(),
        ));
        let run = |cfg: GridConfig| {
            let mut sim = GridSimulation::new(cfg, 23).unwrap();
            let mut ctrl = CollectStarts::new(600);
            sim.run_controller(&mut ctrl);
            let stuck = sim.stats().client_stuck as f64 / 600.0;
            let mean = ctrl.latencies.iter().sum::<f64>() / ctrl.latencies.len().max(1) as f64;
            (stuck, mean)
        };
        let (calm_stuck, calm_mean) = run(calm_cfg);
        let (storm_stuck, storm_mean) = run(storm_cfg);
        assert!(
            storm_stuck > 2.0 * calm_stuck,
            "stuck {calm_stuck} vs {storm_stuck}"
        );
        assert!(
            storm_mean > 2.0 * calm_mean,
            "mean {calm_mean} vs {storm_mean}"
        );
    }

    #[test]
    fn stepped_run_matches_uninterrupted_bit_for_bit() {
        // pausing at arbitrary epoch boundaries consumes no randomness
        // and moves no state: stepping must replay run_controller exactly.
        // A coupling layer injects load at each boundary, before the next
        // pending event, so a pause must not move the queue past the
        // boundary; the uninterrupted run gets the same injections up front
        let mut pipeline = GridConfig::pipeline_default();
        pipeline.background = Some(crate::config::BackgroundLoadConfig {
            arrival_rate_per_s: 0.05,
            exec_mean_s: 300.0,
            exec_cv: 1.0,
        });
        for cfg in [GridConfig::oracle(oracle_model(0.12)), pipeline] {
            for inject in [false, true] {
                let mut stepped = GridSimulation::new(cfg.clone(), 19).unwrap();
                let mut sctrl = Chain::new(200);
                stepped.start_controller(&mut sctrl);
                let mut boundaries = Vec::new();
                let mut t = 0.0;
                while !sctrl.done() && !stepped.queue.is_empty() {
                    t += 500.0; // uneven, mid-protocol boundaries
                    let until = SimTime::from_secs(t);
                    stepped.step_controller_until(&mut sctrl, until);
                    if inject {
                        stepped.inject_background(until, SimDuration::from_secs(40.0));
                        boundaries.push(until);
                    }
                }

                let mut sim = GridSimulation::new(cfg.clone(), 19).unwrap();
                for &at in &boundaries {
                    sim.inject_background(at, SimDuration::from_secs(40.0));
                }
                let mut ctrl = Chain::new(200);
                sim.run_controller(&mut ctrl);
                assert_eq!(
                    fingerprint(&stepped),
                    fingerprint(&sim),
                    "stepped job audit diverged"
                );
                assert_eq!(stepped.stats(), sim.stats(), "stepped stats diverged");
                assert_eq!(
                    sctrl
                        .latencies
                        .iter()
                        .map(|l| l.to_bits())
                        .collect::<Vec<_>>(),
                    ctrl.latencies
                        .iter()
                        .map(|l| l.to_bits())
                        .collect::<Vec<_>>(),
                );
            }
        }
    }

    #[test]
    fn a_drained_run_ends_at_its_last_live_event() {
        // a cancelled timer is no event: a run that drains its queue
        // stops the clock at the last event that fired, not at the expiry
        // of a timer nobody waits for
        struct ArmAndCancel {
            fired: Vec<u64>,
        }
        impl Controller for ArmAndCancel {
            fn start(&mut self, sim: &mut GridSimulation) {
                let far = sim.set_timer(SimDuration::from_secs(900_000.0), 1);
                sim.set_timer(SimDuration::from_secs(10.0), 2);
                sim.cancel_timer(far);
            }
            fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
                if let Notification::Timer { token, .. } = ev {
                    self.fired.push(token);
                }
            }
            fn done(&self) -> bool {
                false // runs until the queue drains
            }
        }
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 9).unwrap();
        let mut ctrl = ArmAndCancel { fired: Vec::new() };
        sim.run_controller(&mut ctrl);
        assert_eq!(ctrl.fired, vec![2]);
        assert_eq!(sim.now(), SimTime::from_secs(10.0));
        assert_eq!(sim.stats().timers_cancelled, 1);
        assert!(sim.queue.is_empty());
    }

    #[test]
    fn injected_background_jobs_occupy_slots() {
        // an injected job is indistinguishable from configured background
        // traffic: it queues at a weighted site, holds a slot for its
        // execution time, and delays client work behind it
        let mut cfg = GridConfig::pipeline_default();
        cfg.faults.p_silent_loss = 0.0;
        cfg.faults.p_transient_failure = 0.0;
        cfg.background = None;
        cfg.sites = vec![crate::config::SiteConfig {
            name: "tiny".into(),
            slots: 1,
            weight: 1.0,
        }];
        let mut sim = GridSimulation::new(cfg, 31).unwrap();
        // occupy the lone slot from t=0 for 5 000 s, then probe
        sim.inject_background(SimTime::ZERO, SimDuration::from_secs(5_000.0));
        let mut ctrl = CollectStarts::new(1);
        sim.run_controller(&mut ctrl);
        assert_eq!(sim.stats().background_submitted, 1);
        assert_eq!(sim.stats().background_started, 1);
        assert_eq!(ctrl.latencies.len(), 1);
        assert!(
            ctrl.latencies[0] >= 5_000.0,
            "client start should wait out the injected job, waited {}",
            ctrl.latencies[0]
        );
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn inject_background_rejects_past_instants() {
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 1).unwrap();
        let mut ctrl = CollectStarts::new(1);
        sim.run_controller(&mut ctrl); // advances the clock
        sim.inject_background(SimTime::ZERO, SimDuration::from_secs(1.0));
    }

    #[test]
    fn reset_clears_pending_timers_and_events() {
        // arm a far-future timer, reset, and confirm it never fires
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 5).unwrap();
        sim.set_timer(SimDuration::from_secs(1.0), 777);
        sim.submit();
        sim.reset(5);
        let mut ctrl = CollectStarts::new(10);
        sim.run_controller(&mut ctrl);
        assert_eq!(ctrl.deadline_tokens, 0, "stale timer leaked through reset");
        assert_eq!(sim.stats().client_submitted, 10);
        assert_eq!(sim.jobs().len(), 10, "stale job records leaked");
    }

    #[test]
    fn scope_tags_owners_and_namespaces_timers() {
        struct TwoOwners {
            tokens: Vec<u64>,
        }
        impl Controller for TwoOwners {
            fn start(&mut self, sim: &mut GridSimulation) {
                sim.set_scope(7);
                sim.submit();
                sim.set_timer(SimDuration::from_secs(1.0), 3);
                sim.set_scope(9);
                sim.submit();
                sim.set_timer(SimDuration::from_secs(2.0), 3);
                sim.set_scope(0);
                sim.submit();
                sim.set_timer(SimDuration::from_secs(3.0), 3);
            }
            fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
                if let Notification::Timer { token, .. } = ev {
                    self.tokens.push(token);
                }
            }
            fn done(&self) -> bool {
                self.tokens.len() == 3
            }
        }
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 12).unwrap();
        let mut ctrl = TwoOwners { tokens: Vec::new() };
        sim.run_controller(&mut ctrl);
        // same raw token, three distinct namespaced deliveries in arm order
        assert_eq!(ctrl.tokens, vec![7 << 32 | 3, 9 << 32 | 3, 3]);
        let owners: Vec<u64> = sim.jobs().iter().map(|r| r.owner()).collect();
        assert_eq!(owners, vec![7, 9, 0]);
    }

    #[test]
    fn default_exec_applies_to_plain_submit() {
        struct OneJob {
            finished_at: Option<f64>,
        }
        impl Controller for OneJob {
            fn start(&mut self, sim: &mut GridSimulation) {
                sim.set_default_exec(SimDuration::from_secs(500.0));
                sim.submit();
            }
            fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
                if let Notification::JobFinished { at, .. } = ev {
                    self.finished_at = Some(at.as_secs());
                }
            }
            fn done(&self) -> bool {
                self.finished_at.is_some()
            }
        }
        let mut cfg = GridConfig::pipeline_default();
        cfg.faults.p_silent_loss = 0.0;
        cfg.faults.p_transient_failure = 0.0;
        cfg.background = None;
        let mut sim = GridSimulation::new(cfg, 13).unwrap();
        let mut ctrl = OneJob { finished_at: None };
        sim.run_controller(&mut ctrl);
        let rec = &sim.jobs()[0];
        let held = rec
            .terminated_at()
            .unwrap()
            .since(rec.started_at().unwrap());
        assert!(
            (held.as_secs() - 500.0).abs() < 1e-9,
            "job held its slot {} s",
            held.as_secs()
        );
        // reset clears both hooks
        sim.set_scope(4);
        sim.reset(13);
        assert_eq!(sim.scope(), 0);
        let probe = sim.submit();
        assert_eq!(sim.job(probe).exec(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn scoped_timer_rejects_wide_tokens() {
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 14).unwrap();
        sim.set_scope(1);
        sim.set_timer(SimDuration::from_secs(1.0), 1 << 33);
    }

    #[test]
    fn cancel_prevents_start() {
        struct CancelImmediately {
            started: bool,
            finished: bool,
        }
        impl Controller for CancelImmediately {
            fn start(&mut self, sim: &mut GridSimulation) {
                let id = sim.submit();
                assert!(sim.cancel(id));
                assert!(!sim.cancel(id)); // double cancel is a no-op
                sim.set_timer(SimDuration::from_secs(30_000.0), 1);
            }
            fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
                match ev {
                    Notification::JobStarted { .. } => self.started = true,
                    Notification::Timer { .. } => self.finished = true,
                    _ => {}
                }
            }
            fn done(&self) -> bool {
                self.finished
            }
        }
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 3).unwrap();
        let mut ctrl = CancelImmediately {
            started: false,
            finished: false,
        };
        sim.run_controller(&mut ctrl);
        assert!(!ctrl.started, "cancelled job must never start");
        assert_eq!(sim.stats().client_cancelled, 1);
        assert_eq!(
            sim.stats().client_cancel_requests,
            1,
            "a refused request is not counted"
        );
        assert_eq!(sim.stats().client_started, 0);
    }

    #[test]
    fn slow_cancellation_lets_jobs_start_anyway() {
        // with a long cancellation delay, an immediately-cancelled job can
        // still start (the burst-waste mechanism)
        struct CancelThenWatch {
            started: bool,
            timer_done: bool,
        }
        impl Controller for CancelThenWatch {
            fn start(&mut self, sim: &mut GridSimulation) {
                let id = sim.submit();
                assert!(sim.cancel(id)); // request accepted…
                sim.set_timer(SimDuration::from_secs(30_000.0), 1);
            }
            fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
                match ev {
                    Notification::JobStarted { .. } => self.started = true,
                    Notification::Timer { .. } => self.timer_done = true,
                    _ => {}
                }
            }
            fn done(&self) -> bool {
                self.timer_done
            }
        }
        let mut cfg = GridConfig::oracle(oracle_model(0.0));
        cfg.wms.cancellation_delay_mean_s = 50_000.0; // far beyond any latency
        let mut sim = GridSimulation::new(cfg, 21).unwrap();
        let mut ctrl = CancelThenWatch {
            started: false,
            timer_done: false,
        };
        sim.run_controller(&mut ctrl);
        assert!(ctrl.started, "job should start before the cancel lands");
        assert_eq!(sim.stats().client_cancelled, 0);
        assert_eq!(sim.stats().client_cancel_requests, 1);
    }

    #[test]
    fn rejects_negative_cancellation_delay() {
        let mut cfg = GridConfig::oracle(oracle_model(0.0));
        cfg.wms.cancellation_delay_mean_s = -1.0;
        assert!(GridSimulation::new(cfg, 1).is_err());
    }

    #[test]
    fn pipeline_jobs_start_and_conserve_states() {
        let mut cfg = GridConfig::pipeline_default();
        cfg.faults.p_silent_loss = 0.0;
        cfg.faults.p_transient_failure = 0.0;
        cfg.background = None;
        let mut sim = GridSimulation::new(cfg, 4).unwrap();
        let mut ctrl = CollectStarts::new(200);
        sim.run_controller(&mut ctrl);
        assert_eq!(ctrl.latencies.len(), 200);
        // pipeline latency = three exponential hops; mean ≈ 15+45+30 = 90
        let mean = ctrl.latencies.iter().sum::<f64>() / 200.0;
        assert!(mean > 40.0 && mean < 200.0, "pipeline mean {mean}");
    }

    #[test]
    fn pipeline_faults_surface_or_stick() {
        let mut cfg = GridConfig::pipeline_default();
        cfg.faults.p_silent_loss = 0.5;
        cfg.faults.p_transient_failure = 0.5;
        cfg.background = None;

        struct CountTerminal {
            failed: u64,
            started: u64,
            timer: bool,
        }
        impl Controller for CountTerminal {
            fn start(&mut self, sim: &mut GridSimulation) {
                for _ in 0..400 {
                    sim.submit();
                }
                sim.set_timer(SimDuration::from_secs(100_000.0), 9);
            }
            fn on_event(&mut self, _sim: &mut GridSimulation, ev: Notification) {
                match ev {
                    Notification::JobFailed { .. } => self.failed += 1,
                    Notification::JobStarted { .. } => self.started += 1,
                    Notification::Timer { .. } => self.timer = true,
                    _ => {}
                }
            }
            fn done(&self) -> bool {
                self.timer
            }
        }
        let mut sim = GridSimulation::new(cfg, 5).unwrap();
        let mut ctrl = CountTerminal {
            failed: 0,
            started: 0,
            timer: false,
        };
        sim.run_controller(&mut ctrl);
        let stats = sim.stats();
        assert_eq!(stats.client_submitted, 400);
        // every job is accounted for exactly once
        assert_eq!(
            stats.client_started + stats.client_failed + stats.client_stuck,
            400
        );
        assert!((stats.client_stuck as f64 / 400.0 - 0.5).abs() < 0.1);
        // of the survivors, about half fail transiently
        let survivors = 400 - stats.client_stuck;
        assert!((stats.client_failed as f64 / survivors as f64 - 0.5).abs() < 0.12);
        assert_eq!(ctrl.failed, stats.client_failed);
    }

    #[test]
    fn background_load_creates_queueing() {
        let mut cfg = GridConfig::pipeline_default();
        cfg.faults.p_silent_loss = 0.0;
        cfg.faults.p_transient_failure = 0.0;
        // saturate: tiny farm, heavy arrivals
        cfg.sites = vec![crate::config::SiteConfig {
            name: "tiny".into(),
            slots: 2,
            weight: 1.0,
        }];
        cfg.background = Some(crate::config::BackgroundLoadConfig {
            arrival_rate_per_s: 0.05,
            exec_mean_s: 600.0,
            exec_cv: 1.0,
        });
        let mut sim = GridSimulation::new(cfg, 6).unwrap();
        let mut ctrl = CollectStarts::new(50);
        sim.run_controller(&mut ctrl);
        assert!(sim.stats().background_submitted > 0);
        // queueing behind background work pushes latency well above the
        // pure hop delays (~90 s)
        let mean = ctrl.latencies.iter().sum::<f64>() / ctrl.latencies.len() as f64;
        assert!(mean > 150.0, "expected congestion, mean {mean}");
    }

    #[test]
    fn least_loaded_ranking_ignores_cancelled_queue_residue() {
        // two one-slot sites, both busy; then site 0 queues two jobs that
        // are cancelled and site 1 one live job: site 0 is the less loaded
        // and must win the next match
        let mut cfg = GridConfig::pipeline_default();
        cfg.background = None;
        cfg.faults.p_silent_loss = 0.0;
        cfg.faults.p_transient_failure = 0.0;
        cfg.wms.ui_to_wms_mean_s = 1e-3;
        cfg.wms.matchmaking_mean_s = 1e-3;
        cfg.wms.dispatch_mean_s = 1e-3;
        cfg.wms.ranking = RankingPolicy::LeastLoaded { stale_prob: 0.0 };
        let site = |name: &str| crate::config::SiteConfig {
            name: name.into(),
            slots: 1,
            weight: 1.0,
        };
        cfg.sites = vec![site("A"), site("B")];
        cfg.horizon = SimDuration::from_secs(100.0);

        /// One action every 10 s; every job holds its slot past the
        /// horizon, so nothing ever leaves a site.
        struct Script {
            jobs: Vec<JobId>,
        }
        impl Script {
            fn act(&mut self, sim: &mut GridSimulation) {
                if self.jobs.len() == 5 {
                    // cancel the two jobs queued at site 0
                    assert!(sim.cancel(self.jobs[2]));
                    assert!(sim.cancel(self.jobs[4]));
                }
                if self.jobs.len() < 6 {
                    self.jobs.push(sim.submit());
                    sim.set_timer(SimDuration::from_secs(10.0), 0);
                }
            }
        }
        impl Controller for Script {
            fn start(&mut self, sim: &mut GridSimulation) {
                sim.set_default_exec(SimDuration::from_secs(1e6));
                self.act(sim);
            }
            fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
                if let Notification::Timer { .. } = ev {
                    self.act(sim);
                }
            }
            fn done(&self) -> bool {
                false // runs to the horizon
            }
        }
        let mut sim = GridSimulation::new(cfg, 41).unwrap();
        let mut ctrl = Script { jobs: Vec::new() };
        sim.run_controller(&mut ctrl);
        let sites: Vec<Option<usize>> = ctrl.jobs.iter().map(|&id| sim.job(id).site()).collect();
        // running A@0, B@1; queued C1@0, C2@1, C3@0 (ties go to site 0)
        assert_eq!(sites[..5], [Some(0), Some(1), Some(0), Some(1), Some(0)]);
        assert_eq!(sim.job(ctrl.jobs[2]).state(), JobState::Cancelled);
        assert_eq!(sim.job(ctrl.jobs[3]).state(), JobState::Queued);
        // live load: site 0 = 1 running, site 1 = 1 running + 1 queued
        assert_eq!(sites[5], Some(0), "cancelled jobs were counted as load");
    }

    #[test]
    fn horizon_stops_runaway_runs() {
        let mut cfg = GridConfig::pipeline_default();
        cfg.horizon = SimDuration::from_secs(100.0);
        let mut sim = GridSimulation::new(cfg, 7).unwrap();
        // controller that never finishes on its own
        struct Never;
        impl Controller for Never {
            fn start(&mut self, sim: &mut GridSimulation) {
                sim.submit();
            }
            fn on_event(&mut self, _: &mut GridSimulation, _: Notification) {}
            fn done(&self) -> bool {
                false
            }
        }
        sim.run_controller(&mut Never);
        assert!(sim.now().as_secs() <= 100.0 + 1e-9);
    }

    #[test]
    fn job_records_are_audit_complete() {
        let mut sim = GridSimulation::new(GridConfig::oracle(oracle_model(0.0)), 8).unwrap();
        let mut ctrl = CollectStarts::new(50);
        sim.run_controller(&mut ctrl);
        for rec in sim.jobs() {
            // the run stops the instant the last start is observed, so its
            // same-instant Finish event may be left unprocessed
            assert!(
                rec.state() == JobState::Finished || rec.state() == JobState::Running,
                "unexpected state {:?}",
                rec.state()
            );
            let started = rec.started_at().unwrap();
            assert!(started >= rec.submitted_at());
            assert_eq!(rec.exec(), SimDuration::ZERO);
            if rec.state() == JobState::Finished {
                assert_eq!(rec.terminated_at().unwrap(), started); // zero exec time
            }
        }
    }
}
