//! The fleet controller: multiplexes a whole community of user agents onto
//! one shared [`GridSimulation`].
//!
//! Every agent runs its strategy in a
//! [`TaskSession`](gridstrat_core::TaskSession) — the *same*
//! echelon controller the single-user Monte-Carlo executors run — and
//! the fleet routes engine notifications to the right agent using the
//! engine's client-scope hooks:
//!
//! * job events are routed by the `owner` tag the engine stamped on the
//!   job at submission time;
//! * timer tokens are namespaced by the engine under the scope that was
//!   active when the timer was armed, so two users' (or two tasks')
//!   identical raw tokens can never collide;
//! * the scope encodes `(user, task-epoch)`, and each agent's
//!   task session drops whatever is not
//!   about its current task, so a stale timer or a redundant copy
//!   surviving from an already-completed task is silently dropped instead
//!   of corrupting the next task's protocol state.

use crate::agent::{ArrivalProcess, Assignment, UserAgent};
use crate::metrics::{FleetRun, GroupStream, UserOutcome};
use crate::mix::MAX_USERS;
use gridstrat_sim::job::JobOrigin;
use gridstrat_sim::{Controller, GridSimulation, JobId, Notification, SimDuration};

/// Scope bit layout: `(user + 1) << 16 | epoch` — 16 bits of task epoch,
/// 16 bits of (1-based) user index, all within the engine's 32-bit scope.
const EPOCH_BITS: u32 = 16;
const EPOCH_MASK: u64 = (1 << EPOCH_BITS) - 1;
/// Reserved scope for the fleet's own task-arrival timers.
const ARRIVAL_SCOPE: u64 = u32::MAX as u64;

/// Encodes a `(user, epoch)` pair into an engine client scope.
fn user_scope(user: usize, epoch: u64) -> u64 {
    ((user as u64 + 1) << EPOCH_BITS) | (epoch & EPOCH_MASK)
}

/// Decodes an engine client scope back into `(user, epoch)`. Returns
/// `None` for the unscoped value `0` and the reserved arrival scope.
fn decode_user_scope(scope: u64) -> Option<(usize, u64)> {
    if scope == 0 || scope == ARRIVAL_SCOPE {
        return None;
    }
    let user = (scope >> EPOCH_BITS) as usize - 1;
    Some((user, scope & EPOCH_MASK))
}

/// A community of users sharing one grid engine.
///
/// Implements [`Controller`], so it runs through the ordinary
/// [`GridSimulation::run_controller`] loop; [`FleetController::collect`]
/// turns the finished run into a [`FleetRun`] metrics record.
pub struct FleetController {
    agents: Vec<UserAgent>,
    tasks_per_user: usize,
    /// Users that have completed all `tasks_per_user` tasks, counted as
    /// they finish so [`Controller::done`] is O(1) per event.
    users_done: usize,
    exec: SimDuration,
    arrival: ArrivalProcess,
    /// Bit per engine job id, set for the start that completed a task
    /// (the "useful" starts; every other client start burned a slot
    /// redundantly). A plain bitset so [`FleetController::collect`] tests
    /// membership in O(1) without rebuilding a hash set per collect.
    winner_bits: Vec<u64>,
    /// Per-group streaming latency metrics, indexed by group id (`None`
    /// for groups the apportionment left without members).
    groups: Vec<Option<GroupStream>>,
}

/// Sets bit `id` in a growable bitset.
fn mark_winner(bits: &mut Vec<u64>, id: JobId) {
    let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1 << bit;
}

/// Tests bit `id` of the bitset.
fn is_winner(bits: &[u64], id: JobId) -> bool {
    let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
    bits.get(word).is_some_and(|w| w >> bit & 1 == 1)
}

impl FleetController {
    /// Builds a fleet from one assignment per user.
    ///
    /// `fleet_seed` roots every user's private RNG stream
    /// (`derive_seed(fleet_seed, user)` — see
    /// [`crate::agent::user_stream_seed`]). `group_window` bounds the
    /// per-group streaming-metrics window (see
    /// [`crate::mix::FleetConfig::group_window`]).
    pub fn new(
        assignments: &[Assignment],
        tasks_per_user: usize,
        task_exec_s: f64,
        arrival: ArrivalProcess,
        fleet_seed: u64,
        group_window: usize,
    ) -> Self {
        assert!(!assignments.is_empty(), "a fleet needs at least one user");
        assert!(
            assignments.len() <= MAX_USERS,
            "community size {} exceeds the {MAX_USERS}-user scope limit",
            assignments.len()
        );
        assert!(
            (1..=EPOCH_MASK).contains(&(tasks_per_user as u64)),
            "tasks_per_user must be positive and fit in the 16-bit epoch field"
        );
        assert!(group_window > 0, "group window must be positive");
        let n_groups = assignments.iter().map(|a| a.group + 1).max().unwrap_or(0);
        let mut groups: Vec<Option<GroupStream>> = vec![None; n_groups];
        for a in assignments {
            groups[a.group]
                .get_or_insert_with(|| GroupStream::new(a.group, a.strategy, 0, group_window))
                .members += 1;
        }
        FleetController {
            agents: assignments
                .iter()
                .enumerate()
                .map(|(u, a)| UserAgent::new(u, *a, fleet_seed))
                .collect(),
            tasks_per_user,
            users_done: 0,
            exec: SimDuration::from_secs(task_exec_s),
            arrival,
            winner_bits: Vec::new(),
            groups,
        }
    }

    /// Rewinds the fleet to the state `new` would construct it in (with
    /// the given seed), keeping every allocation. A reset fleet drives a
    /// run **bit-identically** to a fresh one — the property the sweep's
    /// per-worker reuse relies on.
    pub fn reset(&mut self, fleet_seed: u64) {
        for (u, agent) in self.agents.iter_mut().enumerate() {
            agent.reset(u, fleet_seed);
        }
        self.users_done = 0;
        self.winner_bits.iter_mut().for_each(|w| *w = 0);
        for g in self.groups.iter_mut().flatten() {
            g.clear();
        }
    }

    /// Number of users in the community.
    pub fn users(&self) -> usize {
        self.agents.len()
    }

    /// Tasks completed so far across the whole community.
    pub fn tasks_completed(&self) -> usize {
        self.agents.iter().map(|a| a.tasks_done).sum()
    }

    fn arm_arrival(&mut self, sim: &mut GridSimulation, user: usize, delay_s: f64) {
        sim.set_scope(ARRIVAL_SCOPE);
        sim.set_timer(SimDuration::from_secs(delay_s), user as u64);
        sim.set_scope(0);
    }

    /// Launches user `user`'s next task: its session rewinds the wrapped
    /// controller and lets it open its protocol under the task's
    /// `(user, epoch)` scope with the task's execution time as the default.
    fn launch(&mut self, sim: &mut GridSimulation, user: usize) {
        let agent = &mut self.agents[user];
        debug_assert!(!agent.active, "launch while a task is in flight");
        agent.active = true;
        agent.task_started_s = sim.now().as_secs();
        let scope = user_scope(user, agent.tasks_done as u64);
        agent.session.begin(scope, self.exec);
        agent.session.start(sim);
    }

    /// Routes one notification to the owning agent's session (which drops
    /// it unless it is about the agent's *current* task) and handles task
    /// completion.
    fn deliver(&mut self, sim: &mut GridSimulation, user: usize, ev: Notification) {
        let agent = &mut self.agents[user];
        if !agent.active {
            return; // stale: an echo from an already-completed task
        }
        agent.session.on_event(sim, ev);
        let Some(j_abs) = agent.session.total_latency() else {
            return;
        };
        // task complete: the wrapped controller reports the absolute start
        // instant of the winning job; task latency is measured from launch
        let task_latency = j_abs - agent.task_started_s;
        agent.latency.push(task_latency);
        agent.active = false;
        agent.tasks_done += 1;
        self.groups[self.agents[user].assignment.group]
            .as_mut()
            .expect("populated group for an active agent")
            .observe(task_latency);
        let agent = &mut self.agents[user];
        let more = agent.tasks_done < self.tasks_per_user;
        if !more {
            self.users_done += 1;
        }
        // adaptive users: harvest this task's own per-job outcomes and
        // re-tune every `retune_every` completed tasks
        if let (Some(cfg), Some(est)) = (agent.assignment.adaptive, agent.estimator.as_mut()) {
            let t_inf = gridstrat_core::adaptive::timeout_of(agent.params);
            #[cfg(not(test))]
            agent.session.harvest(sim, t_inf, est);
            #[cfg(test)]
            tests::harvest(&agent.session, sim, t_inf, est);
            if more && agent.tasks_done.is_multiple_of(cfg.retune_every) {
                let next = gridstrat_core::adaptive::retune_params(agent.params, est, &cfg);
                if next != agent.params {
                    agent.params = next;
                    agent.session.rebind(next);
                }
            }
        }
        let delay = if more {
            self.arrival.delay(&mut agent.rng)
        } else {
            0.0
        };
        if let Notification::JobStarted { id, .. } = ev {
            mark_winner(&mut self.winner_bits, id);
        }
        if more {
            self.arm_arrival(sim, user, delay);
        }
    }

    /// Measures the finished run: per-user outcomes plus the engine-level
    /// occupancy integrals the ecosystem metrics are computed from.
    pub fn collect(&self, sim: &GridSimulation) -> FleetRun {
        let makespan_s = sim.now().as_secs();
        let mut useful_busy_s = 0.0;
        let mut client_busy_s = 0.0;
        let mut total_busy_s = 0.0;
        for (id, rec) in sim.jobs().iter().enumerate() {
            let Some(start) = rec.started_at() else {
                continue;
            };
            let end = rec
                .terminated_at()
                .map_or(makespan_s, |t| t.as_secs())
                .min(makespan_s);
            let busy = (end - start.as_secs()).max(0.0);
            total_busy_s += busy;
            if rec.origin() == JobOrigin::Client {
                client_busy_s += busy;
                if is_winner(&self.winner_bits, JobId(id as u64)) {
                    useful_busy_s += busy;
                }
            }
        }
        let slots: usize = sim.config().sites.iter().map(|s| s.slots).sum();
        let run = FleetRun {
            users: self
                .agents
                .iter()
                .map(|a| UserOutcome {
                    group: a.assignment.group,
                    strategy: a.assignment.strategy,
                    tasks_done: a.tasks_done,
                    latency: a.latency,
                })
                .collect(),
            groups: self.groups.clone(),
            tasks_per_user: self.tasks_per_user,
            makespan_s,
            client_submitted: sim.stats().client_submitted,
            client_started: sim.stats().client_started,
            useful_busy_s,
            client_busy_s,
            total_busy_s,
            slot_capacity_s: slots as f64 * makespan_s,
        };
        // every completed task has exactly one started winner, so a run
        // collected from a consistent engine can never complete more tasks
        // than it started jobs — `FleetRun::wasted_starts` saturates only
        // for truncated records assembled outside this method
        debug_assert!(
            run.client_started >= run.tasks_completed() as u64,
            "collected run completed more tasks than it started jobs"
        );
        run
    }
}

impl Controller for FleetController {
    fn start(&mut self, sim: &mut GridSimulation) {
        for user in 0..self.agents.len() {
            let d = self.arrival.delay(&mut self.agents[user].rng);
            self.arm_arrival(sim, user, d);
        }
    }

    fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
        match ev {
            Notification::Timer { token, .. } => {
                let scope = token >> 32;
                if scope == ARRIVAL_SCOPE {
                    self.launch(sim, (token & u32::MAX as u64) as usize);
                } else if let Some((user, _)) = decode_user_scope(scope) {
                    self.deliver(sim, user, ev);
                }
            }
            Notification::JobStarted { id, .. }
            | Notification::JobFinished { id, .. }
            | Notification::JobFailed { id, .. } => {
                if let Some((user, _)) = decode_user_scope(sim.job(id).owner()) {
                    self.deliver(sim, user, ev);
                }
            }
        }
    }

    fn done(&self) -> bool {
        let done = self.users_done == self.agents.len();
        debug_assert_eq!(
            done,
            self.agents
                .iter()
                .all(|a| a.tasks_done >= self.tasks_per_user)
        );
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::FleetConfig;
    use gridstrat_core::adaptive::{AdaptiveConfig, RetunePolicy};
    use gridstrat_core::cost::StrategyParams;
    use gridstrat_core::TaskSession;
    use gridstrat_stats::StreamingEcdf;
    use std::cell::Cell;

    thread_local! {
        /// Harvest through the full-scan oracle instead of the session.
        static FULL_SCAN: Cell<bool> = const { Cell::new(false) };
        /// Session job-list lengths summed over every harvest.
        static HARVESTED: Cell<u64> = const { Cell::new(0) };
    }

    /// The adaptive agents' harvest under test: the session's own-job
    /// harvest, or the full-scan oracle — every client job of the whole
    /// table whose owner is the task's scope, in table order.
    pub(super) fn harvest(
        session: &TaskSession,
        sim: &GridSimulation,
        t_inf: f64,
        est: &mut StreamingEcdf,
    ) {
        HARVESTED.set(HARVESTED.get() + session.jobs().len() as u64);
        if !FULL_SCAN.get() {
            return session.harvest(sim, t_inf, est);
        }
        let now = sim.now().as_secs();
        for rec in sim.jobs() {
            if rec.owner() != session.scope() || rec.origin() != JobOrigin::Client {
                continue;
            }
            match rec.started_at() {
                Some(st) => est.observe_started(st.since(rec.submitted_at()).as_secs()),
                None => {
                    let end = rec.terminated_at().map_or(now, |t| t.as_secs());
                    let waited = (end - rec.submitted_at().as_secs()).max(0.0);
                    if gridstrat_core::adaptive::is_timeout_censored(waited, t_inf) {
                        est.observe_censored(waited);
                    }
                }
            }
        }
    }

    /// An all-adaptive community on a scarce farm whose users retune every
    /// two tasks from a reachable body count.
    fn adaptive_fleet(users: usize) -> (GridSimulation, FleetController) {
        let cfg = FleetConfig::small_farm(users / 3);
        let adaptive = AdaptiveConfig {
            retune_every: 2,
            window: 100,
            decay: 0.95,
            min_body: 3,
            policy: RetunePolicy::EmpiricalBackoff {
                max_censored_fraction: 0.5,
                growth: 1.5,
            },
        };
        let assignments: Vec<Assignment> = (0..users)
            .map(|u| Assignment {
                strategy: if u % 2 == 0 {
                    StrategyParams::Single { t_inf: 2000.0 }
                } else {
                    StrategyParams::Multiple {
                        b: 2,
                        t_inf: 2000.0,
                    }
                },
                group: u % 2,
                adaptive: Some(adaptive),
            })
            .collect();
        let sim = GridSimulation::new(cfg.grid, 0x5E55).expect("valid farm");
        let fleet = FleetController::new(
            &assignments,
            8,
            300.0,
            ArrivalProcess::ThinkTime { mean_s: 600.0 },
            0xF1EE7,
            cfg.group_window,
        );
        (sim, fleet)
    }

    #[test]
    fn session_harvest_matches_full_scan_oracle() {
        let run = |full_scan: bool| {
            FULL_SCAN.set(full_scan);
            let (mut sim, mut fleet) = adaptive_fleet(30);
            sim.run_controller(&mut fleet);
            FULL_SCAN.set(false);
            let params: Vec<StrategyParams> = fleet.agents.iter().map(|a| a.params).collect();
            let retuned = fleet
                .agents
                .iter()
                .filter(|a| a.params != a.assignment.strategy)
                .count();
            // Debug prints every f64 at round-trip precision, so equal
            // strings mean bit-identical runs
            (format!("{:?}", fleet.collect(&sim)), params, retuned)
        };
        let (session_run, session_params, retuned) = run(false);
        let (oracle_run, oracle_params, _) = run(true);
        assert!(retuned > 0, "the fixture must exercise retuning");
        assert_eq!(session_params, oracle_params);
        assert_eq!(session_run, oracle_run);
    }

    #[test]
    fn harvest_work_equals_own_jobs() {
        // every client job belongs to exactly one adaptive task's session,
        // so the harvests together visit each job once: O(own jobs)
        let (mut sim, mut fleet) = adaptive_fleet(30);
        HARVESTED.set(0);
        sim.run_controller(&mut fleet);
        assert!(fleet.done());
        assert_eq!(HARVESTED.get(), sim.stats().client_submitted);
    }

    #[test]
    fn scope_roundtrip() {
        for user in [0usize, 1, 41, 59_999] {
            for epoch in [0u64, 1, 255, 65_535] {
                let s = user_scope(user, epoch);
                assert!(s <= u32::MAX as u64, "scope overflows 32 bits");
                assert_ne!(s, 0);
                assert_ne!(s, ARRIVAL_SCOPE);
                assert_eq!(decode_user_scope(s), Some((user, epoch)));
            }
        }
        assert_eq!(decode_user_scope(0), None);
        assert_eq!(decode_user_scope(ARRIVAL_SCOPE), None);
    }
}
