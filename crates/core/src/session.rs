//! Task sessions: one task's scoped conversation with an engine shared by
//! many owners (the tasks of a sequence run, the users of a community fleet).

use crate::adaptive::is_timeout_censored;
use crate::cost::StrategyParams;
use crate::executor::EchelonCtrl;
use gridstrat_sim::{Controller, GridSimulation, JobId, Notification, SimDuration};
use gridstrat_stats::StreamingEcdf;

/// A strategy's controller bound to one task's engine client scope and
/// default execution time. It drops notifications of other scopes (stale
/// echoes, other users' jobs) and records the [`JobId`]s the task
/// submitted, so harvesting its observations costs O(own jobs). Reused
/// from task to task ([`TaskSession::begin`]); as a [`Controller`] it
/// rewinds the wrapped controller on `start`.
pub struct TaskSession {
    ctrl: EchelonCtrl,
    scope: u64,
    exec: SimDuration,
    jobs: Vec<JobId>,
}

impl TaskSession {
    /// A session running `strategy`; call [`TaskSession::begin`] before
    /// each task. Panics for an instance whose protocol cannot be executed:
    /// no copies (`b = 0`), a timeout that is not finite and positive, or
    /// an infeasible delayed pair.
    pub fn new(strategy: StrategyParams) -> Self {
        TaskSession {
            ctrl: EchelonCtrl::new(strategy),
            scope: 0,
            exec: SimDuration::ZERO,
            jobs: Vec::new(),
        }
    }

    /// Runs `strategy` from the next task on (a retune), keeping the
    /// session's allocations. Panics like [`TaskSession::new`].
    pub fn rebind(&mut self, strategy: StrategyParams) {
        self.ctrl = EchelonCtrl::new(strategy);
    }

    /// Binds the session to a new task under the non-zero engine client
    /// `scope`, whose jobs hold a slot for `exec` once started (zero for
    /// probes), and forgets the previous task's jobs.
    pub fn begin(&mut self, scope: u64, exec: SimDuration) {
        debug_assert!(scope != 0, "a task session needs a non-zero scope");
        self.scope = scope;
        self.exec = exec;
        self.jobs.clear();
    }

    /// The current task's engine client scope.
    pub fn scope(&self) -> u64 {
        self.scope
    }

    /// The jobs the current task submitted, in submission order.
    pub fn jobs(&self) -> &[JobId] {
        &self.jobs
    }

    /// The wrapped controller's realised task latency, once known.
    pub fn total_latency(&self) -> Option<f64> {
        self.ctrl.total_latency()
    }

    /// Calls `f` with the task's scope and default execution time active,
    /// then records the task's jobs that `f` submitted.
    fn scoped(
        &mut self,
        sim: &mut GridSimulation,
        f: impl FnOnce(&mut EchelonCtrl, &mut GridSimulation),
    ) {
        let floor = sim.jobs().len();
        sim.set_scope(self.scope);
        sim.set_default_exec(self.exec);
        f(&mut self.ctrl, sim);
        sim.set_default_exec(SimDuration::ZERO);
        sim.set_scope(0);
        for (id, rec) in sim.jobs().iter().enumerate().skip(floor) {
            if rec.owner() == self.scope {
                self.jobs.push(JobId(id as u64));
            }
        }
    }

    /// Feeds the task's own per-job outcomes to `est`: every started job's
    /// exact latency, and an abandoned job's wait only when it reached the
    /// timeout `t_inf` (see [`is_timeout_censored`]).
    pub fn harvest(&self, sim: &GridSimulation, t_inf: f64, est: &mut StreamingEcdf) {
        let now = sim.now().as_secs();
        for &id in &self.jobs {
            let rec = sim.job(id);
            match rec.started_at() {
                Some(st) => est.observe_started(st.since(rec.submitted_at()).as_secs()),
                None => {
                    let end = rec.terminated_at().map_or(now, |t| t.as_secs());
                    let waited = (end - rec.submitted_at().as_secs()).max(0.0);
                    if is_timeout_censored(waited, t_inf) {
                        est.observe_censored(waited);
                    }
                }
            }
        }
    }
}

impl Controller for TaskSession {
    fn start(&mut self, sim: &mut GridSimulation) {
        self.ctrl.reset();
        self.scoped(sim, |ctrl, sim| ctrl.start(sim));
    }

    /// Delivers `ev` to the wrapped controller if it belongs to the
    /// current task (unwrapping a namespaced timer token); drops it
    /// otherwise.
    fn on_event(&mut self, sim: &mut GridSimulation, ev: Notification) {
        let ev = match ev {
            Notification::Timer { token, at } if token >> 32 == self.scope => Notification::Timer {
                token: token & u32::MAX as u64,
                at,
            },
            Notification::JobStarted { id, .. }
            | Notification::JobFinished { id, .. }
            | Notification::JobFailed { id, .. }
                if sim.job(id).owner() == self.scope =>
            {
                ev
            }
            _ => return,
        };
        self.scoped(sim, |ctrl, sim| ctrl.on_event(sim, ev));
    }

    fn done(&self) -> bool {
        self.ctrl.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridstrat_sim::GridConfig;

    #[test]
    fn own_jobs_match_a_full_scan_and_the_controller_leaves_none_pending() {
        // background traffic interleaves foreign jobs with the task's own;
        // cancellations apply at once, so the controller's own requests
        // leave no own job pending when its task completes
        let mut grid = GridConfig::pipeline_default();
        grid.wms.cancellation_delay_mean_s = 0.0;
        assert!(grid.background.is_some());
        let mut sim = GridSimulation::new(grid, 11).expect("valid grid");
        let mut session = TaskSession::new(StrategyParams::Multiple {
            b: 3,
            t_inf: 1500.0,
        });
        for scope in 1..=20u64 {
            session.begin(scope, SimDuration::from_secs(120.0));
            sim.run_controller(&mut session);
            assert!(session.total_latency().is_some(), "task {scope} finished");
            let full_scan: Vec<JobId> = sim
                .jobs()
                .iter()
                .enumerate()
                .filter(|(_, rec)| rec.owner() == scope)
                .map(|(id, _)| JobId(id as u64))
                .collect();
            assert!(full_scan.len() >= 3);
            assert_eq!(session.jobs(), full_scan.as_slice());
            assert!(session.jobs().iter().all(|&id| {
                let rec = sim.job(id);
                rec.state().is_terminal() || rec.started_at().is_some()
            }));
        }
        assert!(sim.jobs().iter().any(|rec| rec.owner() == 0));
    }
}
