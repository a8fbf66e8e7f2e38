//! Job identity, state machine and audit records.
//!
//! The state machine mirrors the EGEE job lifecycle the paper describes:
//! a job traverses several middleware hops before it ever reaches a worker
//! node, and can be lost, fail or be cancelled at any pre-running stage.
//!
//! ```text
//! Submitted → AtWms → Matched → Queued → Running → Finished
//!     │         │        │        │
//!     └─────────┴────────┴────────┴──→ {Cancelled, Failed, Stuck}
//! ```

use crate::time::{SimDuration, SimTime};

/// Job identifier, unique within one simulation: the job's index in the
/// engine's job table ([`crate::engine::GridSimulation::jobs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted from the UI, travelling to the WMS.
    Submitted,
    /// In the WMS input queue / being match-made.
    AtWms,
    /// Matched to a site, being dispatched.
    Matched,
    /// Waiting in the CE batch queue.
    Queued,
    /// Executing on a worker node.
    Running,
    /// Execution completed and the slot was released.
    Finished,
    /// Cancelled by the client before starting.
    Cancelled,
    /// A middleware hop failed; the job will never start.
    Failed,
    /// Silently lost (the paper's outliers): no further events will ever
    /// concern this job.
    Stuck,
}

impl JobState {
    /// True for states from which the job can still start running.
    pub fn is_pending(self) -> bool {
        matches!(
            self,
            JobState::Submitted | JobState::AtWms | JobState::Matched | JobState::Queued
        )
    }

    /// True for states in which the job occupies the client's attention no
    /// longer (nothing more will happen).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Finished | JobState::Cancelled | JobState::Failed | JobState::Stuck
        )
    }
}

/// Who submitted a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOrigin {
    /// A client job submitted through the [`crate::engine::GridSimulation`]
    /// controller API (strategies, probes).
    Client,
    /// Synthetic background traffic from other VOs/users.
    Background,
}

/// Full audit record of one job: one 40-byte entry of the engine's job
/// table.
///
/// A job's [`JobId`] is its index in that table
/// ([`crate::engine::GridSimulation::jobs`]), so the record does not store
/// it. Instants are kept as raw milliseconds with [`SimTime::MAX`] meaning
/// "not yet" (the grid configuration rejects a horizon that could reach
/// it), and the site as a `u16` with `u16::MAX` meaning "not matched yet"
/// (it rejects that many sites); the accessors decode both back into
/// options, so every reader sees exactly the values the engine recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    submitted: SimTime,
    started: SimTime,
    terminated: SimTime,
    exec: SimDuration,
    owner: u32,
    site: u16,
    origin: JobOrigin,
    state: JobState,
}

/// The "not yet" instant of [`JobRecord`]'s start and termination fields.
const NOT_YET: SimTime = SimTime::MAX;
/// The "not matched yet" site of [`JobRecord`].
const NO_SITE: u16 = u16::MAX;

impl JobRecord {
    /// A fresh record in [`JobState::Submitted`] that will hold a slot for
    /// `exec` once started.
    pub(crate) fn new(
        origin: JobOrigin,
        owner: u64,
        submitted: SimTime,
        exec: SimDuration,
    ) -> Self {
        JobRecord {
            submitted,
            started: NOT_YET,
            terminated: NOT_YET,
            exec,
            owner: u32::try_from(owner).expect("job owners fit in 32 bits"),
            site: NO_SITE,
            origin,
            state: JobState::Submitted,
        }
    }

    /// Client or background.
    pub fn origin(&self) -> JobOrigin {
        self.origin
    }

    /// Owner tag: the client scope that was active when the job was
    /// submitted (see [`crate::engine::GridSimulation::set_scope`]).
    /// `0` for unscoped submissions and background traffic. Multi-user
    /// layers (the `gridstrat-fleet` crate) use this to route job
    /// notifications back to the submitting agent.
    pub fn owner(&self) -> u64 {
        u64::from(self.owner)
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// Submission instant.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted
    }

    /// Instant the job started running, if it did.
    pub fn started_at(&self) -> Option<SimTime> {
        (self.started != NOT_YET).then_some(self.started)
    }

    /// Instant the job reached a terminal state, if it has.
    pub fn terminated_at(&self) -> Option<SimTime> {
        (self.terminated != NOT_YET).then_some(self.terminated)
    }

    /// Site index the WMS matched the job to, once known.
    pub fn site(&self) -> Option<usize> {
        (self.site != NO_SITE).then_some(usize::from(self.site))
    }

    /// How long the job holds its slot once started.
    pub fn exec(&self) -> SimDuration {
        self.exec
    }

    pub(crate) fn set_state(&mut self, state: JobState) {
        self.state = state;
    }

    /// Records the site the job was matched to.
    pub(crate) fn set_site(&mut self, site: usize) {
        debug_assert!(site < usize::from(NO_SITE), "site index out of range");
        self.site = site as u16;
    }

    /// Moves the job to [`JobState::Running`] at `at`.
    pub(crate) fn start(&mut self, at: SimTime) {
        debug_assert!(at != NOT_YET, "start at the not-yet sentinel");
        self.state = JobState::Running;
        self.started = at;
    }

    /// Moves the job to the terminal `state` at `at`.
    pub(crate) fn terminate(&mut self, state: JobState, at: SimTime) {
        debug_assert!(state.is_terminal() && at != NOT_YET);
        self.state = state;
        self.terminated = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_classification() {
        assert!(JobState::Submitted.is_pending());
        assert!(JobState::Queued.is_pending());
        assert!(!JobState::Running.is_pending());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Finished.is_terminal());
        assert!(JobState::Stuck.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
    }

    #[test]
    fn record_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<JobRecord>(), 40);
    }

    #[test]
    fn fresh_record_has_nothing_yet() {
        let exec = SimDuration::from_secs(7.5);
        let r = JobRecord::new(JobOrigin::Client, 3, SimTime::from_secs(10.0), exec);
        assert_eq!(r.origin(), JobOrigin::Client);
        assert_eq!(r.owner(), 3);
        assert_eq!(r.state(), JobState::Submitted);
        assert_eq!(r.submitted_at(), SimTime::from_secs(10.0));
        assert_eq!(r.started_at(), None);
        assert_eq!(r.terminated_at(), None);
        assert_eq!(r.site(), None);
        assert_eq!(r.exec(), exec);
    }

    #[test]
    fn zero_instants_and_site_zero_are_real_values() {
        let mut r = JobRecord::new(JobOrigin::Background, 0, SimTime::ZERO, SimDuration::ZERO);
        r.set_site(0);
        r.start(SimTime::ZERO);
        assert_eq!(r.site(), Some(0));
        assert_eq!(r.started_at(), Some(SimTime::ZERO));
        assert_eq!(r.state(), JobState::Running);
        assert_eq!(r.terminated_at(), None);
        r.terminate(JobState::Finished, SimTime::ZERO);
        assert_eq!(r.terminated_at(), Some(SimTime::ZERO));
        assert_eq!(r.state(), JobState::Finished);
    }

    #[test]
    fn widest_values_round_trip() {
        let last = SimTime(u64::MAX - 1);
        let mut r = JobRecord::new(
            JobOrigin::Client,
            u32::MAX as u64,
            last,
            SimDuration(u64::MAX),
        );
        r.set_site(usize::from(u16::MAX) - 1);
        r.terminate(JobState::Cancelled, last);
        assert_eq!(r.owner(), u32::MAX as u64);
        assert_eq!(r.site(), Some(usize::from(u16::MAX) - 1));
        assert_eq!(r.submitted_at(), last);
        assert_eq!(r.terminated_at(), Some(last));
        assert_eq!(r.started_at(), None);
        assert_eq!(r.exec(), SimDuration(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn owners_wider_than_32_bits_are_rejected() {
        JobRecord::new(JobOrigin::Client, 1 << 32, SimTime::ZERO, SimDuration::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(JobId(7).to_string(), "job#7");
    }
}
