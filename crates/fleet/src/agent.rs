//! Per-user agents: a wrapped submission strategy plus a task-arrival
//! process and a private, deterministically-derived RNG stream.

use gridstrat_core::adaptive::AdaptiveConfig;
use gridstrat_core::cost::StrategyParams;
use gridstrat_core::TaskSession;
use gridstrat_stats::rng::derive_seed;
use gridstrat_stats::{StreamingEcdf, Summary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a user's tasks arrive over time.
///
/// Delays are sampled from the **user's own** RNG stream (see
/// [`user_stream_seed`]), so two fleets with the same seed produce the
/// same arrival history regardless of what any other user does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// The next task is launched the instant the previous one completes
    /// (a closed-loop, saturating user). The first task launches at `t=0`.
    BackToBack,
    /// Exponentially-distributed think time with the given mean, both
    /// before the first task (desynchronising the community) and between
    /// consecutive tasks — the Poisson-ish per-user arrival shape the
    /// cluster-workload literature reports.
    ThinkTime {
        /// Mean think time, seconds.
        mean_s: f64,
    },
}

impl ArrivalProcess {
    /// Delay before this user's first task, and between a task completion
    /// and the next task's launch.
    pub(crate) fn delay(self, rng: &mut StdRng) -> f64 {
        match self {
            ArrivalProcess::BackToBack => 0.0,
            ArrivalProcess::ThinkTime { mean_s } => exp_sample(rng, mean_s),
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if let ArrivalProcess::ThinkTime { mean_s } = self {
            if !(mean_s.is_finite() && *mean_s >= 0.0) {
                return Err(format!("think time mean must be >= 0, got {mean_s}"));
            }
        }
        Ok(())
    }
}

fn exp_sample(rng: &mut StdRng, mean_s: f64) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() * mean_s
}

/// One user's strategy assignment within a fleet: the strategy instance it
/// plays, the mix group it reports under, and (optionally) an online
/// adaptation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The strategy this user starts every task sequence from.
    pub strategy: StrategyParams,
    /// Index of the reporting group (a [`crate::mix::StrategyMix`] group,
    /// or a candidate index in equilibrium search).
    pub group: usize,
    /// When set, the user re-tunes its timeouts from its own observed
    /// per-job outcomes every `retune_every` tasks (see
    /// [`gridstrat_core::adaptive`]). Fleet users have no analytic prior
    /// for the emergent pipeline law, so the
    /// [`RetunePolicy::ScaledPrior`](gridstrat_core::adaptive::RetunePolicy)
    /// policy degrades to the empirical-snapshot retune.
    pub adaptive: Option<AdaptiveConfig>,
}

/// The seed of user `u`'s private RNG stream inside a fleet seeded with
/// `fleet_seed`.
///
/// This layout is load-bearing: every published fleet experiment's arrival
/// history flows from it, so it is pinned by golden-vector tests — change
/// it only with a deliberate re-baselining.
pub fn user_stream_seed(fleet_seed: u64, user: usize) -> u64 {
    derive_seed(fleet_seed, user as u64)
}

/// One member of the community: its strategy's controller in a task
/// session, the user's arrival RNG, and per-task progress bookkeeping.
pub(crate) struct UserAgent {
    pub(crate) assignment: Assignment,
    /// The parameters currently in effect — starts at
    /// `assignment.strategy`, moves when an adaptive retune fires.
    pub(crate) params: StrategyParams,
    pub(crate) rng: StdRng,
    pub(crate) active: bool,
    pub(crate) tasks_done: usize,
    pub(crate) task_started_s: f64,
    /// The controller, bound to the current task's engine scope —
    /// `(user, epoch)` with the task index as epoch, so events from
    /// finished tasks are never misrouted — and own jobs.
    pub(crate) session: TaskSession,
    /// Streaming summary of the user's task latencies — bounded memory,
    /// so a 100k-user community does not hold one `Vec<f64>` per user.
    pub(crate) latency: Summary,
    /// The adaptive user's own observation stream (`None` for plain
    /// users). Censoring threshold: the paper's 10 000 s probe cutoff.
    pub(crate) estimator: Option<StreamingEcdf>,
}

impl UserAgent {
    pub(crate) fn new(index: usize, assignment: Assignment, fleet_seed: u64) -> Self {
        let estimator = assignment.adaptive.map(|cfg| {
            cfg.validate().expect("valid adaptive assignment");
            StreamingEcdf::new(
                cfg.window,
                cfg.decay,
                gridstrat_workload::CENSOR_THRESHOLD_S,
            )
            .expect("validated adaptive config")
        });
        UserAgent {
            assignment,
            params: assignment.strategy,
            rng: StdRng::seed_from_u64(user_stream_seed(fleet_seed, index)),
            active: false,
            tasks_done: 0,
            task_started_s: 0.0,
            session: TaskSession::new(assignment.strategy),
            latency: Summary::new(),
            estimator,
        }
    }

    /// Rewinds the agent to its just-constructed state (bit-identically),
    /// keeping allocations: the session is rebound to the initial instance
    /// (an adaptive run may have moved it) and rewinds the controller
    /// itself at every launch.
    pub(crate) fn reset(&mut self, index: usize, fleet_seed: u64) {
        self.params = self.assignment.strategy;
        self.session.rebind(self.params);
        self.rng = StdRng::seed_from_u64(user_stream_seed(fleet_seed, index));
        self.active = false;
        self.tasks_done = 0;
        self.task_started_s = 0.0;
        self.latency = Summary::new();
        if let Some(est) = self.estimator.as_mut() {
            est.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_stream_seed_golden_vectors() {
        // The per-user derivation is derive_seed(fleet_seed, user): these
        // exact values pin the stream layout. If this test fails, every
        // recorded fleet experiment has been silently re-seeded.
        for (fleet_seed, user, want) in [
            (0x0u64, 0usize, 0x324E_D5A5_EE00_2454u64),
            (0x0, 1, 0x537C_1442_147D_2E7F),
            (0xF1EE7, 0, 0xC3C3_CCF0_20D4_FCC7),
            (0xF1EE7, 1, 0xB665_375C_CE91_7D20),
            (0xF1EE7, 41, 0xF85B_9927_B5FE_AC81),
        ] {
            assert_eq!(
                user_stream_seed(fleet_seed, user),
                want,
                "user_stream_seed({fleet_seed:#X}, {user}) drifted"
            );
        }
    }

    #[test]
    fn delays_are_zero_back_to_back_and_deterministic_per_stream() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ArrivalProcess::BackToBack.delay(&mut rng), 0.0);
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = ArrivalProcess::ThinkTime { mean_s: 120.0 };
            (p.delay(&mut rng), p.delay(&mut rng))
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let (a, b) = draw(5);
        assert!(a >= 0.0 && b >= 0.0);
    }

    #[test]
    fn think_time_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = ArrivalProcess::ThinkTime { mean_s: 200.0 };
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| p.delay(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 200.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn validates_parameters() {
        assert!(ArrivalProcess::BackToBack.validate().is_ok());
        assert!(ArrivalProcess::ThinkTime { mean_s: 10.0 }
            .validate()
            .is_ok());
        assert!(ArrivalProcess::ThinkTime { mean_s: -1.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::ThinkTime { mean_s: f64::NAN }
            .validate()
            .is_err());
    }
}
