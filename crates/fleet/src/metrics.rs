//! Ecosystem metrics: what the community as a whole experiences.
//!
//! A single-user Monte-Carlo estimate answers "what latency does *my*
//! strategy get"; the fleet metrics answer the administrators' questions —
//! how fairly is latency distributed across users, what fraction of the
//! consumed compute was redundant burst copies, and how hot the farm ran.
//!
//! # Memory model
//!
//! Everything here is **bounded-memory streaming**: a community run
//! accumulates one [`Summary`] (Welford moments) per user and one
//! [`GroupStream`] (exact pooled moments + a sliding-window ECDF) per
//! reporting group, so a replication's metric state is `O(users + groups)`
//! — independent of how many tasks the community completes. That is what
//! lets one run scale from the original 40-user communities to 100 000+
//! users (see [`crate::shard`]) without per-task latency vectors.

use gridstrat_core::cost::StrategyParams;
use gridstrat_stats::{Ecdf, StreamingEcdf, Summary};

/// One user's outcome within a single community run.
#[derive(Debug, Clone)]
pub struct UserOutcome {
    /// Reporting-group index (mix group or equilibrium candidate).
    pub group: usize,
    /// The strategy the user played.
    pub strategy: StrategyParams,
    /// Tasks the user completed before the run ended.
    pub tasks_done: usize,
    /// Streaming summary of the user's task latencies (launch → first
    /// useful start), seconds. Bounded memory: moments and extrema only,
    /// never the raw per-task vector.
    pub latency: Summary,
}

/// Bounded-memory latency stream of one reporting group within a single
/// community replication: exact pooled moments plus a sliding window of
/// the most recent task latencies for ECDFs and quantiles.
#[derive(Debug, Clone)]
pub struct GroupStream {
    /// Group index within the population's mix.
    pub group: usize,
    /// The strategy the group plays.
    pub strategy: StrategyParams,
    /// Users assigned to the group.
    pub members: usize,
    /// Exact pooled latency moments (Welford; merging is exact).
    pub latency: Summary,
    /// Sliding window over the most recent task latencies (no decay, no
    /// censoring) — distribution shape on `O(window)` memory.
    pub window: StreamingEcdf,
}

impl GroupStream {
    /// An empty stream for a group of `members` users playing `strategy`,
    /// windowing the last `window` task latencies.
    pub fn new(group: usize, strategy: StrategyParams, members: usize, window: usize) -> Self {
        GroupStream {
            group,
            strategy,
            members,
            latency: Summary::new(),
            window: StreamingEcdf::new(window, 1.0, f64::INFINITY)
                .expect("group windows are validated by FleetConfig"),
        }
    }

    /// Ingests one completed-task latency.
    pub fn observe(&mut self, latency_s: f64) {
        self.latency.push(latency_s);
        self.window.observe_started(latency_s);
    }

    /// Forgets every observation, keeping the window allocation (the
    /// fleet reset path; membership and strategy are population shape and
    /// survive).
    pub fn clear(&mut self) {
        self.latency = Summary::new();
        self.window.clear();
    }

    /// Folds another shard's stream of the *same* group into this one:
    /// membership adds up, moments merge exactly, and the other window is
    /// replayed in order (deterministic for a fixed shard order).
    pub fn merge(&mut self, other: &GroupStream) {
        debug_assert_eq!(self.group, other.group, "merging different groups");
        self.members += other.members;
        self.latency.merge(&other.latency);
        self.window.absorb(&other.window);
    }
}

/// The raw record of one community replication, measured by
/// [`crate::FleetController::collect`] (or merged from engine shards by
/// [`crate::ShardedFleet`]).
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-user outcomes, in user order.
    pub users: Vec<UserOutcome>,
    /// Per-group latency streams, indexed by group id; `None` for groups
    /// the apportionment left without members.
    pub groups: Vec<Option<GroupStream>>,
    /// Tasks each user was asked to complete.
    pub tasks_per_user: usize,
    /// Simulated time at which the run ended, seconds.
    pub makespan_s: f64,
    /// Client (community) jobs submitted.
    pub client_submitted: u64,
    /// Client jobs that reached a worker slot.
    pub client_started: u64,
    /// Slot-seconds consumed by *useful* starts (the one start that
    /// completed each task).
    pub useful_busy_s: f64,
    /// Slot-seconds consumed by all client starts.
    pub client_busy_s: f64,
    /// Slot-seconds consumed by all starts (client + background).
    pub total_busy_s: f64,
    /// Slot-seconds the farm offered over the run (`slots × makespan`,
    /// summed over shards for a sharded run).
    pub slot_capacity_s: f64,
}

impl FleetRun {
    /// Tasks completed across the community.
    pub fn tasks_completed(&self) -> usize {
        self.users.iter().map(|u| u.tasks_done).sum()
    }

    /// Client starts that burned a slot without completing a task
    /// (redundant copies that won the cancellation race).
    ///
    /// On a consistent, fully-collected run `client_started ≥
    /// tasks_completed` (every completed task has exactly one started
    /// winner), but a *truncated* record — a partial shard merge, a run
    /// cut mid-collection — can carry more completed tasks than counted
    /// starts. Those read as zero waste rather than underflowing.
    pub fn wasted_starts(&self) -> u64 {
        self.client_started
            .saturating_sub(self.tasks_completed() as u64)
    }

    /// Fraction of the community's consumed slot-seconds that were
    /// redundant (`0` when nothing ran).
    pub fn slot_waste(&self) -> f64 {
        if self.client_busy_s > 0.0 {
            (self.client_busy_s - self.useful_busy_s) / self.client_busy_s
        } else {
            0.0
        }
    }

    /// Farm utilisation: busy slot-seconds over offered slot-seconds.
    pub fn utilization(&self) -> f64 {
        if self.slot_capacity_s > 0.0 {
            self.total_busy_s / self.slot_capacity_s
        } else {
            0.0
        }
    }

    /// Jain fairness index over per-user mean latencies:
    /// `(Σx)² / (n·Σx²)` — `1` when every user sees the same mean latency,
    /// `1/n` when one user absorbs all of it. Users with no completed
    /// task — and any non-finite mean that would poison the index — are
    /// excluded; returns `1.0` when fewer than two users qualify.
    pub fn fairness(&self) -> f64 {
        jain_index(
            self.users
                .iter()
                .filter(|u| u.latency.count() > 0)
                .map(|u| u.latency.mean())
                .filter(|m| m.is_finite()),
        )
    }

    /// Mean task latency across every completed task, seconds.
    pub fn mean_latency(&self) -> f64 {
        let mut s = Summary::new();
        for u in &self.users {
            s.merge(&u.latency);
        }
        s.mean()
    }
}

/// Jain fairness index of an allocation stream.
///
/// Semantics, pinned by tests:
///
/// * fewer than two values → `1.0` (nothing to be unfair between);
/// * **all-zero allocations → `1.0`**: `x_i ≡ 0` is the limit of the
///   all-equal allocation, so it reports perfect fairness by convention —
///   it is *not* a "no signal" sentinel. Callers that cannot distinguish
///   "everyone got the same nothing" from "nothing was measured" must
///   filter unmeasured users out *before* calling (as
///   [`FleetRun::fairness`] does);
/// * non-finite inputs propagate (`NaN` out), so a poisoned stream is
///   loud rather than silently "fair".
pub fn jain_index(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut sum, mut sumsq) = (0usize, 0.0f64, 0.0f64);
    for x in xs {
        n += 1;
        sum += x;
        sumsq += x * x;
    }
    if n < 2 || sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sumsq)
}

/// Pooled per-group latency statistics across the replications of a cell.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Group index within the cell's mix.
    pub group: usize,
    /// The strategy the group plays.
    pub strategy: StrategyParams,
    /// Users per replication in this group.
    pub users: usize,
    /// Tasks completed, summed over replications.
    pub tasks_completed: usize,
    /// Latency summary pooled over users, tasks and replications (exact).
    pub latency: Summary,
    /// Pooled sliding window of recent task latencies (replication
    /// windows replayed in replication order) — the bounded-memory basis
    /// for [`GroupReport::ecdf`] and [`GroupReport::quantile`].
    pub window: StreamingEcdf,
}

impl GroupReport {
    /// Empirical CDF of the group's windowed task latencies (no
    /// censoring). `None` when the window is empty.
    pub fn ecdf(&self) -> Option<Ecdf> {
        self.window.snapshot().ok()
    }

    /// The `p`-quantile of the group's windowed task latencies (`NaN`
    /// when the window is empty). Exact over the window, an approximation
    /// of the full-run quantile when the run outgrew the window.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p must be in [0,1]");
        let Ok(snap) = self.window.snapshot() else {
            return f64::NAN;
        };
        let body = snap.body();
        let idx = ((body.len() as f64 - 1.0) * p).round() as usize;
        body[idx]
    }
}

/// Aggregated outcome of one sweep cell (mix × community size × scenario),
/// averaged over its replications.
#[derive(Debug, Clone)]
pub struct FleetCellOutcome {
    /// Mix label.
    pub mix: String,
    /// Community size.
    pub users: usize,
    /// Grid-scenario label.
    pub scenario: String,
    /// Replications aggregated.
    pub replications: usize,
    /// Per-group pooled latency reports.
    pub groups: Vec<GroupReport>,
    /// Mean task latency pooled over everything, seconds.
    pub mean_latency: f64,
    /// Mean Jain fairness across replications.
    pub fairness: f64,
    /// Mean redundant-slot-waste fraction across replications.
    pub slot_waste: f64,
    /// Mean farm utilisation across replications.
    pub utilization: f64,
    /// Mean makespan across replications, seconds.
    pub makespan_s: f64,
    /// Tasks completed, summed over replications.
    pub tasks_completed: usize,
    /// Tasks requested, summed over replications.
    pub tasks_total: usize,
    /// Client submissions, summed over replications.
    pub submissions: u64,
    /// Wasted starts, summed over replications.
    pub wasted_starts: u64,
}

impl FleetCellOutcome {
    /// Aggregates the replications of one cell (reps must be non-empty and
    /// share the same population shape): the same fold the sweeps stream
    /// replications into, fed from a slice.
    pub fn aggregate(
        mix: impl Into<String>,
        users: usize,
        scenario: impl Into<String>,
        reps: &[FleetRun],
    ) -> Self {
        let mut fold = CellFold::new();
        for rep in reps {
            fold.absorb(rep);
        }
        fold.finish(mix, users, scenario)
    }
}

/// One cell's replications folded in replication order as they finish:
/// the pooled group reports, the pooled latency summary and the
/// per-replication scalars the cell averages. Holds no [`FleetRun`], so a
/// cell costs `O(groups × window + replications)` however many users a
/// replication has.
pub(crate) struct CellFold {
    /// Pooled reports by group index; `None` until a replication reports
    /// the group (apportionment can leave a group with zero users at
    /// small community sizes, e.g. weights [0.5, 0.2, 0.3] over 2 users —
    /// such a group has nothing to report).
    groups: Vec<Option<GroupReport>>,
    /// Task latency pooled over every user of every replication.
    pooled: Summary,
    /// Per replication: fairness, slot waste, utilisation and makespan,
    /// kept to be summed in replication order.
    scalars: Vec<[f64; 4]>,
    tasks_completed: usize,
    tasks_total: usize,
    submissions: u64,
    wasted_starts: u64,
}

impl CellFold {
    pub(crate) fn new() -> Self {
        CellFold {
            groups: Vec::new(),
            pooled: Summary::new(),
            scalars: Vec::new(),
            tasks_completed: 0,
            tasks_total: 0,
            submissions: 0,
            wasted_starts: 0,
        }
    }

    /// Folds the next replication in.
    pub(crate) fn absorb(&mut self, rep: &FleetRun) {
        if rep.groups.len() > self.groups.len() {
            self.groups.resize_with(rep.groups.len(), || None);
        }
        for (pooled, stream) in self.groups.iter_mut().zip(&rep.groups) {
            let Some(stream) = stream else { continue };
            match pooled {
                None => {
                    *pooled = Some(GroupReport {
                        group: stream.group,
                        strategy: stream.strategy,
                        users: stream.members,
                        tasks_completed: 0, // filled in by finish()
                        latency: stream.latency,
                        window: stream.window.clone(),
                    })
                }
                Some(p) => {
                    p.latency.merge(&stream.latency);
                    p.window.absorb(&stream.window);
                }
            }
        }
        for u in &rep.users {
            self.pooled.merge(&u.latency);
        }
        self.scalars.push([
            rep.fairness(),
            rep.slot_waste(),
            rep.utilization(),
            rep.makespan_s,
        ]);
        self.tasks_completed += rep.tasks_completed();
        self.tasks_total += rep.users.len() * rep.tasks_per_user;
        self.submissions += rep.client_submitted;
        self.wasted_starts += rep.wasted_starts();
    }

    /// The cell outcome of every replication absorbed so far (at least
    /// one).
    pub(crate) fn finish(
        self,
        mix: impl Into<String>,
        users: usize,
        scenario: impl Into<String>,
    ) -> FleetCellOutcome {
        let reps = self.scalars.len();
        assert!(reps > 0, "cannot aggregate zero replications");
        let mean = |i: usize| self.scalars.iter().map(|s| s[i]).sum::<f64>() / reps as f64;
        FleetCellOutcome {
            mix: mix.into(),
            users,
            scenario: scenario.into(),
            replications: reps,
            mean_latency: self.pooled.mean(),
            fairness: mean(0),
            slot_waste: mean(1),
            utilization: mean(2),
            makespan_s: mean(3),
            tasks_completed: self.tasks_completed,
            tasks_total: self.tasks_total,
            submissions: self.submissions,
            wasted_starts: self.wasted_starts,
            groups: self
                .groups
                .into_iter()
                .flatten()
                .map(|mut g| {
                    g.tasks_completed = g.latency.count() as usize;
                    g
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the run a fleet controller would collect from the given
    /// per-user `(group, latencies)` outcomes.
    fn run_from(users: Vec<(usize, Vec<f64>)>) -> FleetRun {
        let strategy = StrategyParams::Single { t_inf: 700.0 };
        let n_groups = users.iter().map(|(g, _)| g + 1).max().unwrap_or(0);
        let mut groups: Vec<Option<GroupStream>> = vec![None; n_groups];
        let mut outcomes = Vec::with_capacity(users.len());
        for (g, latencies) in users {
            groups
                .get_mut(g)
                .unwrap()
                .get_or_insert_with(|| GroupStream::new(g, strategy, 0, 64))
                .members += 1;
            outcomes.push(UserOutcome {
                group: g,
                strategy,
                tasks_done: latencies.len(),
                latency: Summary::from_slice(&latencies),
            });
            for l in latencies {
                groups[g].as_mut().unwrap().observe(l);
            }
        }
        FleetRun {
            users: outcomes,
            groups,
            tasks_per_user: 2,
            makespan_s: 1000.0,
            client_submitted: 10,
            client_started: 6,
            useful_busy_s: 300.0,
            client_busy_s: 400.0,
            total_busy_s: 800.0,
            slot_capacity_s: 2000.0,
        }
    }

    fn run_with(latencies: Vec<Vec<f64>>) -> FleetRun {
        run_from(latencies.into_iter().map(|l| (0, l)).collect())
    }

    #[test]
    fn jain_index_known_values() {
        assert!((jain_index([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // one user absorbs everything: 1/n
        assert!((jain_index([1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // textbook example: (1+2+3)^2 / (3 * 14)
        assert!((jain_index([1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
        assert_eq!(jain_index([5.0]), 1.0);
        assert_eq!(jain_index([]), 1.0);
    }

    #[test]
    fn jain_index_all_zero_is_perfectly_fair_by_convention() {
        // x ≡ 0 is the limit of the all-equal allocation, NOT a "no
        // signal" sentinel — pinned so the documented semantics cannot
        // silently drift (callers filter unmeasured users beforehand)
        assert_eq!(jain_index([0.0, 0.0]), 1.0);
        assert_eq!(jain_index([0.0, 0.0, 0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_index_propagates_non_finite_inputs() {
        assert!(jain_index([1.0, f64::NAN]).is_nan());
        assert!(jain_index([f64::INFINITY, 1.0]).is_nan());
    }

    #[test]
    fn run_metrics() {
        let r = run_with(vec![vec![100.0, 200.0], vec![150.0, 150.0]]);
        assert_eq!(r.tasks_completed(), 4);
        assert_eq!(r.wasted_starts(), 2);
        assert!((r.slot_waste() - 0.25).abs() < 1e-12);
        assert!((r.utilization() - 0.4).abs() < 1e-12);
        // both users have mean 150 -> perfectly fair
        assert!((r.fairness() - 1.0).abs() < 1e-12);
        assert!((r.mean_latency() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn wasted_starts_saturates_on_truncated_runs() {
        // regression: a truncated record (partial shard merge / mid-run
        // cut) can report more completed tasks than counted starts; the
        // old `client_started - tasks_completed` underflowed (panic in
        // debug, u64 wrap in release). It must read as zero waste.
        let mut r = run_with(vec![vec![100.0; 5], vec![150.0; 5]]);
        assert_eq!(r.tasks_completed(), 10);
        r.client_started = 6; // starts from the shards that did report
        assert_eq!(r.wasted_starts(), 0);
        // and the aggregate built on top must not panic either
        let cell = FleetCellOutcome::aggregate("m", 2, "baseline", &[r]);
        assert_eq!(cell.wasted_starts, 0);
    }

    #[test]
    fn fairness_excludes_empty_users() {
        let r = run_with(vec![vec![100.0], vec![]]);
        assert_eq!(
            r.fairness(),
            1.0,
            "single qualifying user is trivially fair"
        );
    }

    #[test]
    fn fairness_guards_against_non_finite_means() {
        // a user whose summary was poisoned (e.g. an infinite latency)
        // must not drag the whole index to NaN
        let mut r = run_with(vec![vec![100.0], vec![200.0]]);
        r.users.push(UserOutcome {
            group: 0,
            strategy: StrategyParams::Single { t_inf: 700.0 },
            tasks_done: 1,
            latency: Summary::from_slice(&[f64::INFINITY]),
        });
        let want = jain_index([100.0, 200.0]);
        assert_eq!(r.fairness().to_bits(), want.to_bits());
    }

    #[test]
    fn aggregate_skips_empty_middle_groups() {
        // apportionment can produce counts like [1, 0, 1]: group 1 has no
        // members and must be skipped, not panicked over
        let r = run_from(vec![(0, vec![100.0]), (2, vec![200.0])]);
        let cell = FleetCellOutcome::aggregate("m", 2, "baseline", &[r]);
        assert_eq!(cell.groups.len(), 2);
        assert_eq!(cell.groups[0].group, 0);
        assert_eq!(cell.groups[1].group, 2);
        assert_eq!(cell.groups[1].users, 1);
    }

    #[test]
    fn aggregate_pools_groups() {
        let reps = vec![
            run_with(vec![vec![100.0], vec![200.0]]),
            run_with(vec![vec![300.0], vec![400.0]]),
        ];
        let cell = FleetCellOutcome::aggregate("m", 2, "baseline", &reps);
        assert_eq!(cell.replications, 2);
        assert_eq!(cell.groups.len(), 1);
        assert_eq!(cell.groups[0].users, 2);
        assert_eq!(cell.groups[0].tasks_completed, 4);
        assert!((cell.mean_latency - 250.0).abs() < 1e-12);
        assert_eq!(cell.tasks_total, 8);
        assert_eq!(cell.submissions, 20);
        let e = cell.groups[0].ecdf().expect("non-empty group");
        assert_eq!(e.n_total(), 4);
        assert!((cell.groups[0].quantile(1.0) - 400.0).abs() < 1e-12);
        assert!((cell.groups[0].quantile(0.0) - 100.0).abs() < 1e-12);
    }

    /// The batch pooling `aggregate` did before the streamed [`CellFold`]:
    /// group by group over every replication, then the cell scalars.
    fn batch_oracle(reps: &[FleetRun]) -> FleetCellOutcome {
        let n_groups = reps.iter().map(|r| r.groups.len()).max().unwrap_or(0);
        let mut groups = Vec::new();
        for g in 0..n_groups {
            let mut pooled: Option<GroupReport> = None;
            for stream in reps.iter().filter_map(|r| r.groups.get(g)?.as_ref()) {
                match &mut pooled {
                    None => {
                        pooled = Some(GroupReport {
                            group: stream.group,
                            strategy: stream.strategy,
                            users: stream.members,
                            tasks_completed: 0,
                            latency: stream.latency,
                            window: stream.window.clone(),
                        })
                    }
                    Some(p) => {
                        p.latency.merge(&stream.latency);
                        p.window.absorb(&stream.window);
                    }
                }
            }
            if let Some(mut p) = pooled {
                p.tasks_completed = p.latency.count() as usize;
                groups.push(p);
            }
        }
        let mean = |f: fn(&FleetRun) -> f64| reps.iter().map(f).sum::<f64>() / reps.len() as f64;
        let mut pooled = Summary::new();
        for u in reps.iter().flat_map(|r| &r.users) {
            pooled.merge(&u.latency);
        }
        FleetCellOutcome {
            mix: "m".into(),
            users: 3,
            scenario: "baseline".into(),
            replications: reps.len(),
            groups,
            mean_latency: pooled.mean(),
            fairness: mean(FleetRun::fairness),
            slot_waste: mean(FleetRun::slot_waste),
            utilization: mean(FleetRun::utilization),
            makespan_s: mean(|r| r.makespan_s),
            tasks_completed: reps.iter().map(FleetRun::tasks_completed).sum(),
            tasks_total: reps.iter().map(|r| r.users.len() * r.tasks_per_user).sum(),
            submissions: reps.iter().map(|r| r.client_submitted).sum(),
            wasted_starts: reps.iter().map(FleetRun::wasted_starts).sum(),
        }
    }

    #[test]
    fn aggregate_matches_the_batch_pooling_oracle() {
        // replications whose group vectors differ in length and in which
        // groups are empty, so the fold must open groups late and skip gaps
        let mut reps = vec![
            run_from(vec![(0, vec![100.0, 130.0]), (2, vec![300.0])]),
            run_from(vec![(0, vec![90.0]), (1, vec![210.0, 190.0])]),
            run_from(vec![(1, vec![250.0]), (0, vec![110.0, 95.0, 120.0])]),
            run_from(vec![(0, vec![80.0])]),
        ];
        reps[1].makespan_s = 1234.5;
        reps[2].useful_busy_s = 123.0;
        reps[3].total_busy_s = 1999.0;
        let cell = FleetCellOutcome::aggregate("m", 3, "baseline", &reps);
        assert_eq!(format!("{cell:?}"), format!("{:?}", batch_oracle(&reps)));
        assert_eq!(
            cell.groups.iter().map(|g| g.group).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn group_stream_merge_is_exact_for_moments() {
        let strategy = StrategyParams::Single { t_inf: 700.0 };
        let mut a = GroupStream::new(0, strategy, 2, 8);
        let mut b = GroupStream::new(0, strategy, 3, 8);
        for l in [100.0, 200.0] {
            a.observe(l);
        }
        for l in [300.0, 400.0, 500.0] {
            b.observe(l);
        }
        a.merge(&b);
        assert_eq!(a.members, 5);
        let full = Summary::from_slice(&[100.0, 200.0, 300.0, 400.0, 500.0]);
        assert_eq!(a.latency.count(), full.count());
        assert!((a.latency.mean() - full.mean()).abs() < 1e-9);
        assert_eq!(
            a.window.snapshot().unwrap().body(),
            &[100.0, 200.0, 300.0, 400.0, 500.0]
        );
    }
}
