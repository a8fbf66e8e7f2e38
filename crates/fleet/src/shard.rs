//! Sharded community execution: one fleet partitioned across `S`
//! independent engine shards, coupled through per-epoch background-load
//! exchange.
//!
//! A single [`FleetController`](crate::FleetController) engine tops out at
//! [`MAX_USERS`](crate::mix::MAX_USERS) users (the 16-bit user field of
//! the scope encoding) and, more practically, at whatever one
//! discrete-event loop can chew through. [`ShardedFleet`] scales past
//! both by splitting the community and the farm:
//!
//! * **users** are apportioned evenly across shards (largest remainder,
//!   [`apportion`]); each shard instantiates its own slice of the
//!   strategy mix, so every shard is a miniature of the community;
//! * **worker slots** are apportioned per site proportionally to each
//!   shard's user count, so per-user contention is preserved;
//! * **randomness**: shard `k` of replication seed `r` runs on
//!   [`shard_seed`]`(r, k)` — shard 0 continues the unsharded stream,
//!   which is what makes `shards = 1` **bit-identical** to running the
//!   plain [`FleetController`](crate::FleetController);
//! * **coupling**: shards are not fully independent. Every `epoch_s`
//!   simulated seconds each shard measures its busy fraction; the next
//!   epoch, every other shard receives `coupling × (foreign busy
//!   fraction) × slots × epoch` slot-seconds of injected background load
//!   ([`gridstrat_sim::GridSimulation::inject_background`]), spread
//!   evenly over the epoch. One hot shard therefore raises everyone's
//!   queueing, the first-order effect a partitioned farm loses.
//!
//! # Determinism contract (pinned by `tests/shard.rs`)
//!
//! * `shards = 1` ⇒ bit-identical to
//!   [`FleetController`](crate::FleetController) via [`crate::run_cell`]:
//!   same seeds, same code path, no epoch stepping.
//! * Any fixed shard count ⇒ bit-identical across thread counts and
//!   across per-worker engine reuse: shards within a replication run
//!   sequentially in shard order; rayon parallelism stays at the
//!   replication level with index-derived seeds, and replications are
//!   folded in replication order.

use crate::agent::Assignment;
use crate::metrics::{CellFold, FleetCellOutcome, FleetRun};
use crate::mix::{apportion, FleetConfig, StrategyMix, MAX_USERS};
use crate::sweep::{FleetWorker, REPLICATION_CHUNK};
use gridstrat_core::executor::GridScenario;
use gridstrat_core::replicate::fold_ordered;
use gridstrat_sim::{Controller, GridConfig, SimDuration, SimTime};
use gridstrat_stats::rng::derive_seed;
use std::sync::Arc;

/// Engine seed of shard `k` within a replication seeded `rep_seed`.
///
/// Shard 0 **continues the unsharded stream** (`shard_seed(r, 0) == r`),
/// so a 1-shard community replays exactly the history the plain
/// [`FleetController`](crate::FleetController) path produces; every
/// further shard gets an independent `derive_seed` stream. Load-bearing
/// layout — change only with a deliberate re-baselining of recorded
/// sharded experiments.
pub fn shard_seed(rep_seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        rep_seed
    } else {
        derive_seed(rep_seed, shard as u64)
    }
}

/// A community partitioned across `shards` engine shards (see the module
/// docs for the partitioning and coupling model).
#[derive(Debug, Clone)]
pub struct ShardedFleet {
    /// Shared per-cell configuration (farm, workload shape, replications,
    /// master seed, metric window).
    pub config: FleetConfig,
    /// The population's strategy mix (instantiated per shard).
    pub mix: StrategyMix,
    /// Community size across all shards.
    pub users: usize,
    /// Number of engine shards.
    pub shards: usize,
    /// Grid-condition overlay applied to the configured farm.
    pub scenario: GridScenario,
    /// Cross-shard coupling epoch, simulated seconds.
    pub epoch_s: f64,
    /// Fraction of the foreign busy fraction injected as background load
    /// (`0` decouples the shards entirely).
    pub coupling: f64,
}

/// Per-shard instantiation of a sharded cell: grids, populations and slot
/// counts, shared by every replication.
struct ShardPlan {
    grids: Vec<Arc<GridConfig>>,
    assignments: Vec<Vec<Assignment>>,
    slots: Vec<usize>,
    horizon_s: f64,
}

/// Reusable per-worker state: one engine + fleet pair per shard, rewound
/// in place between replications.
type ShardWorkers = Vec<FleetWorker>;

impl ShardedFleet {
    /// Builds a sharded community with the default coupling (1-hour
    /// epochs, full-strength exchange). Panics on invalid shapes — the
    /// same contract as [`crate::FleetSweep::new`].
    pub fn new(
        config: FleetConfig,
        mix: StrategyMix,
        users: usize,
        shards: usize,
        scenario: GridScenario,
    ) -> Self {
        let sharded = ShardedFleet {
            config,
            mix,
            users,
            shards,
            scenario,
            epoch_s: 3_600.0,
            coupling: 1.0,
        };
        sharded.validate().expect("valid sharded fleet");
        sharded
    }

    /// Checks the partitioning shape on top of the fleet/mix validation.
    pub fn validate(&self) -> Result<(), String> {
        self.config.validate()?;
        self.mix.validate()?;
        if self.shards == 0 {
            return Err("a sharded fleet needs at least one shard".into());
        }
        if self.users < self.shards {
            return Err(format!(
                "cannot spread {} users over {} shards",
                self.users, self.shards
            ));
        }
        let per_shard = self.users.div_ceil(self.shards);
        if per_shard > MAX_USERS {
            return Err(format!(
                "{} users per shard exceeds the {MAX_USERS}-user engine limit; \
                 use at least {} shards",
                per_shard,
                self.users.div_ceil(MAX_USERS)
            ));
        }
        let slots: usize = self.config.grid.sites.iter().map(|s| s.slots).sum();
        if slots < self.shards {
            return Err(format!(
                "{slots} worker slots cannot be split across {} shards",
                self.shards
            ));
        }
        // total slots >= shards is necessary but not sufficient: slots are
        // apportioned per *site*, and remainder ties always seat low-index
        // shards, so a grid of many small sites (e.g. 4 sites x 1 slot
        // over 3 shards) can still starve a late shard. Check the actual
        // per-shard totals the plan will produce. (GridScenario overlays
        // scale faults/latency, never site slots, so checking the base
        // grid is exact.)
        if self.shards > 1 {
            let totals = self.shard_slot_totals();
            if let Some(k) = totals.iter().position(|&t| t == 0) {
                return Err(format!(
                    "per-site slot apportionment starves shard {k} \
                     (site slot counts {:?} over {} shards); use fewer \
                     shards or coarser sites",
                    self.config
                        .grid
                        .sites
                        .iter()
                        .map(|s| s.slots)
                        .collect::<Vec<_>>(),
                    self.shards
                ));
            }
        }
        if !(self.epoch_s.is_finite() && self.epoch_s > 0.0) {
            return Err(format!("epoch must be positive, got {}", self.epoch_s));
        }
        if !(self.coupling.is_finite() && self.coupling >= 0.0) {
            return Err(format!("coupling must be >= 0, got {}", self.coupling));
        }
        Ok(())
    }

    /// User counts per shard and the matching apportionment weights.
    fn shard_user_weights(&self) -> (Vec<usize>, Vec<f64>) {
        let user_counts = apportion(self.users, &vec![1.0; self.shards]);
        let weights = user_counts.iter().map(|&n| n as f64).collect();
        (user_counts, weights)
    }

    /// Total worker slots each shard would receive from the per-site
    /// apportionment — shared by [`ShardedFleet::validate`] (reject
    /// starved shards) and [`ShardedFleet::plan`] (build them).
    fn shard_slot_totals(&self) -> Vec<usize> {
        let (_, weights) = self.shard_user_weights();
        let mut totals = vec![0usize; self.shards];
        for site in &self.config.grid.sites {
            for (k, a) in apportion(site.slots, &weights).iter().enumerate() {
                totals[k] += a;
            }
        }
        totals
    }

    /// Builds the per-shard grids and populations.
    fn plan(&self) -> ShardPlan {
        let base = self.scenario.apply_grid(&self.config.grid);
        if self.shards == 1 {
            // the unsharded fast path must see the *identical* grid a
            // plain fleet run would (no rebuild round-trips)
            return ShardPlan {
                horizon_s: base.horizon.as_secs(),
                grids: vec![Arc::new(base)],
                assignments: vec![self.mix.assignments(self.users)],
                slots: vec![self.config.grid.sites.iter().map(|s| s.slots).sum()],
            };
        }
        let (user_counts, weights) = self.shard_user_weights();
        // split every site's slots across shards proportionally to the
        // shard populations, so per-user contention is preserved
        let per_site: Vec<Vec<usize>> = base
            .sites
            .iter()
            .map(|s| apportion(s.slots, &weights))
            .collect();
        let total_slots: usize = base.sites.iter().map(|s| s.slots).sum();
        let horizon_s = base.horizon.as_secs();
        let mut grids = Vec::with_capacity(self.shards);
        let mut assignments = Vec::with_capacity(self.shards);
        let mut slots = Vec::with_capacity(self.shards);
        for k in 0..self.shards {
            let mut grid = base.clone();
            grid.sites = base
                .sites
                .iter()
                .zip(&per_site)
                .filter(|(_, alloc)| alloc[k] > 0)
                .map(|(s, alloc)| {
                    let mut site = s.clone();
                    // selection weight scales with the allocated share
                    site.weight = s.weight * alloc[k] as f64 / s.slots as f64;
                    site.slots = alloc[k];
                    site
                })
                .collect();
            let shard_slots: usize = grid.sites.iter().map(|s| s.slots).sum();
            // validate() already rejected starved shards via the same
            // shard_slot_totals() apportionment
            debug_assert!(shard_slots > 0, "starved shard {k} survived validate()");
            // non-community background traffic scales with the slot share
            if let Some(bg) = &mut grid.background {
                bg.arrival_rate_per_s *= shard_slots as f64 / total_slots as f64;
            }
            grids.push(Arc::new(grid));
            assignments.push(self.mix.assignments(user_counts[k]));
            slots.push(shard_slots);
        }
        ShardPlan {
            grids,
            assignments,
            slots,
            horizon_s,
        }
    }

    fn build_workers(&self, plan: &ShardPlan, rep_seed: u64) -> ShardWorkers {
        (0..self.shards)
            .map(|k| {
                FleetWorker::new(
                    &plan.grids[k],
                    &plan.assignments[k],
                    &self.config,
                    shard_seed(rep_seed, k),
                )
            })
            .collect()
    }

    fn rewind_workers(workers: &mut ShardWorkers, rep_seed: u64) {
        for (k, worker) in workers.iter_mut().enumerate() {
            worker.rewind(shard_seed(rep_seed, k));
        }
    }

    /// Drives one replication on prepared workers and merges the shard
    /// runs into one community-level [`FleetRun`].
    fn run_rep(&self, plan: &ShardPlan, workers: &mut ShardWorkers) -> FleetRun {
        if self.shards == 1 {
            // the same FleetWorker run a sweep cell makes: S = 1 is
            // bit-identical to the plain FleetController by construction
            return workers[0].run();
        }
        for FleetWorker { sim, fleet } in workers.iter_mut() {
            sim.start_controller(fleet);
        }
        let exec = self.config.task_exec_s;
        let mut prev_started = vec![0u64; self.shards];
        let mut busy = vec![0.0f64; self.shards];
        let mut t_end = 0.0f64;
        while workers.iter().any(|w| !w.fleet.done()) && t_end < plan.horizon_s {
            t_end += self.epoch_s;
            let until = SimTime::from_secs(t_end);
            for (k, FleetWorker { sim, fleet }) in workers.iter_mut().enumerate() {
                if !fleet.done() {
                    sim.step_controller_until(fleet, until);
                }
                // epoch busy-fraction estimate: starts this epoch × the
                // community task length over the shard's capacity
                let stats = sim.stats();
                let started = stats.client_started + stats.background_started;
                busy[k] = ((started - prev_started[k]) as f64 * exec
                    / (plan.slots[k] as f64 * self.epoch_s))
                    .min(1.0);
                prev_started[k] = started;
            }
            if self.coupling > 0.0 && exec > 0.0 {
                for (k, FleetWorker { sim, fleet }) in workers.iter_mut().enumerate() {
                    if fleet.done() {
                        continue;
                    }
                    // slot-weighted mean busy fraction of the *other* shards
                    let (mut num, mut den) = (0.0f64, 0.0f64);
                    for (j, b) in busy.iter().enumerate() {
                        if j != k {
                            num += b * plan.slots[j] as f64;
                            den += plan.slots[j] as f64;
                        }
                    }
                    if den <= 0.0 {
                        continue;
                    }
                    let foreign = num / den;
                    let inject_slot_s =
                        self.coupling * foreign * plan.slots[k] as f64 * self.epoch_s;
                    let n = (inject_slot_s / exec).floor() as usize;
                    for i in 0..n {
                        // spread evenly over the next epoch
                        let at = t_end + (i as f64 + 0.5) * self.epoch_s / n as f64;
                        sim.inject_background(SimTime::from_secs(at), SimDuration::from_secs(exec));
                    }
                }
            }
        }
        merge_shard_runs(
            workers.iter().map(FleetWorker::collect),
            self.config.tasks_per_user,
        )
    }

    /// Runs one replication from scratch (no worker reuse) — the
    /// deterministic single-run entry point tests and examples use.
    pub fn run_replication(&self, rep: usize) -> FleetRun {
        self.validate().expect("valid sharded fleet");
        assert!(rep < self.config.replications, "replication out of range");
        let plan = self.plan();
        let rep_seed = derive_seed(derive_seed(self.config.seed, 0), rep as u64);
        let mut workers = self.build_workers(&plan, rep_seed);
        self.run_rep(&plan, &mut workers)
    }

    /// Evaluates every replication in one parallel pass (per-lane
    /// engine/fleet reuse, bit-identical for any thread count) and folds
    /// them into a cell outcome in replication order as they finish: the
    /// run holds at most one merged [`FleetRun`] per pool lane, never all
    /// of them.
    ///
    /// Seed layout mirrors [`crate::run_cell`]'s single-cell sweep
    /// (`rep_seed = derive_seed(derive_seed(master, 0), rep)`), so a
    /// 1-shard `ShardedFleet` reproduces `run_cell` bit-for-bit.
    pub fn run(&self) -> FleetCellOutcome {
        self.validate().expect("valid sharded fleet");
        let plan = self.plan();
        let cell_seed = derive_seed(self.config.seed, 0);
        let mut fold = CellFold::new();
        fold_ordered(
            self.config.replications,
            REPLICATION_CHUNK,
            |slot: &mut Option<ShardWorkers>, rep| {
                let rep_seed = derive_seed(cell_seed, rep as u64);
                match slot {
                    Some(workers) => Self::rewind_workers(workers, rep_seed),
                    None => *slot = Some(self.build_workers(&plan, rep_seed)),
                }
                self.run_rep(&plan, slot.as_mut().expect("workers just installed"))
            },
            |_, run| fold.absorb(&run),
        );
        fold.finish(
            self.mix.name.clone(),
            self.users,
            self.scenario.name.clone(),
        )
    }
}

/// Folds per-shard runs (in shard order) into one community-level record:
/// users concatenate in global order, counters and occupancy integrals
/// add up, group streams merge (exact moments, replayed windows), and the
/// community makespan is the slowest shard's.
fn merge_shard_runs(runs: impl IntoIterator<Item = FleetRun>, tasks_per_user: usize) -> FleetRun {
    let mut merged: Option<FleetRun> = None;
    for run in runs {
        match &mut merged {
            None => merged = Some(run),
            Some(m) => {
                m.users.extend(run.users);
                if run.groups.len() > m.groups.len() {
                    m.groups.resize_with(run.groups.len(), || None);
                }
                for (g, stream) in run.groups.into_iter().enumerate() {
                    let Some(stream) = stream else { continue };
                    match &mut m.groups[g] {
                        Some(pooled) => pooled.merge(&stream),
                        slot @ None => *slot = Some(stream),
                    }
                }
                m.makespan_s = m.makespan_s.max(run.makespan_s);
                m.client_submitted += run.client_submitted;
                m.client_started += run.client_started;
                m.useful_busy_s += run.useful_busy_s;
                m.client_busy_s += run.client_busy_s;
                m.total_busy_s += run.total_busy_s;
                // each shard offered its own slots until its own end
                m.slot_capacity_s += run.slot_capacity_s;
            }
        }
    }
    let mut merged = merged.expect("at least one shard");
    merged.tasks_per_user = tasks_per_user;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seed_contract() {
        // shard 0 continues the unsharded stream; shards > 0 are
        // independent derive_seed streams (derive_seed itself is pinned
        // by golden vectors in gridstrat-stats)
        for seed in [0u64, 0xF1EE7, u64::MAX] {
            assert_eq!(shard_seed(seed, 0), seed);
            for k in [1usize, 2, 7] {
                assert_eq!(shard_seed(seed, k), derive_seed(seed, k as u64));
                assert_ne!(shard_seed(seed, k), seed);
            }
        }
    }

    #[test]
    fn plan_partitions_users_and_slots() {
        let mut cfg = FleetConfig::small_farm(30);
        cfg.tasks_per_user = 1;
        let mix = StrategyMix::pure(
            "all-single",
            gridstrat_core::cost::StrategyParams::Single { t_inf: 3_000.0 },
        );
        let sharded = ShardedFleet::new(cfg, mix, 10, 3, GridScenario::baseline());
        let plan = sharded.plan();
        assert_eq!(plan.slots, vec![12, 9, 9], "slots follow user counts");
        let users: Vec<usize> = plan.assignments.iter().map(Vec::len).collect();
        assert_eq!(users, vec![4, 3, 3]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let cfg = FleetConfig::small_farm(4);
        let mix = StrategyMix::pure(
            "all-single",
            gridstrat_core::cost::StrategyParams::Single { t_inf: 3_000.0 },
        );
        let base = ShardedFleet::new(cfg, mix, 10, 2, GridScenario::baseline());
        let mut more_shards_than_users = base.clone();
        more_shards_than_users.shards = 11;
        assert!(more_shards_than_users.validate().is_err());
        let mut more_shards_than_slots = base.clone();
        more_shards_than_slots.shards = 5;
        more_shards_than_slots.users = 50;
        assert!(more_shards_than_slots.validate().is_err());
        let mut too_many_users_per_shard = base.clone();
        too_many_users_per_shard.users = 2 * MAX_USERS + 1;
        assert!(too_many_users_per_shard.validate().is_err());
        let mut bad_epoch = base.clone();
        bad_epoch.epoch_s = 0.0;
        assert!(bad_epoch.validate().is_err());
        let mut bad_coupling = base;
        bad_coupling.coupling = f64::NAN;
        assert!(bad_coupling.validate().is_err());
    }

    #[test]
    fn rejects_per_site_starvation_even_when_total_slots_suffice() {
        // regression: 4 sites x 1 slot over 3 shards passes the total
        // check (4 >= 3), but every site's lone slot goes to shard 0 on
        // remainder ties... per-site apportionment must be validated, not
        // asserted at plan time
        let mut cfg = FleetConfig::small_farm(4);
        cfg.grid.sites = (0..4)
            .map(|i| gridstrat_sim::SiteConfig {
                name: format!("tiny-{i}"),
                slots: 1,
                weight: 1.0,
            })
            .collect();
        let mix = StrategyMix::pure(
            "all-single",
            gridstrat_core::cost::StrategyParams::Single { t_inf: 3_000.0 },
        );
        let sharded = ShardedFleet {
            config: cfg,
            mix,
            users: 6,
            shards: 3,
            scenario: GridScenario::baseline(),
            epoch_s: 3_600.0,
            coupling: 1.0,
        };
        let err = sharded.validate().unwrap_err();
        assert!(err.contains("starves shard"), "got: {err}");
        // one coarse site splits fine at the same shape
        let mut ok = sharded.clone();
        ok.config.grid.sites = vec![gridstrat_sim::SiteConfig {
            name: "farm".into(),
            slots: 4,
            weight: 1.0,
        }];
        assert!(ok.validate().is_ok());
        assert_eq!(ok.plan().slots, vec![2, 1, 1]);
    }
}
