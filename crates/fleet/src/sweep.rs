//! Batched evaluation of a (strategy-mix × community-size × grid-scenario)
//! grid of community experiments in one parallel pass.
//!
//! The layout mirrors `gridstrat_core::executor::ScenarioSweep` and runs
//! through the same ordered fold, `gridstrat_core::replicate::fold_ordered`:
//! the flat (cell × replication) index space is spread over the rayon
//! pool one replication per lane and round, each lane keeps one engine +
//! fleet controller alive and rewinds them in place between replications
//! (rebuilding only when it crosses into a different cell), and every
//! replication derives its own RNG streams from `(master, cell, rep)`.
//! The calling thread folds each round's replications into their cells in
//! index order, so the entire sweep is **bit-identical for any thread
//! count** and holds at most one [`FleetRun`] per lane — never every
//! replication's per-user records.

use crate::agent::Assignment;
use crate::controller::FleetController;
use crate::metrics::{CellFold, FleetCellOutcome, FleetRun};
use crate::mix::{FleetConfig, StrategyMix};
use gridstrat_core::executor::GridScenario;
use gridstrat_core::replicate::fold_ordered;
use gridstrat_sim::{GridConfig, GridSimulation};
use gridstrat_stats::rng::derive_seed;
use std::sync::Arc;

/// Stream index separating the fleet's agent RNGs from the engine RNG
/// within one replication: `engine_seed = rep_seed`,
/// `fleet_seed = derive_seed(rep_seed, FLEET_STREAM)`. Pinned by
/// golden-vector tests alongside [`crate::agent::user_stream_seed`].
pub const FLEET_STREAM: u64 = 0xF1EE7;

/// Replications one pool lane runs between two folds of
/// [`gridstrat_core::replicate::fold_ordered`]: a community sweep holds at most
/// one [`FleetRun`] per lane.
pub(crate) const REPLICATION_CHUNK: usize = 1;

/// One engine and one fleet controller, rewound in place between
/// replications: the one place the crate builds, rewinds and runs an
/// engine + fleet pair (sweep cells, shards and the equilibrium search).
/// The fleet is seeded `derive_seed(engine_seed, FLEET_STREAM)`.
pub(crate) struct FleetWorker {
    pub(crate) sim: GridSimulation,
    pub(crate) fleet: FleetController,
}

impl FleetWorker {
    pub(crate) fn new(
        grid: &Arc<GridConfig>,
        assignments: &[Assignment],
        cfg: &FleetConfig,
        engine_seed: u64,
    ) -> Self {
        FleetWorker {
            sim: GridSimulation::new(Arc::clone(grid), engine_seed)
                .expect("fleet grids are validated by FleetConfig"),
            fleet: FleetController::new(
                assignments,
                cfg.tasks_per_user,
                cfg.task_exec_s,
                cfg.arrival,
                derive_seed(engine_seed, FLEET_STREAM),
                cfg.group_window,
            ),
        }
    }

    pub(crate) fn rewind(&mut self, engine_seed: u64) {
        self.sim.reset(engine_seed);
        self.fleet.reset(derive_seed(engine_seed, FLEET_STREAM));
    }

    /// Runs the fleet to completion and collects its replication record.
    pub(crate) fn run(&mut self) -> FleetRun {
        self.sim.run_controller(&mut self.fleet);
        self.collect()
    }

    /// The replication record of the fleet's current state.
    pub(crate) fn collect(&self) -> FleetRun {
        self.fleet.collect(&self.sim)
    }
}

struct CellPlan {
    mix: usize,
    users: usize,
    scenario: usize,
    grid: Arc<GridConfig>,
    assignments: Vec<Assignment>,
    seed: u64,
}

/// A (mix × community-size × scenario) grid of community experiments.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// Shared per-cell configuration (farm, workload shape, replications,
    /// master seed).
    pub config: FleetConfig,
    /// Strategy mixes to evaluate.
    pub mixes: Vec<StrategyMix>,
    /// Community sizes to evaluate.
    pub community_sizes: Vec<usize>,
    /// Grid-condition overlays applied to the configured farm.
    pub scenarios: Vec<GridScenario>,
}

impl FleetSweep {
    /// Builds a sweep; every axis must be non-empty and the configuration
    /// valid.
    pub fn new(
        config: FleetConfig,
        mixes: Vec<StrategyMix>,
        community_sizes: Vec<usize>,
        scenarios: Vec<GridScenario>,
    ) -> Self {
        config.validate().expect("valid fleet config");
        assert!(!mixes.is_empty(), "sweep needs at least one mix");
        assert!(
            !community_sizes.is_empty(),
            "sweep needs at least one community size"
        );
        assert!(!scenarios.is_empty(), "sweep needs at least one scenario");
        assert!(
            community_sizes.iter().all(|&u| u > 0),
            "community sizes must be positive"
        );
        for m in &mixes {
            m.validate().expect("valid strategy mix");
        }
        FleetSweep {
            config,
            mixes,
            community_sizes,
            scenarios,
        }
    }

    /// Number of cells in the grid.
    pub fn n_cells(&self) -> usize {
        self.mixes.len() * self.community_sizes.len() * self.scenarios.len()
    }

    /// Total community replications the sweep will run.
    pub fn n_runs_total(&self) -> usize {
        self.n_cells() * self.config.replications
    }

    /// Evaluates the whole grid in one parallel pass.
    ///
    /// Returns one aggregated outcome per cell, in cell order (mix-major,
    /// then community size, then scenario). Bit-identical for any thread
    /// count. Replications are folded into their cells in index order as
    /// they finish, so memory is bounded by the pool (one [`FleetRun`] per
    /// lane), not by `replications × community size`.
    pub fn run(&self) -> Vec<FleetCellOutcome> {
        let reps = self.config.replications;
        let mut plans = Vec::with_capacity(self.n_cells());
        for (m, mix) in self.mixes.iter().enumerate() {
            for &users in &self.community_sizes {
                for (s, scenario) in self.scenarios.iter().enumerate() {
                    let cell = plans.len() as u64;
                    plans.push(CellPlan {
                        mix: m,
                        users,
                        scenario: s,
                        grid: Arc::new(scenario.apply_grid(&self.config.grid)),
                        assignments: mix.assignments(users),
                        seed: derive_seed(self.config.seed, cell),
                    });
                }
            }
        }

        let cfg = &self.config;
        let mut folds: Vec<CellFold> = plans.iter().map(|_| CellFold::new()).collect();
        fold_ordered(
            plans.len() * reps,
            REPLICATION_CHUNK,
            |slot: &mut Option<(usize, FleetWorker)>, k| {
                let cell = k / reps;
                let plan = &plans[cell];
                let rep_seed = derive_seed(plan.seed, (k % reps) as u64);
                match slot {
                    Some((c, worker)) if *c == cell => worker.rewind(rep_seed),
                    _ => {
                        let worker = FleetWorker::new(&plan.grid, &plan.assignments, cfg, rep_seed);
                        *slot = Some((cell, worker));
                    }
                }
                let (_, worker) = slot.as_mut().expect("worker just installed");
                worker.run()
            },
            |k, run| folds[k / reps].absorb(&run),
        );

        plans
            .iter()
            .zip(folds)
            .map(|(plan, fold)| {
                fold.finish(
                    self.mixes[plan.mix].name.clone(),
                    plan.users,
                    self.scenarios[plan.scenario].name.clone(),
                )
            })
            .collect()
    }
}

/// Runs a single community cell (mix, size, scenario) outside a sweep —
/// the convenience entry point for examples and one-off experiments.
pub fn run_cell(
    config: &FleetConfig,
    mix: &StrategyMix,
    users: usize,
    scenario: &GridScenario,
) -> FleetCellOutcome {
    FleetSweep::new(
        config.clone(),
        vec![mix.clone()],
        vec![users],
        vec![scenario.clone()],
    )
    .run()
    .remove(0)
}

/// Runs one community replication with an explicit per-user assignment —
/// the primitive the equilibrium search builds deviation experiments from.
pub(crate) fn run_population(
    config: &FleetConfig,
    grid: &Arc<GridConfig>,
    assignments: &[Assignment],
    rep_seed: u64,
) -> FleetRun {
    FleetWorker::new(grid, assignments, config, rep_seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::ArrivalProcess;
    use gridstrat_core::cost::StrategyParams;

    #[test]
    fn rewound_worker_replays_a_fresh_one() {
        // think-time arrivals draw from the agents' streams, so this also
        // pins the fleet seed that rewind derives from the engine seed
        let mut cfg = FleetConfig::small_farm(8);
        cfg.tasks_per_user = 3;
        cfg.arrival = ArrivalProcess::ThinkTime { mean_s: 600.0 };
        let grid = Arc::new(cfg.grid.clone());
        let mix = StrategyMix::pure("single", StrategyParams::Single { t_inf: 3_000.0 });
        let assignments = mix.assignments(12);
        let mut worker = FleetWorker::new(&grid, &assignments, &cfg, 1);
        let first = format!("{:?}", worker.run());
        worker.rewind(2);
        let rewound = format!("{:?}", worker.run());
        let fresh = format!("{:?}", FleetWorker::new(&grid, &assignments, &cfg, 2).run());
        assert_eq!(rewound, fresh);
        assert_ne!(first, fresh, "the seed must reach the run");
    }

    #[test]
    fn streamed_sweep_matches_the_collect_then_aggregate_oracle() {
        // 5 replications over 2 cells: not a multiple of any lane count
        // below, so rounds straddle the cell boundary and the last round
        // leaves lanes idle
        let mut cfg = FleetConfig::small_farm(6);
        cfg.tasks_per_user = 2;
        cfg.arrival = ArrivalProcess::ThinkTime { mean_s: 600.0 };
        cfg.replications = 5;
        cfg.seed = 0x0DE5;
        let mix = StrategyMix::new(
            "mixed",
            vec![
                crate::StrategyGroup::new(StrategyParams::Single { t_inf: 3_000.0 }, 0.5),
                crate::StrategyGroup::new(
                    StrategyParams::Multiple {
                        b: 2,
                        t_inf: 3_000.0,
                    },
                    0.5,
                ),
            ],
        );
        let sweep = FleetSweep::new(
            cfg.clone(),
            vec![mix.clone()],
            vec![5, 9],
            vec![GridScenario::baseline()],
        );
        // every replication on a fresh worker, all kept, then aggregated
        let grid = Arc::new(cfg.grid.clone());
        let oracle: Vec<FleetCellOutcome> = [5usize, 9]
            .iter()
            .enumerate()
            .map(|(c, &users)| {
                let cell_seed = derive_seed(cfg.seed, c as u64);
                let runs: Vec<FleetRun> = (0..cfg.replications)
                    .map(|r| {
                        let seed = derive_seed(cell_seed, r as u64);
                        FleetWorker::new(&grid, &mix.assignments(users), &cfg, seed).run()
                    })
                    .collect();
                FleetCellOutcome::aggregate("mixed", users, "baseline", &runs)
            })
            .collect();
        let oracle = format!("{oracle:?}");
        for threads in [1, 2, 3, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let streamed = pool.install(|| sweep.run());
            assert_eq!(format!("{streamed:?}"), oracle, "{threads} threads");
        }
    }
}
