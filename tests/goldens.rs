//! Golden outputs: a behaviour oracle across commits.
//!
//! Small cells — one `ScenarioSweep` cell, two think-time `FleetSweep`
//! cells (two families, and all four), one 2-shard `ShardedFleet` cell,
//! one `Multiple { b: 2 }` `AdaptiveSweep` cell, the four families through
//! `StrategyExecutor` and through fixed and adaptive task sequences on a
//! grid with a slow cancellation, the values behind paper Tables 1–4 and
//! the Figure 5 minimum, two Table 5 rows and a three-week Table 6
//! transfer matrix at the `repro` master seed — are evaluated and
//! compared, value by value and to the bit, against canonical sorted-key
//! JSON committed under `replication/expected/`. The files store the
//! values themselves (f64 in Rust's shortest round-trip form), so a diff
//! says which statistic moved. They pin what the benchmark digests do
//! not: standard errors and deviations, the realised parallel-job
//! average, fairness, slot waste, utilisation, the group quantiles, the
//! optimisers' chosen timeouts, the `∆cost` profiles and optima, and the
//! stability and transfer penalties.
//!
//! A mismatch prints the actual JSON. Updating a golden on purpose needs
//! a CHANGES.md line saying why.

use gridstrat::prelude::*;
use gridstrat::stats::Summary;
use gridstrat::workload::json::{escape, JsonValue};
use std::path::PathBuf;
use std::sync::Arc;

// --- canonical JSON ------------------------------------------------------------

fn num(x: impl Into<f64>) -> JsonValue {
    let x = x.into();
    assert!(x.is_finite(), "golden values must be finite, got {x}");
    JsonValue::Number(x)
}

fn count(n: impl TryInto<u32>) -> JsonValue {
    // counts stay far below 2^32, so they are exact as JSON numbers
    num(n.try_into().ok().expect("golden count fits in u32"))
}

fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

/// An object with its keys in sorted order (the canonical form).
fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> =
        fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    JsonValue::Object(fields)
}

/// Two-space indented JSON, one value per line.
fn write(v: &JsonValue, indent: usize, out: &mut String) {
    let pad = |n: usize| "  ".repeat(n);
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(&b.to_string()),
        JsonValue::Number(x) => out.push_str(&x.to_string()),
        JsonValue::String(s) => out.push_str(&format!("\"{}\"", escape(s))),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&pad(indent + 1));
                write(item, indent + 1, out);
            }
            out.push_str(&format!("\n{}]", pad(indent)));
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&format!("{}\"{}\": ", pad(indent + 1), escape(k)));
                write(item, indent + 1, out);
            }
            out.push_str(&format!("\n{}}}", pad(indent)));
        }
    }
}

fn to_json(v: &JsonValue) -> String {
    let mut out = String::new();
    write(v, 0, &mut out);
    out.push('\n');
    out
}

/// First path at which `got` differs from `want`; numbers compare by bits.
fn first_difference(want: &JsonValue, got: &JsonValue, path: &str) -> Option<String> {
    match (want, got) {
        (JsonValue::Number(a), JsonValue::Number(b)) => {
            (a.to_bits() != b.to_bits()).then(|| format!("{path}: expected {a}, got {b}"))
        }
        (JsonValue::Array(a), JsonValue::Array(b)) => {
            if a.len() != b.len() {
                return Some(format!(
                    "{path}: expected {} items, got {}",
                    a.len(),
                    b.len()
                ));
            }
            a.iter()
                .zip(b)
                .enumerate()
                .find_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]")))
        }
        (JsonValue::Object(a), JsonValue::Object(b)) => {
            let keys = |f: &[(String, JsonValue)]| f.iter().map(|(k, _)| k.clone()).collect();
            let (ka, kb): (Vec<String>, Vec<String>) = (keys(a), keys(b));
            if ka != kb {
                return Some(format!("{path}: expected keys {ka:?}, got {kb:?}"));
            }
            a.iter()
                .zip(b)
                .find_map(|((k, x), (_, y))| first_difference(x, y, &format!("{path}.{k}")))
        }
        (a, b) => (a != b).then(|| format!("{path}: expected {a:?}, got {b:?}")),
    }
}

/// Compares `actual` against `replication/expected/<name>.json`.
fn check_golden(name: &str, actual: JsonValue) {
    let rendered = to_json(&actual);
    // the writer and the reader agree, so a file is its own round trip
    let reparsed = JsonValue::parse(&rendered).expect("canonical JSON parses");
    assert_eq!(first_difference(&actual, &reparsed, name), None);

    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "replication",
        "expected",
        &format!("{name}.json"),
    ]
    .iter()
    .collect();
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; actual JSON:\n{rendered}", path.display()));
    let expected = JsonValue::parse(&expected)
        .unwrap_or_else(|e| panic!("{}: {e}; actual JSON:\n{rendered}", path.display()));
    if let Some(diff) = first_difference(&expected, &actual, name) {
        panic!(
            "{} does not match ({diff}); actual JSON:\n{rendered}",
            path.display()
        );
    }
}

// --- cells -----------------------------------------------------------------------

/// The `repro` binary's default master seed, so the paper-table cells pin
/// the published tables.
const REPRO_SEED: u64 = 0xE6EE;

fn model_for(week: WeekId) -> EmpiricalModel {
    EmpiricalModel::from_trace(&week.generate(REPRO_SEED)).expect("synthetic traces are valid")
}

fn timeout_1d(out: &Timeout1d) -> JsonValue {
    obj([
        ("e_j", num(out.expectation)),
        ("sigma_j", num(out.std_dev)),
        ("t_inf", num(out.timeout)),
    ])
}

fn delayed_outcome(out: &DelayedOutcome) -> JsonValue {
    obj([
        ("e_j", num(out.expectation)),
        ("n_parallel", num(out.n_parallel)),
        ("sigma_j", num(out.std_dev)),
        ("t0", num(out.t0)),
        ("t_inf", num(out.t_inf)),
    ])
}

fn params(p: StrategyParams) -> JsonValue {
    match p {
        StrategyParams::Single { t_inf } => {
            obj([("family", text("single")), ("t_inf", num(t_inf))])
        }
        StrategyParams::Multiple { b, t_inf } => obj([
            ("b", count(b)),
            ("family", text("multiple")),
            ("t_inf", num(t_inf)),
        ]),
        StrategyParams::Delayed { t0, t_inf } => obj([
            ("family", text("delayed")),
            ("t0", num(t0)),
            ("t_inf", num(t_inf)),
        ]),
        StrategyParams::DelayedMultiple { b, t0, t_inf } => obj([
            ("b", count(b)),
            ("family", text("delayed-multiple")),
            ("t0", num(t0)),
            ("t_inf", num(t_inf)),
        ]),
    }
}

fn cost_point_json(p: &CostPoint) -> JsonValue {
    obj([
        ("delta_cost", num(p.delta_cost)),
        ("e_j", num(p.expectation)),
        ("n_parallel", num(p.n_parallel)),
        ("params", params(p.params)),
    ])
}

fn cost_points(points: &[CostPoint]) -> JsonValue {
    JsonValue::Array(points.iter().map(cost_point_json).collect())
}

fn sequence_summary(s: &SequenceSummary) -> JsonValue {
    obj([
        ("mean_latency", num(s.mean_latency)),
        ("mean_regret", num(s.mean_regret)),
        ("submissions_per_task", num(s.submissions_per_task)),
        ("tasks", count(s.tasks)),
    ])
}

fn summary(s: &Summary) -> JsonValue {
    obj([
        ("count", count(s.count())),
        ("max", num(s.max())),
        ("mean", num(s.mean())),
        ("min", num(s.min())),
        ("std", num(s.std())),
    ])
}

fn fleet_cell(cell: &FleetCellOutcome) -> JsonValue {
    let groups = cell
        .groups
        .iter()
        .map(|g| {
            obj([
                ("group", count(g.group)),
                ("latency", summary(&g.latency)),
                ("p50", num(g.quantile(0.5))),
                ("p95", num(g.quantile(0.95))),
                ("strategy", text(format!("{:?}", g.strategy))),
                ("tasks_completed", count(g.tasks_completed)),
                ("users", count(g.users)),
            ])
        })
        .collect();
    obj([
        ("fairness", num(cell.fairness)),
        ("groups", JsonValue::Array(groups)),
        ("makespan_s", num(cell.makespan_s)),
        ("mean_latency", num(cell.mean_latency)),
        ("mix", text(cell.mix.clone())),
        ("replications", count(cell.replications)),
        ("scenario", text(cell.scenario.clone())),
        ("slot_waste", num(cell.slot_waste)),
        ("submissions", count(cell.submissions)),
        ("tasks_completed", count(cell.tasks_completed)),
        ("tasks_total", count(cell.tasks_total)),
        ("users", count(cell.users)),
        ("utilization", num(cell.utilization)),
        ("wasted_starts", count(cell.wasted_starts)),
    ])
}

/// Two groups, so the group reports and the fairness index have
/// something to tell apart.
fn mixed() -> StrategyMix {
    StrategyMix::new(
        "single+burst",
        vec![
            StrategyGroup::new(StrategyParams::Single { t_inf: 3_000.0 }, 0.6),
            StrategyGroup::new(
                StrategyParams::Multiple {
                    b: 2,
                    t_inf: 3_000.0,
                },
                0.4,
            ),
        ],
    )
}

#[test]
fn scenario_sweep_cell_matches_golden() {
    let out = ScenarioSweep::new(
        vec![StrategyParams::Delayed {
            t0: 400.0,
            t_inf: 560.0,
        }],
        vec![WeekId::W2006Ix],
        vec![GridScenario::new("faulty", 2.0, 1.0)],
        MonteCarloConfig {
            trials: 3_000,
            seed: 0x601D,
        },
    )
    .run();
    let cell = &out[0];
    let e = &cell.estimate;
    check_golden(
        "scenario_sweep",
        obj([
            ("analytic_e_j", num(cell.analytic_e_j)),
            ("analytic_n_parallel", num(cell.analytic_n_parallel)),
            ("completed_trials", count(e.completed_trials)),
            ("mean_j", num(e.mean_j)),
            ("mean_parallel", num(e.mean_parallel)),
            ("mean_submissions", num(e.mean_submissions)),
            ("scenario", text(cell.scenario.clone())),
            ("std_j", num(e.std_j)),
            ("stderr_j", num(e.stderr_j)),
            ("strategy", text(format!("{:?}", cell.strategy))),
            ("week", text(format!("{:?}", cell.week))),
        ]),
    );
}

#[test]
fn fleet_sweep_cell_matches_golden() {
    let mut cfg = FleetConfig::small_farm(10);
    cfg.tasks_per_user = 3;
    cfg.arrival = ArrivalProcess::ThinkTime { mean_s: 900.0 };
    cfg.replications = 3;
    cfg.seed = 0x601D;
    let out = FleetSweep::new(cfg, vec![mixed()], vec![14], vec![GridScenario::baseline()]).run();
    check_golden("fleet_sweep", fleet_cell(&out[0]));
}

#[test]
fn sharded_fleet_cell_matches_golden() {
    let mut cfg = FleetConfig::small_farm(16);
    cfg.tasks_per_user = 2;
    cfg.replications = 3;
    cfg.seed = 0x601D;
    let cell = ShardedFleet::new(cfg, mixed(), 20, 2, GridScenario::baseline()).run();
    check_golden("sharded_fleet", fleet_cell(&cell));
}

#[test]
fn adaptive_sweep_multiple_cell_matches_golden() {
    // the burst controller under drift, tuned once and online through the
    // Multiple family's tune path (θ-table and empirical retunes)
    let sweep = AdaptiveSweep {
        base: WeekModel::calibrate("adapt", 500.0, 700.0, 0.05, 60.0, 10_000.0).unwrap(),
        period_s: 86_400.0,
        amplitudes: vec![0.6],
        retune_periods: vec![10],
        family: StrategyParams::Multiple { b: 2, t_inf: 700.0 },
        adaptive: AdaptiveConfig::default(),
        n_tasks: 60,
        seed: 0x601D,
    };
    let cell = &sweep.run()[0];
    check_golden(
        "adaptive_sweep",
        obj([
            ("adaptive", sequence_summary(&cell.adaptive)),
            ("amplitude", num(cell.amplitude)),
            ("fixed", sequence_summary(&cell.fixed)),
            ("retune_every", count(cell.retune_every)),
            ("retunes", count(cell.retunes)),
        ]),
    );
}

/// The four strategy families on the slow-cancellation grid, with `t∞`
/// near the pipeline's latency body so every family resubmits.
fn slow_cancel_families() -> [StrategyParams; 4] {
    [
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
    ]
}

/// One site, no background load, no faults, and a 2,000 s mean
/// cancellation delay far above the pipeline's hop delays: a cancel
/// request usually lands long after its job could have started, so the
/// outputs see how many requests each abandoned job gets and when.
fn slow_cancel_grid() -> Arc<GridConfig> {
    let mut grid = GridConfig::pipeline_default();
    grid.sites.truncate(1);
    grid.background = None;
    grid.faults.p_silent_loss = 0.0;
    grid.faults.p_transient_failure = 0.0;
    grid.wms.cancellation_delay_mean_s = 2_000.0;
    Arc::new(grid)
}

fn sequence_outcome(out: &SequenceOutcome) -> JsonValue {
    obj([
        ("final_params", params(out.final_params)),
        ("mean_latency", num(out.mean_latency())),
        ("retunes", count(out.retunes)),
        ("submissions", count(out.submissions)),
        ("tasks", count(out.tasks.len())),
    ])
}

#[test]
fn executor_slow_cancel_cell_matches_golden() {
    let ex = StrategyExecutor::from_grid(
        slow_cancel_grid(),
        MonteCarloConfig {
            trials: 2_000,
            seed: 0x601D,
        },
    );
    let rows = slow_cancel_families()
        .into_iter()
        .map(|spec| {
            let e = ex.run(spec);
            obj([
                ("completed_trials", count(e.completed_trials)),
                ("mean_j", num(e.mean_j)),
                ("mean_parallel", num(e.mean_parallel)),
                ("mean_submissions", num(e.mean_submissions)),
                ("params", params(spec)),
                ("std_j", num(e.std_j)),
                ("stderr_j", num(e.stderr_j)),
            ])
        })
        .collect();
    check_golden("executor_slow_cancel", JsonValue::Array(rows));
}

#[test]
fn sequence_slow_cancel_cell_matches_golden() {
    // back-to-back tasks on one engine: a task's abandoned jobs are still
    // waiting for their cancellation when the next task starts
    let grid = slow_cancel_grid();
    let fixed = slow_cancel_families()
        .iter()
        .map(|spec| sequence_outcome(&run_fixed_sequence(&grid, spec, 40, 5)))
        .collect();
    let config = AdaptiveConfig {
        retune_every: 5,
        window: 100,
        decay: 0.9,
        min_body: 10,
        policy: RetunePolicy::EmpiricalBackoff {
            max_censored_fraction: 0.3,
            growth: 1.5,
        },
    };
    let adaptive = run_adaptive_sequence(
        &grid,
        StrategyParams::Delayed {
            t0: 60.0,
            t_inf: 90.0,
        },
        &config,
        None,
        40,
        5,
    );
    assert!(adaptive.retunes > 0, "the adaptive run never retuned");
    check_golden(
        "sequence_slow_cancel",
        obj([
            ("adaptive", sequence_outcome(&adaptive)),
            ("fixed", JsonValue::Array(fixed)),
        ]),
    );
}

#[test]
fn fleet_four_family_cell_matches_golden() {
    // the farm cancels with a 60 s mean delay; t∞ near the latency body
    // makes every family resubmit and abandon copies
    let mix = StrategyMix::new(
        "four-families",
        [
            StrategyParams::Single { t_inf: 300.0 },
            StrategyParams::Multiple { b: 2, t_inf: 300.0 },
            StrategyParams::Delayed {
                t0: 200.0,
                t_inf: 300.0,
            },
            StrategyParams::DelayedMultiple {
                b: 2,
                t0: 200.0,
                t_inf: 300.0,
            },
        ]
        .into_iter()
        .map(|spec| StrategyGroup::new(spec, 0.25))
        .collect(),
    );
    let mut cfg = FleetConfig::small_farm(10);
    cfg.tasks_per_user = 3;
    cfg.arrival = ArrivalProcess::ThinkTime { mean_s: 900.0 };
    cfg.replications = 3;
    cfg.seed = 0x601D;
    let out = FleetSweep::new(cfg, vec![mix], vec![16], vec![GridScenario::baseline()]).run();
    check_golden("fleet_four_families", fleet_cell(&out[0]));
}

#[test]
fn table1_matches_golden() {
    // per week: latency statistics and the single-resubmission optimum
    let rows = WeekId::ALL
        .iter()
        .map(|&week| {
            let trace = week.generate(REPRO_SEED);
            let model = EmpiricalModel::from_trace(&trace).expect("synthetic traces are valid");
            obj([
                ("body_mean", num(trace.body_mean())),
                ("body_std", num(trace.body_std())),
                ("censored_mean", num(trace.censored_mean_lower_bound())),
                ("single", timeout_1d(&SingleResubmission::optimize(&model))),
                ("week", text(week.name())),
            ])
        })
        .collect();
    check_golden("table1", JsonValue::Array(rows));
}

#[test]
fn table2_matches_golden() {
    // multiple submission on 2006-IX: the optimum per collection size
    let model = model_for(WeekId::W2006Ix);
    let bs: Vec<u32> = (1..=20).collect();
    let rows = MultipleSubmission::optimal_series(&model, &bs)
        .iter()
        .map(|(b, out)| obj([("b", count(*b)), ("optimum", timeout_1d(out))]))
        .collect();
    check_golden("table2", JsonValue::Array(rows));
}

#[test]
fn table3_and_figure5_minimum_match_golden() {
    // delayed resubmission on 2006-IX: the optimum per imposed ratio and
    // the free 2-D optimum (Table 3's last row, Figure 5's minimum)
    let model = model_for(WeekId::W2006Ix);
    let ratios = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0];
    let rows = ratios
        .iter()
        .map(|&r| {
            obj([
                (
                    "optimum",
                    delayed_outcome(&DelayedResubmission::optimize_with_ratio(&model, r)),
                ),
                ("ratio", num(r)),
            ])
        })
        .collect();
    check_golden(
        "table3",
        obj([
            (
                "free",
                delayed_outcome(&DelayedResubmission::optimize(&model)),
            ),
            ("ratios", JsonValue::Array(rows)),
            ("single", timeout_1d(&SingleResubmission::optimize(&model))),
        ]),
    );
}

#[test]
fn table4_cost_profiles_match_golden() {
    // ∆cost of the delayed strategy per ratio and of the multiple strategy
    // per collection size, on 2006-IX
    let model = model_for(WeekId::W2006Ix);
    let ratios = [
        1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0,
    ];
    let bs = [2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 40, 60, 80, 100];
    check_golden(
        "table4",
        obj([
            (
                "delayed",
                cost_points(&delayed_cost_profile(&model, &ratios)),
            ),
            ("multiple", cost_points(&multiple_cost_profile(&model, &bs))),
        ]),
    );
}

/// The `(t0, t∞)` pair of a `∆cost` optimum.
fn delayed_pair(p: &CostPoint) -> (f64, f64) {
    match p.params {
        StrategyParams::Delayed { t0, t_inf } => (t0, t_inf),
        other => panic!("the ∆cost optimiser yields delayed params, got {other:?}"),
    }
}

#[test]
fn table5_rows_match_golden() {
    // two weeks of Table 5: the ∆cost optimum and its ±5 s stability scan
    let rows = [WeekId::W2007_37, WeekId::W2007_51]
        .iter()
        .map(|&week| {
            let model = model_for(week);
            let single = SingleResubmission::optimize(&model);
            let best = optimize_delayed_delta_cost(&model);
            let (t0, t_inf) = delayed_pair(&best);
            let rep = stability_radius(&model, t0, t_inf, 5, single.expectation);
            obj([
                ("optimum", cost_point_json(&best)),
                (
                    "stability",
                    obj([
                        ("base_delta_cost", num(rep.base_delta_cost)),
                        ("examined", count(rep.examined)),
                        ("max_delta_cost", num(rep.max_delta_cost)),
                        ("max_rel_diff_pct", num(rep.max_rel_diff_pct)),
                    ]),
                ),
                ("week", text(week.name())),
            ])
        })
        .collect();
    check_golden("table5", JsonValue::Array(rows));
}

#[test]
fn table6_transfer_matrix_matches_golden() {
    // a three-week Table 6: every week under every week's ∆cost optimum
    let weeks: Vec<(String, EmpiricalModel, (f64, f64))> =
        [WeekId::W2007_51, WeekId::W2007_53, WeekId::W2008_01]
            .iter()
            .map(|&week| {
                let model = model_for(week);
                let pair = delayed_pair(&optimize_delayed_delta_cost(&model));
                (week.name().to_owned(), model, pair)
            })
            .collect();
    let rows = transfer_matrix(&weeks)
        .iter()
        .map(|rep| {
            let cells = rep
                .cells
                .iter()
                .map(|c| {
                    obj([
                        ("delta_cost", num(c.delta_cost)),
                        ("e_j", num(c.expectation)),
                        ("param_week", text(c.param_week.clone())),
                        ("t0", num(c.t0)),
                        ("t_inf", num(c.t_inf)),
                    ])
                })
                .collect();
            obj([
                ("cells", JsonValue::Array(cells)),
                ("eval_week", text(rep.eval_week.clone())),
                ("max_diff_pct", num(rep.max_diff_pct)),
                ("own_index", count(rep.own_index)),
                (
                    "prev_diff_pct",
                    rep.prev_diff_pct.map_or(JsonValue::Null, num),
                ),
            ])
        })
        .collect();
    check_golden("table6", JsonValue::Array(rows));
}
