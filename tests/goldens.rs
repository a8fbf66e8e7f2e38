//! Golden outputs: a behaviour oracle across commits.
//!
//! Three small cells — one `ScenarioSweep` cell, one think-time
//! `FleetSweep` cell and one 2-shard `ShardedFleet` cell — are evaluated
//! and compared, value by value and to the bit, against canonical
//! sorted-key JSON committed under `replication/expected/`. The files
//! store the values themselves (f64 in Rust's shortest round-trip form),
//! so a diff says which statistic moved. They pin what the benchmark
//! digests do not: standard errors and deviations, the realised
//! parallel-job average, fairness, slot waste, utilisation and the group
//! quantiles.
//!
//! A mismatch prints the actual JSON. Updating a golden on purpose needs
//! a CHANGES.md line saying why.

use gridstrat::prelude::*;
use gridstrat::stats::Summary;
use gridstrat::workload::json::{escape, JsonValue};
use std::path::PathBuf;

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
