//! `tune` — strategy tuning for a measured latency trace.
//!
//! ```text
//! tune traces/2007-51.log                      # observatory format (default)
//! tune --format json my-week.json
//! tune --format csv my-week.csv --threshold 10000
//! tune --demo                                   # run on a built-in synthetic week
//! ```
//!
//! The deployable face of the library: feed it last week's probe log and it
//! prints (1) whether resubmission pays at all (hazard + fault diagnosis),
//! (2) tuned parameters for each strategy with their predicted `E_J`/`σ_J`,
//! (3) the `∆cost`-optimal delayed configuration, and (4) a bootstrap
//! confidence interval quantifying how much to trust the numbers.

use gridstrat_core::cost::{optimize_delayed_delta_cost, StrategyParams};
use gridstrat_core::latency::EmpiricalModel;
use gridstrat_core::strategy::{optimize_timeout, DelayedResubmission};
use gridstrat_stats::bootstrap::bootstrap_ci;
use gridstrat_stats::hazard::HazardProfile;
use gridstrat_workload::observatory::parse_observatory;
use gridstrat_workload::{TraceSet, WeekId};
use std::process::ExitCode;

const USAGE: &str =
    "usage: tune [--format observatory|json|csv] [--threshold S] [--demo] [TRACE_FILE]";

fn main() -> ExitCode {
    let mut format = "observatory".to_string();
    let mut threshold = 10_000.0f64;
    let mut path: Option<String> = None;
    let mut demo = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(v) if ["observatory", "json", "csv"].contains(&v.as_str()) => format = v,
                _ => return fail("--format must be observatory, json or csv"),
            },
            "--threshold" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 => threshold = v,
                _ => return fail("--threshold requires a positive number of seconds"),
            },
            "--demo" => demo = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => return fail(&format!("unknown argument `{other}`")),
        }
    }

    let trace: TraceSet = if demo {
        WeekId::W2007_51.generate(0xE6EE)
    } else {
        let Some(path) = path else {
            return fail("a trace file (or --demo) is required");
        };
        let content = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let parsed = match format.as_str() {
            "json" => TraceSet::from_json(&content),
            "csv" => TraceSet::from_csv(&path, threshold, &content),
            _ => parse_observatory(&content),
        };
        match parsed {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    println!(
        "trace `{}`: {} probes, body mean {:.0}s ± {:.0}s, fault ratio {:.1}%",
        trace.name,
        trace.len(),
        trace.body_mean(),
        trace.body_std(),
        100.0 * trace.outlier_ratio()
    );

    // 1. should you resubmit at all?
    let ecdf = match trace.ecdf() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("degenerate trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = HazardProfile::from_ecdf(&ecdf, 10);
    println!(
        "\nhazard trend: {:?}; outlier mass: {:.1}% → resubmission {}",
        profile.trend(0.25),
        100.0 * profile.outlier_ratio(),
        if profile.resubmission_pays() {
            "PAYS"
        } else {
            "does not pay"
        }
    );
    if !profile.resubmission_pays() {
        println!("(strategies below are reported anyway; expect marginal gains)");
    }

    // 2. strategy tuning
    let model = EmpiricalModel::from_ecdf(ecdf);
    let single = optimize_timeout(&model, 1);
    println!("\ntuned strategies (predicted on this trace):");
    println!(
        "  single resubmission : t∞ = {:>5.0}s   E_J = {:>5.0}s  σ_J = {:>5.0}s",
        single.timeout, single.expectation, single.std_dev
    );
    for b in [2u32, 3, 5] {
        let multi = optimize_timeout(&model, b);
        println!(
            "  multiple (b = {b})    : t∞ = {:>5.0}s   E_J = {:>5.0}s  σ_J = {:>5.0}s  (load ×{b})",
            multi.timeout, multi.expectation, multi.std_dev
        );
    }
    let delayed = DelayedResubmission::optimize(&model);
    println!(
        "  delayed (min E_J)   : t0 = {:>5.0}s   t∞ = {:>5.0}s  E_J = {:>5.0}s  N_// = {:.2}",
        delayed.t0, delayed.t_inf, delayed.expectation, delayed.n_parallel
    );

    // 3. the economical configuration
    let best = optimize_delayed_delta_cost(&model);
    if let StrategyParams::Delayed { t0, t_inf } = best.params {
        println!(
            "\nrecommended (∆cost-optimal) delayed configuration:\n  t0 = {t0:.0}s, t∞ = {t_inf:.0}s → E_J = {:.0}s, ∆cost = {:.3} ({})",
            best.expectation,
            best.delta_cost,
            if best.delta_cost < 1.0 {
                "lighter on the grid than plain resubmission"
            } else {
                "costs more than plain resubmission — prefer single"
            }
        );
    }

    // 4. trustworthiness of the estimate
    let raw: Vec<f64> = trace.records.iter().map(|r| r.latency_s).collect();
    let thr = trace.threshold_s;
    let ci = bootstrap_ci(
        &raw,
        |xs| match EmpiricalModel::from_samples(xs, thr) {
            Ok(m) => optimize_timeout(&m, 1).expectation,
            Err(_) => f64::INFINITY,
        },
        200,
        0.95,
        0x7E57,
    );
    println!(
        "\nsampling error: 95% CI for the single-resubmission E_J is [{:.0}s, {:.0}s] \
         (±{:.0}% around {:.0}s) from {} probes",
        ci.lo,
        ci.hi,
        100.0 * ci.relative_halfwidth(),
        ci.estimate,
        trace.len()
    );
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::FAILURE
}
