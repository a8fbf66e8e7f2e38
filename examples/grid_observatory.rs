//! The full measurement pipeline: simulated grid → probe harness →
//! observatory log → model fitting → tuned timeouts.
//!
//! ```text
//! cargo run --release --example grid_observatory
//! ```
//!
//! The paper's data comes from probe jobs submitted to the real EGEE
//! infrastructure and archived Grid-Observatory-style (§3.2). This example
//! replays that methodology end to end against the *pipeline* simulator —
//! where latency emerges from match-making, queueing behind background load
//! and faults rather than from a closed-form law:
//!
//! 1. run the constant-probes-in-flight harness against a congested farm;
//! 2. archive the trace in the observatory text format and parse it back;
//! 3. fit candidate latency-body families (log-normal / Weibull /
//!    exponential / Pareto) by maximum likelihood and rank them;
//! 4. derive the strategy timeouts a client should use next week.

use gridstrat::core::latency::ParametricModel;
use gridstrat::prelude::*;
use gridstrat::stats::fit::{fit_outlier_ratio, select_body_model};
use gridstrat::workload::observatory::{parse_observatory, write_observatory};

fn main() {
    // 1. measure: a moderately loaded farm with faults. The background
    //    traffic is sized to ~70% slot utilisation (180 busy of 260 slots)
    //    so queues form without the farm melting down.
    let mut cfg = GridConfig::pipeline_default();
    cfg.sites.truncate(3);
    cfg.background = Some(gridstrat::sim::BackgroundLoadConfig {
        arrival_rate_per_s: 0.12,
        exec_mean_s: 1_500.0,
        exec_cv: 1.5,
    });
    cfg.faults.p_silent_loss = 0.08;
    let mut sim = GridSimulation::new(cfg, 0x0B5).expect("valid config");
    let mut harness = ProbeHarness::new("sim-week", 1500, 40, CENSOR_THRESHOLD_S);
    sim.run_controller(&mut harness);
    let trace = harness.into_trace();
    println!(
        "collected {} probes: body mean {:.0}s ± {:.0}s, outliers {:.1}%",
        trace.len(),
        trace.body_mean(),
        trace.body_std(),
        100.0 * trace.outlier_ratio()
    );

    // 2. archive + re-parse (what a Grid Observatory consumer would do)
    let log = write_observatory(&trace);
    let parsed = parse_observatory(&log).expect("self-written log parses");
    assert_eq!(parsed.len(), trace.len());
    println!(
        "observatory round-trip: {} bytes, {} records",
        log.len(),
        parsed.len()
    );

    // 3. fit and rank body families
    let body = parsed.body_latencies();
    let (rho, rho_se) = fit_outlier_ratio(parsed.n_outliers(), parsed.len());
    println!("\nfault ratio ρ̂ = {rho:.3} ± {rho_se:.3}");
    println!(
        "{:<12} {:>12} {:>10} {:>8}",
        "family", "AIC", "KS", "p-value"
    );
    let reports = select_body_model(&body);
    for r in &reports {
        println!(
            "{:<12} {:>12.1} {:>10.4} {:>8.4}",
            r.model.family(),
            r.aic,
            r.ks,
            r.ks_pvalue
        );
    }

    // 4. tune strategies on both the raw ECDF and the best parametric fit
    let empirical = EmpiricalModel::from_trace(&parsed).expect("valid trace");
    let emp_opt = optimize_timeout(&empirical, 1);
    println!(
        "\nempirical model : t∞* = {:.0}s, E_J = {:.0}s",
        emp_opt.timeout, emp_opt.expectation
    );
    let best_fit = reports.first().expect("at least one family fits");
    let parametric =
        ParametricModel::new(best_fit.model, rho, CENSOR_THRESHOLD_S).expect("valid model");
    let par_opt = optimize_timeout(&parametric, 1);
    println!(
        "parametric ({}) : t∞* = {:.0}s, E_J = {:.0}s",
        best_fit.model.family(),
        par_opt.timeout,
        par_opt.expectation
    );
    let delayed = DelayedResubmission::optimize(&empirical);
    println!(
        "delayed         : (t0*, t∞*) = ({:.0}s, {:.0}s), E_J = {:.0}s, N_// = {:.2}",
        delayed.t0, delayed.t_inf, delayed.expectation, delayed.n_parallel
    );
}
