//! One function per table/figure of the paper's evaluation section.
//!
//! Every function is deterministic in the master seed and returns rendered
//! [`Table`]s; the `repro` binary prints them and writes their CSV forms.
//! Where the paper's artefact is a plot, the table holds the plotted series
//! (one row per point), which gnuplot can consume directly.

use gridstrat_core::cost::{
    delayed_cost_profile, multiple_cost_profile, optimize_delayed_delta_cost, StrategyParams,
};
use gridstrat_core::latency::EmpiricalModel;
use gridstrat_core::report::{fixed, pct1, secs0, Table};
use gridstrat_core::stability::stability_radius;
use gridstrat_core::strategy::{optimize_timeout, DelayedResubmission, Strategy, Timeout1d};
use gridstrat_core::transfer::transfer_matrix;
use gridstrat_stats::rng::derived_rng;
use gridstrat_workload::{WeekId, CENSOR_THRESHOLD_S};

use crate::model_for;

/// Figure 1 — cumulative density of latency: the proper CDF `F_R` and the
/// defective `F̃_R = (1-ρ)F_R` of the 2006-IX dataset.
pub fn figure1(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let e = model.ecdf();
    let mut t = Table::new(
        "Figure 1 — cumulative densities of latency, 2006-IX (ρ = outlier gap at the top)",
        &["t_seconds", "F_R", "Ftilde_R"],
    );
    let mut x = 0.0;
    while x <= 3_000.0 {
        t.push_row(vec![
            fixed(x, 0),
            fixed(e.conditional_value(x), 4),
            fixed(e.value(x), 4),
        ]);
        x += 25.0;
    }
    vec![t]
}

/// Table 1 — per-week latency statistics and the single-resubmission
/// optimum (paper values alongside for direct comparison).
pub fn table1(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "Table 1 — mean/σ of latency (R) and of latency incl. resubmissions (J)",
        &[
            "week",
            "mean<1e4",
            "with 1e4",
            "E_J",
            "σ_R",
            "σ_J",
            "Δσ",
            "E_J(paper)",
            "σ_J(paper)",
        ],
    );
    for week in WeekId::ALL {
        let trace = week.generate(seed);
        let model = EmpiricalModel::from_trace(&trace).expect("valid trace");
        let opt = optimize_timeout(&model, 1);
        let sigma_r = trace.body_std();
        let row = week.paper_row();
        t.push_row(vec![
            week.name().to_string(),
            secs0(trace.body_mean()),
            secs0(trace.censored_mean_lower_bound()),
            secs0(opt.expectation),
            secs0(sigma_r),
            secs0(opt.std_dev),
            pct1((opt.std_dev - sigma_r) / sigma_r),
            secs0(row.e_j),
            secs0(row.sigma_j),
        ]);
    }
    vec![t]
}

/// Figure 2 — `E_J(t∞)` for collections of b = 1…10 jobs (2006-IX).
pub fn figure2(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let headers: Vec<String> = std::iter::once("t_inf".to_string())
        .chain((1..=10).map(|b| format!("b={b}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 2 — expectation of execution time vs timeout, b = 1…10 (2006-IX)",
        &hdr_refs,
    );
    let mut x = 50.0;
    while x <= 2_000.0 {
        let mut row = vec![fixed(x, 0)];
        for b in 1..=10u32 {
            let e = StrategyParams::Multiple { b, t_inf: x }.expected_j(&model);
            row.push(if e.is_finite() {
                fixed(e, 1)
            } else {
                "inf".into()
            });
        }
        t.push_row(row);
        x += 25.0;
    }
    vec![t]
}

/// Table 2 — optimal timeout and best `E_J`/`σ_J` for b = 1…20 (2006-IX),
/// with the paper's improvement columns.
pub fn table2(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let series: Vec<(u32, Timeout1d)> =
        (1..=20).map(|b| (b, optimize_timeout(&model, b))).collect();
    let e1 = series[0].1.expectation;
    let mut t = Table::new(
        "Table 2 — multiple submission on 2006-IX: optimal t∞ and best E_J per b",
        &[
            "b",
            "opt t∞",
            "best E_J",
            "σ_J",
            "ΔE_J/(b=1)",
            "Δb/(b=1)",
            "ΔE_J/(b-1)",
            "Δb/(b-1)",
        ],
    );
    for (i, (b, out)) in series.iter().enumerate() {
        let vs1 = if i == 0 {
            (String::new(), String::new())
        } else {
            (pct1(out.expectation / e1 - 1.0), format!("{}%", b * 100))
        };
        let vsprev = if i == 0 {
            (String::new(), String::new())
        } else {
            let prev = &series[i - 1].1;
            (
                pct1(out.expectation / prev.expectation - 1.0),
                format!("{:.1}%", 100.0 / (*b as f64 - 1.0)),
            )
        };
        t.push_row(vec![
            b.to_string(),
            secs0(out.timeout),
            secs0(out.expectation),
            secs0(out.std_dev),
            vs1.0,
            vs1.1,
            vsprev.0,
            vsprev.1,
        ]);
    }
    vec![t]
}

/// Figure 3 — evolution of the minimal `E_J` (top) and associated `σ_J`
/// (bottom) with b, one series per dataset.
pub fn figure3(seed: u64) -> Vec<Table> {
    let headers: Vec<String> = std::iter::once("week".to_string())
        .chain((1..=10).map(|b| format!("b={b}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut tej = Table::new(
        "Figure 3 (top) — minimal E_J vs number of parallel jobs",
        &hdr_refs,
    );
    let mut tsj = Table::new(
        "Figure 3 (bottom) — σ_J at the optimum vs number of parallel jobs",
        &hdr_refs,
    );
    for week in WeekId::ALL {
        let model = model_for(week, seed);
        let mut row_e = vec![week.name().to_string()];
        let mut row_s = vec![week.name().to_string()];
        for out in (1..=10).map(|b| optimize_timeout(&model, b)) {
            row_e.push(fixed(out.expectation, 0));
            row_s.push(fixed(out.std_dev, 0));
        }
        tej.push_row(row_e);
        tsj.push_row(row_s);
    }
    vec![tej, tsj]
}

/// Figure 4 — principle of the delayed resubmission strategy: a concrete
/// timeline realised against the 2006-IX model with the paper's optimal
/// `(t0, t∞) = (339 s, 485 s)`, rendered as a Gantt-style table.
pub fn figure4(seed: u64) -> Vec<Table> {
    let week_model = WeekId::W2006Ix.model();
    let (t0, t_inf) = (339.0, 485.0);
    // find a deterministic run with at least three submissions so the
    // cancellation mechanics are visible
    let mut stream = 0u64;
    let (lats, j) = loop {
        let mut rng = derived_rng(seed ^ 0xF1604, stream);
        let mut lats: Vec<f64> = Vec::new();
        let mut j = f64::INFINITY;
        let mut n = 0usize;
        loop {
            let submit = n as f64 * t0;
            if submit >= j {
                break;
            }
            let lat = week_model.sample_latency(&mut rng);
            let eff = if lat < t_inf {
                submit + lat
            } else {
                f64::INFINITY
            };
            j = j.min(eff);
            lats.push(lat);
            n += 1;
        }
        if lats.len() >= 3 {
            break (lats, j);
        }
        stream += 1;
    };

    let mut t = Table::new(
        format!(
            "Figure 4 — delayed resubmission timeline (t0 = {t0} s, t∞ = {t_inf} s): \
             J = {j:.0} s after {} submissions",
            lats.len()
        ),
        &["job", "submitted", "fate", "at", "timeline [0, J]"],
    );
    let span = j.max(1.0);
    let cols = 48usize;
    for (k, lat) in lats.iter().enumerate() {
        let submit = k as f64 * t0;
        let start = submit + lat;
        let cancel = submit + t_inf;
        // fate: the job either starts at J, is cancelled at t∞, or is still
        // pending when another job starts (cancelled at J)
        let (fate, at) = if (start - j).abs() < 1e-9 && *lat < t_inf {
            ("STARTS", j)
        } else if cancel <= j {
            ("cancelled @t∞", cancel)
        } else {
            ("cancelled @J", j)
        };
        let from = ((submit / span) * cols as f64).round() as usize;
        let to = ((at.min(j) / span) * cols as f64).round() as usize;
        let mut bar = vec![b'.'; cols + 1];
        for c in bar.iter_mut().take(to.min(cols)).skip(from.min(cols)) {
            *c = b'=';
        }
        if fate == "STARTS" {
            bar[to.min(cols)] = b'#';
        } else {
            bar[to.min(cols)] = b'x';
        }
        t.push_row(vec![
            format!("{}", k + 1),
            secs0(submit),
            fate.to_string(),
            secs0(at),
            String::from_utf8(bar).expect("ascii"),
        ]);
    }
    vec![t]
}

/// Figure 5 — expectation surface `E_J(t0, t∞)` of the delayed strategy on
/// 2006-IX (one row per grid point; feasible region only), plus its minimum.
pub fn figure5(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let mut t = Table::new(
        "Figure 5 — E_J(t0, t∞) surface, delayed resubmission (2006-IX)",
        &["t0", "t_inf", "E_J"],
    );
    let mut t0 = 100.0f64;
    while t0 <= 700.0 {
        let mut ti = t0;
        while ti <= (2.0 * t0).min(900.0) {
            let e = DelayedResubmission::expectation(&model, t0, ti);
            t.push_row(vec![fixed(t0, 0), fixed(ti, 0), fixed(e, 1)]);
            ti += 20.0;
        }
        t0 += 20.0;
    }
    let best = DelayedResubmission::optimize(&model);
    let mut m = Table::new(
        "Figure 5 (minimum) — global optimum of the surface",
        &[
            "best t0",
            "best t∞",
            "min E_J",
            "paper t0",
            "paper t∞",
            "paper E_J",
        ],
    );
    m.push_row(vec![
        secs0(best.t0),
        secs0(best.t_inf),
        secs0(best.expectation),
        "339s".into(),
        "485s".into(),
        "431s".into(),
    ]);
    vec![t, m]
}

/// The ratio grid used by Tables 3–4.
pub const RATIOS: [f64; 10] = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0];

/// Table 3 — delayed resubmission on 2006-IX: for each imposed ratio
/// `t∞/t0`, the `E_J`-optimal pair, the resulting `N_//` and the gain over
/// single resubmission.
pub fn table3(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let single = optimize_timeout(&model, 1);
    let mut t = Table::new(
        format!(
            "Table 3 — delayed resubmission per ratio t∞/t0 (2006-IX); single-resub E_J = {}",
            secs0(single.expectation)
        ),
        &["t∞/t0", "N_//", "best t∞", "best t0", "min E_J", "Δ(100%)"],
    );
    for r in RATIOS {
        let out = DelayedResubmission::optimize_with_ratio(&model, r);
        t.push_row(vec![
            fixed(r, 1),
            fixed(out.n_parallel, 2),
            secs0(out.t_inf),
            secs0(out.t0),
            secs0(out.expectation),
            pct1(out.expectation / single.expectation - 1.0),
        ]);
    }
    let free = DelayedResubmission::optimize(&model);
    t.push_row(vec![
        "free".into(),
        fixed(free.n_parallel, 2),
        secs0(free.t_inf),
        secs0(free.t0),
        secs0(free.expectation),
        pct1(free.expectation / single.expectation - 1.0),
    ]);
    vec![t]
}

/// Figure 6 — minimal `E_J` vs mean number of parallel jobs for the delayed
/// (fine ratio sweep) and multiple (b = 1…5) strategies on 2006-IX.
pub fn figure6(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let mut t = Table::new(
        "Figure 6 — minimal E_J vs N_// (delayed sweep + multiple b = 1…5, 2006-IX)",
        &["strategy", "n_parallel", "min_E_J"],
    );
    for i in 0..=14 {
        // 15 ratios from 1.02 to 2.0, on an exact integer lattice so float
        // accumulation can never leave the feasible [1, 2] band
        let r = 1.02 + (2.0 - 1.02) * i as f64 / 14.0;
        let out = DelayedResubmission::optimize_with_ratio(&model, r.min(2.0));
        t.push_row(vec![
            "delayed".into(),
            fixed(out.n_parallel, 3),
            fixed(out.expectation, 1),
        ]);
    }
    for b in 1..=5u32 {
        let out = optimize_timeout(&model, b);
        t.push_row(vec![
            "multiple".into(),
            fixed(b as f64, 3),
            fixed(out.expectation, 1),
        ]);
    }
    vec![t]
}

/// Figure 7 — the load argument behind eq. 6: expected job-seconds in the
/// system per completed task (`N_// · E_J`), strategy by strategy.
pub fn figure7(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let single = optimize_timeout(&model, 1);
    let mut t = Table::new(
        "Figure 7 — infrastructure load per task: N_// · E_J (2006-IX)",
        &["strategy", "E_J", "N_//", "job·seconds", "vs single"],
    );
    t.push_row(vec![
        "single resub. (optimal)".into(),
        secs0(single.expectation),
        fixed(1.0, 2),
        fixed(single.expectation, 0),
        pct1(0.0),
    ]);
    for b in [2u32, 4] {
        let out = optimize_timeout(&model, b);
        let load = b as f64 * out.expectation;
        t.push_row(vec![
            format!("multiple b={b}"),
            secs0(out.expectation),
            fixed(b as f64, 2),
            fixed(load, 0),
            pct1(load / single.expectation - 1.0),
        ]);
    }
    let best = optimize_delayed_delta_cost(&model);
    let load = best.n_parallel * best.expectation;
    t.push_row(vec![
        "delayed (∆cost-optimal)".into(),
        secs0(best.expectation),
        fixed(best.n_parallel, 2),
        fixed(load, 0),
        pct1(load / single.expectation - 1.0),
    ]);
    vec![t]
}

/// Table 4 — `∆cost` of the delayed strategy per ratio (left half) and of
/// the multiple strategy per b (right half), on 2006-IX.
pub fn table4(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let single = optimize_timeout(&model, 1);

    let mut left = Table::new(
        format!(
            "Table 4 (left) — delayed resubmission ∆cost per ratio (2006-IX, E_J(b=1) = {})",
            secs0(single.expectation)
        ),
        &["N_//", "t∞/t0", "min E_J", "∆cost"],
    );
    // the paper's left half starts from the single-resubmission row
    left.push_row(vec![
        "1.00".into(),
        "1".into(),
        secs0(single.expectation),
        fixed(1.0, 2),
    ]);
    let ratios: Vec<f64> = [1.05, 1.1, 1.15, 1.2, 1.25]
        .into_iter()
        .chain(RATIOS.into_iter().skip(2)) // 1.3 … 2.0
        .collect();
    for p in delayed_cost_profile(&model, &ratios) {
        let (t0, ti) = match p.params {
            StrategyParams::Delayed { t0, t_inf } => (t0, t_inf),
            _ => unreachable!("delayed profile yields delayed params"),
        };
        left.push_row(vec![
            fixed(p.n_parallel, 2),
            fixed(ti / t0, 2),
            secs0(p.expectation),
            fixed(p.delta_cost, 2),
        ]);
    }

    let mut right = Table::new(
        "Table 4 (right) — multiple submission ∆cost per collection size (2006-IX)",
        &["N_//", "min E_J", "∆cost"],
    );
    let bs = [2u32, 3, 4, 5, 6, 7, 8, 9, 10, 20, 40, 60, 80, 100];
    for p in multiple_cost_profile(&model, &bs) {
        right.push_row(vec![
            fixed(p.n_parallel, 0),
            secs0(p.expectation),
            fixed(p.delta_cost, 1),
        ]);
    }
    vec![left, right]
}

/// Figure 8 — `∆cost` vs `N_//` for both strategies (2006-IX).
pub fn figure8(seed: u64) -> Vec<Table> {
    let model = model_for(WeekId::W2006Ix, seed);
    let mut t = Table::new(
        "Figure 8 — ∆cost vs N_// (delayed sweep + multiple b = 1…5, 2006-IX)",
        &["strategy", "n_parallel", "delta_cost"],
    );
    let mut ratios = vec![1.02];
    for i in 1..=19 {
        ratios.push((1.0 + 0.05 * i as f64).min(2.0));
    }
    for p in delayed_cost_profile(&model, &ratios) {
        t.push_row(vec![
            "delayed".into(),
            fixed(p.n_parallel, 3),
            fixed(p.delta_cost, 3),
        ]);
    }
    for p in multiple_cost_profile(&model, &[1, 2, 3, 4, 5]) {
        t.push_row(vec![
            "multiple".into(),
            fixed(p.n_parallel, 3),
            fixed(p.delta_cost, 3),
        ]);
    }
    vec![t]
}

/// The datasets of Table 5: the 11 weekly traces plus the 2007/08 union.
pub fn table5_weeks() -> Vec<WeekId> {
    let mut v: Vec<WeekId> = WeekId::WEEKLY.to_vec();
    v.push(WeekId::Union0708);
    v
}

/// Table 5 — per-week minimal `∆cost` with the optimal integer `(t0, t∞)`
/// and the ±5 s stability scan for sub-unit minima.
pub fn table5(seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "Table 5 — minimal ∆cost per period, with ±5 s stability where ∆cost < 1",
        &[
            "week",
            "opt t0",
            "opt t∞",
            "opt ∆cost",
            "E_J",
            "max ∆cost(±5)",
            "max Δ%",
        ],
    );
    for week in table5_weeks() {
        let model = model_for(week, seed);
        let single = optimize_timeout(&model, 1);
        let best = optimize_delayed_delta_cost(&model);
        let (t0, ti) = match best.params {
            StrategyParams::Delayed { t0, t_inf } => (t0, t_inf),
            _ => unreachable!("∆cost optimizer yields delayed params"),
        };
        let (max_dc, max_pct) = if best.delta_cost < 1.0 {
            let rep = stability_radius(&model, t0, ti, 5, single.expectation);
            (
                fixed(rep.max_delta_cost, 3),
                format!("{:.1}%", rep.max_rel_diff_pct),
            )
        } else {
            (String::new(), String::new())
        };
        t.push_row(vec![
            week.name().to_string(),
            fixed(t0, 0),
            fixed(ti, 0),
            fixed(best.delta_cost, 3),
            secs0(best.expectation),
            max_dc,
            max_pct,
        ]);
    }
    vec![t]
}

/// The datasets of Table 6: the last six weeks plus the 2007/08 union, in
/// chronological order (the paper transfers among the sub-unit-∆cost weeks).
pub fn table6_weeks() -> Vec<WeekId> {
    vec![
        WeekId::W2007_51,
        WeekId::W2007_52,
        WeekId::W2007_53,
        WeekId::W2008_01,
        WeekId::W2008_02,
        WeekId::W2008_03,
        WeekId::Union0708,
    ]
}

/// Table 6 — cross-week transfer of the `∆cost`-optimal pairs: every week
/// evaluated under every week's optimum, with max and previous-week diffs.
pub fn table6(seed: u64) -> Vec<Table> {
    let weeks: Vec<(String, EmpiricalModel, (f64, f64))> = table6_weeks()
        .into_iter()
        .map(|w| {
            let model = model_for(w, seed);
            let best = optimize_delayed_delta_cost(&model);
            let pair = match best.params {
                StrategyParams::Delayed { t0, t_inf } => (t0, t_inf),
                _ => unreachable!("∆cost optimizer yields delayed params"),
            };
            (w.name().to_string(), model, pair)
        })
        .collect();
    let reports = transfer_matrix(&weeks);

    let mut t = Table::new(
        "Table 6 — ∆cost under each week's optimal (t0, t∞) pair (own pair marked *)",
        &[
            "eval week",
            "pair from",
            "t0",
            "t∞",
            "E_J",
            "∆cost",
            "max diff",
            "diff/prev",
        ],
    );
    for rep in &reports {
        for (i, cell) in rep.cells.iter().enumerate() {
            let own = if i == rep.own_index { "*" } else { "" };
            let (maxd, prevd) = if i == rep.own_index {
                (
                    format!("{:.1}%", rep.max_diff_pct),
                    rep.prev_diff_pct
                        .map(|p| format!("{p:.1}%"))
                        .unwrap_or_default(),
                )
            } else {
                (String::new(), String::new())
            };
            t.push_row(vec![
                format!("{}{}", rep.eval_week, own),
                cell.param_week.clone(),
                fixed(cell.t0, 0),
                fixed(cell.t_inf, 0),
                secs0(cell.expectation),
                fixed(cell.delta_cost, 3),
                maxd,
                prevd,
            ]);
        }
    }
    vec![t]
}

/// Extension (not in the paper): the paper's tables evaluate `N_//` at the
/// *expected* latency (`N_//(E_J)`); the true infrastructure load is
/// `E[N_//(J)]`. This ablation quantifies the gap by executing the delayed
/// protocol on the discrete-event grid at each ratio's optimum — all ratios
/// batched through one
/// [`ScenarioSweep`](gridstrat_core::executor::ScenarioSweep) pass.
pub fn npar_ablation(seed: u64) -> Vec<Table> {
    use gridstrat_core::executor::{MonteCarloConfig, ScenarioSweep};

    let ratios = [1.2, 1.4, 1.6, 1.8, 2.0];
    let model = model_for(WeekId::W2006Ix, seed);
    // one optimum per ratio: the E_J-optimal pair (with its analytic
    // moments) under that ratio, on the trace's empirical tuning law
    let optima: Vec<_> = ratios
        .iter()
        .map(|&r| DelayedResubmission::optimize_with_ratio(&model, r))
        .collect();
    let outcomes = ScenarioSweep::over_strategies(
        optima
            .iter()
            .map(|out| StrategyParams::Delayed {
                t0: out.t0,
                t_inf: out.t_inf,
            })
            .collect(),
        WeekId::W2006Ix,
        MonteCarloConfig {
            trials: 4_000,
            seed: seed ^ 0xAB1,
        },
    )
    .run();

    let mut t = Table::new(
        "Extension A — N_// convention ablation on 2006-IX: analytic vs executed",
        &[
            "t∞/t0",
            "t0",
            "t∞",
            "E_J analytic",
            "E_J simulated",
            "N_//(E_J)",
            "E[N_//(J)]",
            "subs/task",
        ],
    );
    for ((r, out), cell) in ratios.iter().zip(&optima).zip(&outcomes) {
        // analytic values on the trace's empirical model (the tuning law),
        // simulated values from the sweep's oracle execution
        t.push_row(vec![
            fixed(*r, 1),
            fixed(out.t0, 0),
            fixed(out.t_inf, 0),
            secs0(out.expectation),
            secs0(cell.estimate.mean_j),
            fixed(out.n_parallel, 3),
            fixed(cell.estimate.mean_parallel, 3),
            fixed(cell.estimate.mean_submissions, 2),
        ]);
    }
    vec![t]
}

/// Extension (not in the paper): a (strategy × week × grid-condition)
/// sweep through the batched
/// [`ScenarioSweep`](gridstrat_core::executor::ScenarioSweep) runner — the
/// scenario-diversity experiment the workload-mining literature runs
/// routinely. Strategies are tuned once on 2006-IX, then evaluated across
/// weeks under a nominal grid, a grid with doubled fault rate, and a
/// 25%-slower grid.
pub fn scenario_sweep(seed: u64) -> Vec<Table> {
    use gridstrat_core::executor::{GridScenario, MonteCarloConfig, ScenarioSweep};
    use gridstrat_core::strategy::Strategy;

    let tuning = model_for(WeekId::W2006Ix, seed);
    let single = StrategyParams::Single {
        t_inf: optimize_timeout(&tuning, 1).timeout,
    };
    let multi = StrategyParams::Multiple {
        b: 3,
        t_inf: optimize_timeout(&tuning, 3).timeout,
    };
    let delayed = optimize_delayed_delta_cost(&tuning).params;

    let sweep = ScenarioSweep::new(
        vec![single, multi, delayed],
        vec![WeekId::W2006Ix, WeekId::W2007_51, WeekId::W2008_03],
        vec![
            GridScenario::baseline(),
            GridScenario::new("2x-faults", 2.0, 1.0),
            GridScenario::new("25%-slower", 1.0, 1.25),
        ],
        MonteCarloConfig {
            trials: 2_000,
            seed: seed ^ 0x5EE9,
        },
    );
    let mut t = Table::new(
        format!(
            "Extension F — scenario sweep ({} cells × {} trials): strategies tuned on 2006-IX",
            sweep.n_cells(),
            sweep.config.trials
        ),
        &[
            "strategy",
            "week",
            "scenario",
            "E_J analytic",
            "E_J simulated",
            "z",
            "N_// sim",
            "subs/task",
        ],
    );
    for cell in sweep.run() {
        let z = (cell.estimate.mean_j - cell.analytic_e_j).abs() / cell.estimate.stderr_j;
        t.push_row(vec![
            cell.strategy.name().to_string(),
            cell.week.name().to_string(),
            cell.scenario.clone(),
            secs0(cell.analytic_e_j),
            secs0(cell.estimate.mean_j),
            fixed(z, 1),
            fixed(cell.estimate.mean_parallel, 2),
            fixed(cell.estimate.mean_submissions, 2),
        ]);
    }
    vec![t]
}

/// Extension (not in the paper): parametric-model tuning. Fit candidate
/// body families to each week by maximum likelihood, pick the AIC winner,
/// and compare the single-resubmission optimum tuned on the fitted model
/// against the ECDF-tuned optimum — the smoothing a client would apply to
/// short traces.
pub fn model_fits(seed: u64) -> Vec<Table> {
    use gridstrat_core::latency::ParametricModel;
    use gridstrat_stats::fit::{fit_outlier_ratio, select_body_model};

    let mut t = Table::new(
        "Extension B — parametric vs empirical tuning per week (AIC-best family)",
        &[
            "week",
            "family",
            "KS",
            "ρ̂",
            "t∞*(ecdf)",
            "E_J(ecdf)",
            "t∞*(fit)",
            "E_J(fit@ecdf)",
            "penalty",
        ],
    );
    for week in WeekId::ALL {
        let trace = week.generate(seed);
        let empirical = EmpiricalModel::from_trace(&trace).expect("valid trace");
        let body = trace.body_latencies();
        let reports = select_body_model(&body);
        let best = reports.first().expect("at least one family fits");
        let (rho, _) = fit_outlier_ratio(trace.n_outliers(), trace.len());
        let fitted = ParametricModel::new(best.model, rho, CENSOR_THRESHOLD_S)
            .expect("fitted model is valid");

        let ecdf_opt = optimize_timeout(&empirical, 1);
        let fit_opt = optimize_timeout(&fitted, 1);
        // evaluate the fit-tuned timeout under the empirical ground truth
        let realized = StrategyParams::Single {
            t_inf: fit_opt.timeout,
        }
        .expected_j(&empirical);
        t.push_row(vec![
            week.name().to_string(),
            best.model.family().to_string(),
            fixed(best.ks, 3),
            fixed(rho, 2),
            secs0(ecdf_opt.timeout),
            secs0(ecdf_opt.expectation),
            secs0(fit_opt.timeout),
            secs0(realized),
            pct1(realized / ecdf_opt.expectation - 1.0),
        ]);
    }
    vec![t]
}

/// Extension (not in the paper): bootstrap confidence intervals on the
/// per-week single-resubmission optimum. The paper reports point estimates
/// from ~900 probes; this quantifies their sampling error.
pub fn bootstrap_week_ci(seed: u64) -> Vec<Table> {
    use gridstrat_stats::bootstrap::bootstrap_ci;

    let mut t = Table::new(
        "Extension C — 95% bootstrap CIs on the single-resubmission optimum",
        &[
            "week", "E_J*", "E_J lo", "E_J hi", "±rel", "t∞*", "t∞ lo", "t∞ hi",
        ],
    );
    for week in WeekId::ALL {
        let trace = week.generate(seed);
        let raw: Vec<f64> = trace.records.iter().map(|r| r.latency_s).collect();
        let threshold = trace.threshold_s;
        let opt_ej = |xs: &[f64]| -> f64 {
            match EmpiricalModel::from_samples(xs, threshold) {
                Ok(m) => optimize_timeout(&m, 1).expectation,
                Err(_) => f64::INFINITY,
            }
        };
        let opt_t = |xs: &[f64]| -> f64 {
            match EmpiricalModel::from_samples(xs, threshold) {
                Ok(m) => optimize_timeout(&m, 1).timeout,
                Err(_) => f64::INFINITY,
            }
        };
        let ci_e = bootstrap_ci(&raw, opt_ej, 200, 0.95, seed ^ 0xB001);
        let ci_t = bootstrap_ci(&raw, opt_t, 200, 0.95, seed ^ 0xB001);
        t.push_row(vec![
            week.name().to_string(),
            secs0(ci_e.estimate),
            secs0(ci_e.lo),
            secs0(ci_e.hi),
            format!("{:.0}%", 100.0 * ci_e.relative_halfwidth()),
            secs0(ci_t.estimate),
            secs0(ci_t.lo),
            secs0(ci_t.hi),
        ]);
    }
    vec![t]
}

/// Extension (not in the paper): hazard-trend diagnosis per week. The
/// decreasing-hazard + outlier-mass structure is *why* resubmission pays;
/// this table makes the mechanism explicit.
pub fn hazard_diagnosis(seed: u64) -> Vec<Table> {
    use gridstrat_stats::hazard::HazardProfile;

    let mut t = Table::new(
        "Extension D — hazard diagnosis per week (why resubmission pays)",
        &["week", "ρ̂", "trend", "head rate", "tail rate", "resubmit?"],
    );
    for week in WeekId::ALL {
        let trace = week.generate(seed);
        let ecdf = trace.ecdf().expect("valid trace");
        let profile = HazardProfile::from_ecdf(&ecdf, 10);
        let bins = profile.bins();
        let head = bins.first().map(|b| b.rate).unwrap_or(f64::NAN);
        let tail = bins.last().map(|b| b.rate).unwrap_or(f64::NAN);
        t.push_row(vec![
            week.name().to_string(),
            fixed(ecdf.outlier_ratio(), 2),
            format!("{:?}", profile.trend(0.25)),
            format!("{:.2e}/s", head),
            format!("{:.2e}/s", tail),
            if profile.resubmission_pays() {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    vec![t]
}

/// Extension (not in the paper): non-stationarity stress test. A diurnal
/// trace is tuned as if stationary; the table shows what the tuned timeout
/// actually delivers during peak vs trough phases, against per-phase
/// optima — quantifying the cost of the paper's stationarity assumption.
pub fn nonstationary_stress(seed: u64) -> Vec<Table> {
    use gridstrat_workload::DiurnalModel;

    let base = WeekId::W2007_51.model();
    let mut t = Table::new(
        "Extension E — stationary tuning on a diurnal grid (week 2007-51 base)",
        &[
            "amplitude",
            "phase",
            "E_J @ global t∞*",
            "phase-opt E_J",
            "penalty",
        ],
    );
    for amplitude in [0.0, 0.3, 0.6] {
        let diurnal =
            DiurnalModel::new(base.clone(), amplitude, 86_400.0).expect("valid diurnal parameters");
        let trace = diurnal.generate(9_000, seed ^ 0xD1);
        let global = EmpiricalModel::from_trace(&trace).expect("valid trace");
        let global_opt = optimize_timeout(&global, 1);

        // split records by submission phase: rising half (peak) vs falling
        for (label, lo, hi) in [("peak", 0.0, 0.5), ("trough", 0.5, 1.0)] {
            let phase_samples: Vec<f64> = trace
                .records
                .iter()
                .filter(|r| {
                    let phase = (r.submitted_at / 86_400.0).fract();
                    phase >= lo && phase < hi
                })
                .map(|r| r.latency_s)
                .collect();
            if phase_samples.len() < 50 {
                continue;
            }
            let phase_model = EmpiricalModel::from_samples(&phase_samples, trace.threshold_s)
                .expect("phase sample is non-degenerate");
            let at_global = StrategyParams::Single {
                t_inf: global_opt.timeout,
            }
            .expected_j(&phase_model);
            let phase_opt = optimize_timeout(&phase_model, 1);
            t.push_row(vec![
                fixed(amplitude, 1),
                label.to_string(),
                secs0(at_global),
                secs0(phase_opt.expectation),
                pct1(at_global / phase_opt.expectation - 1.0),
            ]);
        }
    }
    vec![t]
}

/// All experiment ids accepted by the `repro` binary, in paper order, with
/// the extensions last.
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "figure1",
    "table1",
    "figure2",
    "table2",
    "figure3",
    "figure4",
    "figure5",
    "table3",
    "figure6",
    "figure7",
    "table4",
    "figure8",
    "table5",
    "table6",
    "npar_ablation",
    "model_fits",
    "bootstrap_ci",
    "hazard",
    "nonstationary",
    "scenario_sweep",
];

/// Dispatches one experiment by id.
pub fn run_experiment(id: &str, seed: u64) -> Option<Vec<Table>> {
    match id {
        "figure1" => Some(figure1(seed)),
        "table1" => Some(table1(seed)),
        "figure2" => Some(figure2(seed)),
        "table2" => Some(table2(seed)),
        "figure3" => Some(figure3(seed)),
        "figure4" => Some(figure4(seed)),
        "figure5" => Some(figure5(seed)),
        "table3" => Some(table3(seed)),
        "figure6" => Some(figure6(seed)),
        "figure7" => Some(figure7(seed)),
        "table4" => Some(table4(seed)),
        "figure8" => Some(figure8(seed)),
        "table5" => Some(table5(seed)),
        "table6" => Some(table6(seed)),
        "npar_ablation" => Some(npar_ablation(seed)),
        "model_fits" => Some(model_fits(seed)),
        "bootstrap_ci" => Some(bootstrap_week_ci(seed)),
        "hazard" => Some(hazard_diagnosis(seed)),
        "nonstationary" => Some(nonstationary_stress(seed)),
        "scenario_sweep" => Some(scenario_sweep(seed)),
        _ => None,
    }
}

/// Sanity check used by tests and the binary: the censoring threshold the
/// experiments assume matches the workload crate's.
pub fn threshold() -> f64 {
    CENSOR_THRESHOLD_S
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xE6EE;

    #[test]
    fn figure1_series_monotone_and_defective() {
        let t = &figure1(SEED)[0];
        assert!(t.n_rows() > 50);
    }

    #[test]
    fn table1_covers_all_weeks() {
        let t = &table1(SEED)[0];
        assert_eq!(t.n_rows(), 13);
    }

    #[test]
    fn table2_expectation_strictly_decreasing_in_b() {
        let model = model_for(WeekId::W2006Ix, SEED);
        let series: Vec<f64> = [1, 2, 5, 10, 20]
            .map(|b| optimize_timeout(&model, b).expectation)
            .to_vec();
        for w in series.windows(2) {
            assert!(w[1] < w[0]);
        }
        // paper shape: b=2 cuts E_J by 20–45%, b=10 by 45–70%
        let drop2 = 1.0 - series[1] / series[0];
        let drop10 = 1.0 - series[3] / series[0];
        assert!((0.20..0.45).contains(&drop2), "b=2 drop {drop2}");
        assert!((0.45..0.70).contains(&drop10), "b=10 drop {drop10}");
    }

    #[test]
    fn figure4_timeline_has_at_least_three_jobs() {
        let t = &figure4(SEED)[0];
        assert!(t.n_rows() >= 3);
    }

    #[test]
    fn table3_delayed_beats_single_at_some_ratio() {
        let t = table3(SEED);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].n_rows(), RATIOS.len() + 1);
        // shape assertion lives in the core tests; here we check the
        // harness produced the full sweep
    }

    #[test]
    fn table4_multiple_costs_exceed_one() {
        let model = model_for(WeekId::W2006Ix, SEED);
        let profile = multiple_cost_profile(&model, &[2, 10, 100]);
        for p in &profile {
            assert!(p.delta_cost > 1.0, "{:?}", p.params);
        }
        // and a delayed configuration reaches below 1 (the paper's key
        // finding). The fixed-ratio profile minimises E_J per ratio — not
        // ∆cost — so on a finite synthetic trace its points can hover just
        // above 1; the claim itself is about the ∆cost optimum.
        let best = optimize_delayed_delta_cost(&model);
        assert!(
            best.delta_cost < 1.0,
            "optimal delayed ∆cost {}",
            best.delta_cost
        );
        // the profile still tracks the optimum within sampling noise
        let dprofile = delayed_cost_profile(&model, &[1.05, 1.1, 1.15, 1.2, 1.25, 1.3]);
        let min = dprofile
            .iter()
            .map(|p| p.delta_cost)
            .fold(f64::INFINITY, f64::min);
        assert!(min < 1.1, "min profile ∆cost {min} far above the optimum");
    }

    #[test]
    fn run_experiment_dispatch_is_total_over_ids() {
        for id in ALL_EXPERIMENTS {
            // only check the cheap ones end-to-end here; heavy ones have
            // their own tests above and in the integration suite
            if matches!(id, "figure1" | "figure4" | "figure7") {
                assert!(run_experiment(id, SEED).is_some(), "{id}");
            }
        }
        assert!(run_experiment("nonsense", SEED).is_none());
    }
}
