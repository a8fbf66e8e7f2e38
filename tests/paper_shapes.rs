//! Reproduction-shape tests: the qualitative claims of the paper's
//! evaluation must hold on the synthetic weeks — who wins, by roughly what
//! factor, and where the crossovers fall.

use gridstrat::prelude::*;

const SEED: u64 = 0xE6EE;

fn model(week: WeekId) -> EmpiricalModel {
    EmpiricalModel::from_trace(&week.generate(SEED)).expect("valid trace")
}

#[test]
fn table1_shape_resubmission_tames_outliers() {
    // E_J with optimal single resubmission stays within ~1.7× of the
    // outlier-free body mean on every week, while the censored mean (what a
    // user without any strategy would suffer) is 2.5–9× larger.
    for week in WeekId::ALL {
        let trace = week.generate(SEED);
        let m = EmpiricalModel::from_trace(&trace).unwrap();
        let opt = optimize_timeout(&m, 1);
        let body = trace.body_mean();
        let censored = trace.censored_mean_lower_bound();
        assert!(
            opt.expectation < 1.7 * body,
            "{week}: E_J {} vs body mean {body}",
            opt.expectation
        );
        assert!(
            censored > 1.8 * opt.expectation,
            "{week}: censored mean {censored} should dwarf E_J {}",
            opt.expectation
        );
    }
}

#[test]
fn table1_shape_sigma_mostly_drops() {
    // Table 1: σ_J < σ_R for 12 of 13 weeks in the paper (one exception,
    // 2008-01, at +7%). Require: strict majority of weeks improve and the
    // average change is clearly negative.
    let mut drops = 0;
    let mut rel_sum = 0.0;
    for week in WeekId::ALL {
        let trace = week.generate(SEED);
        let m = EmpiricalModel::from_trace(&trace).unwrap();
        let opt = optimize_timeout(&m, 1);
        let rel = (opt.std_dev - trace.body_std()) / trace.body_std();
        rel_sum += rel;
        if rel < 0.0 {
            drops += 1;
        }
    }
    assert!(drops >= 8, "only {drops} of 13 weeks reduce σ");
    // per-week sample σ_R is noisy at n ≈ 600 body draws (heavy 4th moment),
    // so the average improvement is asserted directionally, not at the
    // paper's −31…−78% magnitude
    assert!(
        rel_sum / 13.0 < -0.02,
        "mean Δσ {}% not negative",
        rel_sum / 13.0 * 100.0
    );
}

#[test]
fn table2_shape_diminishing_returns_in_b() {
    let m = model(WeekId::W2006Ix);
    let series = [1, 2, 3, 5, 10, 20].map(|b| optimize_timeout(&m, b));
    // strictly decreasing
    for w in series.windows(2) {
        assert!(w[1].expectation < w[0].expectation);
    }
    let e = |i: usize| series[i].expectation;
    // paper: b=2 ⇒ −33%, b=5 ⇒ −51%, b=10 ⇒ −59%, b=20 ⇒ −63%
    let drop = |i: usize| 1.0 - e(i) / e(0);
    assert!((0.20..0.50).contains(&drop(1)), "b=2 drop {}", drop(1));
    assert!((0.40..0.70).contains(&drop(3)), "b=5 drop {}", drop(3));
    assert!((0.50..0.75).contains(&drop(4)), "b=10 drop {}", drop(4));
    // diminishing: each doubling of b buys less
    assert!(e(0) - e(1) > e(1) - e(3));
    assert!(e(1) - e(3) > e(3) - e(4));
    // σ_J also collapses with b (paper: 331 → 40 s from b=1 to 10)
    assert!(series[4].std_dev < 0.3 * series[0].std_dev);
}

#[test]
fn figure3_shape_holds_for_every_week() {
    // monotone E_J decrease in b on all 13 datasets
    for week in WeekId::ALL {
        let m = model(week);
        let series = [1, 2, 4, 8].map(|b| (b, optimize_timeout(&m, b)));
        for w in series.windows(2) {
            assert!(
                w[1].1.expectation < w[0].1.expectation,
                "{week}: E_J not decreasing at b={}",
                w[1].0
            );
        }
    }
}

#[test]
fn section6_shape_delayed_sits_between_single_and_b2() {
    // paper §6: delayed optimum beats single resubmission but not b ≥ 2
    let m = model(WeekId::W2006Ix);
    let single = optimize_timeout(&m, 1);
    let delayed = DelayedResubmission::optimize(&m);
    let multi2 = optimize_timeout(&m, 2);
    assert!(delayed.expectation < single.expectation);
    assert!(multi2.expectation < delayed.expectation);
    // with fewer than 2 jobs in flight
    assert!(delayed.n_parallel < 2.0);
}

#[test]
fn table4_shape_delta_cost_crossover() {
    // multiple submission always costs > 1 and grows ~linearly; the delayed
    // strategy has a sub-unit ∆cost region (the paper's headline finding)
    let m = model(WeekId::W2006Ix);
    let multi = multiple_cost_profile(&m, &[2, 5, 10, 100]);
    assert!(multi[0].delta_cost > 1.0);
    for w in multi.windows(2) {
        assert!(w[1].delta_cost > w[0].delta_cost);
    }
    // roughly linear growth: ∆cost(100)/∆cost(10) within 2× of 10
    let ratio = multi[3].delta_cost / multi[2].delta_cost;
    assert!((5.0..20.0).contains(&ratio), "growth ratio {ratio}");

    let best = optimize_delayed_delta_cost(&m);
    assert!(
        best.delta_cost < 1.0,
        "no sub-unit ∆cost region: {}",
        best.delta_cost
    );
    assert!(
        best.delta_cost > 0.7,
        "suspiciously cheap: {}",
        best.delta_cost
    );
}

#[test]
fn table5_shape_majority_of_weeks_have_subunit_optimum() {
    // paper: 6 of 11 weeks + union have min ∆cost < 1; ours differ in
    // which, but a clear majority must, and none should dip below 0.7
    let mut subunit = 0;
    for week in [
        WeekId::W2007_51,
        WeekId::W2007_52,
        WeekId::W2008_01,
        WeekId::W2008_02,
        WeekId::W2008_03,
        WeekId::Union0708,
    ] {
        let m = model(week);
        let best = optimize_delayed_delta_cost(&m);
        assert!(best.delta_cost > 0.7, "{week}: ∆cost {}", best.delta_cost);
        if best.delta_cost < 1.0 {
            subunit += 1;
        }
    }
    assert!(subunit >= 4, "only {subunit} of 6 datasets have ∆cost < 1");
}

#[test]
fn table6_shape_transfer_penalties_stay_bounded() {
    // cross-week transfer: the paper reports ≤ 13% variation overall and
    // ≤ 6% against the previous week; allow 2× slack for synthetic traces
    let weeks: Vec<(String, EmpiricalModel, (f64, f64))> = [
        WeekId::W2007_51,
        WeekId::W2007_52,
        WeekId::W2007_53,
        WeekId::W2008_01,
    ]
    .into_iter()
    .map(|w| {
        let m = model(w);
        let best = optimize_delayed_delta_cost(&m);
        let pair = match best.params {
            StrategyParams::Delayed { t0, t_inf } => (t0, t_inf),
            _ => unreachable!(),
        };
        (w.name().to_string(), m, pair)
    })
    .collect();
    for rep in transfer_matrix(&weeks) {
        assert!(
            rep.max_diff_pct < 26.0,
            "{}: max transfer penalty {}%",
            rep.eval_week,
            rep.max_diff_pct
        );
        if let Some(p) = rep.prev_diff_pct {
            assert!(p < 15.0, "{}: prev-week penalty {}%", rep.eval_week, p);
        }
    }
}

#[test]
fn stability_shape_optimum_is_flat_within_5s() {
    // Table 5 right: ±5 s perturbations move ∆cost by ≤ 14% in the paper
    let m = model(WeekId::W2007_52);
    let single = optimize_timeout(&m, 1);
    let best = optimize_delayed_delta_cost(&m);
    let (t0, ti) = match best.params {
        StrategyParams::Delayed { t0, t_inf } => (t0, t_inf),
        _ => unreachable!(),
    };
    let rep = stability_radius(&m, t0, ti, 5, single.expectation);
    assert!(
        rep.max_rel_diff_pct < 14.0,
        "instability {}%",
        rep.max_rel_diff_pct
    );
}
