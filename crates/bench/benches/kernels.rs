//! Criterion benches for the numerical kernels behind the strategy models:
//! ECDF construction and integral queries, the eq. 1–5 evaluations, and the
//! optimizers. These are the operations a client-side scheduler would run
//! online, so their costs matter beyond reproduction. The `sampling` group
//! times the pieces of one Monte-Carlo trial below the executor: seed
//! derivation and latency draws.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gridstrat_bench::{model_for, DEFAULT_SEED};
use gridstrat_core::latency::{EmpiricalModel, LatencyModel, ParametricModel};
use gridstrat_core::strategy::{DelayedResubmission, MultipleSubmission, SingleResubmission};
use gridstrat_stats::rng::derived_rng;
use gridstrat_stats::{Distribution, Ecdf, LogNormal, Shifted};
use gridstrat_workload::{WeekId, WeekModel};

fn trace_samples(n: usize) -> Vec<f64> {
    let model = WeekId::W2006Ix.model();
    let trace = model.generate(n, 7);
    trace.records.iter().map(|r| r.latency_s).collect()
}

fn bench_ecdf(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecdf");
    for &n in &[1_000usize, 10_000] {
        let samples = trace_samples(n);
        g.bench_with_input(BenchmarkId::new("build", n), &samples, |b, s| {
            b.iter(|| Ecdf::from_samples(black_box(s), 10_000.0).unwrap())
        });
        let e = Ecdf::from_samples(&samples, 10_000.0).unwrap();
        g.bench_with_input(BenchmarkId::new("survival_integral", n), &e, |b, e| {
            b.iter(|| black_box(e.survival_integral(black_box(700.0))))
        });
        g.bench_with_input(BenchmarkId::new("product_integrals", n), &e, |b, e| {
            b.iter(|| black_box(e.survival_product_integrals(black_box(350.0), black_box(150.0))))
        });
        // the O(log n) powered query off warm prefix tables (the steady
        // state of a tuning loop) vs a cold Ecdf paying the one-off build
        e.powered_survival_integrals(5, 1.0); // warm the b=5 tables
        g.bench_with_input(BenchmarkId::new("powered_integrals_warm", n), &e, |b, e| {
            b.iter(|| black_box(e.powered_survival_integrals(black_box(5), black_box(700.0))))
        });
        g.bench_with_input(
            BenchmarkId::new("powered_tables_cold_build", n),
            &samples,
            |b, s| {
                b.iter(|| {
                    let cold = Ecdf::from_samples(black_box(s), 10_000.0).unwrap();
                    black_box(cold.powered_survival_integrals(black_box(5), black_box(700.0)))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("powered_product_integrals", n),
            &e,
            |b, e| {
                b.iter(|| {
                    black_box(e.powered_survival_product_integrals(
                        black_box(2),
                        black_box(350.0),
                        black_box(150.0),
                    ))
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("body_stats", n), &e, |b, e| {
            b.iter(|| black_box((e.body_mean(), e.body_std(), e.censored_mean_lower_bound())))
        });
    }
    g.finish();
}

/// The real tuning shape the tables exist for: one powered query per
/// candidate timeout over the whole distinct-sample grid — O(n log n) with
/// the tables, O(n²) with the old per-query body scan.
fn bench_tuning_loop(c: &mut Criterion) {
    let model = model_for(WeekId::W2006Ix, DEFAULT_SEED);
    let candidates = model.candidate_timeouts();
    let mut g = c.benchmark_group("tuning_loop");
    g.sample_size(10);
    g.bench_function(
        BenchmarkId::new("powered_b5_all_candidates", candidates.len()),
        |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for &t in &candidates {
                    let (a, m) = model.powered_survival_integrals(5, t);
                    acc += a + m;
                }
                black_box(acc)
            })
        },
    );
    g.finish();
}

/// The drift-week prior of the drift sweep, a parametric model: its
/// delayed kernels come from quadrature, not from ECDF tables.
fn drift_prior() -> ParametricModel<Shifted<LogNormal>> {
    let drift = WeekModel::calibrate("drift-week", 570.0, 886.0, 0.20, 60.0, 10_000.0)
        .expect("the drift week calibrates");
    ParametricModel::new(drift.body(), drift.rho, drift.threshold_s)
        .expect("calibrated weeks are valid")
}

fn bench_expectations(c: &mut Criterion) {
    let model = model_for(WeekId::W2006Ix, DEFAULT_SEED);
    let mut g = c.benchmark_group("expectation");
    g.bench_function("single_eq1", |b| {
        b.iter(|| black_box(SingleResubmission::expectation(&model, black_box(600.0))))
    });
    g.bench_function("single_eq2_sigma", |b| {
        b.iter(|| black_box(SingleResubmission::std_dev(&model, black_box(600.0))))
    });
    for bb in [2u32, 5, 10] {
        g.bench_with_input(BenchmarkId::new("multiple_eq3", bb), &bb, |bch, &bb| {
            bch.iter(|| {
                black_box(MultipleSubmission::expectation(
                    &model,
                    bb,
                    black_box(800.0),
                ))
            })
        });
    }
    g.bench_function("delayed_eq5", |b| {
        b.iter(|| {
            black_box(DelayedResubmission::expectation(
                &model,
                black_box(339.0),
                black_box(485.0),
            ))
        })
    });
    // the drift prior at its 2-D optimum: both overlap kernels by quadrature
    let prior = drift_prior();
    g.bench_function("delayed_eq5_parametric", |b| {
        b.iter(|| {
            black_box(DelayedResubmission::expectation(
                &prior,
                black_box(182.0),
                black_box(364.0),
            ))
        })
    });
    g.bench_function("delayed_eq5_moments", |b| {
        b.iter(|| {
            black_box(DelayedResubmission::moments(
                &model,
                black_box(339.0),
                black_box(485.0),
            ))
        })
    });
    g.finish();
}

fn bench_optimizers(c: &mut Criterion) {
    let model = model_for(WeekId::W2006Ix, DEFAULT_SEED);
    let mut g = c.benchmark_group("optimize");
    g.sample_size(20);
    g.bench_function("single_optimal_timeout", |b| {
        b.iter(|| black_box(SingleResubmission::optimize(&model)))
    });
    g.bench_function("multiple_b5_optimal_timeout", |b| {
        b.iter(|| black_box(MultipleSubmission::optimize(&model, 5)))
    });
    g.bench_function("delayed_ratio_1_3", |b| {
        b.iter(|| black_box(DelayedResubmission::optimize_with_ratio(&model, 1.3)))
    });
    // one θ-table point of the drift sweep: the drift-week prior at θ = 1,
    // along the ratio of its own 2-D optimum
    let prior = drift_prior();
    let opt = DelayedResubmission::optimize(&prior);
    let ratio = (opt.t_inf / opt.t0).clamp(1.0, 2.0);
    g.bench_function("delayed_ratio_parametric", |b| {
        b.iter(|| {
            black_box(DelayedResubmission::optimize_with_ratio(
                &prior,
                black_box(ratio),
            ))
        })
    });
    g.sample_size(10);
    g.bench_function("delayed_free_2d", |b| {
        b.iter(|| black_box(DelayedResubmission::optimize(&model)))
    });
    g.bench_function("delayed_free_2d_parametric", |b| {
        b.iter(|| black_box(DelayedResubmission::optimize(&prior)))
    });
    g.finish();
}

fn bench_model_construction(c: &mut Criterion) {
    let trace = WeekId::W2006Ix.generate(DEFAULT_SEED);
    c.bench_function("empirical_model_from_trace", |b| {
        b.iter(|| black_box(EmpiricalModel::from_trace(black_box(&trace)).unwrap()))
    });
    let model = EmpiricalModel::from_trace(&trace).unwrap();
    c.bench_function("powered_survival_b10", |b| {
        b.iter(|| black_box(model.powered_survival_integrals(10, black_box(900.0))))
    });
}

fn bench_analysis_extensions(c: &mut Criterion) {
    use gridstrat_core::cost::StrategyParams;
    use gridstrat_core::strategy::JDistribution;
    use gridstrat_stats::hazard::HazardProfile;

    let trace = WeekId::W2006Ix.generate(DEFAULT_SEED);
    let model = EmpiricalModel::from_trace(&trace).unwrap();
    let ecdf = model.ecdf().clone();

    let mut g = c.benchmark_group("extensions");
    g.bench_function("hazard_profile_10bins", |b| {
        b.iter(|| black_box(HazardProfile::from_ecdf(black_box(&ecdf), 10)))
    });
    let spec = StrategyParams::Delayed {
        t0: 339.0,
        t_inf: 485.0,
    };
    let dist = JDistribution::new(&model, spec).unwrap();
    g.bench_function("j_distribution_cdf", |b| {
        b.iter(|| black_box(dist.cdf(black_box(1_234.0))))
    });
    g.bench_function("j_distribution_makespan_q", |b| {
        b.iter(|| black_box(dist.makespan_quantile(500, black_box(0.5))))
    });
    g.finish();
}

fn bench_sampling(c: &mut Criterion) {
    // 1000 calls per iteration: one call takes tens of nanoseconds, too
    // little to time on its own
    const CALLS: u64 = 1000;
    let week = WeekId::W2006Ix.model();
    let body = week.body();
    let mut rng = derived_rng(7, 0);
    let mut g = c.benchmark_group("sampling");
    g.bench_function("derived_rng_1000", |b| {
        b.iter(|| {
            for i in 0..CALLS {
                black_box(derived_rng(0xBE7C, black_box(i)));
            }
        })
    });
    g.bench_function("week_sample_latency_1000", |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                black_box(week.sample_latency(&mut rng));
            }
        })
    });
    g.bench_function("body_construction_1000", |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                black_box(black_box(&week).body());
            }
        })
    });
    g.bench_function("prebuilt_body_sample_1000", |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                black_box(body.sample(&mut rng));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ecdf,
    bench_tuning_loop,
    bench_expectations,
    bench_optimizers,
    bench_model_construction,
    bench_analysis_extensions,
    bench_sampling
);
criterion_main!(benches);
