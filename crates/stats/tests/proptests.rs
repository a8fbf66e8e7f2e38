//! Property-based tests for the numerics substrate: the invariants every
//! downstream strategy computation silently relies on.
//!
//! The crates.io `proptest` harness is unavailable offline, so these use a
//! seeded hand-rolled generator: every `#[test]` draws `CASES` random
//! inputs from a fixed stream, making failures exactly reproducible (the
//! failing case index is part of the assertion message).

use gridstrat_stats::dist::{normal_cdf, Distribution};
use gridstrat_stats::optimize::{golden_section, grid_min_1d, grid_min_2d, GridSpec};
use gridstrat_stats::rng::derived_rng;
use gridstrat_stats::{Ecdf, Exponential, LogNormal, Pareto, Summary, Weibull};
use rand::rngs::StdRng;
use rand::Rng;

const CASES: usize = 128;

fn samples(rng: &mut StdRng, lo: f64, hi: f64, min_n: usize, max_n: usize) -> Vec<f64> {
    let n = rng.gen_range(min_n..max_n);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn ecdf_is_monotone_and_bounded() {
    let mut rng = derived_rng(0x57A7, 5);
    for case in 0..CASES {
        let xs = samples(&mut rng, 0.1, 20_000.0, 2, 60);
        if !xs.iter().any(|&x| x < 10_000.0) {
            continue;
        }
        let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
        let mut ts: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..25_000.0f64)).collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for t in ts {
            let v = e.value(t);
            assert!((0.0..=1.0).contains(&v), "case {case}");
            assert!(v + 1e-12 >= prev, "case {case}");
            assert!(v <= 1.0 - e.outlier_ratio() + 1e-12, "case {case}");
            prev = v;
        }
    }
}

#[test]
fn distributions_cdf_quantile_inverse() {
    let mut rng = derived_rng(0x57A7, 8);
    for case in 0..CASES {
        let mu = rng.gen_range(3.0..7.0f64);
        let sigma = rng.gen_range(0.2..2.0f64);
        let p = rng.gen_range(0.001..0.999f64);
        let d = LogNormal::new(mu, sigma).unwrap();
        let q = d.quantile(p);
        assert!((d.cdf(q) - p).abs() < 1e-6, "case {case}: p = {p}");
    }
}

#[test]
fn weibull_cdf_monotone() {
    let mut rng = derived_rng(0x57A7, 9);
    for case in 0..CASES {
        let d = Weibull::new(rng.gen_range(0.3..3.0f64), rng.gen_range(10.0..2_000.0f64)).unwrap();
        let a = rng.gen_range(0.0..5_000.0f64);
        let b = rng.gen_range(0.0..5_000.0f64);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12, "case {case}");
        assert!((0.0..=1.0).contains(&d.cdf(hi)), "case {case}");
    }
}

#[test]
fn pareto_support_and_tail() {
    let mut rng = derived_rng(0x57A7, 10);
    for case in 0..CASES {
        let scale = rng.gen_range(1.0..1_000.0f64);
        let alpha = rng.gen_range(0.5..4.0f64);
        let t = rng.gen_range(0.0..1e6f64);
        let d = Pareto::new(scale, alpha).unwrap();
        if t < scale {
            assert_eq!(d.cdf(t), 0.0, "case {case}");
        } else {
            let v = d.cdf(t);
            assert!((0.0..=1.0).contains(&v), "case {case}");
        }
    }
}

#[test]
fn exponential_memorylessness() {
    // P(X > s+t) = P(X > s)·P(X > t)
    let mut rng = derived_rng(0x57A7, 11);
    for case in 0..CASES {
        let rate = rng.gen_range(0.0005..0.1f64);
        let s = rng.gen_range(1.0..500.0f64);
        let t = rng.gen_range(1.0..500.0f64);
        let d = Exponential::new(rate).unwrap();
        let lhs = 1.0 - d.cdf(s + t);
        let rhs = (1.0 - d.cdf(s)) * (1.0 - d.cdf(t));
        assert!((lhs - rhs).abs() < 1e-10, "case {case}");
    }
}

#[test]
fn normal_cdf_is_monotone_bounded() {
    let mut rng = derived_rng(0x57A7, 12);
    for case in 0..CASES {
        let a = rng.gen_range(-8.0..8.0f64);
        let b = rng.gen_range(-8.0..8.0f64);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12, "case {case}");
        assert!((0.0..=1.0).contains(&normal_cdf(hi)), "case {case}");
    }
}

#[test]
fn golden_section_finds_quadratic_minimum() {
    let mut rng = derived_rng(0x57A7, 13);
    for case in 0..CASES {
        let center = rng.gen_range(1.0..99.0f64);
        let r = golden_section(|x| (x - center) * (x - center), 0.0, 100.0, 1e-9);
        assert!((r.x - center).abs() < 1e-5, "case {case}");
    }
}

#[test]
fn grid_min_never_beaten_by_grid_points() {
    let mut rng = derived_rng(0x57A7, 14);
    for case in 0..CASES {
        let offset = rng.gen_range(0.0..10.0f64);
        let f = |x: f64| ((x - offset) * 0.7).sin() + 0.01 * x;
        let grid = GridSpec::new(0.0, 20.0, 200);
        let m = grid_min_1d(f, |_| f64::NEG_INFINITY, grid);
        for x in grid.points() {
            assert!(f(x) >= m.value - 1e-12, "case {case} at x = {x}");
        }
    }
}

#[test]
fn grid_min_2d_respects_feasibility() {
    let mut rng = derived_rng(0x57A7, 15);
    for case in 0..CASES {
        let cx = rng.gen_range(1.0..9.0f64);
        let cy = rng.gen_range(1.0..9.0f64);
        let f = move |x: f64, y: f64| (x - cx).powi(2) + (y - cy).powi(2);
        let feas = |x: f64, y: f64| y >= x; // upper triangle
        let m = grid_min_2d(
            f,
            |_| f64::NEG_INFINITY,
            (0.0, 10.0),
            (0.0, 10.0),
            24,
            6,
            &feas,
        )
        .unwrap();
        assert!(m.y >= m.x, "case {case}");
        // optimal value is the projection onto the feasible set
        let want = if cy >= cx {
            0.0
        } else {
            (cx - cy) * (cx - cy) / 2.0
        };
        assert!(
            m.value <= want + 0.4,
            "case {case}: value {} want {want}",
            m.value
        );
    }
}

#[test]
fn summary_merge_associative() {
    let mut rng = derived_rng(0x57A7, 16);
    for case in 0..CASES {
        let xs = samples(&mut rng, -1e4, 1e4, 1, 50);
        let split = rng.gen_range(0..49usize);
        let k = split.min(xs.len() - 1).max(1).min(xs.len());
        let mut a = Summary::from_slice(&xs[..k]);
        let b = Summary::from_slice(&xs[k..]);
        a.merge(&b);
        let full = Summary::from_slice(&xs);
        assert_eq!(a.count(), full.count(), "case {case}");
        assert!(
            (a.mean() - full.mean()).abs() < 1e-7 * (1.0 + full.mean().abs()),
            "case {case}"
        );
        assert!(
            (a.variance() - full.variance()).abs() < 1e-6 * (1.0 + full.variance().abs()),
            "case {case}"
        );
    }
}
