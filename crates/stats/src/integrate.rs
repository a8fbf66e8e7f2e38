//! Numerical quadrature for parametric latency models.
//!
//! Empirical CDFs integrate exactly (see [`crate::ecdf`]); parametric
//! models (log-normal bodies etc.) need quadrature. Adaptive Simpson with a
//! recursion-depth safeguard is accurate and cheap for the smooth, bounded
//! integrands that appear in the strategy equations.

/// Adaptive Simpson quadrature to absolute tolerance `tol`.
///
/// Uses the classic Richardson-style error estimate `|S2 - S1|/15 < tol`
/// with per-subinterval tolerance halving and a depth cap of 50 (at which
/// point the current best estimate is accepted — integrands here are smooth
/// except at isolated step points, where the error is already negligible).
pub fn adaptive_simpson(f: impl Fn(f64) -> f64 + Copy, a: f64, b: f64, tol: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    if b < a {
        return -adaptive_simpson(f, b, a, tol);
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
    adaptive_step(f, a, b, fa, fb, fm, whole, tol, 50)
}

/// Adaptive Simpson quadrature of `(∫ f, ∫ u·f(u) du)` in **one** pass.
///
/// The strategy equations always need an integral and its first moment
/// over the same integrand (eqs. 1–5: `A`/`B`, `C0`/`D0`, and their
/// powered variants). Evaluating `f` — a survival product over a fitted
/// body CDF, by far the dominant cost — once per abscissa instead of once
/// per integral halves the closed-form evaluation cost of a scenario
/// sweep cell.
///
/// Refinement stops when both components meet their tolerance: `tol` for
/// `∫f`, and `tol·max(|a|, |b|, 1)` for the moment. The scaling keeps the
/// two criteria equally *relative*: on `[0, b]` the moment integrand is
/// the plain one times `u ≤ b`, so demanding the same absolute error of
/// both would force ~`b`-times-finer refinement of the moment for no
/// usable gain (callers divide the moment by a same-scale normaliser).
pub fn adaptive_simpson_with_moment(
    f: impl Fn(f64) -> f64 + Copy,
    a: f64,
    b: f64,
    tol: f64,
) -> (f64, f64) {
    if a == b {
        return (0.0, 0.0);
    }
    if b < a {
        let (i, m) = adaptive_simpson_with_moment(f, b, a, tol);
        return (-i, -m);
    }
    let g = move |u: f64| {
        let v = f(u);
        (v, u * v)
    };
    let tol_m = tol * a.abs().max(b.abs()).max(1.0);
    let fa = g(a);
    let fb = g(b);
    let m = 0.5 * (a + b);
    let fm = g(m);
    let w = (b - a) / 6.0;
    let whole = (
        w * (fa.0 + 4.0 * fm.0 + fb.0),
        w * (fa.1 + 4.0 * fm.1 + fb.1),
    );
    adaptive_step2(g, a, b, fa, fb, fm, whole, (tol, tol_m), 50)
}

type Pair = (f64, f64);

#[allow(clippy::too_many_arguments)]
fn adaptive_step2(
    g: impl Fn(f64) -> Pair + Copy,
    a: f64,
    b: f64,
    ga: Pair,
    gb: Pair,
    gm: Pair,
    whole: Pair,
    tol: Pair,
    depth: u32,
) -> Pair {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let glm = g(lm);
    let grm = g(rm);
    let wl = (m - a) / 6.0;
    let wr = (b - m) / 6.0;
    let left = (
        wl * (ga.0 + 4.0 * glm.0 + gm.0),
        wl * (ga.1 + 4.0 * glm.1 + gm.1),
    );
    let right = (
        wr * (gm.0 + 4.0 * grm.0 + gb.0),
        wr * (gm.1 + 4.0 * grm.1 + gb.1),
    );
    let delta = (left.0 + right.0 - whole.0, left.1 + right.1 - whole.1);
    if depth == 0 || (delta.0.abs() <= 15.0 * tol.0 && delta.1.abs() <= 15.0 * tol.1) {
        (
            left.0 + right.0 + delta.0 / 15.0,
            left.1 + right.1 + delta.1 / 15.0,
        )
    } else {
        let half = (tol.0 / 2.0, tol.1 / 2.0);
        let l = adaptive_step2(g, a, m, ga, gm, glm, left, half, depth - 1);
        let r = adaptive_step2(g, m, b, gm, gb, grm, right, half, depth - 1);
        (l.0 + r.0, l.1 + r.1)
    }
}

#[allow(clippy::too_many_arguments)]
fn adaptive_step(
    f: impl Fn(f64) -> f64 + Copy,
    a: f64,
    b: f64,
    fa: f64,
    fb: f64,
    fm: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
    let right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        adaptive_step(f, a, m, fa, fm, flm, left, tol / 2.0, depth - 1)
            + adaptive_step(f, m, b, fm, fb, frm, right, tol / 2.0, depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_simpson_exp() {
        // ∫₀¹ e^x dx = e - 1
        let got = adaptive_simpson(|x| x.exp(), 0.0, 1.0, 1e-10);
        assert!((got - (1f64.exp() - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn adaptive_simpson_reversed_bounds() {
        let f = |x: f64| x.sin();
        let forward = adaptive_simpson(f, 0.0, std::f64::consts::PI, 1e-10);
        let backward = adaptive_simpson(f, std::f64::consts::PI, 0.0, 1e-10);
        assert!((forward - 2.0).abs() < 1e-8);
        assert!((forward + backward).abs() < 1e-12);
    }

    #[test]
    fn adaptive_simpson_peaked_integrand() {
        // sharply peaked Gaussian: ∫ φ((x-5)/0.01)/0.01 over [0,10] ≈ 1
        let f = |x: f64| {
            let z: f64 = (x - 5.0) / 0.01;
            (-0.5 * z * z).exp() / (0.01 * (2.0 * std::f64::consts::PI).sqrt())
        };
        let got = adaptive_simpson(f, 0.0, 10.0, 1e-10);
        assert!((got - 1.0).abs() < 1e-6, "got {got}");
    }

    #[test]
    fn degenerate_interval_is_zero() {
        assert_eq!(adaptive_simpson(|x| x, 3.0, 3.0, 1e-9), 0.0);
        assert_eq!(
            adaptive_simpson_with_moment(|x| x, 3.0, 3.0, 1e-9),
            (0.0, 0.0)
        );
    }

    #[test]
    fn paired_quadrature_matches_two_separate_runs() {
        // ∫₀¹ e^x dx = e - 1 ; ∫₀¹ x·e^x dx = 1
        let (i, m) = adaptive_simpson_with_moment(|x| x.exp(), 0.0, 1.0, 1e-10);
        assert!((i - (1f64.exp() - 1.0)).abs() < 1e-9, "∫f got {i}");
        assert!((m - 1.0).abs() < 1e-9, "∫uf got {m}");
        // and a survival-like decaying integrand over a long range
        let f = |x: f64| (-x / 300.0).exp();
        let (i, m) = adaptive_simpson_with_moment(f, 0.0, 2_000.0, 1e-8);
        let si = adaptive_simpson(f, 0.0, 2_000.0, 1e-10);
        let sm = adaptive_simpson(|x| x * f(x), 0.0, 2_000.0, 1e-10);
        assert!((i - si).abs() < 1e-5, "∫f {i} vs {si}");
        assert!((m - sm).abs() < 1e-3, "∫uf {m} vs {sm}");
    }

    #[test]
    fn paired_quadrature_reversed_bounds_negate() {
        let f = |x: f64| x.sin();
        let fwd = adaptive_simpson_with_moment(f, 0.0, 1.0, 1e-10);
        let back = adaptive_simpson_with_moment(f, 1.0, 0.0, 1e-10);
        assert!((fwd.0 + back.0).abs() < 1e-12);
        assert!((fwd.1 + back.1).abs() < 1e-12);
    }
}
