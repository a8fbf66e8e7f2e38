//! Numerical quadrature for parametric latency models.
//!
//! Empirical CDFs integrate exactly (see [`crate::ecdf`]); parametric
//! models (log-normal bodies etc.) need quadrature. Adaptive Simpson with a
//! recursion-depth safeguard is accurate and cheap for the smooth, bounded
//! integrands that appear in the strategy equations.
//!
//! The strategy equations need integrals with their first moments, so one
//! bisection walk serves them: [`adaptive_simpson_with_moment`] runs it
//! for one integrand, and [`adaptive_simpson_shared`] for two integrands
//! built on one base function (the delayed overlap kernels), evaluating the
//! base once per abscissa. Each integrand keeps its own stop test, so the
//! shared walk returns, bit for bit, what two separate walks would.

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
///
/// This is the one-lane case of [`adaptive_simpson_shared`]'s walk.
pub fn adaptive_simpson_with_moment(
    f: impl Fn(f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
) -> (f64, f64) {
    walk(&f, &|_, v| v, None::<&fn(f64, f64) -> f64>, a, b, tol).0
}

/// [`adaptive_simpson_with_moment`] of two integrands `f(u, s(u))` and
/// `g(u, s(u))` built on one shared base `s`, in one bisection walk.
///
/// The delayed-resubmission kernels are both of this shape over the same
/// interval: `C0/D0` of `s(u+t0)·s(u)` and `A/B` of `s(u)`. Each integrand
/// is a *lane* with its own tolerance pair, depth cap, stop test and order
/// of sums, so each lane returns, bit for bit, what
/// [`adaptive_simpson_with_moment`] returns for that integrand alone; the
/// lanes share only the abscissae, which come from the same `0.5·(a+b)`
/// arithmetic, and `s` is evaluated once per abscissa for both. A lane
/// that has converged on a node is not called below it, so `f` pays for
/// its own extra work (`s(u+t0)`) only where it still refines.
pub fn adaptive_simpson_shared(
    s: impl Fn(f64) -> f64,
    f: impl Fn(f64, f64) -> f64,
    g: impl Fn(f64, f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
) -> ((f64, f64), (f64, f64)) {
    walk(&s, &f, Some(&g), a, b, tol)
}

type Pair = (f64, f64);

/// The lane integrand at `u`, with its moment: `(h, u·h)`.
fn value(h: &impl Fn(f64, f64) -> f64, u: f64, su: f64) -> Pair {
    let v = h(u, su);
    (v, u * v)
}

/// The shared walk: lane one always runs, lane two when `g` is given.
fn walk(
    s: &impl Fn(f64) -> f64,
    f: &impl Fn(f64, f64) -> f64,
    g: Option<&impl Fn(f64, f64) -> f64>,
    a: f64,
    b: f64,
    tol: f64,
) -> (Pair, Pair) {
    if a == b {
        return ((0.0, 0.0), (0.0, 0.0));
    }
    if b < a {
        let ((fi, fm), (gi, gm)) = walk(s, f, g, b, a, tol);
        return ((-fi, -fm), (-gi, -gm));
    }
    let tol = (tol, tol * a.abs().max(b.abs()).max(1.0));
    let m = 0.5 * (a + b);
    let ends = [(a, s(a)), (m, s(m)), (b, s(b))];
    let lanes = (
        Some(Lane::root(f, ends, tol)),
        g.map(|g| Lane::root(g, ends, tol)),
    );
    step(s, f, g, a, b, lanes, 50)
}

/// One integrand's state on a node `[a, b]` of the walk: its values at
/// `a`, `b` and the midpoint, its Simpson estimate over the node, and its
/// tolerance pair there.
#[derive(Clone, Copy)]
struct Lane {
    ga: Pair,
    gb: Pair,
    gm: Pair,
    whole: Pair,
    tol: Pair,
}

/// A lane's verdict on a node: its converged value, or its two halves.
enum Split {
    Done(Pair),
    Refine(Lane, Lane),
}

impl Lane {
    /// The lane on the whole interval, from `(u, s(u))` at `a`, the
    /// midpoint and `b`.
    fn root(h: &impl Fn(f64, f64) -> f64, ends: [(f64, f64); 3], tol: Pair) -> Lane {
        let [ga, gm, gb] = ends.map(|(u, su)| value(h, u, su));
        let w = (ends[2].0 - ends[0].0) / 6.0;
        Lane {
            ga,
            gb,
            gm,
            whole: (
                w * (ga.0 + 4.0 * gm.0 + gb.0),
                w * (ga.1 + 4.0 * gm.1 + gb.1),
            ),
            tol,
        }
    }

    /// The Richardson test on `[a, b]`, given the lane's values at the
    /// quarter points.
    fn split(self, a: f64, b: f64, glm: Pair, grm: Pair, depth: u32) -> Split {
        let m = 0.5 * (a + b);
        let wl = (m - a) / 6.0;
        let wr = (b - m) / 6.0;
        let left = (
            wl * (self.ga.0 + 4.0 * glm.0 + self.gm.0),
            wl * (self.ga.1 + 4.0 * glm.1 + self.gm.1),
        );
        let right = (
            wr * (self.gm.0 + 4.0 * grm.0 + self.gb.0),
            wr * (self.gm.1 + 4.0 * grm.1 + self.gb.1),
        );
        let delta = (
            left.0 + right.0 - self.whole.0,
            left.1 + right.1 - self.whole.1,
        );
        if depth == 0 || (delta.0.abs() <= 15.0 * self.tol.0 && delta.1.abs() <= 15.0 * self.tol.1)
        {
            Split::Done((
                left.0 + right.0 + delta.0 / 15.0,
                left.1 + right.1 + delta.1 / 15.0,
            ))
        } else {
            let tol = (self.tol.0 / 2.0, self.tol.1 / 2.0);
            Split::Refine(
                Lane {
                    ga: self.ga,
                    gb: self.gm,
                    gm: glm,
                    whole: left,
                    tol,
                },
                Lane {
                    ga: self.gm,
                    gb: self.gb,
                    gm: grm,
                    whole: right,
                    tol,
                },
            )
        }
    }
}

/// The halves a lane hands down, if it refines.
fn halves(split: &Option<Split>) -> (Option<Lane>, Option<Lane>) {
    match split {
        Some(Split::Refine(l, r)) => (Some(*l), Some(*r)),
        _ => (None, None),
    }
}

/// A lane's value on a node from its verdict and its halves' values.
fn merge(split: Option<Split>, left: Pair, right: Pair) -> Pair {
    match split {
        Some(Split::Done(v)) => v,
        Some(Split::Refine(..)) => (left.0 + right.0, left.1 + right.1),
        None => (0.0, 0.0),
    }
}

/// One node `[a, b]` of the walk, for the lanes still refining there.
fn step(
    s: &impl Fn(f64) -> f64,
    f: &impl Fn(f64, f64) -> f64,
    g: Option<&impl Fn(f64, f64) -> f64>,
    a: f64,
    b: f64,
    lanes: (Option<Lane>, Option<Lane>),
    depth: u32,
) -> (Pair, Pair) {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let (slm, srm) = (s(lm), s(rm));
    let one = lanes
        .0
        .map(|lane| lane.split(a, b, value(f, lm, slm), value(f, rm, srm), depth));
    let two = match (lanes.1, g) {
        (Some(lane), Some(g)) => {
            Some(lane.split(a, b, value(g, lm, slm), value(g, rm, srm), depth))
        }
        _ => None,
    };
    let ((l1, r1), (l2, r2)) = (halves(&one), halves(&two));
    let zero = (0.0, 0.0);
    let (left, right) = if l1.is_none() && l2.is_none() {
        ((zero, zero), (zero, zero))
    } else {
        (
            step(s, f, g, a, m, (l1, l2), depth - 1),
            step(s, f, g, m, b, (r1, r2), depth - 1),
        )
    };
    (merge(one, left.0, right.0), merge(two, left.1, right.1))
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

    /// The one-lane moment quadrature as a recursion of its own, the form
    /// the shared walk replaced: the bit-identity oracle.
    fn reference_with_moment(f: impl Fn(f64) -> f64 + Copy, a: f64, b: f64, tol: f64) -> Pair {
        #[allow(clippy::too_many_arguments)]
        fn step2(
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
            let glm = g(0.5 * (a + m));
            let grm = g(0.5 * (m + b));
            let (wl, wr) = ((m - a) / 6.0, (b - m) / 6.0);
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
                let l = step2(g, a, m, ga, gm, glm, left, half, depth - 1);
                let r = step2(g, m, b, gm, gb, grm, right, half, depth - 1);
                (l.0 + r.0, l.1 + r.1)
            }
        }
        if a == b {
            return (0.0, 0.0);
        }
        if b < a {
            let (i, m) = reference_with_moment(f, b, a, tol);
            return (-i, -m);
        }
        let g = move |u: f64| {
            let v = f(u);
            (v, u * v)
        };
        let (ga, gb) = (g(a), g(b));
        let gm = g(0.5 * (a + b));
        let w = (b - a) / 6.0;
        let whole = (
            w * (ga.0 + 4.0 * gm.0 + gb.0),
            w * (ga.1 + 4.0 * gm.1 + gb.1),
        );
        let tol = (tol, tol * a.abs().max(b.abs()).max(1.0));
        step2(g, a, b, ga, gb, gm, whole, tol, 50)
    }

    fn bits(p: Pair) -> (u64, u64) {
        (p.0.to_bits(), p.1.to_bits())
    }

    /// `(∫f, ∫u·f)` pairs over `[a, b]`: the shared walk of `f` and `g` on
    /// `s`, each lane against its own one-lane run; also returns how many
    /// times the shared walk and the two separate runs call `s`.
    fn check_lanes(
        s: impl Fn(f64) -> f64 + Copy,
        f: impl Fn(f64, f64) -> f64 + Copy,
        g: impl Fn(f64, f64) -> f64 + Copy,
        (a, b, tol): (f64, f64, f64),
    ) -> (usize, usize) {
        let calls = std::cell::Cell::new(0usize);
        let counted = |u: f64| {
            calls.set(calls.get() + 1);
            s(u)
        };
        let (wf, wg) = adaptive_simpson_shared(counted, f, g, a, b, tol);
        let shared = calls.replace(0);
        let of = adaptive_simpson_with_moment(|u| f(u, counted(u)), a, b, tol);
        let og = adaptive_simpson_with_moment(|u| g(u, counted(u)), a, b, tol);
        let separate = calls.get();
        assert_eq!(bits(wf), bits(of), "lane f on [{a}, {b}]");
        assert_eq!(bits(wg), bits(og), "lane g on [{a}, {b}]");
        assert_eq!(
            bits(of),
            bits(reference_with_moment(|u| f(u, s(u)), a, b, tol))
        );
        assert_eq!(
            bits(og),
            bits(reference_with_moment(|u| g(u, s(u)), a, b, tol))
        );
        (shared, separate)
    }

    #[test]
    fn shared_walk_lanes_are_bit_identical_to_separate_runs() {
        // a smooth lane beside a sharply peaked one: the smooth lane stops
        // high in the tree while the peaked one refines around x = 5
        let peak = |u: f64, su: f64| {
            let z = (u - 5.0) / 0.01;
            su * (-0.5 * z * z).exp()
        };
        let smooth = |_: f64, su: f64| su;
        let s = |u: f64| (-u / 3.0).exp();
        for (a, b, tol) in [(0.0, 10.0, 1e-10), (0.0, 10.0, 1e-6), (10.0, 0.0, 1e-8)] {
            let (shared, separate) = check_lanes(s, smooth, peak, (a, b, tol));
            assert!(shared < separate, "{shared} vs {separate} calls of s");
            check_lanes(s, peak, smooth, (a, b, tol));
        }
        // a survival-like base with a shifted-product lane, as the delayed
        // kernels use it
        let surv = |u: f64| 0.2 + 0.8 * (-u / 300.0).exp();
        let product = move |u: f64, su: f64| surv(u + 180.0) * su;
        for l in [0.0, 1e-9, 1.0, 150.0, 180.0] {
            check_lanes(surv, product, smooth, (0.0, l, 1e-6));
        }
    }

    #[test]
    fn shared_walk_matches_separate_runs_at_the_depth_cap() {
        // a jump at an abscissa no bisection hits: the node holding it never
        // meets the tolerance, so that lane refines down to the depth cap,
        // while the smooth lane stops early
        let jump = |u: f64, _: f64| if u < 1.0 / 3.0 { 1.0 } else { 0.25 };
        let smooth = |u: f64, su: f64| u * su;
        let s = |u: f64| (0.5 * u).cos();
        check_lanes(s, jump, smooth, (0.0, 1.0, 1e-12));
        check_lanes(s, smooth, jump, (0.0, 1.0, 1e-12));
        // 3 calls at the root and 2 per node: a node at every depth
        let calls = std::cell::Cell::new(0usize);
        adaptive_simpson_with_moment(
            |u| {
                calls.set(calls.get() + 1);
                jump(u, 0.0)
            },
            0.0,
            1.0,
            1e-12,
        );
        assert!(calls.get() > 3 + 2 * 50, "{} calls", calls.get());
        check_lanes(s, jump, jump, (0.0, 1.0, 1e-12));
    }

    #[test]
    fn one_lane_walk_is_bit_identical_to_the_recursion() {
        fn check(f: impl Fn(f64) -> f64 + Copy, a: f64, b: f64, tol: f64) {
            assert_eq!(
                bits(adaptive_simpson_with_moment(f, a, b, tol)),
                bits(reference_with_moment(f, a, b, tol))
            );
        }
        check(f64::exp, 0.0, 1.0, 1e-10);
        check(f64::sin, 1.0, 0.0, 1e-10);
        check(|x| (-x / 300.0).exp(), 0.0, 2_000.0, 1e-8);
        check(|x| if x < 0.3 { x } else { 2.0 }, 0.0, 1.0, 1e-12);
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
