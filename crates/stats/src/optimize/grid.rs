//! Exhaustive and multi-resolution grid minimisation.
//!
//! `E_J` objectives built on rough empirical CDFs can have several local
//! minima (the paper's own optimal `t∞` column in Table 2 jumps around for
//! large `b`). Grid scans are immune to that and, at integer-second
//! resolution over a ≤ 10⁴ s horizon, are cheap: ~10⁴ evaluations of an
//! O(log n) objective.

use super::{golden_section, Min1d, Min2d};

/// A 1-D search grid: `steps + 1` evenly spaced points on `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
    /// Number of intervals (evaluations = steps + 1).
    pub steps: usize,
}

impl GridSpec {
    /// Creates a grid; `hi` must be ≥ `lo` and `steps ≥ 1`.
    pub fn new(lo: f64, hi: f64, steps: usize) -> Self {
        assert!(lo <= hi, "invalid grid range [{lo}, {hi}]");
        assert!(steps >= 1, "need at least one step");
        GridSpec { lo, hi, steps }
    }

    /// Iterates the grid points.
    pub fn points(&self) -> impl Iterator<Item = f64> + '_ {
        let h = (self.hi - self.lo) / self.steps as f64;
        (0..=self.steps).map(move |i| self.lo + i as f64 * h)
    }

    /// Grid spacing.
    pub fn spacing(&self) -> f64 {
        (self.hi - self.lo) / self.steps as f64
    }
}

/// Scan over the grid under a lower bound; returns the best point.
///
/// `floor(x)` must be nondecreasing in `x` and at most `f(x)`, up to
/// [`floor_slack`]. The scan visits the points in increasing order and
/// stops at the first one whose floor exceeds the incumbent by more than
/// the slack: no later point can then take the incumbent's place under the
/// strict `<` rule, so the result is the exhaustive scan's, bit for bit.
/// `|_| f64::NEG_INFINITY` never stops the scan.
pub fn grid_min_1d(f: impl Fn(f64) -> f64, floor: impl Fn(f64) -> f64, grid: GridSpec) -> Min1d {
    let mut best = Min1d {
        x: grid.lo,
        value: f64::INFINITY,
    };
    for x in grid.points() {
        if floor(x) > best.value + floor_slack(best.value) {
            break;
        }
        let v = f(x);
        if v < best.value {
            best = Min1d { x, value: v };
        }
    }
    best
}

/// How far a floor may exceed the objective before [`grid_min_1d`] trusts
/// it: `1e-9·|best| + 1e-6`. It covers the quadrature error of objectives
/// built from adaptive-Simpson integrals (absolute tolerance 1e-6), which
/// can leave a computed floor a hair above the computed objective, or
/// above the floor of a later point.
pub fn floor_slack(best: f64) -> f64 {
    1e-9 * best.abs() + 1e-6
}

/// Coarse grid scan followed by golden-section refinement around the best
/// grid cell. Robust to multi-modality at grid resolution, then locally
/// optimal to `tol`.
///
/// `floor` is a nondecreasing lower bound on `f` (see [`grid_min_1d`]). The
/// coarse scan stops once the floor passes the incumbent, and is
/// exhaustive up to that point, so it returns the cell an exhaustive scan
/// would; the refinement is the same either way.
pub fn refine_grid_1d(
    f: impl Fn(f64) -> f64 + Copy,
    floor: impl Fn(f64) -> f64,
    grid: GridSpec,
    tol: f64,
) -> Min1d {
    let coarse = grid_min_1d(f, floor, grid);
    let h = grid.spacing();
    let lo = (coarse.x - h).max(grid.lo);
    let hi = (coarse.x + h).min(grid.hi);
    let refined = golden_section(f, lo, hi, tol);
    if refined.value < coarse.value {
        refined
    } else {
        coarse
    }
}

/// Feasibility constraint for 2-D grid search.
pub type Constraint2d<'a> = &'a dyn Fn(f64, f64) -> bool;

/// Multi-resolution 2-D grid minimisation of `f(x, y)` over
/// `[x_lo,x_hi]×[y_lo,y_hi]` restricted to points where `feasible(x,y)`.
///
/// Scans a `resolution × resolution` grid, then for `zoom_rounds` rounds
/// re-grids the ±1-cell box around the incumbent at `resolution` steps
/// per axis. The box is two cells wide, so each round shrinks the cell
/// size by a factor of `resolution / 2` (24× at a resolution of 48).
/// Deterministic and constraint-safe (infeasible points are skipped,
/// never evaluated).
///
/// `row_floor(x)` must be nondecreasing in `x` and at most `f(x, y)` for
/// every feasible `y`, up to [`floor_slack`]. Each round walks its rows in
/// increasing `x` and stops at the first row whose floor exceeds the
/// *round's own* incumbent by more than the slack; up to there the round
/// is exhaustive, so under the strict `<` rule it returns the exhaustive
/// round's point, and every zoom box is the same, bit for bit. A round
/// that stops has a point, so the floor never ends the search early.
/// `|_| f64::NEG_INFINITY` never stops a round.
pub fn grid_min_2d(
    f: impl Fn(f64, f64) -> f64,
    row_floor: impl Fn(f64) -> f64,
    x_range: (f64, f64),
    y_range: (f64, f64),
    resolution: usize,
    zoom_rounds: usize,
    feasible: Constraint2d<'_>,
) -> Option<Min2d> {
    assert!(resolution >= 2, "resolution must be at least 2");
    let mut best: Option<Min2d> = None;
    let (mut x_lo, mut x_hi) = x_range;
    let (mut y_lo, mut y_hi) = y_range;

    for _round in 0..=zoom_rounds {
        let dx = (x_hi - x_lo) / resolution as f64;
        let dy = (y_hi - y_lo) / resolution as f64;
        let mut improved: Option<Min2d> = None;
        for i in 0..=resolution {
            let x = x_lo + i as f64 * dx;
            if improved.is_some_and(|b| row_floor(x) > b.value + floor_slack(b.value)) {
                break;
            }
            for j in 0..=resolution {
                let y = y_lo + j as f64 * dy;
                if !feasible(x, y) {
                    continue;
                }
                let v = f(x, y);
                if improved.is_none_or(|b| v < b.value) {
                    improved = Some(Min2d { x, y, value: v });
                }
            }
        }
        let round_best = match improved {
            Some(b) => b,
            None => break, // nothing feasible at this resolution
        };
        if best.is_none_or(|b| round_best.value < b.value) {
            best = Some(round_best);
        }
        let b = best.expect("set above");
        // zoom: ±1 coarse cell around the incumbent
        x_lo = b.x - dx;
        x_hi = b.x + dx;
        y_lo = b.y - dy;
        y_hi = b.y + dy;
        if dx <= f64::EPSILON && dy <= f64::EPSILON {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spec_points() {
        let g = GridSpec::new(0.0, 10.0, 5);
        let pts: Vec<f64> = g.points().collect();
        assert_eq!(pts, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(g.spacing(), 2.0);
    }

    #[test]
    fn grid_min_finds_global_among_two_wells() {
        // two wells: x=2 (depth 1) and x=8 (depth 2) — golden alone could
        // land in the wrong one; the grid scan must not.
        let f = |x: f64| {
            let w1 = -1.0 / (1.0 + (x - 2.0) * (x - 2.0));
            let w2 = -2.0 / (1.0 + (x - 8.0) * (x - 8.0));
            w1 + w2
        };
        let r = refine_grid_1d(
            f,
            |_| f64::NEG_INFINITY,
            GridSpec::new(0.0, 10.0, 100),
            1e-8,
        );
        assert!((r.x - 8.0).abs() < 0.05, "found {}", r.x);
    }

    #[test]
    fn refine_improves_on_coarse() {
        let f = |x: f64| (x - 3.33).powi(2);
        let none = |_: f64| f64::NEG_INFINITY;
        let coarse = grid_min_1d(f, none, GridSpec::new(0.0, 10.0, 10));
        let refined = refine_grid_1d(f, none, GridSpec::new(0.0, 10.0, 10), 1e-9);
        assert!(refined.value <= coarse.value);
        assert!((refined.x - 3.33).abs() < 1e-6);
    }

    #[test]
    fn floor_stops_the_scan_without_moving_the_minimum() {
        // f = floor + a well near x = 2; the minimum is ≈ 0.97 at x ≈ 1.9,
        // and the floor passes it at x ≈ 2, where the scan stops
        let floor = |x: f64| 0.5 * x;
        let f = |x: f64| floor(x) + 2.0 - 2.0 / (1.0 + (x - 2.0) * (x - 2.0));
        let grid = GridSpec::new(0.0, 100.0, 1_000);
        let calls = std::cell::Cell::new(0usize);
        let counted = |x: f64| {
            calls.set(calls.get() + 1);
            f(x)
        };
        let floored = grid_min_1d(counted, floor, grid);
        assert!(calls.get() < 50, "{} evaluations", calls.get());
        let full = grid_min_1d(f, |_| f64::NEG_INFINITY, grid);
        assert_eq!(floored.x.to_bits(), full.x.to_bits());
        assert_eq!(floored.value.to_bits(), full.value.to_bits());
    }

    #[test]
    fn grid_2d_quadratic_bowl() {
        let f = |x: f64, y: f64| (x - 1.5) * (x - 1.5) + (y - 2.5) * (y - 2.5);
        let all = |_: f64, _: f64| true;
        let r = grid_min_2d(
            f,
            |_| f64::NEG_INFINITY,
            (0.0, 5.0),
            (0.0, 5.0),
            20,
            8,
            &all,
        )
        .unwrap();
        assert!((r.x - 1.5).abs() < 0.02, "x {}", r.x);
        assert!((r.y - 2.5).abs() < 0.02, "y {}", r.y);
    }

    #[test]
    fn grid_2d_respects_constraint() {
        // minimise x+y but require y > x + 1
        let f = |x: f64, y: f64| x + y;
        let c = |x: f64, y: f64| y > x + 1.0;
        let r = grid_min_2d(f, |_| f64::NEG_INFINITY, (0.0, 4.0), (0.0, 4.0), 40, 4, &c).unwrap();
        assert!(r.y > r.x + 1.0);
        assert!(r.x < 0.2 && r.y < 1.4, "({}, {})", r.x, r.y);
    }

    #[test]
    fn row_floor_stops_a_round_without_moving_the_minimum() {
        // f = floor + a bowl, minimal at (1.75, 3): round 0 stops once 0.5·x passes its
        // incumbent, and every zoom round keeps a point
        let floor = |x: f64| 0.5 * x;
        let f = |x: f64, y: f64| floor(x) + (x - 2.0).powi(2) + (y - 3.0).powi(2);
        let c = |x: f64, y: f64| y >= x;
        let calls = std::cell::Cell::new(0usize);
        let counted = |x: f64, y: f64| {
            calls.set(calls.get() + 1);
            f(x, y)
        };
        let floored = grid_min_2d(counted, floor, (0.0, 100.0), (0.0, 100.0), 50, 6, &c).unwrap();
        let cut = calls.replace(0);
        let full = grid_min_2d(
            counted,
            |_| f64::NEG_INFINITY,
            (0.0, 100.0),
            (0.0, 100.0),
            50,
            6,
            &c,
        )
        .unwrap();
        // round 0 stops after a few of its 51 rows (1,326 feasible points);
        // the zoom boxes around (1.75, 3) lie below the floor's reach
        let saved = calls.get() - cut;
        assert!(saved > 1_000, "{cut} of {} evaluations", calls.get());
        for (a, b) in [(floored.x, full.x), (floored.y, full.y)] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(floored.value.to_bits(), full.value.to_bits());
        assert!((floored.x - 1.75).abs() < 0.01 && (floored.y - 3.0).abs() < 0.01);
    }

    #[test]
    fn grid_2d_all_infeasible_returns_none() {
        let f = |x: f64, y: f64| x + y;
        let c = |_: f64, _: f64| false;
        assert!(grid_min_2d(f, |_| f64::NEG_INFINITY, (0.0, 1.0), (0.0, 1.0), 4, 2, &c).is_none());
    }

    #[test]
    fn grid_2d_delayed_like_constraint() {
        // the delayed-resubmission feasible region: 0 < t0 < t∞ < 2 t0
        let f = |t0: f64, ti: f64| (t0 - 339.0).powi(2) + (ti - 485.0).powi(2);
        let c = |t0: f64, ti: f64| t0 > 0.0 && t0 < ti && ti < 2.0 * t0;
        let r = grid_min_2d(
            f,
            |_| f64::NEG_INFINITY,
            (1.0, 1000.0),
            (1.0, 1000.0),
            50,
            10,
            &c,
        )
        .unwrap();
        assert!((r.x - 339.0).abs() < 1.0);
        assert!((r.y - 485.0).abs() < 1.0);
    }
}
