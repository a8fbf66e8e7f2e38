//! Derivative-free optimizers for the timeout optimizations.
//!
//! The strategy expectations `E_J(t∞)` and `E_J(t0, t∞)` computed from an
//! empirical CDF are piecewise-smooth with kinks at sample values, so
//! gradient methods are unsuitable. The paper itself optimises numerically
//! (and restricts `t0, t∞` to integer seconds for Tables 5–6). We provide:
//!
//! * [`golden_section`] — 1-D unimodal refinement;
//! * [`grid_min_1d`] / [`refine_grid_1d`] — robust global 1-D search by
//!   exhaustive coarse grid plus local refinement (works for multi-modal
//!   objectives, which `E_J` can be on rough ECDFs); a nondecreasing lower
//!   bound on the objective stops the scan where no later point can win;
//! * [`grid_min_2d`] — constrained 2-D multi-resolution grid search used for
//!   the delayed-resubmission `(t0, t∞)` plane; a nondecreasing lower bound
//!   per row stops a round where no later row can win.

mod golden;
mod grid;

pub use golden::golden_section;
pub use grid::{floor_slack, grid_min_1d, grid_min_2d, refine_grid_1d, Constraint2d, GridSpec};

/// Result of a scalar minimisation: argument and value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Min1d {
    /// Argument of the minimum found.
    pub x: f64,
    /// Objective value at `x`.
    pub value: f64,
}

/// Result of a 2-D minimisation: arguments and value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Min2d {
    /// First coordinate of the minimum found.
    pub x: f64,
    /// Second coordinate of the minimum found.
    pub y: f64,
    /// Objective value at `(x, y)`.
    pub value: f64,
}
