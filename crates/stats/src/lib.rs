//! # gridstrat-stats
//!
//! Statistics and numerics substrate for the `gridstrat` workspace, built
//! from scratch because the analysis in *Modeling User Submission Strategies
//! on Production Grids* (HPDC'09) needs machinery that general-purpose Rust
//! statistics crates do not provide in mature form:
//!
//! * **Exact integration of empirical (defective) CDFs** — the paper's
//!   equations (1)–(5) are integrals of `1 - F̃_R(u)` and products of shifted
//!   copies of it. For an empirical CDF these are integrals of piecewise
//!   constant functions and can be computed *exactly* (no quadrature error).
//!   [`ecdf`] provides the prefix-sum accelerated empirical CDF; a
//!   test-only step-function algebra is the oracle its integrals are
//!   checked against.
//! * **Parametric latency distributions with censored-data MLE fitting** —
//!   log-normal, Weibull, Pareto, exponential bodies plus outlier mixtures
//!   ([`dist`], [`fit`]), used both to synthesize EGEE-like traces and to
//!   reproduce the model-fitting methodology of the paper's companion work.
//! * **Derivative-free optimizers** ([`optimize`]) for the timeout
//!   optimizations: golden section and refining grids in 1-D (optimal `t∞`),
//!   a constrained refining grid in 2-D (optimal `(t0, t∞)`).
//! * **Quadrature** ([`integrate`]) for parametric models where integrals
//!   have no closed form.
//! * **Streaming summaries** ([`summary`]) and **deterministic RNG
//!   derivation** ([`rng`]) shared by the simulator and Monte-Carlo layers.
//!
//! Everything is deterministic given explicit seeds and allocation-conscious:
//! hot paths (CDF queries, integral evaluation inside optimizer loops) are
//! O(log n) or O(1) after an O(n log n) build.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bootstrap;
pub mod dist;
pub mod ecdf;
pub mod fit;
pub mod hazard;
pub mod integrate;
pub mod optimize;
pub mod rng;
#[cfg(test)]
mod stepfn;
pub mod streaming;
pub mod summary;

pub use bootstrap::{bootstrap_ci, ConfidenceInterval};
pub use dist::{
    Distribution, Exponential, LogNormal, Mixture, OutlierMixture, Pareto, Shifted, Weibull,
};
pub use ecdf::Ecdf;
pub use fit::{fit_exponential, fit_lognormal, fit_pareto, fit_weibull, ks_statistic, FitReport};
pub use hazard::{HazardProfile, HazardTrend};
pub use streaming::{Observation, StreamingEcdf};
pub use summary::Summary;
