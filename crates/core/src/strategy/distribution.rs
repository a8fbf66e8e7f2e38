//! Full distributions of the total latency `J` — not just its first two
//! moments.
//!
//! The paper reports `E_J` and `σ_J`; several practical questions need the
//! whole law (batch makespans are `max`-statistics, deadline guarantees are
//! quantiles). Every family is an echelon protocol `(b, t0, t∞)`
//! ([`StrategyParams::echelon`]), and its law is one survival product on
//! top of `F̃`, with `s = 1 - F̃`:
//!
//! ```text
//! P(J > t) = Π_k s(clamp(t - k·t0, 0, t∞))ᵇ
//! ```
//!
//! evaluated term by term (all but at most two factors equal `s(t∞)ᵇ`).
//! For single and multiple submission (`t0 = t∞`, `t = n·t∞ + u`) it is
//! `qⁿ·s(u)ᵇ` with `q = s(t∞)ᵇ`: a geometric mixture of shifted copies of
//! the collection minimum's law.
//!
//! These are cross-validated against the moment formulas by numerically
//! integrating the survival function, and against the protocols run on the
//! engine ([`crate::StrategyExecutor::run_batch`]).

use crate::cost::StrategyParams;
use crate::latency::LatencyModel;
use crate::strategy::DelayedResubmission;

/// The distribution of the total latency `J` for one strategy instance
/// over a latency model.
pub struct JDistribution<'a, M: LatencyModel + ?Sized> {
    model: &'a M,
    /// The instance's echelon `(b, t0, t∞)`.
    echelon: (u32, f64, f64),
}

impl<'a, M: LatencyModel + ?Sized> JDistribution<'a, M> {
    /// Builds the distribution; the strategy must be able to complete
    /// (`F̃(t∞) > 0`) and its `(t0, t∞)` pair must be feasible.
    pub fn new(model: &'a M, spec: StrategyParams) -> Result<Self, String> {
        let (b, t0, t_inf) = spec.echelon();
        if !DelayedResubmission::feasible(t0, t_inf) {
            return Err(format!("infeasible (t0, t∞) pair ({t0}, {t_inf})"));
        }
        if model.defective_cdf(t_inf) <= 0.0 {
            return Err(format!(
                "strategy cannot complete: F̃({t_inf}) = 0 (timeout below the latency floor)"
            ));
        }
        Ok(JDistribution {
            model,
            echelon: (b, t0, t_inf),
        })
    }

    /// `P(J ≤ t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        1.0 - self.survival(t)
    }

    /// `P(J > t)` for `t > 0`: the survival product of the echelons.
    fn survival(&self, t: f64) -> f64 {
        let (b, t0, t_inf) = self.echelon;
        let bi = b as i32;
        let mut surv = 1.0;
        let mut k = 0u64;
        loop {
            let arg = t - k as f64 * t0;
            if arg <= 0.0 {
                break;
            }
            // all echelons older than t∞ contribute the same factor; batch
            // them up through a power instead of looping one by one
            if arg >= t_inf {
                let m = ((arg - t_inf) / t0).floor() as i32 + 1;
                let q_echelon = (1.0 - self.model.defective_cdf(t_inf)).powi(bi);
                surv *= q_echelon.powi(m);
                k += m as u64;
                continue;
            }
            surv *= (1.0 - self.model.defective_cdf(arg)).powi(bi);
            k += 1;
        }
        surv
    }

    /// Quantile of `J` at level `p ∈ (0, 1)` by bisection (the CDF is
    /// monotone and continuous except for at most countably many jumps
    /// inherited from an empirical `F̃`).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p) && p > 0.0,
            "quantile level must be in (0,1)"
        );
        let mut hi = self.model.horizon();
        while self.cdf(hi) < p {
            hi *= 2.0;
            assert!(hi < 1e15, "quantile bracket blew up — defective strategy?");
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// `E[J]` by numerically integrating the survival function — used as a
    /// cross-check against the closed-form moment formulas.
    pub fn expectation_by_integration(&self, step: f64) -> f64 {
        assert!(step > 0.0);
        // integrate until survival is negligible
        let mut total = 0.0;
        let mut t = 0.0;
        loop {
            let s0 = 1.0 - self.cdf(t);
            let s1 = 1.0 - self.cdf(t + step);
            total += 0.5 * (s0 + s1) * step;
            t += step;
            if s1 < 1e-12 || t > 1e9 {
                break;
            }
        }
        total
    }

    /// Latency part of the makespan of `n` independent tasks launched
    /// together: the quantile of `max(J_1…J_n)` at level `p`, i.e. the `t`
    /// with `F_J(t)ⁿ = p`.
    pub fn makespan_quantile(&self, n_tasks: u32, p: f64) -> f64 {
        assert!(n_tasks >= 1);
        // F_J(t)^n = p  ⇔  F_J(t) = p^(1/n)
        self.quantile(p.powf(1.0 / n_tasks as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{MonteCarloConfig, StrategyExecutor};
    use crate::latency::EmpiricalModel;
    use crate::strategy::Strategy;
    use gridstrat_workload::{TraceSet, WeekModel};

    fn trace() -> TraceSet {
        let w = WeekModel::calibrate("dist", 500.0, 650.0, 0.12, 150.0, 10_000.0).unwrap();
        w.generate(3_000, 55)
    }

    fn model() -> EmpiricalModel {
        EmpiricalModel::from_trace(&trace()).unwrap()
    }

    fn specs() -> Vec<StrategyParams> {
        vec![
            StrategyParams::Single { t_inf: 700.0 },
            StrategyParams::Multiple { b: 3, t_inf: 800.0 },
            StrategyParams::Delayed {
                t0: 400.0,
                t_inf: 560.0,
            },
            StrategyParams::DelayedMultiple {
                b: 2,
                t0: 400.0,
                t_inf: 560.0,
            },
        ]
    }

    #[test]
    fn cdf_is_monotone_from_zero_to_one() {
        let m = model();
        for spec in specs() {
            let d = JDistribution::new(&m, spec).unwrap();
            let mut prev = 0.0;
            let mut t = 0.0;
            while t < 30_000.0 {
                let v = d.cdf(t);
                assert!((0.0..=1.0).contains(&v), "{spec:?}: cdf({t}) = {v}");
                assert!(v + 1e-12 >= prev, "{spec:?}: cdf not monotone at {t}");
                prev = v;
                t += 137.0;
            }
            assert!(prev > 0.99, "{spec:?}: cdf only reaches {prev}");
            assert_eq!(d.cdf(0.0), 0.0);
        }
    }

    #[test]
    fn survival_integration_matches_moment_formulas() {
        let m = model();
        for spec in specs() {
            let want = spec.expected_j(&m);
            let d = JDistribution::new(&m, spec).unwrap();
            let got = d.expectation_by_integration(0.5);
            assert!(
                (got - want).abs() / want < 2e-3,
                "{spec:?}: ∫S = {got} vs closed form {want}"
            );
        }
    }

    #[test]
    fn quantiles_match_the_engine() {
        // the law against the protocol run on the engine, resampling the
        // very trace the model was built from
        let m = model();
        let spec = StrategyParams::Multiple { b: 2, t_inf: 800.0 };
        let d = JDistribution::new(&m, spec).unwrap();
        let engine = |batches, tasks| {
            let config = MonteCarloConfig {
                trials: batches,
                seed: 3,
            };
            StrategyExecutor::from_trace(&trace(), config)
                .run_batch(spec, tasks)
                .p95_makespan
        };
        for (tasks, analytic, batches) in [
            (1, d.quantile(0.95), 40_000),
            (20, d.makespan_quantile(20, 0.95), 2_000),
        ] {
            let empirical = engine(batches, tasks);
            assert!(
                (analytic - empirical).abs() / empirical.max(1.0) < 0.05,
                "{tasks} tasks: analytic p95 {analytic} vs engine {empirical}"
            );
        }
    }

    #[test]
    fn makespan_quantile_consistency() {
        let m = model();
        let d = JDistribution::new(&m, StrategyParams::Single { t_inf: 700.0 }).unwrap();
        // the n-task makespan median solves F^n = 1/2
        let mk = d.makespan_quantile(100, 0.5);
        let f = d.cdf(mk);
        assert!(
            (f.powi(100) - 0.5).abs() < 0.01,
            "F(mk)^100 = {}",
            f.powi(100)
        );
        // more tasks ⇒ later makespan, and always ≥ the single-task quantile
        assert!(d.makespan_quantile(1000, 0.5) > mk);
        assert!(mk > d.quantile(0.5));
    }

    #[test]
    fn makespan_ranks_strategies_like_the_batch_study() {
        let m = model();
        let single = JDistribution::new(&m, StrategyParams::Single { t_inf: 700.0 }).unwrap();
        let multi =
            JDistribution::new(&m, StrategyParams::Multiple { b: 3, t_inf: 800.0 }).unwrap();
        let n = 500;
        let ms = single.makespan_quantile(n, 0.5);
        let mm = multi.makespan_quantile(n, 0.5);
        assert!(
            mm < 0.5 * ms,
            "multiple-submission makespan {mm} should crush single's {ms}"
        );
    }

    #[test]
    fn construction_validates() {
        let m = model();
        assert!(JDistribution::new(&m, StrategyParams::Single { t_inf: 10.0 }).is_err());
        assert!(JDistribution::new(
            &m,
            StrategyParams::Delayed {
                t0: 100.0,
                t_inf: 900.0
            }
        )
        .is_err());
    }

    #[test]
    fn delayed_cdf_agrees_with_moments_via_variance_too() {
        let m = model();
        let (t0, ti) = (380.0, 540.0);
        let (e, sigma) = DelayedResubmission::moments(&m, t0, ti);
        let d = JDistribution::new(&m, StrategyParams::Delayed { t0, t_inf: ti }).unwrap();
        // E[J²] = 2∫ t·S(t) dt by trapezoid
        let mut second = 0.0;
        let mut t = 0.0;
        let step = 0.5;
        loop {
            let s0 = (1.0 - d.cdf(t)) * t;
            let s1 = (1.0 - d.cdf(t + step)) * (t + step);
            second += 0.5 * (s0 + s1) * step;
            t += step;
            if 1.0 - d.cdf(t) < 1e-12 {
                break;
            }
        }
        let sigma_num = (2.0 * second - e * e).max(0.0).sqrt();
        assert!(
            (sigma_num - sigma).abs() / sigma < 5e-3,
            "σ from cdf {sigma_num} vs closed form {sigma}"
        );
    }
}
