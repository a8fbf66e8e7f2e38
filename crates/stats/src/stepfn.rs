//! Piecewise-constant, right-continuous step functions with exact integrals.
//!
//! The HPDC'09 strategy models reduce to integrals of `1 - F̃(u)`,
//! `u·(1 - F̃(u))` and products such as `(1 - F̃(u+t0))·(1 - F̃(u))` where
//! `F̃` is an *empirical* (hence piecewise-constant) defective CDF. All of
//! these are integrals of step functions and can be evaluated **exactly** by
//! summing over breakpoints — no quadrature, no discretization error. This
//! module provides that algebra in its plainest form. It is compiled only
//! for tests: it is the reference oracle that the prefix-table queries of
//! [`crate::Ecdf`] are checked against.
//!
//! A [`StepFn`] is defined by sorted breakpoints `x_0 < x_1 < … < x_{k-1}`
//! and values `v_0 … v_k`: the function equals `v_0` on `(-∞, x_0)`, `v_i`
//! on `[x_{i-1}, x_i)` for `0 < i < k`, and `v_k` on `[x_{k-1}, ∞)`.
//! (Right-continuity: the value *at* a breakpoint is the value to its right,
//! matching the usual CDF convention `F(t) = P(X ≤ t)`.)

/// A piecewise-constant, right-continuous function on ℝ.
///
/// Stored as `breaks` (strictly increasing) and `values` with
/// `values.len() == breaks.len() + 1`. See the module docs for the exact
/// convention.
#[derive(Debug, Clone, PartialEq)]
pub struct StepFn {
    breaks: Vec<f64>,
    values: Vec<f64>,
}

/// Error constructing a [`StepFn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepFnError {
    /// `values.len() != breaks.len() + 1`.
    LengthMismatch,
    /// Breakpoints are not strictly increasing or contain non-finite values.
    InvalidBreaks,
}

impl std::fmt::Display for StepFnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepFnError::LengthMismatch => {
                write!(f, "values must have exactly one more entry than breaks")
            }
            StepFnError::InvalidBreaks => {
                write!(f, "breaks must be finite and strictly increasing")
            }
        }
    }
}

impl std::error::Error for StepFnError {}

impl StepFn {
    /// Builds a step function from breakpoints and per-interval values.
    ///
    /// `breaks` must be finite and strictly increasing;
    /// `values.len()` must equal `breaks.len() + 1`.
    pub fn new(breaks: Vec<f64>, values: Vec<f64>) -> Result<Self, StepFnError> {
        if values.len() != breaks.len() + 1 {
            return Err(StepFnError::LengthMismatch);
        }
        if breaks.iter().any(|b| !b.is_finite()) || breaks.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StepFnError::InvalidBreaks);
        }
        Ok(StepFn { breaks, values })
    }

    /// The constant function `c`.
    pub fn constant(c: f64) -> Self {
        StepFn {
            breaks: Vec::new(),
            values: vec![c],
        }
    }

    /// Breakpoints (strictly increasing).
    pub fn breaks(&self) -> &[f64] {
        &self.breaks
    }

    /// Evaluates the function at `x` (right-continuous).
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the number of breaks <= x, which indexes
        // the interval [x_{i-1}, x_i) containing x under right-continuity.
        let idx = self.breaks.partition_point(|&b| b <= x);
        self.values[idx]
    }

    /// Exact integral `∫_a^b f(u) du`. Returns `-integral(b, a)` if `b < a`.
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        if b < a {
            return -self.integral(b, a);
        }
        if a == b {
            return 0.0;
        }
        let mut total = 0.0;
        let mut lo = a;
        // first interval index containing a
        let mut idx = self.breaks.partition_point(|&br| br <= a);
        while lo < b {
            let hi = if idx < self.breaks.len() {
                self.breaks[idx].min(b)
            } else {
                b
            };
            total += self.values[idx] * (hi - lo);
            lo = hi;
            idx += 1;
        }
        total
    }

    /// Exact integral `∫_a^b u·f(u) du` (first-moment integral).
    pub fn moment_integral(&self, a: f64, b: f64) -> f64 {
        if b < a {
            return -self.moment_integral(b, a);
        }
        if a == b {
            return 0.0;
        }
        let mut total = 0.0;
        let mut lo = a;
        let mut idx = self.breaks.partition_point(|&br| br <= a);
        while lo < b {
            let hi = if idx < self.breaks.len() {
                self.breaks[idx].min(b)
            } else {
                b
            };
            total += self.values[idx] * 0.5 * (hi * hi - lo * lo);
            lo = hi;
            idx += 1;
        }
        total
    }

    /// Pointwise map of the values: `g(x) = op(f(x))`.
    ///
    /// The breakpoint set is preserved (no compaction of equal neighbours);
    /// this keeps the operation O(k).
    pub fn map(&self, op: impl Fn(f64) -> f64) -> StepFn {
        StepFn {
            breaks: self.breaks.clone(),
            values: self.values.iter().map(|&v| op(v)).collect(),
        }
    }

    /// The function `x ↦ f(x - shift)` (translate the graph right by `shift`).
    pub fn shift(&self, shift: f64) -> StepFn {
        StepFn {
            breaks: self.breaks.iter().map(|b| b + shift).collect(),
            values: self.values.clone(),
        }
    }

    /// Pointwise combination `x ↦ op(f(x), g(x))` on the merged breakpoint set.
    pub fn combine(&self, other: &StepFn, op: impl Fn(f64, f64) -> f64) -> StepFn {
        let mut breaks = Vec::with_capacity(self.breaks.len() + other.breaks.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.breaks.len() || j < other.breaks.len() {
            let next = match (self.breaks.get(i), other.breaks.get(j)) {
                (Some(&a), Some(&b)) => {
                    if a < b {
                        i += 1;
                        a
                    } else if b < a {
                        j += 1;
                        b
                    } else {
                        i += 1;
                        j += 1;
                        a
                    }
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => unreachable!(),
            };
            breaks.push(next);
        }
        // values: evaluate both functions on each merged interval. Interval m
        // is (-inf, breaks[0]) for m = 0 and [breaks[m-1], breaks[m]) after.
        let mut values = Vec::with_capacity(breaks.len() + 1);
        let mut ai = 0usize; // index into self.values
        let mut bi = 0usize;
        values.push(op(self.values[0], other.values[0]));
        for &br in &breaks {
            while ai < self.breaks.len() && self.breaks[ai] <= br {
                ai += 1;
            }
            while bi < other.breaks.len() && other.breaks[bi] <= br {
                bi += 1;
            }
            values.push(op(self.values[ai], other.values[bi]));
        }
        StepFn { breaks, values }
    }

    /// Pointwise product `f·g`.
    pub fn product(&self, other: &StepFn) -> StepFn {
        self.combine(other, |a, b| a * b)
    }

    /// Pointwise sum `f+g`.
    pub fn sum(&self, other: &StepFn) -> StepFn {
        self.combine(other, |a, b| a + b)
    }

    /// Number of breakpoints.
    pub fn len(&self) -> usize {
        self.breaks.len()
    }

    /// True if the function is constant (no breakpoints).
    pub fn is_empty(&self) -> bool {
        self.breaks.is_empty()
    }

    /// Removes consecutive intervals with (bitwise) equal values, shrinking
    /// the representation. Semantics are unchanged.
    pub fn compact(&self) -> StepFn {
        let mut breaks = Vec::with_capacity(self.breaks.len());
        let mut values = Vec::with_capacity(self.values.len());
        values.push(self.values[0]);
        for (i, &br) in self.breaks.iter().enumerate() {
            let next = self.values[i + 1];
            if next.to_bits() != values.last().unwrap().to_bits() {
                breaks.push(br);
                values.push(next);
            }
        }
        StepFn { breaks, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f_simple() -> StepFn {
        StepFn::new(vec![1.0, 2.0, 4.0], vec![0.0, 1.0, 3.0, 2.0]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            StepFn::new(vec![1.0], vec![0.0]).unwrap_err(),
            StepFnError::LengthMismatch
        );
        assert_eq!(
            StepFn::new(vec![2.0, 1.0], vec![0.0, 1.0, 2.0]).unwrap_err(),
            StepFnError::InvalidBreaks
        );
        assert_eq!(
            StepFn::new(vec![1.0, 1.0], vec![0.0, 1.0, 2.0]).unwrap_err(),
            StepFnError::InvalidBreaks
        );
        assert_eq!(
            StepFn::new(vec![f64::NAN], vec![0.0, 1.0]).unwrap_err(),
            StepFnError::InvalidBreaks
        );
    }

    #[test]
    fn eval_right_continuous() {
        let f = f_simple();
        assert_eq!(f.eval(0.5), 0.0);
        assert_eq!(f.eval(1.0), 1.0); // value at breakpoint = value to the right
        assert_eq!(f.eval(1.5), 1.0);
        assert_eq!(f.eval(2.0), 3.0);
        assert_eq!(f.eval(3.999), 3.0);
        assert_eq!(f.eval(4.0), 2.0);
        assert_eq!(f.eval(100.0), 2.0);
        assert_eq!(f.eval(-100.0), 0.0);
    }

    #[test]
    fn constant_function() {
        let c = StepFn::constant(2.5);
        assert_eq!(c.eval(-1e9), 2.5);
        assert_eq!(c.eval(1e9), 2.5);
        assert!((c.integral(0.0, 4.0) - 10.0).abs() < 1e-12);
        assert!(c.is_empty());
    }

    #[test]
    fn integral_exact() {
        let f = f_simple();
        // ∫₀⁵ = 0*1 + 1*1 + 3*2 + 2*1 = 9
        assert!((f.integral(0.0, 5.0) - 9.0).abs() < 1e-12);
        // partial interval: ∫_{1.5}^{2.5} = 1*0.5 + 3*0.5 = 2
        assert!((f.integral(1.5, 2.5) - 2.0).abs() < 1e-12);
        // reversed bounds negate
        assert!((f.integral(2.5, 1.5) + 2.0).abs() < 1e-12);
        // empty interval
        assert_eq!(f.integral(3.0, 3.0), 0.0);
    }

    #[test]
    fn integral_spanning_all_breaks_from_negative() {
        let f = f_simple();
        // ∫_{-1}^{1} = 0*2 = 0 ; ∫_{-1}^{6} = 0 + 1 + 6 + 4 = 11
        assert!((f.integral(-1.0, 1.0)).abs() < 1e-12);
        assert!((f.integral(-1.0, 6.0) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn moment_integral_exact() {
        let f = f_simple();
        // ∫₁² u·1 du = 1.5 ; ∫₂⁴ u·3 du = 3*(8-2) = 18 ; ∫₄⁵ u*2 = 9
        let expect = 1.5 + 18.0 + 9.0;
        assert!((f.moment_integral(0.0, 5.0) - expect).abs() < 1e-12);
        assert!((f.moment_integral(5.0, 0.0) + expect).abs() < 1e-12);
    }

    #[test]
    fn shift_moves_graph_right() {
        let f = f_simple();
        let g = f.shift(10.0);
        assert_eq!(g.eval(11.5), f.eval(1.5));
        assert_eq!(g.eval(14.0), f.eval(4.0));
        assert!((g.integral(10.0, 15.0) - f.integral(0.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn map_applies_pointwise() {
        let f = f_simple();
        let g = f.map(|v| 1.0 - v);
        for x in [-1.0, 0.5, 1.0, 1.7, 2.0, 3.0, 4.5] {
            assert!((g.eval(x) - (1.0 - f.eval(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn product_matches_pointwise() {
        let f = f_simple();
        let g = StepFn::new(vec![0.5, 2.0, 3.0], vec![1.0, 2.0, 0.5, 1.0]).unwrap();
        let p = f.product(&g);
        for x in [-1.0, 0.4, 0.5, 0.9, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 9.0] {
            assert!(
                (p.eval(x) - f.eval(x) * g.eval(x)).abs() < 1e-12,
                "mismatch at {x}"
            );
        }
        // shared breakpoint 2.0 must appear once
        assert_eq!(p.breaks().iter().filter(|&&b| b == 2.0).count(), 1);
    }

    #[test]
    fn sum_matches_pointwise() {
        let f = f_simple();
        let g = f.shift(0.25);
        let s = f.sum(&g);
        for x in [-1.0, 1.1, 1.25, 2.6, 4.25, 7.0] {
            assert!((s.eval(x) - (f.eval(x) + g.eval(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn product_with_constant() {
        let f = f_simple();
        let p = f.product(&StepFn::constant(2.0));
        for x in [0.0, 1.5, 3.0, 10.0] {
            assert!((p.eval(x) - 2.0 * f.eval(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn compact_removes_redundant_breaks() {
        let f = StepFn::new(vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let c = f.compact();
        assert_eq!(c.breaks(), &[2.0]);
        for x in [0.0, 1.5, 2.0, 2.5, 4.0] {
            assert_eq!(c.eval(x), f.eval(x));
        }
    }

    #[test]
    fn integral_of_product_used_by_delayed_strategy() {
        // the delayed-resubmission kernel: ∫ (1-F(u+t0))(1-F(u)) du with F a CDF-like step
        let f = StepFn::new(vec![1.0, 3.0], vec![0.0, 0.5, 1.0]).unwrap();
        let surv = f.map(|v| 1.0 - v); // 1 on (-inf,1), .5 on [1,3), 0 after
        let shifted = surv.shift(-1.0); // x -> surv(x+1)
        let prod = shifted.product(&surv);
        // on [0,1): surv(u)=1 (u<1), surv(u+1)=0.5 => 0.5
        // on [1,2): surv(u)=0.5, surv(u+1)=0.5 => 0.25
        // on [2,3): surv(u)=0.5, surv(u+1)=0 => 0
        let got = prod.integral(0.0, 3.0);
        assert!((got - (0.5 + 0.25)).abs() < 1e-12);
    }

    /// Seeded property tests: every test draws `CASES` random inputs from a
    /// fixed stream, so a failure names its reproducible case index.
    mod properties {
        use crate::rng::derived_rng;
        use crate::stepfn::StepFn;
        use crate::Ecdf;
        use rand::rngs::StdRng;
        use rand::Rng;

        const CASES: usize = 128;

        fn sorted_breaks(rng: &mut StdRng) -> Vec<f64> {
            let n = rng.gen_range(1..12usize);
            let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(0.001..1000.0f64)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup();
            v
        }

        fn stepfn(rng: &mut StdRng) -> StepFn {
            let breaks = sorted_breaks(rng);
            let values: Vec<f64> = (0..breaks.len() + 1)
                .map(|_| rng.gen_range(-5.0..5.0f64))
                .collect();
            StepFn::new(breaks, values).unwrap()
        }

        #[test]
        fn stepfn_integral_is_additive() {
            let mut rng = derived_rng(0x57A7, 1);
            for case in 0..CASES {
                let f = stepfn(&mut rng);
                let a = rng.gen_range(-10.0..1100.0f64);
                let b = rng.gen_range(-10.0..1100.0f64);
                let c = rng.gen_range(-10.0..1100.0f64);
                let whole = f.integral(a, c);
                let split = f.integral(a, b) + f.integral(b, c);
                assert!(
                    (whole - split).abs() < 1e-8 * (1.0 + whole.abs()),
                    "case {case}: {whole} vs {split}"
                );
            }
        }

        #[test]
        fn stepfn_shift_preserves_integrals() {
            let mut rng = derived_rng(0x57A7, 2);
            for case in 0..CASES {
                let f = stepfn(&mut rng);
                let s = rng.gen_range(-200.0..200.0f64);
                let g = f.shift(s);
                let i_f = f.integral(0.0, 1000.0);
                let i_g = g.integral(s, 1000.0 + s);
                assert!(
                    (i_f - i_g).abs() < 1e-7 * (1.0 + i_f.abs()),
                    "case {case}: {i_f} vs {i_g}"
                );
            }
        }

        #[test]
        fn stepfn_product_pointwise() {
            let mut rng = derived_rng(0x57A7, 3);
            for case in 0..CASES {
                let f = stepfn(&mut rng);
                let g = stepfn(&mut rng);
                let p = f.product(&g);
                for _ in 0..8 {
                    let x = rng.gen_range(-10.0..1100.0f64);
                    assert!(
                        (p.eval(x) - f.eval(x) * g.eval(x)).abs() < 1e-9,
                        "case {case} at x = {x}"
                    );
                }
            }
        }

        #[test]
        fn stepfn_compact_is_semantically_identity() {
            let mut rng = derived_rng(0x57A7, 4);
            for case in 0..CASES {
                let f = stepfn(&mut rng);
                let c = f.compact();
                assert!(c.len() <= f.len(), "case {case}");
                for _ in 0..8 {
                    let x = rng.gen_range(-10.0..1100.0f64);
                    assert_eq!(c.eval(x), f.eval(x), "case {case} at x = {x}");
                }
            }
        }

        #[test]
        fn ecdf_survival_integral_matches_stepfn() {
            let mut rng = derived_rng(0x57A7, 6);
            for case in 0..CASES {
                let xs = samples(&mut rng, 0.1, 20_000.0, 2, 40);
                if !xs.iter().any(|&x| x < 10_000.0) {
                    continue;
                }
                let t = rng.gen_range(0.0..12_000.0f64);
                let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
                let surv = e.to_stepfn().map(|v| 1.0 - v);
                assert!(
                    (e.survival_integral(t) - surv.integral(0.0, t)).abs() < 1e-6,
                    "case {case}"
                );
                assert!(
                    (e.moment_survival_integral(t) - surv.moment_integral(0.0, t)).abs() < 1e-3,
                    "case {case}"
                );
            }
        }

        #[test]
        fn ecdf_product_integrals_match_stepfn() {
            let mut rng = derived_rng(0x57A7, 7);
            for case in 0..CASES {
                let xs = samples(&mut rng, 0.1, 9_000.0, 2, 30);
                let shift = rng.gen_range(0.0..2_000.0f64);
                let l = rng.gen_range(0.0..3_000.0f64);
                let e = Ecdf::from_samples(&xs, 10_000.0).unwrap();
                let surv = e.to_stepfn().map(|v| 1.0 - v);
                let prod = surv.shift(-shift).product(&surv);
                let (c, d) = e.survival_product_integrals(shift, l);
                assert!((c - prod.integral(0.0, l)).abs() < 1e-6, "case {case}");
                assert!(
                    (d - prod.moment_integral(0.0, l)).abs() < 1e-2,
                    "case {case}"
                );
            }
        }

        fn samples(rng: &mut StdRng, lo: f64, hi: f64, min_n: usize, max_n: usize) -> Vec<f64> {
            let n = rng.gen_range(min_n..max_n);
            (0..n).map(|_| rng.gen_range(lo..hi)).collect()
        }
    }
}
