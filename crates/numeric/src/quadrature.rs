//! Quadrature: Gauss–Legendre rules and composite panels.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A Gauss–Legendre quadrature rule on `[-1, 1]`.
///
/// Nodes are computed by Newton iteration on the Legendre polynomial with
/// the classical Chebyshev initial guess; accurate to machine precision
/// for any practical order. Rules are cheap to build (microseconds for
/// `n ≲ 500`), but callers that integrate repeatedly should reuse one.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussLegendre {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussLegendre {
    /// Builds an `n`-point rule.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Gauss-Legendre order must be positive");
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Chebyshev initial guess for the i-th positive root.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut pp = 0.0;
            for _ in 0..100 {
                // Evaluate P_n(x) and its derivative by recurrence.
                let mut p0 = 1.0;
                let mut p1 = 0.0;
                for j in 0..n {
                    let p2 = p1;
                    p1 = p0;
                    p0 = ((2.0 * j as f64 + 1.0) * x * p1 - j as f64 * p2) / (j as f64 + 1.0);
                }
                pp = n as f64 * (x * p0 - p1) / (x * x - 1.0);
                let dx = p0 / pp;
                x -= dx;
                if dx.abs() < 1e-16 {
                    break;
                }
            }
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            let w = 2.0 / ((1.0 - x * x) * pp * pp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        GaussLegendre { nodes, weights }
    }

    /// The process-wide shared `n`-point rule, built once per order and
    /// cached behind a lazy map.
    ///
    /// Node/weight construction costs microseconds, but NINT fits, the
    /// reliability bands and the predictive paths all rebuild the same
    /// handful of orders per fit; the cache makes repeat fits
    /// allocation-free on this axis. The returned [`Arc`] is cheap to
    /// clone and the rule itself is immutable.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, like [`GaussLegendre::new`].
    pub fn shared(n: usize) -> Arc<GaussLegendre> {
        static CACHE: OnceLock<Mutex<HashMap<usize, Arc<GaussLegendre>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("quadrature rule cache poisoned");
        Arc::clone(
            map.entry(n)
                .or_insert_with(|| Arc::new(GaussLegendre::new(n))),
        )
    }

    /// Number of points in the rule.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the rule has no points (never true for rules built
    /// with [`GaussLegendre::new`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Raw nodes on `[-1, 1]`.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Raw weights on `[-1, 1]`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Nodes and weights affinely mapped to `[a, b]`.
    pub fn scaled(&self, a: f64, b: f64) -> Vec<(f64, f64)> {
        let c = 0.5 * (a + b);
        let h = 0.5 * (b - a);
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| (c + h * x, h * w))
            .collect()
    }

    /// Integrates `f` over `[a, b]`.
    ///
    /// # Example
    ///
    /// ```
    /// use nhpp_numeric::quadrature::GaussLegendre;
    /// let gl = GaussLegendre::new(32);
    /// let integral = gl.integrate(0.0, std::f64::consts::PI, f64::sin);
    /// assert!((integral - 2.0).abs() < 1e-12);
    /// ```
    pub fn integrate<F: FnMut(f64) -> f64>(&self, a: f64, b: f64, mut f: F) -> f64 {
        let c = 0.5 * (a + b);
        let h = 0.5 * (b - a);
        let mut acc = 0.0;
        for (&x, &w) in self.nodes.iter().zip(&self.weights) {
            acc += w * f(c + h * x);
        }
        acc * h
    }

    /// Integrates `f` over `[a, b]` split into `panels` equal panels
    /// (composite rule) — more robust for sharply peaked integrands.
    pub fn integrate_composite<F: FnMut(f64) -> f64>(
        &self,
        a: f64,
        b: f64,
        panels: usize,
        mut f: F,
    ) -> f64 {
        let panels = panels.max(1);
        let width = (b - a) / panels as f64;
        let mut acc = 0.0;
        for p in 0..panels {
            let lo = a + p as f64 * width;
            acc += self.integrate(lo, lo + width, &mut f);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gl_nodes_are_symmetric_and_weights_sum_to_two() {
        for &n in &[1usize, 2, 3, 5, 16, 33, 64, 201] {
            let gl = GaussLegendre::new(n);
            assert_eq!(gl.len(), n);
            let wsum: f64 = gl.weights().iter().sum();
            assert!((wsum - 2.0).abs() < 1e-12, "n={n}, wsum={wsum}");
            for (i, &x) in gl.nodes().iter().enumerate() {
                assert!((x + gl.nodes()[n - 1 - i]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn gl_exact_for_polynomials() {
        // n-point GL is exact for degree 2n−1.
        let gl = GaussLegendre::new(5);
        // ∫₀¹ x⁹ dx = 0.1
        let v = gl.integrate(0.0, 1.0, |x| x.powi(9));
        assert!((v - 0.1).abs() < 1e-14);
    }

    #[test]
    fn gl_sin_integral() {
        let gl = GaussLegendre::new(24);
        let v = gl.integrate(0.0, std::f64::consts::PI, f64::sin);
        assert!((v - 2.0).abs() < 1e-13);
    }

    #[test]
    fn composite_matches_single_panel_for_smooth_f() {
        let gl = GaussLegendre::new(16);
        let single = gl.integrate(0.0, 4.0, |x| (-x).exp());
        let multi = gl.integrate_composite(0.0, 4.0, 8, |x| (-x).exp());
        let exact = 1.0 - (-4.0f64).exp();
        assert!((single - exact).abs() < 1e-12);
        assert!((multi - exact).abs() < 1e-13);
    }

    #[test]
    fn shared_rules_are_cached_and_correct() {
        let a = GaussLegendre::shared(48);
        let b = GaussLegendre::shared(48);
        assert!(Arc::ptr_eq(&a, &b), "same order must hit the cache");
        assert_eq!(*a, GaussLegendre::new(48));
        assert!(!Arc::ptr_eq(&a, &GaussLegendre::shared(32)));
    }
}
