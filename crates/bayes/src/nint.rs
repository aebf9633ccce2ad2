//! Direct numerical integration (NINT) of the joint posterior.
//!
//! Following Yin & Trivedi (1999) and §4.1/§6 of the DSN 2007 paper, the
//! unnormalised posterior `P(D | ω, β)·P(ω, β)` is evaluated on a tensor
//! Gauss–Legendre grid over a rectangle and normalised numerically. Where
//! the paper needed Mathematica's multiple-precision arithmetic to tame
//! underflow, this implementation works entirely in log space with
//! max-subtraction, so ordinary `f64` suffices.
//!
//! The integration rectangle matters (the paper discusses how a too-wide
//! box underflows and a too-narrow one truncates mass); the paper derives
//! it from VB2 marginal quantiles — `[q_{0.005}/2, 1.5·q_{0.995}]` per
//! parameter — and [`bounds_from_posterior`] implements exactly that rule
//! so the bench harness can wire a fitted VB2 posterior in.

use crate::error::BayesError;
use nhpp_data::ObservedData;
use nhpp_models::prior::NhppPrior;
use nhpp_models::{LogPosterior, ModelSpec, Posterior};
use nhpp_numeric::quadrature::GaussLegendre;
use nhpp_numeric::roots::bisect;
use nhpp_special::log_sum_exp;
use std::cell::RefCell;

thread_local! {
    /// Reusable buffers for the predictive and reliability paths, so a
    /// sweep of windows (prediction bands evaluate hundreds) stays
    /// allocation-free after warm-up.
    static SCRATCH: RefCell<NintScratch> = RefCell::new(NintScratch::default());
}

#[derive(Debug, Default)]
struct NintScratch {
    cs: Vec<f64>,
    lambdas: Vec<f64>,
    weights: Vec<f64>,
    values: Vec<f64>,
}

/// Integration rectangle: `((ω_lo, ω_hi), (β_lo, β_hi))`.
pub type Bounds = ((f64, f64), (f64, f64));

/// Derives the integration rectangle from another posterior's marginal
/// quantiles using the paper's §6 rule: lower limit = 0.5%-quantile / 2,
/// upper limit = 99.5%-quantile × 1.5.
pub fn bounds_from_posterior<P: Posterior + ?Sized>(reference: &P) -> Bounds {
    (
        (
            (reference.quantile_omega(0.005) / 2.0).max(1e-300),
            reference.quantile_omega(0.995) * 1.5,
        ),
        (
            (reference.quantile_beta(0.005) / 2.0).max(1e-300),
            reference.quantile_beta(0.995) * 1.5,
        ),
    )
}

/// Options for the NINT grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NintOptions {
    /// Gauss–Legendre points along the ω axis.
    pub n_omega: usize,
    /// Gauss–Legendre points along the β axis.
    pub n_beta: usize,
}

impl Default for NintOptions {
    fn default() -> Self {
        NintOptions {
            n_omega: 200,
            n_beta: 200,
        }
    }
}

/// The numerically integrated posterior. Treated as the accuracy
/// reference in all of the paper's comparisons.
#[derive(Debug, Clone)]
pub struct NintPosterior {
    spec: ModelSpec,
    prior: NhppPrior,
    data: ObservedData,
    bounds: Bounds,
    omega_nodes: Vec<f64>,
    beta_nodes: Vec<f64>,
    /// Normalised cell probabilities, row-major `[i_omega][j_beta]`.
    prob: Vec<f64>,
    /// Marginal node masses along ω, precomputed at fit time so the
    /// quantile paths never re-reduce the grid.
    marg_omega: Vec<f64>,
    /// Marginal node masses along β.
    marg_beta: Vec<f64>,
    /// Log of the normalising constant `∫∫ P(D|ω,β)P(ω,β) dω dβ` — the
    /// log marginal likelihood over the box.
    ln_norm: f64,
}

impl NintPosterior {
    /// Evaluates and normalises the posterior over `bounds`.
    ///
    /// # Errors
    ///
    /// * [`BayesError::InvalidOption`] for degenerate bounds or grid sizes.
    /// * [`BayesError::IllPosed`] if the posterior mass over the box is
    ///   zero at `f64` resolution.
    pub fn fit(
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        bounds: Bounds,
        options: NintOptions,
    ) -> Result<Self, BayesError> {
        let ((w_lo, w_hi), (b_lo, b_hi)) = bounds;
        if !(w_lo > 0.0 && w_hi > w_lo && b_lo > 0.0 && b_hi > b_lo) {
            return Err(BayesError::InvalidOption {
                message: "bounds must satisfy 0 < lo < hi on both axes",
            });
        }
        if options.n_omega < 4 || options.n_beta < 4 {
            return Err(BayesError::InvalidOption {
                message: "grid must be at least 4×4",
            });
        }
        let lp = LogPosterior::new(spec, prior, data);
        let gl_w = GaussLegendre::shared(options.n_omega);
        let gl_b = GaussLegendre::shared(options.n_beta);
        let nodes_w = gl_w.scaled(w_lo, w_hi);
        let nodes_b = gl_b.scaled(b_lo, b_hi);
        let omega_nodes: Vec<f64> = nodes_w.iter().map(|&(x, _)| x).collect();
        let beta_nodes: Vec<f64> = nodes_b.iter().map(|&(x, _)| x).collect();

        // One separable grid pass for the surface, then the per-axis
        // log quadrature weights added per cell.
        let mut cells = vec![0.0; omega_nodes.len() * beta_nodes.len()];
        lp.value_grid(&omega_nodes, &beta_nodes, &mut cells);
        let ln_wb: Vec<f64> = nodes_b.iter().map(|&(_, wb)| wb.ln()).collect();
        for (row, &(_, ww)) in cells.chunks_mut(beta_nodes.len()).zip(&nodes_w) {
            let ln_ww = ww.ln();
            for (cell, &lb) in row.iter_mut().zip(&ln_wb) {
                *cell += ln_ww + lb;
            }
        }
        // One scalar pass each for the normaliser and the
        // probabilities: lane kernels trade the libm exponential for a
        // polynomial split that pays only when evaluations are
        // amortised across solver iterations (the VB2 sweep), and on
        // this single streaming pass they measured slower at every grid
        // size (EXPERIMENTS.md, "One lane path").
        let ln_norm = log_sum_exp(&cells);
        if !ln_norm.is_finite() {
            return Err(BayesError::IllPosed {
                message: format!("posterior mass over box {bounds:?} is zero or non-finite"),
            });
        }
        let mut prob = cells;
        for v in &mut prob {
            *v = (*v - ln_norm).exp();
        }
        let mut marg_omega = vec![0.0; omega_nodes.len()];
        let mut marg_beta = vec![0.0; beta_nodes.len()];
        for (row, mo) in prob.chunks(beta_nodes.len()).zip(marg_omega.iter_mut()) {
            for (&p, mb) in row.iter().zip(marg_beta.iter_mut()) {
                *mo += p;
                *mb += p;
            }
        }
        Ok(NintPosterior {
            spec,
            prior,
            data: data.clone(),
            bounds,
            omega_nodes,
            beta_nodes,
            prob,
            marg_omega,
            marg_beta,
            ln_norm,
        })
    }

    /// The integration rectangle in use.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Log marginal likelihood (evidence) over the integration box.
    pub fn log_evidence(&self) -> f64 {
        self.ln_norm
    }

    fn n_beta(&self) -> usize {
        self.beta_nodes.len()
    }

    /// Expectation of an arbitrary function over the grid.
    fn expect<F: FnMut(f64, f64) -> f64>(&self, mut f: F) -> f64 {
        let nb = self.n_beta();
        let mut acc = 0.0;
        for (i, &w) in self.omega_nodes.iter().enumerate() {
            for (j, &b) in self.beta_nodes.iter().enumerate() {
                acc += self.prob[i * nb + j] * f(w, b);
            }
        }
        acc
    }

    /// Quantile of a discretised marginal: node masses are treated as
    /// centred at their nodes and the piecewise-linear CDF through
    /// `(lo, 0) → (node_i, C_i − m_i/2) → (hi, 1)` is inverted by
    /// walking the knots in place — no CDF arrays are materialised.
    ///
    /// Zero-mass leading (or trailing) cells leave the CDF flat; the
    /// walk skips flat knots, so the quantile interpolates across the
    /// first segment that actually gains mass instead of being dragged
    /// toward the box edge.
    fn marginal_quantile(nodes: &[f64], masses: &[f64], lo: f64, hi: f64, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 0.0 {
            return lo;
        }
        if p == 1.0 {
            return hi;
        }
        let mut x0 = lo;
        let mut c0 = 0.0;
        let mut cum = 0.0;
        for (&x, &m) in nodes.iter().zip(masses) {
            cum += m;
            let c1 = (cum - m / 2.0).clamp(0.0, 1.0);
            if c1 >= p {
                // Reached only with c0 < p <= c1, so the segment has
                // strictly positive rise and the division is safe.
                return x0 + (x - x0) * (p - c0) / (c1 - c0);
            }
            // `cum − m/2` is nondecreasing, so the knots never step
            // back; a flat (zero-mass) cell advances the knot without
            // raising the CDF, which is exactly what keeps a leading
            // run of empty cells from dragging the quantile toward
            // the box edge.
            x0 = x;
            c0 = c1;
        }
        x0 + (hi - x0) * (p - c0) / (1.0 - c0)
    }

    /// `P(ω > a)` within the ω-row conditional on β-node `j`, with linear
    /// interpolation across the straddled cell.
    fn omega_tail_given_beta(&self, j: usize, a: f64) -> f64 {
        let nb = self.n_beta();
        let ((w_lo, w_hi), _) = self.bounds;
        if a <= w_lo {
            return (0..self.omega_nodes.len())
                .map(|i| self.prob[i * nb + j])
                .sum();
        }
        if a >= w_hi {
            return 0.0;
        }
        let mut tail = 0.0;
        for (i, &w) in self.omega_nodes.iter().enumerate() {
            let m = self.prob[i * nb + j];
            if w > a {
                tail += m;
            } else {
                // Fraction of the node's cell beyond `a` (cell spans to the
                // midpoint with the next node).
                let next = if i + 1 < self.omega_nodes.len() {
                    0.5 * (w + self.omega_nodes[i + 1])
                } else {
                    w_hi
                };
                if next > a {
                    let prev = if i > 0 {
                        0.5 * (w + self.omega_nodes[i - 1])
                    } else {
                        w_lo
                    };
                    let width = next - prev;
                    if width > 0.0 {
                        tail += m * ((next - a) / width).clamp(0.0, 1.0);
                    }
                }
            }
        }
        tail
    }

    /// Posterior-predictive distribution of the number of failures in
    /// `(t, t+u]`, marginalised over the quadrature grid.
    ///
    /// # Errors
    ///
    /// [`BayesError::InvalidOption`] for an empty window.
    pub fn predictive_failures(
        &self,
        t: f64,
        u: f64,
    ) -> Result<nhpp_models::prediction::PredictiveCounts, BayesError> {
        if !(u > 0.0) || !(t >= 0.0) {
            return Err(BayesError::InvalidOption {
                message: "window requires t >= 0 and u > 0",
            });
        }
        let pmf = SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            self.fill_interval_masses(t, u, &mut s.cs);
            let nb = self.n_beta();
            // Per-cell Poisson means and weights.
            s.lambdas.clear();
            s.weights.clear();
            for (i, &w) in self.omega_nodes.iter().enumerate() {
                for (j, &c) in s.cs.iter().enumerate() {
                    let p = self.prob[i * nb + j];
                    if p > 0.0 {
                        s.weights.push(p);
                        s.lambdas.push(w * c);
                    }
                }
            }
            s.values.clear();
            s.values.extend(s.lambdas.iter().map(|&l| (-l).exp()));
            let mut pmf = Vec::new();
            let mut cumulative = 0.0;
            for k in 0..100_000usize {
                let mass: f64 = s.values.iter().zip(&s.weights).map(|(v, w)| v * w).sum();
                pmf.push(mass);
                cumulative += mass;
                if cumulative >= 1.0 - 1e-10 {
                    break;
                }
                for (v, &l) in s.values.iter_mut().zip(&s.lambdas) {
                    *v *= l / (k as f64 + 1.0);
                }
            }
            pmf
        });
        nhpp_models::prediction::PredictiveCounts::from_pmf(pmf).map_err(|e| BayesError::IllPosed {
            message: e.to_string(),
        })
    }

    /// Fills `cs` with the failure-law interval mass `ΔG(t, t+u; β)`
    /// at every β node — the common precomputation of the predictive
    /// and reliability paths.
    fn fill_interval_masses(&self, t: f64, u: f64, cs: &mut Vec<f64>) {
        let a0 = self.spec.alpha0();
        cs.clear();
        cs.extend(self.beta_nodes.iter().map(|&b| {
            nhpp_dist::Gamma::new(a0, b)
                .expect("positive grid nodes")
                .ln_interval_mass(t, t + u)
                .exp()
        }));
    }

    /// Posterior CDF of the reliability, `P(R(t+u|t) <= x)` (Eq. (32)).
    fn reliability_cdf(&self, t: f64, u: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x >= 1.0 {
            return 1.0;
        }
        let neg_ln_x = -x.ln();
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            self.fill_interval_masses(t, u, &mut s.cs);
            let mut acc = 0.0;
            for (j, &c) in s.cs.iter().enumerate() {
                if c <= 0.0 {
                    continue; // R = 1 surely > x for this β.
                }
                acc += self.omega_tail_given_beta(j, neg_ln_x / c);
            }
            acc
        })
    }
}

impl Posterior for NintPosterior {
    fn method_name(&self) -> &'static str {
        "NINT"
    }

    fn mean_omega(&self) -> f64 {
        self.expect(|w, _| w)
    }

    fn mean_beta(&self) -> f64 {
        self.expect(|_, b| b)
    }

    fn var_omega(&self) -> f64 {
        let m = self.mean_omega();
        self.expect(|w, _| (w - m) * (w - m))
    }

    fn var_beta(&self) -> f64 {
        let m = self.mean_beta();
        self.expect(|_, b| (b - m) * (b - m))
    }

    fn covariance(&self) -> f64 {
        let mw = self.mean_omega();
        let mb = self.mean_beta();
        self.expect(|w, b| (w - mw) * (b - mb))
    }

    fn central_moment_omega(&self, k: u32) -> f64 {
        assert!(k <= 4, "central moments implemented up to order 4");
        let m = self.mean_omega();
        self.expect(|w, _| (w - m).powi(k as i32))
    }

    fn quantile_omega(&self, p: f64) -> f64 {
        let ((lo, hi), _) = self.bounds;
        Self::marginal_quantile(&self.omega_nodes, &self.marg_omega, lo, hi, p)
    }

    fn quantile_beta(&self, p: f64) -> f64 {
        let (_, (lo, hi)) = self.bounds;
        Self::marginal_quantile(&self.beta_nodes, &self.marg_beta, lo, hi, p)
    }

    fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64> {
        let lp = LogPosterior::new(self.spec, self.prior, &self.data);
        Some(lp.value(omega, beta) - self.ln_norm)
    }

    fn reliability_point(&self, t: f64, u: f64) -> f64 {
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            // Precompute c(β) once per β node.
            self.fill_interval_masses(t, u, &mut s.cs);
            let nb = self.n_beta();
            let mut acc = 0.0;
            for (i, &w) in self.omega_nodes.iter().enumerate() {
                for (j, &c) in s.cs.iter().enumerate() {
                    acc += self.prob[i * nb + j] * (-w * c).exp();
                }
            }
            acc
        })
    }

    fn reliability_quantile(&self, t: f64, u: f64, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        bisect(|x| self.reliability_cdf(t, u, x) - p, 0.0, 1.0, 1e-10, 200).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::LaplacePosterior;
    use nhpp_data::sys17;

    fn fit_times_info() -> NintPosterior {
        let data: ObservedData = sys17::failure_times().into();
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_times();
        let lap = LaplacePosterior::fit(spec, prior, &data).unwrap();
        let bounds = bounds_from_posterior(&lap);
        NintPosterior::fit(spec, prior, &data, bounds, NintOptions::default()).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let post = fit_times_info();
        let total: f64 = post.prob.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn moments_in_plausible_ranges() {
        let post = fit_times_info();
        assert!(
            post.mean_omega() > 39.0 && post.mean_omega() < 50.0,
            "{}",
            post.mean_omega()
        );
        assert!(post.mean_beta() > 8e-6 && post.mean_beta() < 1.5e-5);
        assert!(post.var_omega() > 0.0 && post.var_beta() > 0.0);
        assert!(post.covariance() < 0.0);
    }

    #[test]
    fn quantiles_bracket_mean_and_round_trip() {
        let post = fit_times_info();
        let (lo, hi) = post.credible_interval_omega(0.99);
        assert!(lo < post.mean_omega() && post.mean_omega() < hi);
        assert!(post.quantile_omega(0.25) < post.quantile_omega(0.75));
        // Median close to mean for a mildly skewed posterior.
        let med = post.quantile_omega(0.5);
        assert!((med - post.mean_omega()).abs() < 0.1 * post.mean_omega());
    }

    #[test]
    fn grid_refinement_is_stable() {
        let data: ObservedData = sys17::failure_times().into();
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_times();
        let lap = LaplacePosterior::fit(spec, prior, &data).unwrap();
        let bounds = bounds_from_posterior(&lap);
        let coarse = NintPosterior::fit(
            spec,
            prior,
            &data,
            bounds,
            NintOptions {
                n_omega: 80,
                n_beta: 80,
            },
        )
        .unwrap();
        let fine = NintPosterior::fit(
            spec,
            prior,
            &data,
            bounds,
            NintOptions {
                n_omega: 320,
                n_beta: 320,
            },
        )
        .unwrap();
        assert!((coarse.mean_omega() - fine.mean_omega()).abs() < 1e-6 * fine.mean_omega());
        assert!((coarse.var_omega() - fine.var_omega()).abs() < 1e-5 * fine.var_omega());
        assert!((coarse.log_evidence() - fine.log_evidence()).abs() < 1e-8);
    }

    #[test]
    fn reliability_point_and_interval() {
        let post = fit_times_info();
        let t = sys17::T_END;
        let r = post.reliability_point(t, 10_000.0);
        assert!(r > 0.5 && r < 1.0, "r={r}");
        let (lo, hi) = post.reliability_interval(t, 10_000.0, 0.99);
        assert!(
            0.0 < lo && lo < r && r < hi && hi <= 1.0,
            "({lo}, {r}, {hi})"
        );
        // CDF at the quantile returns the probability.
        let q = post.reliability_quantile(t, 10_000.0, 0.3);
        assert!((post.reliability_cdf(t, 10_000.0, q) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn ln_density_is_normalised_sane() {
        // The density at the mean should be positive and finite.
        let post = fit_times_info();
        let d = post
            .ln_joint_density(post.mean_omega(), post.mean_beta())
            .unwrap();
        assert!(d.is_finite());
        // Near-zero density far away.
        let far = post
            .ln_joint_density(post.mean_omega() * 10.0, post.mean_beta())
            .unwrap();
        assert!(far < d - 20.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let data: ObservedData = sys17::failure_times().into();
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_times();
        assert!(matches!(
            NintPosterior::fit(
                spec,
                prior,
                &data,
                ((10.0, 5.0), (1e-6, 1e-4)),
                NintOptions::default()
            ),
            Err(BayesError::InvalidOption { .. })
        ));
        assert!(matches!(
            NintPosterior::fit(
                spec,
                prior,
                &data,
                ((1.0, 100.0), (1e-6, 1e-4)),
                NintOptions {
                    n_omega: 2,
                    n_beta: 2,
                }
            ),
            Err(BayesError::InvalidOption { .. })
        ));
    }

    #[test]
    fn marginal_quantile_handles_zero_mass_leading_cells() {
        // All mass sits on the last two nodes; the leading cells are
        // exactly empty, as happens when the integration box is much
        // wider than the posterior.
        let nodes = [1.0, 2.0, 3.0, 4.0, 5.0];
        let masses = [0.0, 0.0, 0.0, 0.5, 0.5];
        let (lo, hi) = (0.0, 6.0);
        // Endpoints are exact.
        assert_eq!(
            NintPosterior::marginal_quantile(&nodes, &masses, lo, hi, 0.0),
            lo
        );
        assert_eq!(
            NintPosterior::marginal_quantile(&nodes, &masses, lo, hi, 1.0),
            hi
        );
        // A small p must not be dragged into the empty leading region:
        // the CDF is flat up to node 3, so every quantile lies at or
        // beyond it.
        let q01 = NintPosterior::marginal_quantile(&nodes, &masses, lo, hi, 0.01);
        assert!((3.0..4.0).contains(&q01), "q01={q01}");
        // The median of a symmetric two-node mass is between the nodes.
        let q50 = NintPosterior::marginal_quantile(&nodes, &masses, lo, hi, 0.5);
        assert!((4.0..=5.0).contains(&q50), "q50={q50}");
        // Quantiles are monotone in p.
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=20 {
            let q = NintPosterior::marginal_quantile(&nodes, &masses, lo, hi, k as f64 / 20.0);
            assert!(q >= prev, "p={}: {q} < {prev}", k as f64 / 20.0);
            prev = q;
        }
        assert!(NintPosterior::marginal_quantile(&nodes, &masses, lo, hi, -0.1).is_nan());
        assert!(NintPosterior::marginal_quantile(&nodes, &masses, lo, hi, 1.1).is_nan());
    }

    #[test]
    fn grouped_case_fits() {
        let data: ObservedData = sys17::grouped().into();
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_grouped();
        let lap = LaplacePosterior::fit(spec, prior, &data).unwrap();
        let post = NintPosterior::fit(
            spec,
            prior,
            &data,
            bounds_from_posterior(&lap),
            NintOptions::default(),
        )
        .unwrap();
        assert!(post.mean_omega() > 38.0 && post.mean_omega() < 60.0);
        assert!(post.covariance() < 0.0);
    }
}
