//! VB1 — the fully factorised variational baseline (Okamura, Sakoh &
//! Dohi 2006), reimplemented for comparison.
//!
//! VB1 assumes `Pᵥ(U, μ) = Pᵥ(U)·Pᵥ(ω)·Pᵥ(β)` (the paper's Eq. (15)):
//! the latent data and the two parameters are *all* independent under
//! the variational measure. Coordinate ascent then gives
//!
//! * `q(ω) = Gamma(m_ω + E[N], φ_ω + 1)`
//! * `q(β) = Gamma(m_β + α₀·E[N], φ_β + E[ΣT])`
//! * a Poisson residual count: `N − m ~ Poisson(λ)` with
//!   `λ = exp(E[ln ω]) · e^{α₀·E[ln β]} · ξ^{−α₀} · S(t_end; α₀, ξ)·Γ-mass`
//!   where `ξ = E[β]`, and latent times distributed as `Gamma(α₀, ξ)`
//!   truncated to their censoring regions.
//!
//! The resulting posterior is a **single product of independent Gammas**:
//! its ω–β covariance is structurally zero and both variances are
//! underestimated, which is precisely the deficiency motivating VB2
//! (Tables 1–5 of the paper).

use crate::endpoint::{ln_mass_between, mean_from_masses, Endpoint};
use crate::error::VbError;
use crate::fault::FaultKind;
use crate::reliability;
use nhpp_data::ObservedData;
use nhpp_dist::{Gamma, GammaProductMixture, MixtureComponent};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_numeric::Budget;
use nhpp_special::{digamma, ln_gamma};
use std::time::Duration;

/// Options for the VB1 fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vb1Options {
    /// Relative convergence tolerance on `(E[N], ξ)`.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Wall-clock deadline for the fit, observed cooperatively once
    /// per sweep (see [`Budget`]).
    pub deadline: Option<Duration>,
    /// Forced numerical pathology (deterministic fault injection for
    /// the robustness tests; `None` in production).
    pub fault: Option<FaultKind>,
}

impl Default for Vb1Options {
    fn default() -> Self {
        Vb1Options {
            tol: 1e-12,
            max_iter: 100_000,
            deadline: None,
            fault: None,
        }
    }
}

/// The VB1 variational posterior: independent Gammas for `ω` and `β`.
#[derive(Debug, Clone)]
pub struct Vb1Posterior {
    spec: ModelSpec,
    omega: Gamma,
    beta: Gamma,
    /// Poisson mean of the residual fault count `N − m`.
    residual_mean: f64,
    iterations: usize,
    /// Single-component mixture view for the shared reliability code.
    mixture: GammaProductMixture,
}

impl Vb1Posterior {
    /// Runs the VB1 coordinate ascent to convergence.
    ///
    /// # Errors
    ///
    /// * [`VbError::InvalidOption`] for a non-positive tolerance.
    /// * [`VbError::NoConvergence`] if the iteration budget is exhausted.
    pub fn fit(
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        options: Vb1Options,
    ) -> Result<Self, VbError> {
        if !(options.tol > 0.0) {
            return Err(VbError::InvalidOption {
                message: "tol must be positive",
            });
        }
        let alpha0 = spec.alpha0();
        let (a_w, r_w) = prior.omega.shape_rate();
        let (a_b, r_b) = prior.beta.shape_rate();
        let t_end = data.observation_end();
        let m = data.total_count() as f64;
        // Hoisted out of the sweep: every incomplete-gamma quantity in
        // the loop shares these two log-gamma values.
        let gln = ln_gamma(alpha0);
        let gln1 = ln_gamma(alpha0 + 1.0);

        // Initial guesses: no residual faults, β matched to the data span.
        let mut expected_n = m.max(1.0);
        let mut xi = alpha0 * (m + 1.0) / t_end.max(f64::MIN_POSITIVE);
        let mut lambda;

        // Pace the wall clock cooperatively; the iteration limit is
        // already the loop bound below.
        let mut clock = Budget::unlimited();
        if let Some(timeout) = options.deadline {
            clock = clock.with_deadline(timeout);
        }

        for iter in 0..options.max_iter {
            clock.charge(1).map_err(VbError::from)?;
            let a_omega = a_w + expected_n;
            let rate_omega = r_w + 1.0;
            // E[ln ω] under the current q(ω).
            let e_ln_omega = digamma(a_omega) - rate_omega.ln();

            // Current q(β) statistics come from the previous sweep's
            // sufficient statistics; reconstruct from ξ and the shape.
            let b_shape = a_b + alpha0 * expected_n;
            let rate_beta = b_shape / xi;
            let e_ln_beta = digamma(b_shape) - rate_beta.ln();

            // Validates ξ — a poisoned sweep pushes NaN through here,
            // which must surface as an error rather than run the loop
            // to its iteration limit.
            Gamma::new(alpha0, xi)?;

            // Residual-count factor: r ~ Poisson(λ),
            // λ = exp(E[ln ω] + α₀ E[ln β] − α₀ ln ξ + ln Q(α₀, ξ t_end)).
            // One tail evaluation serves both λ and the censored mean.
            let (ln_q_tail, ln_q1_tail) = Endpoint::eval_tail(alpha0, xi, t_end, gln, gln1);
            lambda = (e_ln_omega + alpha0 * e_ln_beta - alpha0 * xi.ln() + ln_q_tail).exp();

            // E-step style expectations under the factorised posterior.
            let tail_mean = if lambda > 0.0 {
                mean_from_masses(alpha0, xi, ln_q_tail, ln_q1_tail)
            } else {
                0.0
            };
            let expected_sum = match data {
                ObservedData::Times(d) => d.sum_times() + lambda * tail_mean,
                ObservedData::Grouped(d) => {
                    let mut acc = lambda * tail_mean;
                    let mut prev: Option<Endpoint> = None;
                    for (lo, hi, count) in d.intervals() {
                        if count > 0 {
                            let e_lo = match prev {
                                Some(e) if e.t == lo => e,
                                _ => Endpoint::eval(alpha0, xi, lo, gln, gln1),
                            };
                            let e_hi = Endpoint::eval(alpha0, xi, hi, gln, gln1);
                            let ln_mass =
                                ln_mass_between(e_lo.ln_p, e_lo.ln_q, e_hi.ln_p, e_hi.ln_q);
                            let ln_mass1 =
                                ln_mass_between(e_lo.ln_p1, e_lo.ln_q1, e_hi.ln_p1, e_hi.ln_q1);
                            acc += count as f64 * mean_from_masses(alpha0, xi, ln_mass, ln_mass1);
                            prev = Some(e_hi);
                        }
                    }
                    acc
                }
            };

            let expected_sum = match options.fault {
                // Poisoning E[ΣT] sends NaN through ξ into the next
                // sweep's Gamma construction, which rejects it.
                Some(FaultKind::NanZeta) => f64::NAN,
                _ => expected_sum,
            };
            let expected_n_new = m + lambda;
            let b_shape_new = a_b + alpha0 * expected_n_new;
            let mut xi_new = b_shape_new / (r_b + expected_sum);
            if options.fault == Some(FaultKind::StallInner) {
                // Alternating super-tolerance perturbation: a constant
                // factor would merely shift the fixed point, so flip it
                // each sweep — consecutive iterates then never agree to
                // within the convergence tolerance.
                let eps = 1e3 * options.tol;
                xi_new *= if iter % 2 == 0 {
                    1.0 + eps
                } else {
                    1.0 / (1.0 + eps)
                };
            }

            let delta = ((expected_n_new - expected_n) / expected_n.max(1.0))
                .abs()
                .max(((xi_new - xi) / xi).abs());
            expected_n = expected_n_new;
            xi = xi_new;
            if delta <= options.tol {
                let omega = Gamma::new(a_w + expected_n, r_w + 1.0)?;
                let beta = Gamma::new(a_b + alpha0 * expected_n, (a_b + alpha0 * expected_n) / xi)?;
                let mixture = GammaProductMixture::new(vec![MixtureComponent {
                    weight: 1.0,
                    omega,
                    beta,
                }])?;
                return Ok(Vb1Posterior {
                    spec,
                    omega,
                    beta,
                    residual_mean: lambda,
                    iterations: iter + 1,
                    mixture,
                });
            }
        }
        Err(VbError::NoConvergence {
            context: "VB1 coordinate ascent",
            iterations: options.max_iter,
        })
    }

    /// Poisson mean of the residual fault count `E[N] − m`.
    pub fn residual_mean(&self) -> f64 {
        self.residual_mean
    }

    /// Coordinate-ascent sweeps used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Posterior-predictive distribution of the number of failures in
    /// the future window `(t, t+u]`.
    ///
    /// # Errors
    ///
    /// [`VbError::InvalidOption`] for an empty window.
    pub fn predictive_failures(
        &self,
        t: f64,
        u: f64,
    ) -> Result<nhpp_models::prediction::PredictiveCounts, VbError> {
        crate::prediction::predictive_counts(&self.mixture, self.spec, t, u, 1e-10)
    }
}

impl Posterior for Vb1Posterior {
    fn method_name(&self) -> &'static str {
        "VB1"
    }

    fn mean_omega(&self) -> f64 {
        use nhpp_dist::Continuous;
        self.omega.mean()
    }

    fn mean_beta(&self) -> f64 {
        use nhpp_dist::Continuous;
        self.beta.mean()
    }

    fn var_omega(&self) -> f64 {
        use nhpp_dist::Continuous;
        self.omega.variance()
    }

    fn var_beta(&self) -> f64 {
        use nhpp_dist::Continuous;
        self.beta.variance()
    }

    /// Structurally zero: the factorised family cannot represent any
    /// ω–β dependence (the deficiency Table 1 reports as `0` / `−100%`).
    fn covariance(&self) -> f64 {
        0.0
    }

    fn central_moment_omega(&self, k: u32) -> f64 {
        self.mixture.marginal_omega().central_moment(k)
    }

    fn quantile_omega(&self, p: f64) -> f64 {
        use nhpp_dist::Continuous;
        self.omega.quantile(p)
    }

    fn quantile_beta(&self, p: f64) -> f64 {
        use nhpp_dist::Continuous;
        self.beta.quantile(p)
    }

    fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64> {
        use nhpp_dist::Continuous;
        Some(self.omega.ln_pdf(omega) + self.beta.ln_pdf(beta))
    }

    fn reliability_point(&self, t: f64, u: f64) -> f64 {
        reliability::reliability_point(&self.mixture, self.spec, t, u)
    }

    fn reliability_quantile(&self, t: f64, u: f64, p: f64) -> f64 {
        reliability::reliability_quantile(&self.mixture, self.spec, t, u, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::sys17;

    fn spec() -> ModelSpec {
        ModelSpec::goel_okumoto()
    }

    fn fit_times_info() -> Vb1Posterior {
        Vb1Posterior::fit(
            spec(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb1Options::default(),
        )
        .unwrap()
    }

    #[test]
    fn converges_to_plausible_region() {
        let post = fit_times_info();
        assert!(
            post.mean_omega() > 38.0 && post.mean_omega() < 50.0,
            "{}",
            post.mean_omega()
        );
        assert!(
            post.mean_beta() > 8e-6 && post.mean_beta() < 1.4e-5,
            "{}",
            post.mean_beta()
        );
        assert!(post.residual_mean() > 0.0);
        assert!(post.iterations() > 1);
    }

    #[test]
    fn covariance_is_structurally_zero() {
        let post = fit_times_info();
        assert_eq!(post.covariance(), 0.0);
    }

    #[test]
    fn grouped_fit_works() {
        let post = Vb1Posterior::fit(
            spec(),
            NhppPrior::paper_info_grouped(),
            &sys17::grouped().into(),
            Vb1Options::default(),
        )
        .unwrap();
        assert!(
            post.mean_omega() > 38.0 && post.mean_omega() < 55.0,
            "{}",
            post.mean_omega()
        );
        assert!(
            post.mean_beta() > 1.5e-2 && post.mean_beta() < 6e-2,
            "{}",
            post.mean_beta()
        );
        assert_eq!(post.covariance(), 0.0);
    }

    #[test]
    fn quantiles_follow_the_gamma_marginals() {
        use nhpp_dist::Continuous;
        let post = fit_times_info();
        for &p in &[0.005, 0.5, 0.995] {
            assert_eq!(post.quantile_omega(p), post.omega.quantile(p));
            assert_eq!(post.quantile_beta(p), post.beta.quantile(p));
        }
    }

    #[test]
    fn reliability_in_unit_interval() {
        let post = fit_times_info();
        let t = sys17::T_END;
        let r = post.reliability_point(t, 10_000.0);
        let (lo, hi) = post.reliability_interval(t, 10_000.0, 0.99);
        assert!(
            0.0 < lo && lo < r && r < hi && hi <= 1.0,
            "({lo}, {r}, {hi})"
        );
    }

    #[test]
    fn rejects_bad_tolerance() {
        let err = Vb1Posterior::fit(
            spec(),
            NhppPrior::flat(),
            &sys17::failure_times().into(),
            Vb1Options {
                tol: -1.0,
                ..Vb1Options::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, VbError::InvalidOption { .. }));
    }

    #[test]
    fn ln_density_is_separable() {
        use nhpp_dist::Continuous;
        let post = fit_times_info();
        let d = post.ln_joint_density(40.0, 1e-5).unwrap();
        let expected = post.omega.ln_pdf(40.0) + post.beta.ln_pdf(1e-5);
        assert!((d - expected).abs() < 1e-12);
    }
}
