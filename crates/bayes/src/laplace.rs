//! Laplace approximation (LAPL): bivariate normal at the MAP estimate.
//!
//! The joint posterior is approximated by `N(μ̂_MAP, (−H)⁻¹)` where `H` is
//! the Hessian of the log-posterior at the MAP (§4.2 of the paper). With a
//! flat prior this reduces to the classical MLE confidence ellipsoid of
//! Yamada & Osaki (1985).
//!
//! Because the true posterior is right-skewed, this method centres its
//! approximation below the true posterior mean — the systematic
//! left-shift the paper documents in Tables 1–3 — and its delta-method
//! reliability intervals can leave `[0, 1]` (the angle-bracketed entries
//! in Tables 4–5). Both behaviours are reproduced faithfully rather than
//! patched over, since they are the phenomenon under study; the only
//! clamping applied is `max(lower, 0)` never being taken.

use crate::error::BayesError;
use nhpp_data::ObservedData;
use nhpp_models::prior::NhppPrior;
use nhpp_models::{dg_dbeta, fit_map, FitOptions, GammaNhpp, LogPosterior, ModelSpec, Posterior};
use nhpp_numeric::linalg::SymMat2;
use nhpp_special::norm_ppf;

/// The Laplace (bivariate normal) posterior approximation.
#[derive(Debug, Clone)]
pub struct LaplacePosterior {
    spec: ModelSpec,
    map: (f64, f64),
    cov: SymMat2,
    map_model: GammaNhpp,
    log_posterior_at_map: f64,
}

impl LaplacePosterior {
    /// Fits the Laplace approximation: MAP via EM, covariance from the
    /// analytic Hessian of the log-posterior.
    ///
    /// # Errors
    ///
    /// * [`BayesError::Model`] if the MAP fit fails.
    /// * [`BayesError::IllPosed`] if the negative Hessian at the MAP is
    ///   not positive definite (no valid normal approximation exists).
    pub fn fit(spec: ModelSpec, prior: NhppPrior, data: &ObservedData) -> Result<Self, BayesError> {
        let fit = fit_map(spec, prior, data, FitOptions::default())?;
        let (omega, beta) = (fit.model.omega(), fit.model.beta());
        let lp = LogPosterior::new(spec, prior, data);
        let hess = lp.hessian(omega, beta);
        let neg = SymMat2::new(-hess.a11, -hess.a12, -hess.a22);
        if !neg.is_positive_definite() {
            return Err(BayesError::IllPosed {
                message: format!(
                    "negative Hessian at MAP ({omega}, {beta}) is not positive definite: {neg:?}"
                ),
            });
        }
        let cov = neg.inverse().expect("positive definite matrices invert");
        Ok(LaplacePosterior {
            spec,
            map: (omega, beta),
            cov,
            map_model: fit.model,
            log_posterior_at_map: fit.log_posterior,
        })
    }

    /// Unnormalised log-posterior value at the MAP (useful for Laplace
    /// evidence approximations).
    pub fn log_posterior_at_map(&self) -> f64 {
        self.log_posterior_at_map
    }

    /// Laplace approximation of the log marginal likelihood (evidence):
    /// `ln P(D) ≈ ln P(D, μ̂) + ln(2π) + ½ ln det Σ`.
    pub fn log_evidence(&self) -> f64 {
        self.log_posterior_at_map + (2.0 * std::f64::consts::PI).ln() + 0.5 * self.cov.det().ln()
    }

    /// Plug-in predictive distribution of failures in `(t, t+u]`:
    /// `Poisson(λ̂)` at the MAP estimate (no parameter-uncertainty
    /// inflation — the same limitation as the delta-method intervals).
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
        let lambda = self.map_model.reliability_exponent(t, u);
        let mut pmf = Vec::new();
        let mut value = (-lambda).exp();
        let mut cumulative = 0.0;
        for k in 0..100_000usize {
            pmf.push(value);
            cumulative += value;
            if cumulative >= 1.0 - 1e-12 {
                break;
            }
            value *= lambda / (k as f64 + 1.0);
        }
        nhpp_models::prediction::PredictiveCounts::from_pmf(pmf).map_err(|e| BayesError::IllPosed {
            message: e.to_string(),
        })
    }

    /// Delta-method standard deviation of `R(t+u | t)` at the MAP.
    fn reliability_sd(&self, t: f64, u: f64) -> f64 {
        let (omega, beta) = self.map;
        let a0 = self.spec.alpha0();
        let r = self.map_model.reliability(t, u);
        let c = self.map_model.reliability_exponent(t, u) / omega;
        let dc_dbeta = dg_dbeta(a0, beta, t + u) - dg_dbeta(a0, beta, t);
        // ∇R = (−c·R, −ω·c'(β)·R)
        let grad = (-c * r, -omega * dc_dbeta * r);
        self.cov.quadratic_form(grad).max(0.0).sqrt()
    }
}

impl Posterior for LaplacePosterior {
    fn method_name(&self) -> &'static str {
        "LAPL"
    }

    fn mean_omega(&self) -> f64 {
        self.map.0
    }

    fn mean_beta(&self) -> f64 {
        self.map.1
    }

    fn var_omega(&self) -> f64 {
        self.cov.a11
    }

    fn var_beta(&self) -> f64 {
        self.cov.a22
    }

    fn covariance(&self) -> f64 {
        self.cov.a12
    }

    fn central_moment_omega(&self, k: u32) -> f64 {
        // Normal central moments: 0 for odd k, σ², 3σ⁴.
        match k {
            0 => 1.0,
            1 | 3 => 0.0,
            2 => self.cov.a11,
            4 => 3.0 * self.cov.a11 * self.cov.a11,
            _ => panic!("central moments implemented up to order 4"),
        }
    }

    /// Normal marginal quantile; **may be negative** for diffuse
    /// posteriors — the paper prints such values in angle brackets
    /// (Table 3, `D_G`-NoInfo) and we return them unclamped.
    fn quantile_omega(&self, p: f64) -> f64 {
        self.map.0 + self.cov.a11.sqrt() * norm_ppf(p)
    }

    fn quantile_beta(&self, p: f64) -> f64 {
        self.map.1 + self.cov.a22.sqrt() * norm_ppf(p)
    }

    fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64> {
        let inv = self.cov.inverse()?;
        let d = (omega - self.map.0, beta - self.map.1);
        Some(
            -(2.0 * std::f64::consts::PI).ln()
                - 0.5 * self.cov.det().ln()
                - 0.5 * inv.quadratic_form(d),
        )
    }

    /// Plug-in point estimate `R(ω̂_MAP, β̂_MAP)` (§6 of the paper).
    fn reliability_point(&self, t: f64, u: f64) -> f64 {
        self.map_model.reliability(t, u)
    }

    /// Delta-method quantile `R̂ + z_p·sd(R)`; may exceed `[0, 1]`,
    /// reproducing the paper's angle-bracketed entries.
    fn reliability_quantile(&self, t: f64, u: f64, p: f64) -> f64 {
        self.map_model.reliability(t, u) + norm_ppf(p) * self.reliability_sd(t, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::sys17;

    fn fit_times_info() -> LaplacePosterior {
        LaplacePosterior::fit(
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
        )
        .unwrap()
    }

    #[test]
    fn moments_are_sane() {
        let post = fit_times_info();
        assert!(post.mean_omega() > 38.0 && post.mean_omega() < 60.0);
        assert!(post.mean_beta() > 5e-6 && post.mean_beta() < 2e-5);
        assert!(post.var_omega() > 0.0);
        assert!(post.var_beta() > 0.0);
        // ω and β are negatively correlated in NHPP posteriors.
        assert!(post.covariance() < 0.0);
    }

    #[test]
    fn map_is_stationary_point() {
        let post = fit_times_info();
        let data: ObservedData = sys17::failure_times().into();
        let lp = LogPosterior::new(
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_times(),
            &data,
        );
        let g = lp.grad(post.map.0, post.map.1);
        assert!(g[0].abs() < 1e-5, "score = {g:?}");
    }

    #[test]
    fn quantiles_are_normal() {
        let post = fit_times_info();
        let (lo, hi) = post.credible_interval_omega(0.99);
        let z = norm_ppf(0.995);
        assert!((hi - (post.mean_omega() + z * post.var_omega().sqrt())).abs() < 1e-9);
        assert!((lo - (post.mean_omega() - z * post.var_omega().sqrt())).abs() < 1e-9);
        // Median equals the MAP.
        assert!((post.quantile_omega(0.5) - post.mean_omega()).abs() < 1e-12);
    }

    #[test]
    fn density_integrates_to_one_on_a_wide_box() {
        let post = fit_times_info();
        // Coarse Riemann check over ±6σ.
        let (mw, mb) = post.map;
        let (sw, sb) = (post.var_omega().sqrt(), post.var_beta().sqrt());
        let n = 200;
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                let w = mw - 6.0 * sw + 12.0 * sw * (i as f64 + 0.5) / n as f64;
                let b = mb - 6.0 * sb + 12.0 * sb * (j as f64 + 0.5) / n as f64;
                acc += post.ln_joint_density(w, b).unwrap().exp();
            }
        }
        acc *= (12.0 * sw / n as f64) * (12.0 * sb / n as f64);
        assert!((acc - 1.0).abs() < 1e-3, "mass={acc}");
    }

    #[test]
    fn reliability_point_is_plugin() {
        let post = fit_times_info();
        let (w, b) = post.map;
        let model = GammaNhpp::new(ModelSpec::goel_okumoto(), w, b).unwrap();
        let r = post.reliability_point(sys17::T_END, 1000.0);
        assert!((r - model.reliability(sys17::T_END, 1000.0)).abs() < 1e-14);
        assert!(r > 0.9 && r <= 1.0);
    }

    #[test]
    fn reliability_interval_is_symmetric_and_can_exceed_one() {
        let post = fit_times_info();
        let t = sys17::T_END;
        let r = post.reliability_point(t, 1000.0);
        let (lo, hi) = post.reliability_interval(t, 1000.0, 0.99);
        assert!((0.5 * (lo + hi) - r).abs() < 1e-10);
        assert!(lo < r && r < hi);
        // For long missions the normal approximation leaves [0, 1]
        // (the same pathology as the paper's angle-bracketed entries).
        let (lo_long, _) = post.reliability_interval(t, 100_000.0, 0.99);
        assert!(lo_long < 0.0, "lo={lo_long}");
    }

    #[test]
    fn grouped_fit_works() {
        let post = LaplacePosterior::fit(
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_grouped(),
            &sys17::grouped().into(),
        )
        .unwrap();
        assert!(post.mean_omega() > 38.0 && post.mean_omega() < 60.0);
        assert!(post.mean_beta() > 1e-2 && post.mean_beta() < 8e-2);
        assert!(post.covariance() < 0.0);
    }

    #[test]
    fn evidence_is_finite() {
        let post = fit_times_info();
        assert!(post.log_evidence().is_finite());
    }
}
