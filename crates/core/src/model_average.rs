//! Bayesian model averaging over the gamma-type family.
//!
//! The paper fixes the failure-law shape `α₀` per model (GO: 1, delayed
//! S-shaped: 2). When the family itself is uncertain, the Bayesian
//! answer is to average: fit VB2 for each candidate `α₀`, weight each
//! model by its (ELBO-approximated) marginal likelihood, and report
//! model-averaged summaries. Because each per-model posterior is already
//! a Gamma-product mixture, the average is just a bigger mixture — every
//! summary stays closed-form or one-dimensional.
//!
//! This is an extension beyond the paper (`DESIGN.md` §7), building on
//! its observation that the VB posterior is analytically tractable.

use crate::error::VbError;
use crate::reliability;
use crate::vb2::{Vb2Options, Vb2Posterior};
use nhpp_data::ObservedData;
use nhpp_dist::{Continuous, Gamma, GammaMixture, MixtureComponent};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_special::log_sum_exp;

/// One averaged-over candidate.
#[derive(Debug, Clone)]
pub struct ModelComponent {
    /// The candidate specification.
    pub spec: ModelSpec,
    /// Posterior model probability (ELBO-based, uniform model prior).
    pub weight: f64,
    /// The fitted VB2 posterior under this candidate.
    pub posterior: Vb2Posterior,
}

/// A model-averaged posterior over the gamma-type family.
///
/// Note on interpretation: `ω` (expected total faults) means the same
/// thing under every candidate, so its averaged summaries are directly
/// meaningful. `β` is the per-stage rate of a *different* failure law
/// per candidate; its averaged moments are reported for completeness
/// but are only comparable across models through derived quantities
/// (reliability, mean value function).
#[derive(Debug, Clone)]
pub struct AveragedPosterior {
    components: Vec<ModelComponent>,
}

impl AveragedPosterior {
    /// Fits VB2 for every candidate shape and weights the models by
    /// `exp(ELBO)` under a uniform model prior.
    ///
    /// # Errors
    ///
    /// * [`VbError::InvalidOption`] for an empty candidate list.
    /// * Propagates the first per-candidate fitting failure.
    pub fn fit(
        candidates: &[ModelSpec],
        prior: NhppPrior,
        data: &ObservedData,
        options: Vb2Options,
    ) -> Result<Self, VbError> {
        if candidates.is_empty() {
            return Err(VbError::InvalidOption {
                message: "at least one candidate is required",
            });
        }
        let mut fits = Vec::with_capacity(candidates.len());
        for &spec in candidates {
            fits.push((spec, Vb2Posterior::fit(spec, prior, data, options)?));
        }
        let elbos: Vec<f64> = fits.iter().map(|(_, p)| p.elbo()).collect();
        let lse = log_sum_exp(&elbos);
        let components = fits
            .into_iter()
            .zip(elbos)
            .map(|((spec, posterior), elbo)| ModelComponent {
                spec,
                weight: (elbo - lse).exp(),
                posterior,
            })
            .collect();
        Ok(AveragedPosterior { components })
    }

    /// The candidates with their posterior model probabilities.
    pub fn components(&self) -> &[ModelComponent] {
        &self.components
    }

    /// The highest-probability candidate.
    pub fn best(&self) -> &ModelComponent {
        self.components
            .iter()
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).expect("weights are finite"))
            .expect("validated non-empty")
    }

    /// The model-averaged marginal of `ω` as one big Gamma mixture.
    pub fn marginal_omega(&self) -> GammaMixture {
        self.marginal(|mc| mc.omega)
    }

    fn marginal(&self, coordinate: fn(&MixtureComponent) -> Gamma) -> GammaMixture {
        let parts: Vec<(f64, Gamma)> = self
            .components
            .iter()
            .flat_map(|c| {
                let scale = c.weight;
                c.posterior
                    .mixture()
                    .components()
                    .iter()
                    .map(move |mc| (scale * mc.weight, coordinate(mc)))
                    .collect::<Vec<_>>()
            })
            .collect();
        GammaMixture::new(parts).expect("weights are non-negative with positive sum")
    }

    fn weighted<F: Fn(&Vb2Posterior) -> f64>(&self, f: F) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * f(&c.posterior))
            .sum()
    }
}

impl Posterior for AveragedPosterior {
    fn method_name(&self) -> &'static str {
        "VB2-AVG"
    }

    fn mean_omega(&self) -> f64 {
        self.weighted(|p| p.mean_omega())
    }

    fn mean_beta(&self) -> f64 {
        self.weighted(|p| p.mean_beta())
    }

    fn var_omega(&self) -> f64 {
        let m = self.mean_omega();
        self.weighted(|p| p.var_omega() + p.mean_omega().powi(2)) - m * m
    }

    fn var_beta(&self) -> f64 {
        let m = self.mean_beta();
        self.weighted(|p| p.var_beta() + p.mean_beta().powi(2)) - m * m
    }

    fn covariance(&self) -> f64 {
        let mw = self.mean_omega();
        let mb = self.mean_beta();
        self.weighted(|p| p.covariance() + p.mean_omega() * p.mean_beta()) - mw * mb
    }

    fn central_moment_omega(&self, k: u32) -> f64 {
        self.marginal_omega().central_moment(k)
    }

    fn quantile_omega(&self, p: f64) -> f64 {
        self.marginal_omega().quantile(p)
    }

    fn quantile_beta(&self, p: f64) -> f64 {
        self.marginal(|mc| mc.beta).quantile(p)
    }

    fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64> {
        let terms: Vec<f64> = self
            .components
            .iter()
            .map(|c| c.weight.ln() + c.posterior.mixture().ln_pdf(omega, beta))
            .collect();
        Some(log_sum_exp(&terms))
    }

    fn reliability_point(&self, t: f64, u: f64) -> f64 {
        self.weighted(|p| p.reliability_point(t, u))
    }

    fn reliability_quantile(&self, t: f64, u: f64, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        let cdf = |x: f64| {
            self.components
                .iter()
                .map(|c| {
                    c.weight * reliability::reliability_cdf(c.posterior.mixture(), c.spec, t, u, x)
                })
                .sum::<f64>()
        };
        nhpp_numeric::roots::bisect(|x| cdf(x) - p, 0.0, 1.0, 1e-10, 200).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::simulate::NhppSimulator;
    use nhpp_data::sys17;
    use nhpp_dist::Gamma;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn go_dss() -> Vec<ModelSpec> {
        vec![ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()]
    }

    #[test]
    fn go_generated_data_puts_weight_on_go() {
        let avg = AveragedPosterior::fit(
            &go_dss(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb2Options::default(),
        )
        .unwrap();
        let go_weight = avg
            .components()
            .iter()
            .find(|c| c.spec.is_goel_okumoto())
            .unwrap()
            .weight;
        assert!(go_weight > 0.8, "GO weight {go_weight}");
        assert!(avg.best().spec.is_goel_okumoto());
        let total: f64 = avg.components().iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn dss_generated_data_puts_weight_on_dss() {
        let law = Gamma::new(2.0, 4e-4).unwrap();
        let sim = NhppSimulator::new(120.0, law).unwrap();
        let mut rng = StdRng::seed_from_u64(314);
        let data: ObservedData = sim.simulate_censored(&mut rng, 25_000.0).unwrap().into();
        let prior = NhppPrior::informative(
            Gamma::from_mean_sd(120.0, 60.0).unwrap(),
            Gamma::from_mean_sd(4e-4, 2e-4).unwrap(),
        );
        let avg = AveragedPosterior::fit(&go_dss(), prior, &data, Vb2Options::default()).unwrap();
        assert!(
            !avg.best().spec.is_goel_okumoto(),
            "best = {:?}",
            avg.best().spec
        );
    }

    #[test]
    fn averaged_summaries_interpolate_the_components() {
        let avg = AveragedPosterior::fit(
            &go_dss(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb2Options::default(),
        )
        .unwrap();
        let means: Vec<f64> = avg
            .components()
            .iter()
            .map(|c| c.posterior.mean_omega())
            .collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0f64, f64::max);
        let m = avg.mean_omega();
        assert!(m >= lo - 1e-9 && m <= hi + 1e-9, "{lo} <= {m} <= {hi}");
        // Between-model spread only adds variance.
        let min_var = avg
            .components()
            .iter()
            .map(|c| c.posterior.var_omega())
            .fold(f64::INFINITY, f64::min);
        assert!(avg.var_omega() >= 0.9 * min_var);
        // Marginal quantiles invert the mixture CDF.
        let q = avg.quantile_omega(0.75);
        assert!((avg.marginal_omega().cdf(q) - 0.75).abs() < 1e-7);
        // The β marginal is the per-model β marginals, weighted.
        let q = avg.quantile_beta(0.75);
        let per_model: f64 = avg
            .components()
            .iter()
            .map(|c| c.weight * c.posterior.marginal_beta().cdf(q))
            .sum();
        assert!((per_model - 0.75).abs() < 1e-12, "{per_model}");
    }

    #[test]
    fn averaged_reliability_is_weighted_and_proper() {
        let avg = AveragedPosterior::fit(
            &go_dss(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb2Options::default(),
        )
        .unwrap();
        let t = sys17::T_END;
        let r = avg.reliability_point(t, 10_000.0);
        assert!(r > 0.0 && r < 1.0);
        let (lo, hi) = avg.reliability_interval(t, 10_000.0, 0.99);
        assert!(
            0.0 < lo && lo < r && r < hi && hi <= 1.0,
            "({lo}, {r}, {hi})"
        );
    }

    #[test]
    fn empty_candidate_list_rejected() {
        let err = AveragedPosterior::fit(
            &[],
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb2Options::default(),
        )
        .unwrap_err();
        assert!(matches!(err, VbError::InvalidOption { .. }));
    }
}
