//! Markov chain Monte Carlo posterior sampling (MCMC).
//!
//! [`McmcPosterior::fit_gibbs`] is the Kuo & Yang (1995/96) Gibbs scheme
//! of §4.3, generalised to gamma-type models and to grouped data: the
//! residual fault count `N̄` is drawn from `Poisson(ω·S(t_end; α₀, β))`
//! (Eq. (9)), then `ω` and `β` from their conjugate Gamma conditionals
//! (Eqs. (10)–(11) with proper priors). For the Goel–Okumoto case the
//! censored-tail times integrate out of the `β`-conditional exactly as
//! in the paper, giving 3 random variates per sweep for failure-time
//! data and `3 + Σxᵢ` for grouped data (within-bin times are re-imputed
//! each sweep by truncated-gamma data augmentation, Tanner & Wong 1987).
//! For `α₀ ≠ 1` the tail times are augmented explicitly.
//!
//! A note on the flat-prior conditionals: the paper's Eq. (10) reads
//! `ω | N̄ ~ Gamma(m_e + N̄, 1)`, which corresponds to the improper
//! `1/ω` prior; a genuinely *flat density* (the NoInfo scenario as
//! described in §6) gives shape `m_e + N̄ + 1`. We implement the
//! conjugate update for the declared prior — flat density ≡ `Gamma(1, 0)`
//! — and note the one-count discrepancy here.

use crate::error::BayesError;
use nhpp_data::ObservedData;
use nhpp_dist::{Continuous, Gamma, Poisson, Sample, TruncatedGamma};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{LogPosterior, ModelSpec, Posterior};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options for the MCMC sampler, defaulting to the paper's §6 settings:
/// 10 000 burn-in sweeps, thinning 10, 20 000 retained samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McmcOptions {
    /// Burn-in sweeps discarded before collection.
    pub burn_in: usize,
    /// Collect one sample every `thin` sweeps.
    pub thin: usize,
    /// Number of samples retained.
    pub n_samples: usize,
    /// RNG seed (the sampler is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for McmcOptions {
    fn default() -> Self {
        McmcOptions {
            burn_in: 10_000,
            thin: 10,
            n_samples: 20_000,
            seed: 0x5EED,
        }
    }
}

impl McmcOptions {
    /// A light-weight configuration for tests (2 000 samples, thin 2).
    pub fn fast(seed: u64) -> Self {
        McmcOptions {
            burn_in: 2_000,
            thin: 2,
            n_samples: 2_000,
            seed,
        }
    }
}

/// Posterior represented by retained MCMC samples.
#[derive(Debug, Clone)]
pub struct McmcPosterior {
    spec: ModelSpec,
    omega: Vec<f64>,
    beta: Vec<f64>,
    sorted_omega: Vec<f64>,
    sorted_beta: Vec<f64>,
    variate_count: u64,
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    // IEEE total order: NaN sorts to the ends instead of aborting the
    // process, keeping the no-panic policy even for degenerate chains.
    s.sort_by(f64::total_cmp);
    s
}

/// Rejects chains that produced non-finite draws, so the sorted sample
/// arrays backing the quantile lookups are meaningful.
fn validate_finite(name: &'static str, samples: &[f64]) -> Result<(), BayesError> {
    match samples.iter().position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(index) => Err(BayesError::IllPosed {
            message: format!("chain produced a non-finite {name} sample at index {index}"),
        }),
    }
}

/// Linear-interpolation empirical quantile (type-7).
fn empirical_quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

impl McmcPosterior {
    /// Runs the (generalised) Kuo–Yang Gibbs sampler.
    ///
    /// # Errors
    ///
    /// * [`BayesError::InvalidOption`] for zero samples or thinning.
    /// * [`BayesError::IllPosed`] if the chain reaches a state requiring
    ///   more explicit tail imputations than is tractable (only possible
    ///   for `α₀ ≠ 1` under extremely diffuse posteriors) or where a bin
    ///   carries no representable mass.
    pub fn fit_gibbs(
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        options: McmcOptions,
    ) -> Result<Self, BayesError> {
        if options.n_samples == 0 || options.thin == 0 {
            return Err(BayesError::InvalidOption {
                message: "n_samples and thin must be positive",
            });
        }
        let mut rng = StdRng::seed_from_u64(options.seed);
        let lp = LogPosterior::new(spec, prior, data);
        let a0 = spec.alpha0();
        let (a_w, r_w) = prior.omega.shape_rate();
        let (a_b, r_b) = prior.beta.shape_rate();
        let t_end = data.observation_end();
        let m = data.total_count() as f64;

        let (mut omega, mut beta) = lp.rough_start();
        let mut variates: u64 = 0;
        let total_sweeps = options.burn_in + options.thin * options.n_samples;
        let mut omega_samples = Vec::with_capacity(options.n_samples);
        let mut beta_samples = Vec::with_capacity(options.n_samples);

        for sweep in 0..total_sweeps {
            let law = Gamma::new(a0, beta)?;

            // --- residual fault count (Eq. (9) generalised) ---
            let tail_mean = omega * law.sf(t_end);
            let n_tail = Poisson::new(tail_mean)?.sample(&mut rng);
            variates += 1;

            // --- sufficient statistics of the (augmented) detection times ---
            // `beta_shape_data` and `beta_rate_data` accumulate the
            // complete-data contributions to the β-conditional.
            let mut beta_shape_data;
            let mut beta_rate_data;
            match data {
                ObservedData::Times(d) => {
                    beta_shape_data = m * a0;
                    beta_rate_data = d.sum_times();
                }
                ObservedData::Grouped(d) => {
                    // Impute the within-bin detection times (data
                    // augmentation): x_i draws from the bin-truncated law.
                    beta_shape_data = m * a0;
                    beta_rate_data = 0.0;
                    for (lo, hi, count) in d.intervals() {
                        if count > 0 {
                            let bin = TruncatedGamma::new(law, lo, hi).map_err(|e| {
                                BayesError::IllPosed {
                                    message: format!(
                                        "bin ({lo}, {hi}] lost all mass at β={beta}: {e}"
                                    ),
                                }
                            })?;
                            for _ in 0..count {
                                beta_rate_data += bin.sample(&mut rng);
                                variates += 1;
                            }
                        }
                    }
                }
            }

            // --- censored tail ---
            if a0 == 1.0 {
                // Exponential case: the tail times integrate out of the
                // β-conditional (each contributes exactly e^{−β·t_end}),
                // as in Kuo & Yang's Eq. (11). No extra variates.
                beta_rate_data += n_tail as f64 * t_end;
            } else {
                if n_tail > 200_000 {
                    return Err(BayesError::IllPosed {
                        message: format!(
                            "tail imputation of {n_tail} truncated-gamma draws is intractable"
                        ),
                    });
                }
                let tail = TruncatedGamma::new(law, t_end, f64::INFINITY).map_err(|e| {
                    BayesError::IllPosed {
                        message: format!("censored tail lost all mass at β={beta}: {e}"),
                    }
                })?;
                for _ in 0..n_tail {
                    beta_rate_data += tail.sample(&mut rng);
                    variates += 1;
                }
                beta_shape_data += n_tail as f64 * a0;
            }

            // --- conjugate draws (Eqs. (10)–(11) with proper priors) ---
            omega = Gamma::new(a_w + m + n_tail as f64, r_w + 1.0)?.sample(&mut rng);
            beta = Gamma::new(a_b + beta_shape_data, r_b + beta_rate_data)?.sample(&mut rng);
            variates += 2;

            if sweep >= options.burn_in && (sweep - options.burn_in).is_multiple_of(options.thin) {
                omega_samples.push(omega);
                beta_samples.push(beta);
            }
        }
        omega_samples.truncate(options.n_samples);
        beta_samples.truncate(options.n_samples);
        validate_finite("omega", &omega_samples)?;
        validate_finite("beta", &beta_samples)?;
        Ok(McmcPosterior {
            spec,
            sorted_omega: sorted(&omega_samples),
            sorted_beta: sorted(&beta_samples),
            omega: omega_samples,
            beta: beta_samples,
            variate_count: variates,
        })
    }

    /// The retained `(ω, β)` samples (used by Figure 1's scatter plot).
    pub fn samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.omega.iter().copied().zip(self.beta.iter().copied())
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.omega.len()
    }

    /// `true` if no samples were retained (cannot occur after `fit_*`).
    pub fn is_empty(&self) -> bool {
        self.omega.is_empty()
    }

    /// Total random variates generated, the cost metric of the paper's
    /// Table 6.
    pub fn variate_count(&self) -> u64 {
        self.variate_count
    }

    /// Posterior-predictive distribution of the number of failures in
    /// `(t, t+u]`, as the sample average of the per-draw Poisson laws.
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
        let a0 = self.spec.alpha0();
        // Per-sample Poisson means.
        let lambdas: Vec<f64> = self
            .omega
            .iter()
            .zip(&self.beta)
            .map(|(&w, &b)| {
                let law = Gamma::new(a0, b).expect("positive samples");
                w * law.ln_interval_mass(t, t + u).exp()
            })
            .collect();
        let n = lambdas.len() as f64;
        // Average the Poisson pmfs by the stable recurrence
        // P_i(k+1) = P_i(k)·λ_i/(k+1).
        let mut values: Vec<f64> = lambdas.iter().map(|&l| (-l).exp()).collect();
        let mut pmf = Vec::new();
        let mut cumulative = 0.0;
        for k in 0..100_000usize {
            let mass: f64 = values.iter().sum::<f64>() / n;
            pmf.push(mass);
            cumulative += mass;
            if cumulative >= 1.0 - 1e-10 {
                break;
            }
            for (v, &l) in values.iter_mut().zip(&lambdas) {
                *v *= l / (k as f64 + 1.0);
            }
        }
        nhpp_models::prediction::PredictiveCounts::from_pmf(pmf).map_err(|e| BayesError::IllPosed {
            message: e.to_string(),
        })
    }

    fn reliability_samples(&self, t: f64, u: f64) -> Vec<f64> {
        let a0 = self.spec.alpha0();
        self.omega
            .iter()
            .zip(&self.beta)
            .map(|(&w, &b)| {
                let law = Gamma::new(a0, b).expect("positive samples");
                (-w * law.ln_interval_mass(t, t + u).exp()).exp()
            })
            .collect()
    }
}

impl Posterior for McmcPosterior {
    fn method_name(&self) -> &'static str {
        "MCMC"
    }

    fn mean_omega(&self) -> f64 {
        self.omega.iter().sum::<f64>() / self.omega.len() as f64
    }

    fn mean_beta(&self) -> f64 {
        self.beta.iter().sum::<f64>() / self.beta.len() as f64
    }

    fn var_omega(&self) -> f64 {
        let m = self.mean_omega();
        self.omega.iter().map(|w| (w - m) * (w - m)).sum::<f64>() / self.omega.len() as f64
    }

    fn var_beta(&self) -> f64 {
        let m = self.mean_beta();
        self.beta.iter().map(|b| (b - m) * (b - m)).sum::<f64>() / self.beta.len() as f64
    }

    fn covariance(&self) -> f64 {
        let mw = self.mean_omega();
        let mb = self.mean_beta();
        self.omega
            .iter()
            .zip(&self.beta)
            .map(|(&w, &b)| (w - mw) * (b - mb))
            .sum::<f64>()
            / self.omega.len() as f64
    }

    fn central_moment_omega(&self, k: u32) -> f64 {
        assert!(k <= 4, "central moments implemented up to order 4");
        let m = self.mean_omega();
        self.omega
            .iter()
            .map(|w| (w - m).powi(k as i32))
            .sum::<f64>()
            / self.omega.len() as f64
    }

    fn quantile_omega(&self, p: f64) -> f64 {
        empirical_quantile(&self.sorted_omega, p)
    }

    fn quantile_beta(&self, p: f64) -> f64 {
        empirical_quantile(&self.sorted_beta, p)
    }

    /// Sample-based posterior: no analytic density (`None`), matching the
    /// paper's use of a scatter plot for MCMC in Figure 1.
    fn ln_joint_density(&self, _omega: f64, _beta: f64) -> Option<f64> {
        None
    }

    fn reliability_point(&self, t: f64, u: f64) -> f64 {
        let r = self.reliability_samples(t, u);
        r.iter().sum::<f64>() / r.len() as f64
    }

    fn reliability_quantile(&self, t: f64, u: f64, p: f64) -> f64 {
        empirical_quantile(&sorted(&self.reliability_samples(t, u)), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::sys17;

    fn spec() -> ModelSpec {
        ModelSpec::goel_okumoto()
    }

    #[test]
    fn gibbs_times_matches_map_region() {
        let data: ObservedData = sys17::failure_times().into();
        let post = McmcPosterior::fit_gibbs(
            spec(),
            NhppPrior::paper_info_times(),
            &data,
            McmcOptions::fast(1),
        )
        .unwrap();
        assert_eq!(post.len(), 2_000);
        assert!(
            post.mean_omega() > 38.0 && post.mean_omega() < 55.0,
            "{}",
            post.mean_omega()
        );
        assert!(
            post.mean_beta() > 6e-6 && post.mean_beta() < 2e-5,
            "{}",
            post.mean_beta()
        );
        assert!(post.covariance() < 0.0);
    }

    #[test]
    fn gibbs_variate_count_matches_paper_formula_for_times() {
        // GO + failure times: exactly 3 variates per sweep.
        let data: ObservedData = sys17::failure_times().into();
        let opts = McmcOptions {
            burn_in: 100,
            thin: 2,
            n_samples: 50,
            seed: 2,
        };
        let post =
            McmcPosterior::fit_gibbs(spec(), NhppPrior::paper_info_times(), &data, opts).unwrap();
        let sweeps = (100 + 2 * 50) as u64;
        assert_eq!(post.variate_count(), 3 * sweeps);
    }

    #[test]
    fn gibbs_variate_count_matches_paper_formula_for_grouped() {
        // GO + grouped: 3 + Σxᵢ = 41 variates per sweep.
        let data: ObservedData = sys17::grouped().into();
        let opts = McmcOptions {
            burn_in: 50,
            thin: 1,
            n_samples: 50,
            seed: 3,
        };
        let post =
            McmcPosterior::fit_gibbs(spec(), NhppPrior::paper_info_grouped(), &data, opts).unwrap();
        let sweeps = (50 + 50) as u64;
        assert_eq!(post.variate_count(), (3 + 38) * sweeps);
    }

    #[test]
    fn gibbs_grouped_plausible_moments() {
        let data: ObservedData = sys17::grouped().into();
        let post = McmcPosterior::fit_gibbs(
            spec(),
            NhppPrior::paper_info_grouped(),
            &data,
            McmcOptions::fast(4),
        )
        .unwrap();
        assert!(
            post.mean_omega() > 38.0 && post.mean_omega() < 60.0,
            "{}",
            post.mean_omega()
        );
        assert!(
            post.mean_beta() > 1e-2 && post.mean_beta() < 8e-2,
            "{}",
            post.mean_beta()
        );
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let data: ObservedData = sys17::failure_times().into();
        let post = McmcPosterior::fit_gibbs(
            spec(),
            NhppPrior::paper_info_times(),
            &data,
            McmcOptions::fast(7),
        )
        .unwrap();
        assert!(post.quantile_omega(0.0) <= post.quantile_omega(0.5));
        assert!(post.quantile_omega(0.5) <= post.quantile_omega(1.0));
        let (lo, hi) = post.credible_interval_omega(0.99);
        assert!(lo < post.mean_omega() && post.mean_omega() < hi);
    }

    #[test]
    fn reliability_estimates_in_unit_interval() {
        let data: ObservedData = sys17::failure_times().into();
        let post = McmcPosterior::fit_gibbs(
            spec(),
            NhppPrior::paper_info_times(),
            &data,
            McmcOptions::fast(8),
        )
        .unwrap();
        let t = sys17::T_END;
        let r = post.reliability_point(t, 10_000.0);
        assert!(r > 0.0 && r < 1.0);
        let (lo, hi) = post.reliability_interval(t, 10_000.0, 0.99);
        assert!(0.0 <= lo && lo < r && r < hi && hi <= 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let data: ObservedData = sys17::failure_times().into();
        let a = McmcPosterior::fit_gibbs(
            spec(),
            NhppPrior::paper_info_times(),
            &data,
            McmcOptions::fast(42),
        )
        .unwrap();
        let b = McmcPosterior::fit_gibbs(
            spec(),
            NhppPrior::paper_info_times(),
            &data,
            McmcOptions::fast(42),
        )
        .unwrap();
        assert_eq!(a.mean_omega(), b.mean_omega());
        assert_eq!(a.variate_count(), b.variate_count());
    }

    #[test]
    fn delayed_s_shaped_gibbs_runs_with_augmentation() {
        let data: ObservedData = sys17::failure_times().into();
        let post = McmcPosterior::fit_gibbs(
            ModelSpec::delayed_s_shaped(),
            NhppPrior::paper_info_times(),
            &data,
            McmcOptions::fast(9),
        )
        .unwrap();
        assert!(post.mean_omega() > 38.0);
        // Augmentation costs extra variates beyond 3 per sweep.
        assert!(post.variate_count() > 3 * (2_000 + 2 * 2_000) as u64);
    }

    #[test]
    fn rejects_bad_options() {
        let data: ObservedData = sys17::failure_times().into();
        let err = McmcPosterior::fit_gibbs(
            spec(),
            NhppPrior::flat(),
            &data,
            McmcOptions {
                n_samples: 0,
                ..McmcOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BayesError::InvalidOption { .. }));
    }

    #[test]
    fn sorted_tolerates_nan_without_panicking() {
        // Regression: `partial_cmp(..).expect("samples are finite")`
        // used to abort the process on one NaN draw.
        let s = sorted(&[2.0, f64::NAN, -1.0, f64::INFINITY, 0.5]);
        assert_eq!(&s[..4], &[-1.0, 0.5, 2.0, f64::INFINITY]);
        assert!(s[4].is_nan());
        let all_nan = sorted(&[f64::NAN, f64::NAN]);
        assert!(all_nan.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn non_finite_samples_surface_as_an_error() {
        assert!(validate_finite("omega", &[1.0, 2.0, 3.0]).is_ok());
        let err = validate_finite("omega", &[1.0, f64::NAN, 3.0]).unwrap_err();
        assert!(matches!(err, BayesError::IllPosed { .. }), "{err}");
        let err = validate_finite("beta", &[f64::INFINITY]).unwrap_err();
        assert!(err.to_string().contains("beta"), "{err}");
    }

    #[test]
    fn quantiles_on_a_degenerate_posterior_do_not_panic() {
        // Even if a posterior were built from a chain with stray NaN
        // samples, quantile lookups must stay panic-free.
        let samples = vec![1.0, f64::NAN, 3.0];
        let post = McmcPosterior {
            spec: spec(),
            sorted_omega: sorted(&samples),
            sorted_beta: sorted(&samples),
            omega: samples.clone(),
            beta: samples,
            variate_count: 0,
        };
        // Finite quantiles come from the finite prefix of the total
        // order; the top quantile honestly reports the NaN.
        assert_eq!(post.quantile_omega(0.0), 1.0);
        assert!(post.quantile_beta(1.0).is_nan());
    }

    #[test]
    fn ln_density_is_none() {
        let data: ObservedData = sys17::failure_times().into();
        let post =
            McmcPosterior::fit_gibbs(spec(), NhppPrior::flat(), &data, McmcOptions::fast(10))
                .unwrap();
        assert!(post.ln_joint_density(40.0, 1e-5).is_none());
    }
}
