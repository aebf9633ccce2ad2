//! Log-likelihood and log-posterior of the gamma-type NHPP, with analytic
//! gradients and Hessians in `(ω, β)`.
//!
//! Implements Eqs. (4) and (5) of the paper:
//!
//! * failure-time data: `ℓ = Σ ln g(tᵢ; α₀, β) + m ln ω − ω G(t_e; α₀, β)`
//! * grouped data: `ℓ = Σ xᵢ ln ΔGᵢ + (Σxᵢ) ln ω − Σ ln xᵢ! − ω G(s_k)`
//!
//! The derivatives use
//! `∂G(t; α₀, β)/∂β = (βt)^{α₀} e^{−βt} / (β·Γ(α₀))` and its β-derivative;
//! everything is evaluated through logs to survive the extreme parameter
//! scales of wall-clock-second datasets (β ≈ 1e−5).

use crate::error::ModelError;
use crate::prior::NhppPrior;
use crate::spec::ModelSpec;
use nhpp_data::{FailureTimeData, GroupedData, ObservedData};
use nhpp_dist::{Continuous, Gamma};
use nhpp_numeric::linalg::SymMat2;
use nhpp_special::{ln_factorial, ln_gamma};

/// `∂G(t; α₀, β)/∂β = (βt)^{α₀} e^{−βt} / (β·Γ(α₀))` for `t >= 0` — the
/// β-sensitivity of the gamma CDF, used by score equations and by the
/// delta-method reliability intervals of the Laplace approximation.
pub fn dg_dbeta(alpha0: f64, beta: f64, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let x = beta * t;
    (alpha0 * x.ln() - x - ln_gamma(alpha0)).exp() / beta
}

/// `∂²G(t; α₀, β)/∂β²` for `t >= 0`.
pub fn d2g_dbeta2(alpha0: f64, beta: f64, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let x = beta * t;
    ((alpha0 - 2.0) * x.ln() - x - ln_gamma(alpha0)).exp() * t * t * ((alpha0 - 1.0) - x)
}

/// Log-likelihood of failure-time data under `(ω, β)` (Eq. (4)).
///
/// Returns `−∞` when a zero-density configuration is reached and NaN only
/// for NaN inputs.
pub fn log_likelihood_times(spec: ModelSpec, omega: f64, beta: f64, data: &FailureTimeData) -> f64 {
    if !(omega > 0.0) || !(beta > 0.0) {
        return f64::NEG_INFINITY;
    }
    let a0 = spec.alpha0();
    let m = data.len() as f64;
    let law = Gamma::new(a0, beta).expect("validated parameters");
    m * (a0 * beta.ln() - ln_gamma(a0)) + (a0 - 1.0) * data.sum_ln_times() - beta * data.sum_times()
        + m * omega.ln()
        - omega * law.cdf(data.observation_end())
}

/// Log-likelihood of grouped data under `(ω, β)` (Eq. (5)).
pub fn log_likelihood_grouped(spec: ModelSpec, omega: f64, beta: f64, data: &GroupedData) -> f64 {
    if !(omega > 0.0) || !(beta > 0.0) {
        return f64::NEG_INFINITY;
    }
    let a0 = spec.alpha0();
    let law = Gamma::new(a0, beta).expect("validated parameters");
    let total = data.total_count() as f64;
    let mut ll = total * omega.ln() - omega * law.cdf(data.observation_end());
    for (lo, hi, count) in data.intervals() {
        if count > 0 {
            ll += count as f64 * law.ln_interval_mass(lo, hi) - ln_factorial(count);
        }
    }
    ll
}

/// The log-posterior surface `ln P(D | ω, β) + ln P(ω, β)` over `(ω, β)`,
/// with analytic gradient and Hessian.
///
/// This is the common computational object behind the Laplace
/// approximation (MAP + curvature), direct numerical integration (grid
/// evaluation) and the Gibbs sampler's starting point. With a
/// [flat prior](crate::prior::ParamPrior::Flat) it reduces to the pure
/// log-likelihood, so the same machinery serves MLE-based inference.
#[derive(Debug, Clone)]
pub struct LogPosterior<'a> {
    spec: ModelSpec,
    prior: NhppPrior,
    data: &'a ObservedData,
}

impl<'a> LogPosterior<'a> {
    /// Bundles a model specification, prior and dataset into a posterior
    /// surface.
    pub fn new(spec: ModelSpec, prior: NhppPrior, data: &'a ObservedData) -> Self {
        LogPosterior { spec, prior, data }
    }

    /// The model specification.
    pub fn spec(&self) -> ModelSpec {
        self.spec
    }

    /// The prior.
    pub fn prior(&self) -> &NhppPrior {
        &self.prior
    }

    /// The dataset.
    pub fn data(&self) -> &'a ObservedData {
        self.data
    }

    /// Log-likelihood only (no prior term).
    pub fn log_likelihood(&self, omega: f64, beta: f64) -> f64 {
        match self.data {
            ObservedData::Times(d) => log_likelihood_times(self.spec, omega, beta, d),
            ObservedData::Grouped(d) => log_likelihood_grouped(self.spec, omega, beta, d),
        }
    }

    /// Log-posterior value (likelihood plus log prior, unnormalised).
    pub fn value(&self, omega: f64, beta: f64) -> f64 {
        let lp = self.prior.ln_density(omega, beta);
        if lp == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        self.log_likelihood(omega, beta) + lp
    }

    /// Evaluates [`Self::value`] over the tensor grid `(ωᵢ, βⱼ)` into
    /// `out`, row-major (`out[i·|β| + j] = value(ωᵢ, βⱼ)`).
    ///
    /// The surface is separable — `value = A(ω) + B(β) − ω·G(t_e; β)`
    /// with `A(ω) = m·ln ω + ln P(ω)` and everything else a function of
    /// `β` alone (the priors are independent) — so the expensive per-β
    /// work (the gamma CDF, the grouped bin masses) runs once per β
    /// node instead of once per cell, leaving one fused multiply-add
    /// per cell. This is the NINT grid evaluation's hot path; it agrees
    /// with per-cell [`Self::value`] up to floating-point regrouping.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != omegas.len() * betas.len()`.
    pub fn value_grid(&self, omegas: &[f64], betas: &[f64], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            omegas.len() * betas.len(),
            "output must hold one cell per (omega, beta) pair"
        );
        let a0 = self.spec.alpha0();
        let count = match self.data {
            ObservedData::Times(d) => d.len() as f64,
            ObservedData::Grouped(d) => d.total_count() as f64,
        };
        let t_end = match self.data {
            ObservedData::Times(d) => d.observation_end(),
            ObservedData::Grouped(d) => d.observation_end(),
        };
        let a_of_omega: Vec<f64> = omegas
            .iter()
            .map(|&w| {
                if w > 0.0 {
                    count * w.ln() + self.prior.omega.ln_density(w)
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        // `B(β)` and `−G(t_e; β)` per β node, in struct-of-arrays form
        // so the cell loop below streams both factors contiguously.
        let mut b_terms = Vec::with_capacity(betas.len());
        let mut neg_g = Vec::with_capacity(betas.len());
        for &b in betas {
            if !(b > 0.0) {
                b_terms.push(f64::NEG_INFINITY);
                neg_g.push(-0.0);
                continue;
            }
            let law = Gamma::new(a0, b).expect("positive shape and rate");
            let mut s = self.prior.beta.ln_density(b);
            match self.data {
                ObservedData::Times(d) => {
                    s += count * (a0 * b.ln() - ln_gamma(a0)) + (a0 - 1.0) * d.sum_ln_times()
                        - b * d.sum_times();
                }
                ObservedData::Grouped(d) => {
                    for (lo, hi, c) in d.intervals() {
                        if c > 0 {
                            s += c as f64 * law.ln_interval_mass(lo, hi) - ln_factorial(c);
                        }
                    }
                }
            }
            b_terms.push(s);
            neg_g.push(-law.cdf(t_end));
        }
        for ((row, &w), &a) in out.chunks_mut(betas.len()).zip(omegas).zip(&a_of_omega) {
            for ((cell, &b_term), &g) in row.iter_mut().zip(&b_terms).zip(&neg_g) {
                *cell = w.mul_add(g, a + b_term);
            }
        }
    }

    /// Analytic gradient `[∂/∂ω, ∂/∂β]` of the log-posterior.
    pub fn grad(&self, omega: f64, beta: f64) -> [f64; 2] {
        let a0 = self.spec.alpha0();
        let law = Gamma::new(a0, beta).expect("positive parameters required");
        let (mut d_omega, mut d_beta) = match self.data {
            ObservedData::Times(d) => {
                let m = d.len() as f64;
                let te = d.observation_end();
                (
                    m / omega - law.cdf(te),
                    m * a0 / beta - d.sum_times() - omega * dg_dbeta(a0, beta, te),
                )
            }
            ObservedData::Grouped(d) => {
                let total = d.total_count() as f64;
                let sk = d.observation_end();
                let mut db = -omega * dg_dbeta(a0, beta, sk);
                for (lo, hi, count) in d.intervals() {
                    if count > 0 {
                        let mass = law.ln_interval_mass(lo, hi).exp();
                        let dd = dg_dbeta(a0, beta, hi) - dg_dbeta(a0, beta, lo);
                        db += count as f64 * dd / mass;
                    }
                }
                (total / omega - law.cdf(sk), db)
            }
        };
        // Prior contributions: d/dx ln Gamma(x; a, r) = (a−1)/x − r.
        let (a_w, r_w) = self.prior.omega.shape_rate();
        let (a_b, r_b) = self.prior.beta.shape_rate();
        d_omega += (a_w - 1.0) / omega - r_w;
        d_beta += (a_b - 1.0) / beta - r_b;
        [d_omega, d_beta]
    }

    /// Analytic Hessian of the log-posterior.
    pub fn hessian(&self, omega: f64, beta: f64) -> SymMat2 {
        let a0 = self.spec.alpha0();
        let law = Gamma::new(a0, beta).expect("positive parameters required");
        let (mut h11, mut h12, mut h22) = match self.data {
            ObservedData::Times(d) => {
                let m = d.len() as f64;
                let te = d.observation_end();
                (
                    -m / (omega * omega),
                    -dg_dbeta(a0, beta, te),
                    -m * a0 / (beta * beta) - omega * d2g_dbeta2(a0, beta, te),
                )
            }
            ObservedData::Grouped(d) => {
                let total = d.total_count() as f64;
                let sk = d.observation_end();
                let mut h22 = -omega * d2g_dbeta2(a0, beta, sk);
                for (lo, hi, count) in d.intervals() {
                    if count > 0 {
                        let mass = law.ln_interval_mass(lo, hi).exp();
                        let dd = dg_dbeta(a0, beta, hi) - dg_dbeta(a0, beta, lo);
                        let dd2 = d2g_dbeta2(a0, beta, hi) - d2g_dbeta2(a0, beta, lo);
                        h22 += count as f64 * (dd2 * mass - dd * dd) / (mass * mass);
                    }
                }
                (-total / (omega * omega), -dg_dbeta(a0, beta, sk), h22)
            }
        };
        let (a_w, _) = self.prior.omega.shape_rate();
        let (a_b, _) = self.prior.beta.shape_rate();
        h11 -= (a_w - 1.0) / (omega * omega);
        h22 -= (a_b - 1.0) / (beta * beta);
        let _ = &mut h12;
        SymMat2::new(h11, h12, h22)
    }

    /// A heuristic starting point for optimisers/samplers: `ω` from the
    /// observed count, `β` from matching the first moment of the failure
    /// law to the mean observed time.
    pub fn rough_start(&self) -> (f64, f64) {
        let a0 = self.spec.alpha0();
        match self.data {
            ObservedData::Times(d) => {
                let m = d.len().max(1) as f64;
                let mean_t = if d.is_empty() {
                    d.observation_end() / 2.0
                } else {
                    d.sum_times() / m
                };
                (m.max(1.0) * 1.2, a0 / mean_t.max(f64::MIN_POSITIVE))
            }
            ObservedData::Grouped(d) => {
                let m = (d.total_count().max(1)) as f64;
                // Mean failure time approximated by interval midpoints.
                let mut acc = 0.0;
                for (lo, hi, c) in d.intervals() {
                    acc += c as f64 * 0.5 * (lo + hi);
                }
                let mean_t = if d.total_count() == 0 {
                    d.observation_end() / 2.0
                } else {
                    acc / m
                };
                (m.max(1.0) * 1.2, a0 / mean_t.max(f64::MIN_POSITIVE))
            }
        }
    }
}

/// Validates `(ω, β)` as usable parameter values for likelihood work.
pub(crate) fn check_params(omega: f64, beta: f64) -> Result<(), ModelError> {
    if !(omega > 0.0 && omega.is_finite()) {
        return Err(ModelError::InvalidParameter {
            name: "omega",
            value: omega,
            constraint: "must be positive and finite",
        });
    }
    if !(beta > 0.0 && beta.is_finite()) {
        return Err(ModelError::InvalidParameter {
            name: "beta",
            value: beta,
            constraint: "must be positive and finite",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::sys17;
    use nhpp_numeric::optimize::{fd_gradient_2d, fd_hessian_2d};

    fn times_posterior(data: &ObservedData) -> LogPosterior<'_> {
        LogPosterior::new(
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_times(),
            data,
        )
    }

    #[test]
    fn goel_okumoto_times_loglik_closed_form() {
        let data = sys17::failure_times();
        let (omega, beta): (f64, f64) = (40.0, 1.1e-5);
        let m = data.len() as f64;
        let expected = m * beta.ln() - beta * data.sum_times() + m * omega.ln()
            - omega * (1.0 - (-beta * data.observation_end()).exp());
        let got = log_likelihood_times(ModelSpec::goel_okumoto(), omega, beta, &data);
        assert!((got - expected).abs() < 1e-8 * expected.abs());
    }

    #[test]
    fn loglik_out_of_domain_is_neg_inf() {
        let data = sys17::failure_times();
        assert_eq!(
            log_likelihood_times(ModelSpec::goel_okumoto(), -1.0, 1e-5, &data),
            f64::NEG_INFINITY
        );
        let g = sys17::grouped();
        assert_eq!(
            log_likelihood_grouped(ModelSpec::goel_okumoto(), 40.0, 0.0, &g),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn grouped_loglik_matches_manual_sum() {
        let g = sys17::grouped();
        let (omega, beta): (f64, f64) = (45.0, 2.5e-2);
        let law = Gamma::new(1.0, beta).unwrap();
        let mut expected = g.total_count() as f64 * omega.ln() - omega * law.cdf(64.0);
        for (lo, hi, c) in g.intervals() {
            if c > 0 {
                expected += c as f64 * (law.cdf(hi) - law.cdf(lo)).ln() - ln_factorial(c);
            }
        }
        let got = log_likelihood_grouped(ModelSpec::goel_okumoto(), omega, beta, &g);
        assert!((got - expected).abs() < 1e-8 * expected.abs());
    }

    #[test]
    fn gradient_matches_finite_difference_times() {
        let data: ObservedData = sys17::failure_times().into();
        let lp = times_posterior(&data);
        let (omega, beta): (f64, f64) = (40.0, 1.1e-5);
        let analytic = lp.grad(omega, beta);
        let fd = fd_gradient_2d(|w, b| lp.value(w, b), omega, beta);
        assert!(
            (analytic[0] - fd[0]).abs() < 1e-4 * fd[0].abs().max(1.0),
            "{analytic:?} vs {fd:?}"
        );
        assert!(
            (analytic[1] - fd[1]).abs() < 1e-2 * fd[1].abs().max(1.0),
            "{analytic:?} vs {fd:?}"
        );
    }

    #[test]
    fn gradient_matches_finite_difference_grouped() {
        let data: ObservedData = sys17::grouped().into();
        let lp = LogPosterior::new(
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_grouped(),
            &data,
        );
        let (omega, beta): (f64, f64) = (45.0, 2.5e-2);
        let analytic = lp.grad(omega, beta);
        let fd = fd_gradient_2d(|w, b| lp.value(w, b), omega, beta);
        assert!(
            (analytic[0] - fd[0]).abs() < 1e-4 * fd[0].abs().max(1.0),
            "{analytic:?} vs {fd:?}"
        );
        assert!(
            (analytic[1] - fd[1]).abs() < 1e-3 * fd[1].abs().max(1.0),
            "{analytic:?} vs {fd:?}"
        );
    }

    #[test]
    fn hessian_matches_finite_difference_times() {
        let data: ObservedData = sys17::failure_times().into();
        let lp = times_posterior(&data);
        let (omega, beta): (f64, f64) = (40.0, 1.1e-5);
        let h = lp.hessian(omega, beta);
        let fd = fd_hessian_2d(|w, b| lp.value(w, b), omega, beta);
        assert!(
            (h.a11 - fd.a11).abs() < 1e-3 * fd.a11.abs().max(1.0),
            "{h:?} vs {fd:?}"
        );
        assert!(
            (h.a12 - fd.a12).abs() < 1e-2 * fd.a12.abs().max(1.0),
            "{h:?} vs {fd:?}"
        );
        assert!(
            (h.a22 - fd.a22).abs() < 1e-2 * fd.a22.abs().max(1.0),
            "{h:?} vs {fd:?}"
        );
    }

    #[test]
    fn hessian_matches_finite_difference_grouped() {
        let data: ObservedData = sys17::grouped().into();
        let lp = LogPosterior::new(
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_grouped(),
            &data,
        );
        let (omega, beta): (f64, f64) = (45.0, 2.5e-2);
        let h = lp.hessian(omega, beta);
        let fd = fd_hessian_2d(|w, b| lp.value(w, b), omega, beta);
        assert!(
            (h.a11 - fd.a11).abs() < 1e-3 * fd.a11.abs().max(1.0),
            "{h:?} vs {fd:?}"
        );
        assert!(
            (h.a12 - fd.a12).abs() < 1e-2 * fd.a12.abs().max(1.0),
            "{h:?} vs {fd:?}"
        );
        assert!(
            (h.a22 - fd.a22).abs() < 1e-2 * fd.a22.abs().max(1.0),
            "{h:?} vs {fd:?}"
        );
    }

    #[test]
    fn delayed_s_shaped_gradient_also_matches() {
        let data: ObservedData = sys17::failure_times().into();
        let lp = LogPosterior::new(ModelSpec::delayed_s_shaped(), NhppPrior::flat(), &data);
        let (omega, beta) = (42.0, 2.5e-5);
        let analytic = lp.grad(omega, beta);
        let fd = fd_gradient_2d(|w, b| lp.value(w, b), omega, beta);
        assert!((analytic[0] - fd[0]).abs() < 1e-3 * fd[0].abs().max(1.0));
        assert!((analytic[1] - fd[1]).abs() < 1e-2 * fd[1].abs().max(1.0));
    }

    #[test]
    fn flat_prior_value_equals_likelihood() {
        let data: ObservedData = sys17::failure_times().into();
        let lp = LogPosterior::new(ModelSpec::goel_okumoto(), NhppPrior::flat(), &data);
        let (omega, beta): (f64, f64) = (40.0, 1.1e-5);
        assert_eq!(lp.value(omega, beta), lp.log_likelihood(omega, beta));
    }

    #[test]
    fn value_grid_matches_per_cell_value() {
        let omegas = [20.0, 40.0, 80.0];
        let cases: Vec<(ObservedData, NhppPrior, [f64; 4])> = vec![
            (
                sys17::failure_times().into(),
                NhppPrior::paper_info_times(),
                [5e-6, 1e-5, 2e-5, 5e-5],
            ),
            (
                sys17::grouped().into(),
                NhppPrior::paper_info_grouped(),
                [1e-2, 2.5e-2, 5e-2, 1e-1],
            ),
            (
                sys17::failure_times().into(),
                NhppPrior::flat(),
                [5e-6, 1e-5, 2e-5, 5e-5],
            ),
        ];
        for (data, prior, betas) in &cases {
            for spec in [ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()] {
                let lp = LogPosterior::new(spec, *prior, data);
                let mut grid = vec![0.0; omegas.len() * betas.len()];
                lp.value_grid(&omegas, betas, &mut grid);
                for (i, &w) in omegas.iter().enumerate() {
                    for (j, &b) in betas.iter().enumerate() {
                        let direct = lp.value(w, b);
                        let cell = grid[i * betas.len() + j];
                        assert!(
                            (cell - direct).abs() <= 1e-10 * direct.abs().max(1.0),
                            "({w}, {b}): grid={cell}, direct={direct}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn value_grid_handles_out_of_domain_nodes() {
        let data: ObservedData = sys17::failure_times().into();
        let lp = times_posterior(&data);
        let mut grid = vec![0.0; 4];
        lp.value_grid(&[-1.0, 40.0], &[1e-5, -2.0], &mut grid);
        assert_eq!(grid[0], f64::NEG_INFINITY);
        assert_eq!(grid[1], f64::NEG_INFINITY);
        assert!(grid[2].is_finite());
        assert_eq!(grid[3], f64::NEG_INFINITY);
    }

    #[test]
    fn rough_start_is_usable() {
        let data: ObservedData = sys17::failure_times().into();
        let lp = times_posterior(&data);
        let (w, b) = lp.rough_start();
        assert!(lp.value(w, b).is_finite());
        let grouped: ObservedData = sys17::grouped().into();
        let lpg = LogPosterior::new(
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_grouped(),
            &grouped,
        );
        let (w, b) = lpg.rough_start();
        assert!(lpg.value(w, b).is_finite());
    }
}
