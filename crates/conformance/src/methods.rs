//! The estimation methods swept by the conformance harness, behind one
//! uniform fit interface with failure-reason classification.
//!
//! Failure reasons are compact variant labels (`"IllPosed"`,
//! `"Numeric(NoBracket)"`, …), not full error messages: messages carry
//! per-campaign payloads (iteration counts, float values) that would
//! fragment the aggregated accounting maps.

use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_bayes::BayesError;
use nhpp_data::ObservedData;
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelError, ModelSpec, Posterior};
use nhpp_numeric::NumericError;
use nhpp_vb::{Vb1Options, Vb1Posterior, Vb2Options, Vb2Posterior, VbError};

/// The four methods under conformance test. PROFILE is left out: it is
/// frequentist, so it has no posterior to calibrate, and the CLI is its
/// only caller. MCMC is left out as too slow for repeated simulation;
/// the Table 6 bin times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Structured variational Bayes (the paper's contribution).
    Vb2,
    /// Fully factorised variational Bayes (the under-covering baseline).
    Vb1,
    /// Numerical integration (the accuracy reference).
    Nint,
    /// Laplace approximation.
    Lapl,
}

impl Method {
    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Vb2 => "VB2",
            Method::Vb1 => "VB1",
            Method::Nint => "NINT",
            Method::Lapl => "LAPL",
        }
    }

    /// All four methods in presentation order.
    pub fn all() -> [Method; 4] {
        [Method::Vb2, Method::Vb1, Method::Nint, Method::Lapl]
    }

    /// Fits this method's posterior, classifying any failure.
    ///
    /// NINT takes its integration box from a preliminary VB2 fit (the
    /// paper's §6 procedure); a VB2 failure there is reported as the
    /// NINT failure reason `Bounds(<class>)`.
    ///
    /// # Errors
    ///
    /// A compact reason label suitable for aggregation.
    pub fn fit(
        &self,
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        vb2_options: &Vb2Options,
    ) -> Result<Box<dyn Posterior>, String> {
        match self {
            Method::Vb2 => Vb2Posterior::fit(spec, prior, data, *vb2_options)
                .map(|p| Box::new(p) as Box<dyn Posterior>)
                .map_err(|e| vb_error_class(&e)),
            Method::Vb1 => Vb1Posterior::fit(spec, prior, data, Vb1Options::default())
                .map(|p| Box::new(p) as Box<dyn Posterior>)
                .map_err(|e| vb_error_class(&e)),
            Method::Lapl => LaplacePosterior::fit(spec, prior, data)
                .map(|p| Box::new(p) as Box<dyn Posterior>)
                .map_err(|e| bayes_error_class(&e)),
            Method::Nint => {
                let reference = Vb2Posterior::fit(spec, prior, data, *vb2_options)
                    .map_err(|e| format!("Bounds({})", vb_error_class(&e)))?;
                NintPosterior::fit(
                    spec,
                    prior,
                    data,
                    bounds_from_posterior(&reference),
                    NintOptions::default(),
                )
                .map(|p| Box::new(p) as Box<dyn Posterior>)
                .map_err(|e| bayes_error_class(&e))
            }
        }
    }
}

/// Marginal posterior CDF of `ω` at `x`, by bisecting the monotone
/// quantile function — works uniformly across every [`Posterior`]
/// implementor, which is exactly what SBC needs.
pub fn posterior_cdf_omega(posterior: &dyn Posterior, x: f64) -> f64 {
    bisect_cdf(|p| posterior.quantile_omega(p), x)
}

/// Marginal posterior CDF of `β` at `x` (see [`posterior_cdf_omega`]).
pub fn posterior_cdf_beta(posterior: &dyn Posterior, x: f64) -> f64 {
    bisect_cdf(|p| posterior.quantile_beta(p), x)
}

fn bisect_cdf<Q: Fn(f64) -> f64>(quantile: Q, x: f64) -> f64 {
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    // 32 halvings resolve the probability to ~2e-10 — far below any
    // tolerance the uniformity tests can see, and each halving costs a
    // quantile solve on the inner posterior.
    for _ in 0..32 {
        let mid = 0.5 * (lo + hi);
        if quantile(mid) < x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Compact variant label for a [`VbError`].
pub fn vb_error_class(e: &VbError) -> String {
    match e {
        VbError::NoConvergence { context, .. } => format!("NoConvergence({context})"),
        VbError::TruncationOverflow { .. } => "TruncationOverflow".to_string(),
        VbError::InvalidOption { .. } => "InvalidOption".to_string(),
        VbError::DegenerateWeights { .. } => "DegenerateWeights".to_string(),
        VbError::CascadeExhausted { .. } => "CascadeExhausted".to_string(),
        VbError::Model(e) => model_error_class(e),
        VbError::Numeric(e) => numeric_error_class(e),
        VbError::Dist(_) => "Dist".to_string(),
        VbError::Bayes(e) => bayes_error_class(e),
    }
}

/// Compact variant label for a [`BayesError`].
pub fn bayes_error_class(e: &BayesError) -> String {
    match e {
        BayesError::Model(e) => model_error_class(e),
        BayesError::Numeric(e) => numeric_error_class(e),
        BayesError::Dist(_) => "Dist".to_string(),
        BayesError::IllPosed { .. } => "IllPosed".to_string(),
        BayesError::InvalidOption { .. } => "InvalidOption".to_string(),
    }
}

/// Compact variant label for a [`ModelError`].
pub fn model_error_class(e: &ModelError) -> String {
    match e {
        ModelError::InvalidParameter { name, .. } => format!("InvalidParameter({name})"),
        ModelError::NoConvergence { context, .. } => format!("NoConvergence({context})"),
        ModelError::DegenerateData { .. } => "DegenerateData".to_string(),
        ModelError::Numeric(e) => numeric_error_class(e),
        ModelError::Dist(_) => "Dist".to_string(),
    }
}

/// Compact variant label for a [`NumericError`].
pub fn numeric_error_class(e: &NumericError) -> String {
    let class = match e {
        NumericError::NoBracket { .. } => "NoBracket",
        NumericError::MaxIterations { .. } => "MaxIterations",
        NumericError::NonFinite { .. } => "NonFinite",
        NumericError::InvalidArgument { .. } => "InvalidArgument",
        NumericError::BudgetExhausted { .. } => "BudgetExhausted",
    };
    format!("Numeric({class})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridCell;

    #[test]
    fn every_method_fits_a_smoke_campaign() {
        let cell = GridCell::smoke_grid()[0];
        let data = cell.simulate(0xD0_17, 0).expect("fit-worthy campaign");
        for method in Method::all() {
            let posterior = method
                .fit(cell.spec(), cell.prior(), &data, &cell.vb2_options())
                .unwrap_or_else(|reason| panic!("{} failed: {reason}", method.label()));
            assert!(posterior.mean_omega() > 0.0, "{}", method.label());
        }
    }

    #[test]
    fn cdf_inverts_the_quantile_function() {
        let cell = GridCell::smoke_grid()[0];
        let data = cell.simulate(0xD0_17, 1).expect("fit-worthy campaign");
        let posterior = Method::Vb2
            .fit(cell.spec(), cell.prior(), &data, &cell.vb2_options())
            .expect("VB2 fit");
        for p in [0.1, 0.5, 0.9] {
            let x = posterior.quantile_omega(p);
            let back = posterior_cdf_omega(posterior.as_ref(), x);
            assert!((back - p).abs() < 1e-6, "p={p}, back={back}");
            let xb = posterior.quantile_beta(p);
            let backb = posterior_cdf_beta(posterior.as_ref(), xb);
            assert!((backb - p).abs() < 1e-6, "p={p}, back={backb}");
        }
    }
}
