//! Frequentist (MLE-based) confidence intervals, the classical
//! alternative the paper contrasts Bayesian interval estimation with.
//!
//! Two constructions are provided:
//!
//! * **Wald intervals** — `θ̂ ± z·se` from the observed information
//!   (inverse negative Hessian at the MLE). With a flat prior this is
//!   exactly the Laplace machinery (Yamada & Osaki 1985, the paper's
//!   ref. \[19\]) and inherits its symmetry pathology: lower bounds can go
//!   negative for small samples.
//! * **Profile-likelihood intervals** — the set
//!   `{θ : 2·[ℓ_max − ℓ_profile(θ)] <= χ²₁(level)}`, which respects the
//!   likelihood's asymmetry and stays inside the parameter domain.
//!
//! Comparing these against the Bayesian intervals on small samples is
//! precisely the paper's motivation (§1: "the number of software
//! failures observed is usually not large enough to justify the
//! application of the central limit theorem").

use crate::error::ModelError;
use crate::fit::{fit_mle, FitOptions};
use crate::likelihood::LogPosterior;
use crate::prior::NhppPrior;
use crate::spec::ModelSpec;
use nhpp_data::ObservedData;
use nhpp_numeric::roots::{bisect, expand_bracket};
use nhpp_special::{gamma_p_inv, norm_ppf};

/// Quantile of the χ² distribution with `k` degrees of freedom.
fn chi2_quantile(k: f64, p: f64) -> f64 {
    2.0 * gamma_p_inv(k / 2.0, p)
}

/// Confidence intervals for `(ω, β)` at a common level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamIntervals {
    /// The MLE the intervals are centred on.
    pub mle: (f64, f64),
    /// Interval for `ω`.
    pub omega: (f64, f64),
    /// Interval for `β`.
    pub beta: (f64, f64),
    /// The confidence level used.
    pub level: f64,
}

/// Wald (normal-approximation) confidence intervals from the observed
/// information matrix at the MLE.
///
/// Lower bounds may be negative for diffuse likelihoods — returned as-is
/// (the paper marks such values in angle brackets rather than clamping).
///
/// # Errors
///
/// * [`ModelError::InvalidParameter`] for a level outside `(0, 1)`.
/// * Propagates MLE failures, and [`ModelError::DegenerateData`] if the
///   observed information is not positive definite.
///
/// # Example
///
/// ```
/// use nhpp_models::{confidence::wald_intervals, ModelSpec};
/// use nhpp_data::sys17;
///
/// # fn main() -> Result<(), nhpp_models::ModelError> {
/// let ci = wald_intervals(
///     ModelSpec::goel_okumoto(),
///     &sys17::failure_times().into(),
///     0.95,
/// )?;
/// assert!(ci.omega.0 < ci.mle.0 && ci.mle.0 < ci.omega.1);
/// # Ok(())
/// # }
/// ```
pub fn wald_intervals(
    spec: ModelSpec,
    data: &ObservedData,
    level: f64,
) -> Result<ParamIntervals, ModelError> {
    if !(0.0 < level && level < 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "level",
            value: level,
            constraint: "must lie in (0, 1)",
        });
    }
    let fit = fit_mle(spec, data, FitOptions::default())?;
    let (omega, beta) = (fit.model.omega(), fit.model.beta());
    let lp = LogPosterior::new(spec, NhppPrior::flat(), data);
    let hess = lp.hessian(omega, beta);
    let neg = nhpp_numeric::linalg::SymMat2::new(-hess.a11, -hess.a12, -hess.a22);
    let cov =
        neg.inverse()
            .filter(|_| neg.is_positive_definite())
            .ok_or(ModelError::DegenerateData {
                message: "observed information at the MLE is not positive definite",
            })?;
    let z = norm_ppf(0.5 + level / 2.0);
    Ok(ParamIntervals {
        mle: (omega, beta),
        omega: (omega - z * cov.a11.sqrt(), omega + z * cov.a11.sqrt()),
        beta: (beta - z * cov.a22.sqrt(), beta + z * cov.a22.sqrt()),
        level,
    })
}

/// Which parameter a profile interval targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// The expected total fault count `ω`.
    Omega,
    /// The failure-law rate `β`.
    Beta,
}

/// Maximises the log-likelihood over the nuisance parameter with the
/// target parameter fixed, returning the profile log-likelihood.
fn profile_value(
    lp: &LogPosterior<'_>,
    target: Param,
    value: f64,
    nuisance_guess: f64,
) -> Result<f64, ModelError> {
    // The nuisance score is monotone through its root; bracket and solve.
    let score = |nuisance: f64| match target {
        Param::Omega => lp.grad(value, nuisance)[1],
        Param::Beta => lp.grad(nuisance, value)[0],
    };
    let (lo, hi) = expand_bracket(|x| -score(x), nuisance_guess, 4.0, 200)?;
    let root = bisect(score, lo, hi, 1e-12 * nuisance_guess.max(1e-300), 500).or_else(|_| {
        bisect(
            |x| -score(x),
            lo,
            hi,
            1e-12 * nuisance_guess.max(1e-300),
            500,
        )
    })?;
    Ok(match target {
        Param::Omega => lp.log_likelihood(value, root),
        Param::Beta => lp.log_likelihood(root, value),
    })
}

/// Profile-likelihood confidence interval for one parameter.
///
/// # Errors
///
/// * [`ModelError::InvalidParameter`] for a level outside `(0, 1)`.
/// * Propagates MLE and root-finding failures (e.g. when the likelihood
///   is so flat that no finite bound exists within the search range —
///   the frequentist analogue of the paper's NoInfo blow-up).
pub fn profile_interval(
    spec: ModelSpec,
    data: &ObservedData,
    target: Param,
    level: f64,
) -> Result<(f64, f64), ModelError> {
    if !(0.0 < level && level < 1.0) {
        return Err(ModelError::InvalidParameter {
            name: "level",
            value: level,
            constraint: "must lie in (0, 1)",
        });
    }
    let fit = fit_mle(spec, data, FitOptions::default())?;
    let (omega_hat, beta_hat) = (fit.model.omega(), fit.model.beta());
    let lp = LogPosterior::new(spec, NhppPrior::flat(), data);
    let threshold = fit.log_likelihood - chi2_quantile(1.0, level) / 2.0;

    let (hat, nuisance_hat) = match target {
        Param::Omega => (omega_hat, beta_hat),
        Param::Beta => (beta_hat, omega_hat),
    };
    // Deficit function: positive inside the confidence set.
    let deficit = |v: f64| profile_value(&lp, target, v, nuisance_hat).map(|pl| pl - threshold);

    // Expand multiplicatively from the MLE until the deficit turns
    // negative on each side, then bisect.
    let side = |direction: f64| -> Result<f64, ModelError> {
        let mut inner = hat;
        let mut outer = hat * (4.0f64).powf(direction);
        for _ in 0..200 {
            if deficit(outer)? < 0.0 {
                // Bisect between inner (inside) and outer (outside).
                let (mut a, mut b) = (inner, outer);
                for _ in 0..200 {
                    let mid = (a * b).sqrt();
                    if deficit(mid)? >= 0.0 {
                        a = mid;
                    } else {
                        b = mid;
                    }
                    if (b / a - 1.0).abs() < 1e-10 {
                        break;
                    }
                }
                return Ok((a * b).sqrt());
            }
            inner = outer;
            outer *= (4.0f64).powf(direction);
            if !(1e-300..1e300).contains(&outer) {
                break;
            }
        }
        Err(ModelError::NoConvergence {
            context: "profile interval expansion",
            iterations: 200,
        })
    };
    let lower = side(-1.0)?;
    let upper = side(1.0)?;
    Ok((lower, upper))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::sys17;

    fn data() -> ObservedData {
        sys17::failure_times().into()
    }

    #[test]
    fn chi2_quantiles_match_tables() {
        assert!((chi2_quantile(1.0, 0.95) - 3.841_458_820_694_124).abs() < 1e-9);
        assert!((chi2_quantile(1.0, 0.99) - 6.634_896_601_021_213).abs() < 1e-9);
        assert!((chi2_quantile(2.0, 0.95) - 5.991_464_547_107_979).abs() < 1e-9);
    }

    #[test]
    fn wald_interval_brackets_mle() {
        let ci = wald_intervals(ModelSpec::goel_okumoto(), &data(), 0.95).unwrap();
        assert!(ci.omega.0 < ci.mle.0 && ci.mle.0 < ci.omega.1);
        assert!(ci.beta.0 < ci.mle.1 && ci.mle.1 < ci.beta.1);
        // Wider at higher level.
        let wide = wald_intervals(ModelSpec::goel_okumoto(), &data(), 0.99).unwrap();
        assert!(wide.omega.0 < ci.omega.0 && wide.omega.1 > ci.omega.1);
    }

    #[test]
    fn wald_rejects_bad_level() {
        assert!(wald_intervals(ModelSpec::goel_okumoto(), &data(), 0.0).is_err());
        assert!(wald_intervals(ModelSpec::goel_okumoto(), &data(), 1.0).is_err());
    }

    #[test]
    fn profile_interval_brackets_mle_and_is_right_skewed() {
        let d = data();
        let (lo, hi) = profile_interval(ModelSpec::goel_okumoto(), &d, Param::Omega, 0.95).unwrap();
        let mle = fit_mle(ModelSpec::goel_okumoto(), &d, FitOptions::default()).unwrap();
        let omega_hat = mle.model.omega();
        assert!(
            lo < omega_hat && omega_hat < hi,
            "({lo}, {omega_hat}, {hi})"
        );
        // Right skew: the upper arm is longer than the lower arm.
        assert!(hi - omega_hat > omega_hat - lo, "({lo}, {omega_hat}, {hi})");
        assert!(lo > 0.0);
    }

    #[test]
    fn profile_interval_for_beta() {
        let d = data();
        let (lo, hi) = profile_interval(ModelSpec::goel_okumoto(), &d, Param::Beta, 0.95).unwrap();
        let mle = fit_mle(ModelSpec::goel_okumoto(), &d, FitOptions::default()).unwrap();
        let beta_hat = mle.model.beta();
        assert!(lo < beta_hat && beta_hat < hi);
        assert!(lo > 0.0 && hi < 1e-3);
    }

    #[test]
    fn profile_boundary_attains_the_chi2_drop() {
        // At the interval endpoints the profile deficit is ~zero, i.e.
        // 2[ℓ_max − ℓ_p] = χ²₁(level).
        let d = data();
        let spec = ModelSpec::goel_okumoto();
        let (lo, hi) = profile_interval(spec, &d, Param::Omega, 0.95).unwrap();
        let fit = fit_mle(spec, &d, FitOptions::default()).unwrap();
        let lp = LogPosterior::new(spec, NhppPrior::flat(), &d);
        for v in [lo, hi] {
            let pl = profile_value(&lp, Param::Omega, v, fit.model.beta()).unwrap();
            let drop = 2.0 * (fit.log_likelihood - pl);
            assert!(
                (drop - chi2_quantile(1.0, 0.95)).abs() < 1e-4,
                "drop={drop}"
            );
        }
    }

    #[test]
    fn profile_wider_than_wald_on_the_right() {
        // For right-skewed likelihoods the profile upper bound exceeds
        // the symmetric Wald bound.
        let d = data();
        let spec = ModelSpec::goel_okumoto();
        let wald = wald_intervals(spec, &d, 0.95).unwrap();
        let (_, profile_hi) = profile_interval(spec, &d, Param::Omega, 0.95).unwrap();
        assert!(
            profile_hi > wald.omega.1,
            "{profile_hi} vs {}",
            wald.omega.1
        );
    }

    #[test]
    fn grouped_data_profiles_work() {
        let d: ObservedData = sys17::grouped().into();
        let (lo, hi) = profile_interval(ModelSpec::goel_okumoto(), &d, Param::Omega, 0.9).unwrap();
        assert!(lo > 30.0 && hi < 90.0 && lo < hi, "({lo}, {hi})");
    }

    #[test]
    fn a_campaign_with_no_finite_mle_is_a_typed_error() {
        // Failures bunched late in the window (mean time 79 > t_end/2):
        // the GO likelihood keeps rising as β → 0 with ω·β fixed, so
        // there is no finite MLE and hence no finite upper bound.
        let d: ObservedData =
            nhpp_data::FailureTimeData::new(vec![60.0, 70.0, 80.0, 90.0, 95.0], 100.0)
                .unwrap()
                .into();
        match profile_interval(ModelSpec::goel_okumoto(), &d, Param::Omega, 0.95) {
            Err(ModelError::NoConvergence { context, .. }) => assert_eq!(context, "EM fit"),
            other => panic!("expected an EM non-convergence, got {other:?}"),
        }
    }
}
