//! Prior specifications for the NHPP parameters `(ω, β)`.
//!
//! The paper uses independent conjugate Gamma priors
//! (`ω ~ Gamma(m_ω, φ_ω)`, `β ~ Gamma(m_β, φ_β)`, shape–rate convention)
//! in the "Info" scenario and flat improper priors in the "NoInfo"
//! scenario. A flat prior is the `Gamma(1, 0)` limit — constant density —
//! which keeps every conjugate update formula valid with
//! `(shape, rate) = (1, 0)`.

use crate::error::ModelError;
use nhpp_dist::{Continuous, Gamma};

/// Prior for a single positive parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamPrior {
    /// Proper conjugate `Gamma(shape, rate)` prior.
    Gamma(Gamma),
    /// Flat improper prior (constant density on `(0, ∞)`), the
    /// `Gamma(1, 0)` limit. Posterior propriety then relies on the
    /// likelihood.
    Flat,
}

impl ParamPrior {
    /// Conjugate prior from a mean and standard deviation, as the paper
    /// specifies its informative priors.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] if either value is not positive
    /// and finite.
    pub fn from_mean_sd(mean: f64, sd: f64) -> Result<Self, ModelError> {
        Ok(ParamPrior::Gamma(Gamma::from_mean_sd(mean, sd)?))
    }

    /// `(shape, rate)` in the conjugate-update parametrisation; the flat
    /// prior contributes `(1, 0)`.
    pub fn shape_rate(&self) -> (f64, f64) {
        match self {
            ParamPrior::Gamma(g) => (g.shape(), g.rate()),
            ParamPrior::Flat => (1.0, 0.0),
        }
    }

    /// Log prior density at `x > 0` (up to a constant for the flat prior,
    /// whose "density" is identically 1).
    pub fn ln_density(&self, x: f64) -> f64 {
        match self {
            ParamPrior::Gamma(g) => g.ln_pdf(x),
            ParamPrior::Flat => {
                if x > 0.0 {
                    0.0
                } else {
                    f64::NEG_INFINITY
                }
            }
        }
    }

    /// `true` for the flat improper prior.
    pub fn is_flat(&self) -> bool {
        matches!(self, ParamPrior::Flat)
    }
}

/// Joint (independent) prior over `(ω, β)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NhppPrior {
    /// Prior on the expected total fault count `ω`.
    pub omega: ParamPrior,
    /// Prior on the failure-law rate `β`.
    pub beta: ParamPrior,
}

impl NhppPrior {
    /// Independent informative priors.
    pub fn informative(omega: Gamma, beta: Gamma) -> Self {
        NhppPrior {
            omega: ParamPrior::Gamma(omega),
            beta: ParamPrior::Gamma(beta),
        }
    }

    /// Flat (NoInfo) priors on both parameters.
    pub fn flat() -> Self {
        NhppPrior {
            omega: ParamPrior::Flat,
            beta: ParamPrior::Flat,
        }
    }

    /// The paper's **Info** prior for the failure-time data `D_T`:
    /// `ω` with mean 50, sd 15.81 (`Gamma(10, 0.2)`); `β` with mean 1e−5,
    /// sd 3.16e−6 (`Gamma(10, 1e6)`).
    pub fn paper_info_times() -> Self {
        NhppPrior {
            omega: ParamPrior::Gamma(Gamma::new(10.0, 0.2).expect("valid constants")),
            beta: ParamPrior::Gamma(Gamma::new(10.0, 1e6).expect("valid constants")),
        }
    }

    /// The paper's **Info** prior for the grouped data `D_G`: same `ω`
    /// prior; `β` with mean 3.3e−2, sd 1.1e−2 (`Gamma(9, 272.7)`).
    pub fn paper_info_grouped() -> Self {
        NhppPrior {
            omega: ParamPrior::Gamma(Gamma::new(10.0, 0.2).expect("valid constants")),
            beta: ParamPrior::Gamma(Gamma::from_mean_sd(3.3e-2, 1.1e-2).expect("valid constants")),
        }
    }

    /// Joint log prior density.
    pub fn ln_density(&self, omega: f64, beta: f64) -> f64 {
        self.omega.ln_density(omega) + self.beta.ln_density(beta)
    }
}

/// The prior grammar shared by the CLI's `--prior` and the service's
/// `prior=`: `flat`, `paper-info-times`, `paper-info-grouped`, or
/// `wmean,wsd,bmean,bsd` — the means and standard deviations of the
/// Gamma priors on `ω` and `β`, each component trimmed of surrounding
/// whitespace.
impl std::str::FromStr for NhppPrior {
    type Err = String;

    fn from_str(text: &str) -> Result<NhppPrior, String> {
        match text {
            "flat" => Ok(NhppPrior::flat()),
            "paper-info-times" => Ok(NhppPrior::paper_info_times()),
            "paper-info-grouped" => Ok(NhppPrior::paper_info_grouped()),
            other => {
                let parts: Vec<&str> = other.split(',').map(str::trim).collect();
                let [wmean, wsd, bmean, bsd] = parts[..] else {
                    return Err(format!(
                        "unknown prior '{other}' \
                         (paper-info-times|paper-info-grouped|flat|wmean,wsd,bmean,bsd)"
                    ));
                };
                let num = |raw: &str| {
                    raw.parse::<f64>()
                        .map_err(|_| format!("bad prior component '{raw}'"))
                };
                let (wmean, wsd, bmean, bsd) = (num(wmean)?, num(wsd)?, num(bmean)?, num(bsd)?);
                let omega = Gamma::from_mean_sd(wmean, wsd).map_err(|e| e.to_string())?;
                let beta = Gamma::from_mean_sd(bmean, bsd).map_err(|e| e.to_string())?;
                Ok(NhppPrior::informative(omega, beta))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_info_prior_moments() {
        let p = NhppPrior::paper_info_times();
        let (s, r) = p.omega.shape_rate();
        assert!((s / r - 50.0).abs() < 1e-10);
        assert!(((s.sqrt() / r) - 15.81).abs() < 0.02);
        let (s, r) = p.beta.shape_rate();
        assert!((s / r - 1e-5).abs() < 1e-15);
        assert!((s.sqrt() / r - 3.16e-6).abs() < 1e-8);

        let g = NhppPrior::paper_info_grouped();
        let (s, r) = g.beta.shape_rate();
        assert!((s / r - 3.3e-2).abs() < 1e-12);
        assert!((s.sqrt() / r - 1.1e-2).abs() < 1e-4);
    }

    #[test]
    fn flat_prior_is_constant() {
        let p = ParamPrior::Flat;
        assert_eq!(p.ln_density(0.5), 0.0);
        assert_eq!(p.ln_density(1e9), 0.0);
        assert_eq!(p.ln_density(-1.0), f64::NEG_INFINITY);
        assert_eq!(p.shape_rate(), (1.0, 0.0));
        assert!(p.is_flat());
    }

    #[test]
    fn from_mean_sd_matches_gamma() {
        let p = ParamPrior::from_mean_sd(50.0, 15.811_388_300_841_896).unwrap();
        let (s, r) = p.shape_rate();
        assert!((s - 10.0).abs() < 1e-10);
        assert!((r - 0.2).abs() < 1e-12);
        assert!(ParamPrior::from_mean_sd(-1.0, 1.0).is_err());
    }

    #[test]
    fn parse_helpers_reject_garbage() {
        use crate::ModelSpec;
        assert_eq!("go".parse(), Ok(ModelSpec::goel_okumoto()));
        assert_eq!("dss".parse(), Ok(ModelSpec::delayed_s_shaped()));
        assert_eq!("gamma:2.5".parse(), Ok(ModelSpec::gamma_type(2.5).unwrap()));
        assert_eq!(
            "weibull".parse::<ModelSpec>(),
            Err("unknown model 'weibull' (go|dss|gamma:<a0>)".to_string())
        );
        assert_eq!(
            "gamma: 2".parse::<ModelSpec>(),
            Err("bad gamma shape ' 2'".to_string())
        );
        for bad in ["", "GO", "gamma:", "gamma:-1", "gamma:inf"] {
            assert!(bad.parse::<ModelSpec>().is_err(), "{bad}");
        }

        assert_eq!("flat".parse(), Ok(NhppPrior::flat()));
        assert_eq!(
            "paper-info-times".parse(),
            Ok(NhppPrior::paper_info_times())
        );
        assert_eq!(
            "paper-info-grouped".parse(),
            Ok(NhppPrior::paper_info_grouped())
        );
        let tuple = NhppPrior::informative(
            Gamma::from_mean_sd(50.0, 15.8).unwrap(),
            Gamma::from_mean_sd(1e-5, 3.2e-6).unwrap(),
        );
        assert_eq!("50,15.8,1e-5,3.2e-6".parse(), Ok(tuple));
        // Each tuple component is trimmed, as CLI users type them.
        assert_eq!(" 50 , 15.8,1e-5,\t3.2e-6 ".parse(), Ok(tuple));
        assert_eq!(
            "1,2,3".parse::<NhppPrior>(),
            Err("unknown prior '1,2,3' \
                 (paper-info-times|paper-info-grouped|flat|wmean,wsd,bmean,bsd)"
                .to_string())
        );
        assert_eq!(
            "a,b,c,d".parse::<NhppPrior>(),
            Err("bad prior component 'a'".to_string())
        );
        for bad in [
            "",
            " flat",
            "Flat",
            "paper-info",
            "5 0,15.8,1e-5,3.2e-6",
            "50,-1,1e-5,3.2e-6",
            "50,15.8,1e-5,3.2e-6,1",
        ] {
            assert!(bad.parse::<NhppPrior>().is_err(), "{bad}");
        }
    }

    #[test]
    fn joint_density_is_sum() {
        let p = NhppPrior::paper_info_times();
        let d = p.ln_density(50.0, 1e-5);
        assert!((d - (p.omega.ln_density(50.0) + p.beta.ln_density(1e-5))).abs() < 1e-12);
        // NoInfo prior contributes zero everywhere positive.
        assert_eq!(NhppPrior::flat().ln_density(1.0, 1.0), 0.0);
    }
}
