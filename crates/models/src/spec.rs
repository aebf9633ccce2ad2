//! Model specification: the fixed shape `α₀` of the gamma failure law.

use crate::error::ModelError;
use nhpp_dist::Gamma;

/// Specification of a gamma-type NHPP model: the fixed shape parameter
/// `α₀` of the failure-time law. The free parameters `(ω, β)` are
/// estimated from data; `α₀` selects the model family.
///
/// # Example
///
/// ```
/// use nhpp_models::ModelSpec;
///
/// let go = ModelSpec::goel_okumoto();
/// assert_eq!(go.alpha0(), 1.0);
/// let dss = ModelSpec::delayed_s_shaped();
/// assert_eq!(dss.alpha0(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    alpha0: f64,
}

impl ModelSpec {
    /// A gamma-type model with arbitrary fixed shape `α₀ > 0`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] unless `α₀` is positive and finite.
    pub fn gamma_type(alpha0: f64) -> Result<Self, ModelError> {
        if !(alpha0 > 0.0 && alpha0.is_finite()) {
            return Err(ModelError::InvalidParameter {
                name: "alpha0",
                value: alpha0,
                constraint: "must be positive and finite",
            });
        }
        Ok(ModelSpec { alpha0 })
    }

    /// The Goel–Okumoto model (`α₀ = 1`, exponential failure law).
    pub fn goel_okumoto() -> Self {
        ModelSpec { alpha0: 1.0 }
    }

    /// The delayed S-shaped model (`α₀ = 2`, 2-stage Erlang failure law).
    pub fn delayed_s_shaped() -> Self {
        ModelSpec { alpha0: 2.0 }
    }

    /// The fixed shape `α₀`.
    pub fn alpha0(&self) -> f64 {
        self.alpha0
    }

    /// `true` for the Goel–Okumoto special case, where several VB2
    /// computations have closed forms.
    pub fn is_goel_okumoto(&self) -> bool {
        self.alpha0 == 1.0
    }

    /// The failure-time law `Gamma(α₀, β)` for a given rate `β`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] if `β` is not positive and finite.
    pub fn failure_law(&self, beta: f64) -> Result<Gamma, ModelError> {
        Gamma::new(self.alpha0, beta).map_err(ModelError::from)
    }
}

/// The model grammar shared by the CLI's `--model` and the service's
/// `model=`: `go`, `dss` or `gamma:<α₀>`.
impl std::str::FromStr for ModelSpec {
    type Err = String;

    fn from_str(text: &str) -> Result<ModelSpec, String> {
        match text {
            "go" => Ok(ModelSpec::goel_okumoto()),
            "dss" => Ok(ModelSpec::delayed_s_shaped()),
            other => {
                let raw = other
                    .strip_prefix("gamma:")
                    .ok_or_else(|| format!("unknown model '{other}' (go|dss|gamma:<a0>)"))?;
                let alpha0 = raw
                    .parse()
                    .map_err(|_| format!("bad gamma shape '{raw}'"))?;
                ModelSpec::gamma_type(alpha0).map_err(|e| e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(ModelSpec::gamma_type(0.0).is_err());
        assert!(ModelSpec::gamma_type(-2.0).is_err());
        assert!(ModelSpec::gamma_type(f64::NAN).is_err());
        assert_eq!(
            ModelSpec::gamma_type(1.0).unwrap(),
            ModelSpec::goel_okumoto()
        );
        assert_eq!(
            ModelSpec::gamma_type(2.0).unwrap(),
            ModelSpec::delayed_s_shaped()
        );
        assert!(ModelSpec::goel_okumoto().is_goel_okumoto());
        assert!(!ModelSpec::delayed_s_shaped().is_goel_okumoto());
    }

    #[test]
    fn failure_law() {
        let law = ModelSpec::delayed_s_shaped().failure_law(0.5).unwrap();
        assert_eq!(law.shape(), 2.0);
        assert_eq!(law.rate(), 0.5);
        assert!(ModelSpec::goel_okumoto().failure_law(0.0).is_err());
    }
}
