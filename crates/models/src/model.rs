//! A fully parametrised gamma-type NHPP model.

use crate::error::ModelError;
use crate::spec::ModelSpec;
use nhpp_dist::{Continuous, Gamma};

/// A gamma-type NHPP software reliability model with concrete parameter
/// values: expected total faults `ω` and failure-law rate `β` (shape `α₀`
/// fixed by the [`ModelSpec`]).
///
/// # Example
///
/// ```
/// use nhpp_models::{GammaNhpp, ModelSpec};
///
/// # fn main() -> Result<(), nhpp_models::ModelError> {
/// let model = GammaNhpp::new(ModelSpec::goel_okumoto(), 40.0, 1e-5)?;
/// // Mean value function approaches ω as t → ∞.
/// assert!(model.mean_value(1e7) > 39.0);
/// // Software reliability over (t, t+u] is a probability.
/// let r = model.reliability(1e5, 1e4);
/// assert!((0.0..=1.0).contains(&r));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaNhpp {
    spec: ModelSpec,
    omega: f64,
    beta: f64,
    law: Gamma,
}

impl GammaNhpp {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] unless `ω` and `β` are positive
    /// and finite.
    pub fn new(spec: ModelSpec, omega: f64, beta: f64) -> Result<Self, ModelError> {
        if !(omega > 0.0 && omega.is_finite()) {
            return Err(ModelError::InvalidParameter {
                name: "omega",
                value: omega,
                constraint: "must be positive and finite",
            });
        }
        let law = spec.failure_law(beta)?;
        Ok(GammaNhpp {
            spec,
            omega,
            beta,
            law,
        })
    }

    /// Model specification (the fixed `α₀`).
    pub fn spec(&self) -> ModelSpec {
        self.spec
    }

    /// Expected total number of faults `ω`.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Failure-law rate `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The failure-time law `Gamma(α₀, β)`.
    pub fn failure_law(&self) -> &Gamma {
        &self.law
    }

    /// Mean value function `Λ(t) = ω·G(t; α₀, β)`.
    pub fn mean_value(&self, t: f64) -> f64 {
        self.omega * self.law.cdf(t)
    }

    /// Failure intensity `λ(t) = ω·g(t; α₀, β)`.
    pub fn intensity(&self, t: f64) -> f64 {
        self.omega * self.law.pdf(t)
    }

    /// Expected number of faults remaining undetected at time `t`:
    /// `ω·(1 − G(t))`.
    pub fn expected_residual_faults(&self, t: f64) -> f64 {
        self.omega * self.law.sf(t)
    }

    /// Software reliability `R(t+u | t) = exp(−ω[G(t+u) − G(t)])`
    /// (Eq. (3) of the paper): the probability of zero failures in
    /// `(t, t+u]`.
    pub fn reliability(&self, t: f64, u: f64) -> f64 {
        (-self.reliability_exponent(t, u)).exp()
    }

    /// The exponent `ω[G(t+u) − G(t)]` of the reliability function — the
    /// expected number of failures in `(t, t+u]`.
    pub fn reliability_exponent(&self, t: f64, u: f64) -> f64 {
        self.omega * (self.law.ln_interval_mass(t, t + u)).exp()
    }

    /// Testing time after which the reliability over a mission of length
    /// `u` first reaches `target`: solves `R(t+u | t) = target` for `t`.
    ///
    /// `R(t+u | t)` is increasing in `t` (debugging only removes faults),
    /// so the root is unique; it is found by bracket expansion plus
    /// bisection. Returns `0` when the target is already met at release
    /// time zero.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] unless `target ∈ (0, 1)` and
    /// `u > 0`; [`ModelError::NoConvergence`] if no finite horizon
    /// reaches the target (cannot happen for a finite-failures model
    /// with `target < 1`).
    pub fn time_to_reliability(&self, target: f64, u: f64) -> Result<f64, ModelError> {
        if !(target > 0.0 && target < 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "target",
                value: target,
                constraint: "must lie strictly inside (0, 1)",
            });
        }
        if !(u > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "u",
                value: u,
                constraint: "must be positive",
            });
        }
        if self.reliability(0.0, u) >= target {
            return Ok(0.0);
        }
        // Expand the horizon until the target is met, then bisect.
        let mut hi = u;
        for _ in 0..200 {
            if self.reliability(hi, u) >= target {
                let mut lo = 0.0f64;
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    if self.reliability(mid, u) >= target {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                    if hi - lo <= 1e-10 * hi.max(1.0) {
                        break;
                    }
                }
                return Ok(hi);
            }
            hi *= 2.0;
            if !hi.is_finite() {
                break;
            }
        }
        Err(ModelError::NoConvergence {
            context: "time_to_reliability expansion",
            iterations: 200,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn go() -> GammaNhpp {
        GammaNhpp::new(ModelSpec::goel_okumoto(), 50.0, 0.1).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(GammaNhpp::new(ModelSpec::goel_okumoto(), 0.0, 0.1).is_err());
        assert!(GammaNhpp::new(ModelSpec::goel_okumoto(), 10.0, 0.0).is_err());
        assert!(GammaNhpp::new(ModelSpec::goel_okumoto(), f64::NAN, 0.1).is_err());
    }

    #[test]
    fn mean_value_goel_okumoto_closed_form() {
        let m = go();
        for &t in &[0.5, 5.0, 20.0] {
            let expected = 50.0 * (1.0 - (-0.1f64 * t).exp());
            assert!((m.mean_value(t) - expected).abs() < 1e-10, "t={t}");
        }
        assert_eq!(m.mean_value(0.0), 0.0);
    }

    #[test]
    fn intensity_is_derivative_of_mean_value() {
        let m = go();
        let t = 7.0;
        let h = 1e-6;
        let fd = (m.mean_value(t + h) - m.mean_value(t - h)) / (2.0 * h);
        assert!((m.intensity(t) - fd).abs() < 1e-6);
    }

    #[test]
    fn reliability_closed_form_and_monotonicity() {
        let m = go();
        let (t, u): (f64, f64) = (10.0, 5.0);
        let expected = (-50.0 * ((-(0.1 * t)).exp() - (-(0.1 * (t + u))).exp())).exp();
        assert!((m.reliability(t, u) - expected).abs() < 1e-10);
        // Longer mission ⇒ lower reliability.
        assert!(m.reliability(t, 10.0) < m.reliability(t, 5.0));
        // Later start (more debugging) ⇒ higher reliability.
        assert!(m.reliability(20.0, 5.0) > m.reliability(10.0, 5.0));
    }

    #[test]
    fn residual_faults_decrease() {
        let m = go();
        assert!((m.expected_residual_faults(0.0) - 50.0).abs() < 1e-10);
        assert!(m.expected_residual_faults(10.0) > m.expected_residual_faults(30.0));
    }

    #[test]
    fn time_to_reliability_reaches_the_target() {
        let m = go();
        let (target, u) = (0.95, 2.0);
        let t = m.time_to_reliability(target, u).unwrap();
        assert!(t > 0.0);
        assert!((m.reliability(t, u) - target).abs() < 1e-6);
        // Slightly earlier the target is not yet met.
        assert!(m.reliability(t * 0.9, u) < target);
        // Trivially met for tiny missions at high starting reliability.
        assert_eq!(m.time_to_reliability(1e-6, 1e-9).unwrap(), 0.0);
        // Domain checks.
        assert!(m.time_to_reliability(1.0, 1.0).is_err());
        assert!(m.time_to_reliability(0.9, 0.0).is_err());
    }

    #[test]
    fn delayed_s_shaped_mean_value() {
        let m = GammaNhpp::new(ModelSpec::delayed_s_shaped(), 30.0, 0.5).unwrap();
        // 2-stage Erlang CDF: 1 − (1 + βt)e^{−βt}.
        let t = 4.0;
        let bt: f64 = 0.5 * t;
        let expected = 30.0 * (1.0 - (1.0 + bt) * (-bt).exp());
        assert!((m.mean_value(t) - expected).abs() < 1e-9);
    }
}
