//! Erlang distribution (integer-shape Gamma); the 2-stage Erlang is the
//! failure-time law of the delayed S-shaped model.

use crate::error::DistError;
use crate::gamma::Gamma;
use crate::traits::{Continuous, Sample};
use rand::Rng;

/// Erlang distribution: `Gamma(k, rate)` with integer stage count `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    stages: u32,
    inner: Gamma,
}

impl Erlang {
    /// Creates an `Erlang(stages, rate)` distribution.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidParameter`] for `stages == 0` or an invalid rate.
    pub fn new(stages: u32, rate: f64) -> Result<Self, DistError> {
        if stages == 0 {
            return Err(DistError::InvalidParameter {
                name: "stages",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        Ok(Erlang {
            stages,
            inner: Gamma::new(stages as f64, rate)?,
        })
    }

    /// Number of exponential stages.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Rate of each stage.
    pub fn rate(&self) -> f64 {
        self.inner.rate()
    }
}

impl Continuous for Erlang {
    fn pdf(&self, x: f64) -> f64 {
        self.inner.pdf(x)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        self.inner.ln_pdf(x)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.inner.cdf(x)
    }

    fn sf(&self, x: f64) -> f64 {
        self.inner.sf(x)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.inner.quantile(p)
    }

    fn mean(&self) -> f64 {
        self.inner.mean()
    }

    fn variance(&self) -> f64 {
        self.inner.variance()
    }
}

impl Sample<f64> for Erlang {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Erlang::new(0, 1.0).is_err());
        assert!(Erlang::new(2, 0.0).is_err());
        assert!(Erlang::new(2, 1.0).is_ok());
    }

    #[test]
    fn delayed_s_shaped_cdf_closed_form() {
        // 2-stage Erlang CDF: 1 − (1 + βt)e^{−βt}.
        let e = Erlang::new(2, 0.5).unwrap();
        for &t in &[0.1, 1.0, 3.0, 10.0] {
            let bt: f64 = 0.5 * t;
            let expected = 1.0 - (1.0 + bt) * (-bt).exp();
            assert!((e.cdf(t) - expected).abs() < 1e-13, "t={t}");
        }
    }

    #[test]
    fn matches_gamma_view() {
        let e = Erlang::new(3, 2.0).unwrap();
        assert_eq!(e.mean(), 1.5);
        let g = Gamma::new(3.0, 2.0).unwrap();
        assert!((e.quantile(0.4) - g.quantile(0.4)).abs() < 1e-14);
    }
}
