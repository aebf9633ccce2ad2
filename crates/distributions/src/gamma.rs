//! The Gamma distribution in shape–rate form, with the interval-mass and
//! interval-mean helpers that drive the VB fixed-point equations.

use crate::error::DistError;
use crate::normal::standard_normal;
use crate::traits::{Continuous, Sample};
use nhpp_special::{
    gamma_p, gamma_p_inv, gamma_q, gamma_q_inv, ln_gamma, ln_gamma_p, ln_gamma_q, log_diff_exp,
};
use rand::Rng;

/// Gamma distribution with density
/// `f(x) = rate^shape · x^{shape−1} · e^{−rate·x} / Γ(shape)` on `x > 0`.
///
/// Mean `shape/rate`, variance `shape/rate²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Creates a `Gamma(shape, rate)` distribution.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidParameter`] unless both parameters are positive
    /// and finite.
    pub fn new(shape: f64, rate: f64) -> Result<Self, DistError> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(DistError::InvalidParameter {
                name: "shape",
                value: shape,
                constraint: "must be positive and finite",
            });
        }
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(DistError::InvalidParameter {
                name: "rate",
                value: rate,
                constraint: "must be positive and finite",
            });
        }
        Ok(Gamma { shape, rate })
    }

    /// Creates the Gamma distribution with the given mean and standard
    /// deviation (`shape = (mean/sd)²`, `rate = mean/sd²`) — the form in
    /// which the paper specifies its informative priors.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidParameter`] unless both are positive and finite.
    ///
    /// # Example
    ///
    /// ```
    /// use nhpp_dist::Gamma;
    /// # fn main() -> Result<(), nhpp_dist::DistError> {
    /// // The paper's Info prior on ω: mean 50, sd 15.8 ⇒ Gamma(10, 0.2).
    /// let prior = Gamma::from_mean_sd(50.0, 50.0 / 10f64.sqrt())?;
    /// assert!((prior.shape() - 10.0).abs() < 1e-12);
    /// assert!((prior.rate() - 0.2).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_mean_sd(mean: f64, sd: f64) -> Result<Self, DistError> {
        if !(mean > 0.0 && mean.is_finite()) {
            return Err(DistError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be positive and finite",
            });
        }
        if !(sd > 0.0 && sd.is_finite()) {
            return Err(DistError::InvalidParameter {
                name: "sd",
                value: sd,
                constraint: "must be positive and finite",
            });
        }
        let shape = (mean / sd).powi(2);
        let rate = mean / (sd * sd);
        Gamma::new(shape, rate)
    }

    /// Shape parameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate (inverse scale) parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mode of the density: `(shape − 1)/rate` for `shape >= 1`, else `0`.
    pub fn mode(&self) -> f64 {
        if self.shape >= 1.0 {
            (self.shape - 1.0) / self.rate
        } else {
            0.0
        }
    }

    /// `ln P(lo < X <= hi)` computed without cancellation, choosing
    /// between CDF differences and survival differences depending on where
    /// the interval lies. `hi` may be `+∞`; `lo` may be `0`.
    ///
    /// Returns `−∞` for an interval of zero mass and NaN if `hi < lo` or
    /// either bound is negative.
    pub fn ln_interval_mass(&self, lo: f64, hi: f64) -> f64 {
        ln_interval_mass_std(self.shape, self.rate * lo, self.rate * hi)
    }

    /// Conditional mean `E[X | lo < X <= hi]`.
    ///
    /// Uses the identity `∫ x f(x; a, r) dx = (a/r) ∫ f(x; a+1, r) dx`, so
    /// the result is `(shape/rate) · mass_{a+1}(lo, hi) / mass_a(lo, hi)`,
    /// with both masses evaluated in log space. This is exactly the ratio
    /// appearing in Eqs. (24) and (26) of the DSN 2007 paper (with the
    /// survival-function reading for censored tails).
    ///
    /// Returns NaN when the interval carries zero mass.
    ///
    /// # Example
    ///
    /// ```
    /// use nhpp_dist::Gamma;
    /// # fn main() -> Result<(), nhpp_dist::DistError> {
    /// // Exponential memorylessness: E[X | X > t] = t + 1/rate.
    /// let g = Gamma::new(1.0, 2.0)?;
    /// let m = g.interval_mean(3.0, f64::INFINITY);
    /// assert!((m - 3.5).abs() < 1e-10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn interval_mean(&self, lo: f64, hi: f64) -> f64 {
        let ln_mass_a = self.ln_interval_mass(lo, hi);
        if ln_mass_a == f64::NEG_INFINITY || ln_mass_a.is_nan() {
            return f64::NAN;
        }
        let ln_mass_a1 = ln_interval_mass_std(self.shape + 1.0, self.rate * lo, self.rate * hi);
        (self.shape / self.rate) * (ln_mass_a1 - ln_mass_a).exp()
    }
}

/// `ln P(xlo < Y <= xhi)` for `Y ~ Gamma(shape, 1)` in standardised
/// coordinates.
fn ln_interval_mass_std(shape: f64, xlo: f64, xhi: f64) -> f64 {
    if !(xlo >= 0.0) || !(xhi >= 0.0) || xhi < xlo {
        return f64::NAN;
    }
    if xhi == xlo {
        return f64::NEG_INFINITY;
    }
    if xlo == 0.0 {
        return ln_gamma_p(shape, xhi);
    }
    if xhi == f64::INFINITY {
        return ln_gamma_q(shape, xlo);
    }
    // Pick the representation with the least cancellation: if the interval
    // sits in the lower half of the distribution use P-differences, else
    // Q-differences.
    if gamma_p(shape, xlo) + gamma_p(shape, xhi) < 1.0 {
        log_diff_exp(ln_gamma_p(shape, xhi), ln_gamma_p(shape, xlo))
    } else {
        log_diff_exp(ln_gamma_q(shape, xlo), ln_gamma_q(shape, xhi))
    }
}

impl Continuous for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        if x < 0.0 {
            return f64::NEG_INFINITY;
        }
        if x == 0.0 {
            // Density limit at zero: 0 for shape > 1, rate for shape = 1, ∞ below.
            return match self.shape.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Greater) => f64::NEG_INFINITY,
                Some(std::cmp::Ordering::Equal) => self.rate.ln(),
                _ => f64::INFINITY,
            };
        }
        self.shape * self.rate.ln() + (self.shape - 1.0) * x.ln()
            - self.rate * x
            - ln_gamma(self.shape)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        gamma_p(self.shape, self.rate * x)
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        gamma_q(self.shape, self.rate * x)
    }

    fn quantile(&self, p: f64) -> f64 {
        gamma_p_inv(self.shape, p) / self.rate
    }

    fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }
}

impl Gamma {
    /// Upper-tail quantile: `x` with `P(X > x) = q`, stable for tiny `q`.
    pub fn quantile_upper(&self, q: f64) -> f64 {
        gamma_q_inv(self.shape, q) / self.rate
    }
}

impl Sample<f64> for Gamma {
    /// Marsaglia–Tsang squeeze method; shapes below one use the boost
    /// `X_a = X_{a+1} · U^{1/a}`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let a = self.shape;
        if a < 1.0 {
            let boost: f64 = rng.random::<f64>().powf(1.0 / a);
            let inner = Gamma {
                shape: a + 1.0,
                rate: self.rate,
            };
            return inner.sample(rng) * boost;
        }
        let d = a - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let t = 1.0 + c * x;
            if t <= 0.0 {
                continue;
            }
            let v = t * t * t;
            let u: f64 = rng.random();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v / self.rate;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v / self.rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, -1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
        assert!(Gamma::new(2.0, f64::INFINITY).is_err());
        assert!(Gamma::new(2.0, 3.0).is_ok());
    }

    #[test]
    fn from_mean_sd_round_trip() {
        let g = Gamma::from_mean_sd(1e-5, 3.2e-6).unwrap();
        assert!((g.mean() - 1e-5).abs() < 1e-18);
        assert!((g.variance().sqrt() - 3.2e-6).abs() < 1e-18);
    }

    #[test]
    fn moments_and_mode() {
        let g = Gamma::new(3.0, 2.0).unwrap();
        assert_eq!(g.mean(), 1.5);
        assert_eq!(g.variance(), 0.75);
        assert_eq!(g.mode(), 1.0);
        assert_eq!(Gamma::new(0.5, 1.0).unwrap().mode(), 0.0);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        // Numerically integrate the pdf and compare with the cdf.
        let g = Gamma::new(2.5, 1.3).unwrap();
        let n = 20_000;
        let hi = 4.0;
        let h = hi / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let x0 = i as f64 * h;
            acc += 0.5 * (g.pdf(x0) + g.pdf(x0 + h)) * h;
        }
        assert!((acc - g.cdf(hi)).abs() < 1e-6);
    }

    #[test]
    fn exponential_special_case() {
        let g = Gamma::new(1.0, 0.5).unwrap();
        for &x in &[0.1, 1.0, 5.0] {
            assert!((g.cdf(x) - (1.0 - (-0.5 * x).exp())).abs() < 1e-14);
            assert!((g.pdf(x) - 0.5 * (-0.5 * x).exp()).abs() < 1e-14);
        }
    }

    #[test]
    fn quantile_round_trip() {
        let g = Gamma::new(7.3, 0.01).unwrap();
        for &p in &[0.005, 0.025, 0.5, 0.975, 0.995] {
            let x = g.quantile(p);
            assert!((g.cdf(x) - p).abs() < 1e-10);
        }
        let xu = g.quantile_upper(1e-8);
        assert!((g.sf(xu) - 1e-8).abs() < 1e-11);
    }

    #[test]
    fn ln_pdf_edge_at_zero() {
        assert_eq!(Gamma::new(2.0, 1.0).unwrap().ln_pdf(0.0), f64::NEG_INFINITY);
        assert_eq!(Gamma::new(1.0, 3.0).unwrap().ln_pdf(0.0), 3.0f64.ln());
        assert_eq!(Gamma::new(0.5, 1.0).unwrap().ln_pdf(0.0), f64::INFINITY);
        assert_eq!(
            Gamma::new(2.0, 1.0).unwrap().ln_pdf(-1.0),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn interval_mass_matches_cdf_difference() {
        let g = Gamma::new(3.0, 2.0).unwrap();
        let (lo, hi) = (0.4, 1.7);
        let expected = (g.cdf(hi) - g.cdf(lo)).ln();
        assert!((g.ln_interval_mass(lo, hi) - expected).abs() < 1e-10);
        // Full line.
        assert!((g.ln_interval_mass(0.0, f64::INFINITY)).abs() < 1e-12);
        // Degenerate.
        assert_eq!(g.ln_interval_mass(1.0, 1.0), f64::NEG_INFINITY);
        assert!(g.ln_interval_mass(2.0, 1.0).is_nan());
    }

    #[test]
    fn interval_mass_deep_tail() {
        // P(X > 500) for Gamma(1,1) = e^{-500}; ln mass must stay finite.
        let g = Gamma::new(1.0, 1.0).unwrap();
        assert!((g.ln_interval_mass(500.0, f64::INFINITY) + 500.0).abs() < 1e-9);
        // Tail slice [500, 501]: ln(e^{-500} − e^{-501}).
        let expected = -500.0 + (1.0 - (-1.0f64).exp()).ln();
        assert!((g.ln_interval_mass(500.0, 501.0) - expected).abs() < 1e-9);
    }

    #[test]
    fn interval_mean_memoryless_exponential() {
        let g = Gamma::new(1.0, 2.0).unwrap();
        let m = g.interval_mean(3.0, f64::INFINITY);
        assert!((m - (3.0 + 0.5)).abs() < 1e-10);
    }

    #[test]
    fn interval_mean_whole_line_is_mean() {
        let g = Gamma::new(4.2, 0.7).unwrap();
        assert!((g.interval_mean(0.0, f64::INFINITY) - g.mean()).abs() < 1e-10);
    }

    #[test]
    fn interval_mean_bounded_by_interval() {
        let g = Gamma::new(2.0, 1.0).unwrap();
        let (lo, hi) = (1.0, 2.5);
        let m = g.interval_mean(lo, hi);
        assert!(m > lo && m < hi, "m={m}");
        // Against direct numerical integration.
        let n = 40_000;
        let h = (hi - lo) / n as f64;
        let (mut num, mut den) = (0.0, 0.0);
        for i in 0..n {
            let x = lo + (i as f64 + 0.5) * h;
            let f = g.pdf(x);
            num += x * f * h;
            den += f * h;
        }
        assert!((m - num / den).abs() < 1e-6, "m={m}, quad={}", num / den);
    }

    #[test]
    fn interval_mean_zero_mass_is_nan() {
        let g = Gamma::new(2.0, 1.0).unwrap();
        assert!(g.interval_mean(5.0, 5.0).is_nan());
    }

    #[test]
    fn sampling_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(shape, rate) in &[(0.5f64, 1.0f64), (1.0, 2.0), (4.0, 0.5), (30.0, 3.0)] {
            let g = Gamma::new(shape, rate).unwrap();
            let n = 200_000;
            let samples = g.sample_n(&mut rng, n);
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            let se_mean = (g.variance() / n as f64).sqrt();
            assert!(
                (mean - g.mean()).abs() < 6.0 * se_mean,
                "shape={shape}, rate={rate}, mean={mean}, expected={}",
                g.mean()
            );
            assert!((var - g.variance()).abs() < 0.05 * g.variance());
            assert!(samples.iter().all(|&x| x > 0.0));
        }
    }
}
