//! Posterior credible bands for the mean value function
//! `Λ(t) = ω·G(t; α₀, β)` — the uncertainty envelope around the fitted
//! growth curve that practitioners plot against the empirical cumulative
//! failure counts.
//!
//! For a Gamma-product-mixture posterior the computation mirrors the
//! reliability functionals: conditionally on `(N, β)`,
//! `Λ(t) = ω·G(t; β)` is a scaled Gamma variable, so
//! `P(Λ(t) <= x | N, β) = GammaCdf(x / G(t; β); A_N, r_ω)` and one
//! `β`-quadrature per component over the mixture's β-table finishes the
//! job, with `G(t; β)` the mission mass of the window `(0, t]`.

use crate::error::VbError;
use crate::reliability::mission_mass;
use nhpp_dist::{Continuous, GammaProductMixture};
use nhpp_models::ModelSpec;
use nhpp_numeric::quadrature::GaussLegendre;
use nhpp_numeric::roots::bisect;

const BETA_NODES: usize = 64;

/// One point of a credible band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandPoint {
    /// Time of evaluation.
    pub t: f64,
    /// Lower band edge (the `(1−level)/2` quantile of `Λ(t)`).
    pub lower: f64,
    /// Posterior mean `E[Λ(t)]`.
    pub mean: f64,
    /// Upper band edge.
    pub upper: f64,
}

/// Posterior mean of the mean value function, `E[ω·G(t; β)]`.
pub fn mean_value_mean(mixture: &GammaProductMixture, spec: ModelSpec, t: f64) -> f64 {
    let rule = GaussLegendre::shared(BETA_NODES);
    mixture
        .beta_table()
        .iter()
        .map(|row| {
            let g_mean = row.expectation(&rule, |b| mission_mass(spec, b, 0.0, t));
            row.weight * row.omega.mean() * g_mean
        })
        .sum()
}

/// Posterior CDF of the mean value function, `P(Λ(t) <= x)`.
pub fn mean_value_cdf(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let rule = GaussLegendre::shared(BETA_NODES);
    mixture
        .beta_table()
        .iter()
        .map(|row| {
            let inner = row.expectation(&rule, |b| {
                let g = mission_mass(spec, b, 0.0, t);
                if g <= 0.0 {
                    1.0 // Λ(t) = 0 <= x surely
                } else {
                    row.omega.cdf(x / g)
                }
            });
            row.weight * inner
        })
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// Posterior quantile of `Λ(t)` by bracketed bisection.
pub fn mean_value_quantile(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    // Λ(t) <= ω, so the mixture's extreme ω quantile bounds the search.
    let hi = mixture.marginal_omega().quantile(1.0 - 1e-12).min(1e12);
    bisect(
        |x| mean_value_cdf(mixture, spec, t, x) - p,
        0.0,
        hi,
        1e-9 * hi.max(1.0),
        200,
    )
    .unwrap_or(f64::NAN)
}

/// Evaluates the `level` credible band of `Λ(t)` over a time grid.
///
/// # Errors
///
/// [`VbError::InvalidOption`] for an empty grid, non-increasing or
/// negative times, or a level outside `(0, 1)`.
pub fn mean_value_band(
    mixture: &GammaProductMixture,
    spec: ModelSpec,
    t_grid: &[f64],
    level: f64,
) -> Result<Vec<BandPoint>, VbError> {
    if t_grid.is_empty() {
        return Err(VbError::InvalidOption {
            message: "time grid must be non-empty",
        });
    }
    if !(0.0 < level && level < 1.0) {
        return Err(VbError::InvalidOption {
            message: "level must lie in (0, 1)",
        });
    }
    let mut prev = -f64::INFINITY;
    for &t in t_grid {
        if !(t >= 0.0) || t <= prev {
            return Err(VbError::InvalidOption {
                message: "time grid must be non-negative and strictly increasing",
            });
        }
        prev = t;
    }
    let tail = (1.0 - level) / 2.0;
    Ok(t_grid
        .iter()
        .map(|&t| BandPoint {
            t,
            lower: mean_value_quantile(mixture, spec, t, tail),
            mean: mean_value_mean(mixture, spec, t),
            upper: mean_value_quantile(mixture, spec, t, 1.0 - tail),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_dist::{Gamma, MixtureComponent};

    fn concentrated(omega0: f64, beta0: f64) -> GammaProductMixture {
        let k = 1e6;
        GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(k, k / omega0).unwrap(),
            beta: Gamma::new(k, k / beta0).unwrap(),
        }])
        .unwrap()
    }

    #[test]
    fn concentrated_band_collapses_to_the_curve() {
        let (w0, b0) = (40.0, 1e-4);
        let mixture = concentrated(w0, b0);
        let spec = ModelSpec::goel_okumoto();
        let t = 8_000.0;
        let exact = w0 * Gamma::new(1.0, b0).unwrap().cdf(t);
        assert!((mean_value_mean(&mixture, spec, t) - exact).abs() < 1e-2 * exact);
        let band = mean_value_band(&mixture, spec, &[t], 0.95).unwrap();
        assert!((band[0].lower - exact).abs() < 0.01 * exact);
        assert!((band[0].upper - exact).abs() < 0.01 * exact);
    }

    #[test]
    fn band_is_ordered_and_monotone_in_time() {
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(20.0, 0.5).unwrap(),
            beta: Gamma::new(10.0, 1e5).unwrap(),
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let grid = [1_000.0, 5_000.0, 20_000.0, 60_000.0];
        let band = mean_value_band(&mixture, spec, &grid, 0.9).unwrap();
        for point in &band {
            assert!(
                point.lower <= point.mean && point.mean <= point.upper,
                "{point:?}"
            );
        }
        for pair in band.windows(2) {
            assert!(pair[1].mean >= pair[0].mean);
            assert!(pair[1].upper >= pair[0].upper);
        }
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(20.0, 0.5).unwrap(),
            beta: Gamma::new(10.0, 1e5).unwrap(),
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let t = 10_000.0;
        for &p in &[0.05, 0.5, 0.95] {
            let q = mean_value_quantile(&mixture, spec, t, p);
            assert!(
                (mean_value_cdf(&mixture, spec, t, q) - p).abs() < 1e-6,
                "p={p}"
            );
        }
    }

    #[test]
    fn rejects_bad_grids() {
        let mixture = concentrated(10.0, 1e-4);
        let spec = ModelSpec::goel_okumoto();
        assert!(mean_value_band(&mixture, spec, &[], 0.9).is_err());
        assert!(mean_value_band(&mixture, spec, &[2.0, 1.0], 0.9).is_err());
        assert!(mean_value_band(&mixture, spec, &[-1.0], 0.9).is_err());
        assert!(mean_value_band(&mixture, spec, &[1.0], 1.0).is_err());
    }
}
