//! Posterior credible bands for the mean value function
//! `Λ(t) = ω·G(t; α₀, β)` — the uncertainty envelope around the fitted
//! growth curve that practitioners plot against the empirical cumulative
//! failure counts.
//!
//! For a Gamma-product-mixture posterior the computation mirrors the
//! reliability quantiles: conditionally on `(N, β)`,
//! `Λ(t) = ω·G(t; β)` is `Gamma(A_N, r_ω/G(t; β))`, with `G(t; β)` the
//! mission mass of the window `(0, t]`. Over the mixture's cell table
//! ([`GammaProductMixture::cell_table`]) `Λ(t)` is therefore a flat
//! mixture of one such Gamma per cell, plus an atom at `0` for the cells
//! where `G(t; β) = 0`; the reliability quantiles build theirs with the
//! same helper. The mean is one pass over the cells, and the edges are
//! quantiles of that mixture by safeguarded Newton
//! ([`GammaMixture::quantile`](nhpp_dist::GammaMixture::quantile)).

use crate::error::VbError;
use crate::reliability::{cell_mixture, mission_mass};
use nhpp_dist::{Continuous, GammaProductMixture};
use nhpp_models::ModelSpec;

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

/// The band point at `t` with edges at the `tail` and `1 − tail`
/// quantiles of `Λ(t)`.
///
/// The posterior CDF over the cells is `F(x) = atom + Σ w·P(Y ≤ x)`,
/// where `atom` sums the weights of the cells with `Λ(t) = 0` and `Y` is
/// a cell's Gamma. The cells hold slightly less than unit mass (their
/// rows span the inner β quantiles only) and `F` is not renormalised, so
/// `F(x) = p` is `0` for `p ≤ atom` and otherwise the
/// `(p − atom)/Σ w` quantile of the cells' mixture; a target of `1` or
/// more, which no `x` reaches, is `NaN`.
fn band_point(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, tail: f64) -> BandPoint {
    let table = mixture.cell_table();
    let mean = table.expectation(|omega, b| omega.mean() * mission_mass(spec, b, 0.0, t));
    let (atom, mass, cells) = cell_mixture(table.cells(), |b| mission_mass(spec, b, 0.0, t));
    let edge = |p: f64| {
        if p <= atom {
            return 0.0;
        }
        let target = (p - atom) / mass;
        match &cells {
            Some(cells) if target < 1.0 => cells.quantile(target),
            _ => f64::NAN,
        }
    };
    BandPoint {
        t,
        lower: edge(tail),
        mean,
        upper: edge(1.0 - tail),
    }
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
        .map(|&t| band_point(mixture, spec, t, tail))
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
        let band = mean_value_band(&mixture, spec, &[t], 0.95).unwrap();
        assert!((band[0].mean - exact).abs() < 1e-2 * exact);
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
    fn rejects_bad_grids() {
        let mixture = concentrated(10.0, 1e-4);
        let spec = ModelSpec::goel_okumoto();
        assert!(mean_value_band(&mixture, spec, &[], 0.9).is_err());
        assert!(mean_value_band(&mixture, spec, &[2.0, 1.0], 0.9).is_err());
        assert!(mean_value_band(&mixture, spec, &[-1.0], 0.9).is_err());
        assert!(mean_value_band(&mixture, spec, &[1.0], 1.0).is_err());
    }
}
