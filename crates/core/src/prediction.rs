//! Exact posterior-predictive failure counts for Gamma-product-mixture
//! posteriors.
//!
//! For one mixture component, conditionally on `β`, the future count
//! `K ~ Poisson(ω·c(β))` with `ω ~ Gamma(A, r)` marginalises to a
//! **negative binomial**:
//!
//! ```text
//! P(K = k | β) = Γ(A+k)/(Γ(A)·k!) · p^A (1−p)^k,   p = r/(r + c(β))
//! ```
//!
//! with `c(β) = G(t+u; α₀, β) − G(t; α₀, β)`. The `β`-integral is a sum
//! over the mixture's cell table ([`GammaProductMixture::cell_table`]),
//! one negative binomial per cell, and the pmf over `k` comes from the
//! stable recurrence `P(k+1) = P(k)·(A+k)/(k+1)·(1−p)`.

use crate::error::VbError;
use crate::reliability::mission_mass;
use nhpp_dist::GammaProductMixture;
use nhpp_models::prediction::PredictiveCounts;
use nhpp_models::ModelSpec;

/// Cells below this weight are dropped.
const NODE_FLOOR: f64 = 1e-16;
/// Hard cap on the explicit pmf support.
const K_CAP: usize = 100_000;

/// Computes the posterior-predictive distribution of the number of
/// failures in `(t, t+u]` under a Gamma-product-mixture posterior,
/// truncating once the accumulated mass reaches `1 − tail_tol` of the
/// total cell weight. The stop is relative because the cells
/// hold slightly less than unit mass (their rows span the inner
/// quantiles only), so an absolute `1 − tail_tol` target could sit
/// above everything the cells can ever deliver.
///
/// # Errors
///
/// [`VbError::InvalidOption`] for non-positive `u` or `tail_tol`;
/// [`VbError::DegenerateWeights`] if the quadrature produces no mass
/// (cannot happen for valid mixtures);
/// [`VbError::TruncationOverflow`] if the stop is not reached within
/// the `K_CAP = 100 000` pmf entries (a window expecting that many
/// failures), rather than a silently truncated pmf.
pub fn predictive_counts(
    mixture: &GammaProductMixture,
    spec: ModelSpec,
    t: f64,
    u: f64,
    tail_tol: f64,
) -> Result<PredictiveCounts, VbError> {
    if !(u > 0.0) || !(t >= 0.0) {
        return Err(VbError::InvalidOption {
            message: "window requires t >= 0 and u > 0",
        });
    }
    if !(tail_tol > 0.0 && tail_tol < 1.0) {
        return Err(VbError::InvalidOption {
            message: "tail_tol must lie in (0, 1)",
        });
    }
    // One negative binomial per cell of the table.
    struct Cell {
        weight: f64,
        shape: f64,
        /// Current pmf value P(K = k) for this cell.
        value: f64,
        /// 1 − p = c/(r + c), the per-step factor.
        one_minus_p: f64,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for (weight, omega, b) in mixture.cell_table().cells() {
        if weight < NODE_FLOOR {
            continue;
        }
        let (a, r) = (omega.shape(), omega.rate());
        let c = mission_mass(spec, b, t, u);
        // ln p^A = −A·ln(1 + c/r), stable for small c. A cell with
        // c = 0 is a point mass at k = 0.
        cells.push(Cell {
            weight,
            shape: a,
            value: (-a * (c / r).ln_1p()).exp(),
            one_minus_p: c / (r + c),
        });
    }
    if cells.is_empty() {
        return Err(VbError::DegenerateWeights {
            message: "no predictive mass from the mixture".to_string(),
        });
    }

    let total: f64 = cells.iter().map(|cell| cell.weight).sum();
    let target = (1.0 - tail_tol) * total;
    let mut pmf = Vec::with_capacity(64);
    let mut cumulative = 0.0;
    for k in 0..=K_CAP {
        let mass: f64 = cells.iter().map(|cell| cell.weight * cell.value).sum();
        pmf.push(mass);
        cumulative += mass;
        if cumulative >= target {
            return PredictiveCounts::from_pmf(pmf).map_err(VbError::from);
        }
        // Advance every cell's NB pmf to k+1.
        for cell in &mut cells {
            cell.value *= (cell.shape + k as f64) / (k as f64 + 1.0) * cell.one_minus_p;
        }
    }
    Err(VbError::TruncationOverflow {
        cap: K_CAP as u64,
        tail_mass: 1.0 - cumulative / total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_dist::{Continuous, Gamma, MixtureComponent};

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
    fn concentrated_posterior_gives_poisson() {
        // A near-point posterior must predict ≈ Poisson(ω·c).
        let (omega0, beta0) = (40.0, 1e-4);
        let mixture = concentrated(omega0, beta0);
        let spec = ModelSpec::goel_okumoto();
        let (t, u) = (10_000.0, 5_000.0);
        let g = Gamma::new(1.0, beta0).unwrap();
        let lambda = omega0 * (g.cdf(t + u) - g.cdf(t));
        let pred = predictive_counts(&mixture, spec, t, u, 1e-12).unwrap();
        assert!(
            (pred.mean() - lambda).abs() < 1e-2 * lambda,
            "{} vs {lambda}",
            pred.mean()
        );
        assert!((pred.variance() - lambda).abs() < 0.05 * lambda);
        assert!((pred.prob_zero() - (-lambda).exp()).abs() < 1e-3);
    }

    #[test]
    fn dispersed_posterior_is_overdispersed() {
        // Posterior spread inflates the predictive variance beyond the
        // Poisson value (law of total variance).
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(10.0, 0.25).unwrap(), // mean 40, big spread
            beta: Gamma::new(10.0, 1e5).unwrap(),   // mean 1e-4
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let (t, u) = (10_000.0, 5_000.0);
        let pred = predictive_counts(&mixture, spec, t, u, 1e-12).unwrap();
        assert!(
            pred.variance() > 1.2 * pred.mean(),
            "var {} mean {}",
            pred.variance(),
            pred.mean()
        );
    }

    #[test]
    fn window_beyond_the_pmf_cap_is_an_error_not_a_truncation() {
        // ω ~ Gamma(1, mean 2·10⁵) over a window covering all of G: the
        // predictive is geometric with mean 2·10⁵, so about 60% of its
        // mass lies past K_CAP and no honest truncation exists there.
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(1.0, 5e-6).unwrap(),
            beta: Gamma::new(1e6, 1e10).unwrap(), // β ≈ 1e-4
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        match predictive_counts(&mixture, spec, 0.0, 1e7, 1e-10) {
            Err(VbError::TruncationOverflow { cap, tail_mass }) => {
                assert_eq!(cap, K_CAP as u64);
                assert!(tail_mass > 0.5 && tail_mass < 0.7, "tail mass {tail_mass}");
            }
            other => panic!("expected TruncationOverflow, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        let mixture = concentrated(40.0, 1e-4);
        let spec = ModelSpec::goel_okumoto();
        assert!(predictive_counts(&mixture, spec, 1.0, 0.0, 1e-9).is_err());
        assert!(predictive_counts(&mixture, spec, -1.0, 1.0, 1e-9).is_err());
        assert!(predictive_counts(&mixture, spec, 1.0, 1.0, 0.0).is_err());
        assert!(predictive_counts(&mixture, spec, 1.0, 1.0, 1.5).is_err());
    }
}
