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
//! with `c(β) = G(t+u; α₀, β) − G(t; α₀, β)`. The `β`-integral is done by
//! Gauss–Legendre per row of the mixture's β-table, and the pmf over `k`
//! by the stable recurrence `P(k+1) = P(k)·(A+k)/(k+1)·(1−p)`.

use crate::error::VbError;
use crate::reliability::mission_mass;
use nhpp_dist::GammaProductMixture;
use nhpp_models::prediction::PredictiveCounts;
use nhpp_models::ModelSpec;
use nhpp_numeric::quadrature::GaussLegendre;

/// Gauss–Legendre nodes for the β integral.
const BETA_NODES: usize = 64;
/// Quadrature nodes below this weight are dropped.
const NODE_FLOOR: f64 = 1e-16;
/// Hard cap on the explicit pmf support.
const K_CAP: usize = 100_000;

/// Computes the posterior-predictive distribution of the number of
/// failures in `(t, t+u]` under a Gamma-product-mixture posterior,
/// truncating once the accumulated mass exceeds `1 − tail_tol`.
///
/// # Errors
///
/// [`VbError::InvalidOption`] for non-positive `u` or `tail_tol`;
/// [`VbError::DegenerateWeights`] if the quadrature produces no mass
/// (cannot happen for valid mixtures).
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
    let rule = GaussLegendre::shared(BETA_NODES);

    // Flatten (component × β-node) into negative-binomial cells.
    struct Cell {
        weight: f64,
        shape: f64,
        /// Current pmf value P(K = k) for this cell.
        value: f64,
        /// 1 − p = c/(r + c), the per-step factor.
        one_minus_p: f64,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for row in mixture.beta_table() {
        let a = row.omega.shape();
        let r = row.omega.rate();
        for (b, gw) in rule.scaled(row.lo, row.hi) {
            let node_weight = row.weight * gw * row.density(b);
            if node_weight < NODE_FLOOR {
                continue;
            }
            let c = mission_mass(spec, b, t, u);
            // ln p^A = −A·ln(1 + c/r), stable for small c.
            let value = (-a * (c / r).ln_1p()).exp();
            cells.push(Cell {
                weight: node_weight,
                shape: a,
                value,
                one_minus_p: c / (r + c),
            });
        }
    }
    if cells.is_empty() {
        return Err(VbError::DegenerateWeights {
            message: "no predictive mass from the mixture".to_string(),
        });
    }

    let mut pmf = Vec::with_capacity(64);
    let mut cumulative = 0.0;
    for k in 0..=K_CAP {
        let mass: f64 = cells.iter().map(|cell| cell.weight * cell.value).sum();
        pmf.push(mass);
        cumulative += mass;
        if cumulative >= 1.0 - tail_tol {
            break;
        }
        // Advance every cell's NB pmf to k+1.
        for cell in &mut cells {
            cell.value *= (cell.shape + k as f64) / (k as f64 + 1.0) * cell.one_minus_p;
        }
    }
    PredictiveCounts::from_pmf(pmf).map_err(VbError::from)
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
    fn rejects_bad_arguments() {
        let mixture = concentrated(40.0, 1e-4);
        let spec = ModelSpec::goel_okumoto();
        assert!(predictive_counts(&mixture, spec, 1.0, 0.0, 1e-9).is_err());
        assert!(predictive_counts(&mixture, spec, -1.0, 1.0, 1e-9).is_err());
        assert!(predictive_counts(&mixture, spec, 1.0, 1.0, 0.0).is_err());
        assert!(predictive_counts(&mixture, spec, 1.0, 1.0, 1.5).is_err());
    }
}
