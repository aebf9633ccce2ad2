//! Simulation-based calibration (SBC) in its PIT form.
//!
//! For a Bayesian procedure that is *exactly* calibrated, the following
//! loop produces Uniform(0, 1) values: draw `(ω*, β*)` from the prior,
//! simulate a campaign from that truth, fit the posterior, and evaluate
//! the fitted marginal CDF at the truth (the probability integral
//! transform — the continuous-parameter limit of the classic SBC rank
//! statistic). Systematic deviation from uniformity localises the kind
//! of mis-calibration: an over-confident posterior (VB1's structural
//! variance deficit) piles PIT mass at both tails, a biased one piles
//! mass at a single tail.
//!
//! SBC requires a *proper* generative prior, so it runs on Info cells
//! only; NoInfo cells participate in the coverage runner instead.

use crate::methods::{posterior_cdf_beta, posterior_cdf_omega, Method};
use crate::scenario::{sample_prior, GridCell, PriorKind};
use crate::stats::{chi_square_uniform, ks_uniform, UniformityTest};
use std::collections::BTreeMap;

/// SBC loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbcConfig {
    /// Number of prior draws (campaigns).
    pub draws: usize,
    /// Number of χ² bins.
    pub bins: usize,
    /// Base seed; draw `i` uses the cell stream at `rep = i`.
    pub seed: u64,
    /// Two-sided rejection threshold applied to both uniformity tests.
    pub alpha: f64,
}

impl Default for SbcConfig {
    fn default() -> Self {
        SbcConfig {
            draws: 200,
            bins: 10,
            seed: 0x5BC0_0001,
            // Family-wise false-positive control across the ~24 gated
            // tests of a grid sweep; fixed seeds make the verdicts
            // deterministic, so the margin only has to absorb genuine
            // approximation error (LAPL's skew deficit sits ~1e-4,
            // VB1's variance deficit below 1e-13).
            alpha: 1e-5,
        }
    }
}

/// SBC outcome for one (cell, method) pair.
#[derive(Debug, Clone)]
pub struct SbcResult {
    /// Method label.
    pub method: &'static str,
    /// Prior draws attempted.
    pub attempted: usize,
    /// PIT values of the true `ω` actually collected.
    pub pits_omega: Vec<f64>,
    /// PIT values of the true `β` actually collected.
    pub pits_beta: Vec<f64>,
    /// Draws that produced no posterior, keyed by reason.
    pub dropped: BTreeMap<String, usize>,
    /// χ² uniformity test on the ω PITs.
    pub chi2_omega: UniformityTest,
    /// KS uniformity test on the ω PITs.
    pub ks_omega: UniformityTest,
    /// χ² uniformity test on the β PITs.
    pub chi2_beta: UniformityTest,
    /// KS uniformity test on the β PITs.
    pub ks_beta: UniformityTest,
    /// `true` when both ω tests clear `alpha` (the gated statistic; the
    /// β tests are reported for diagnosis).
    pub calibrated_omega: bool,
}

/// Runs the SBC loop for one method on one Info cell.
///
/// # Panics
///
/// Panics if the cell's prior is flat — SBC cannot draw ground truths
/// from an improper prior; the caller must filter to Info cells.
pub fn run_sbc(cell: &GridCell, method: Method, config: &SbcConfig) -> SbcResult {
    assert!(
        cell.prior == PriorKind::Info,
        "SBC requires a proper prior (cell {})",
        cell.name()
    );
    let spec = cell.spec();
    let prior = cell.prior();
    let vb2_options = cell.vb2_options();
    let mut pits_omega = Vec::with_capacity(config.draws);
    let mut pits_beta = Vec::with_capacity(config.draws);
    let mut dropped: BTreeMap<String, usize> = BTreeMap::new();

    for draw in 0..config.draws {
        // One RNG per draw: truth first, then the campaign — so a fit
        // failure in draw i cannot shift the randomness of draw i+1.
        let mut rng = cell.rng(config.seed, draw as u64);
        let (omega_true, beta_true) = sample_prior(&prior, &mut rng).expect("Info prior is proper");
        let outcome = cell
            .simulate_with(omega_true, beta_true, &mut rng)
            .and_then(|data| method.fit(spec, prior, &data, &vb2_options));
        match outcome {
            Ok(posterior) => {
                pits_omega.push(posterior_cdf_omega(posterior.as_ref(), omega_true));
                pits_beta.push(posterior_cdf_beta(posterior.as_ref(), beta_true));
            }
            Err(reason) => {
                *dropped.entry(reason).or_insert(0) += 1;
            }
        }
    }

    let chi2_omega = chi_square_uniform(&pits_omega, config.bins);
    let ks_omega = ks_uniform(&pits_omega);
    let chi2_beta = chi_square_uniform(&pits_beta, config.bins);
    let ks_beta = ks_uniform(&pits_beta);
    SbcResult {
        method: method.label(),
        attempted: config.draws,
        calibrated_omega: chi2_omega.p_value >= config.alpha && ks_omega.p_value >= config.alpha,
        pits_omega,
        pits_beta,
        dropped,
        chi2_omega,
        ks_omega,
        chi2_beta,
        ks_beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbc_accounts_for_every_draw() {
        let cell = GridCell::smoke_grid()[0];
        let config = SbcConfig {
            draws: 12,
            bins: 4,
            ..SbcConfig::default()
        };
        let result = run_sbc(&cell, Method::Lapl, &config);
        let dropped: usize = result.dropped.values().sum();
        assert_eq!(result.pits_omega.len() + dropped, result.attempted);
        assert_eq!(result.pits_omega.len(), result.pits_beta.len());
        for &u in result.pits_omega.iter().chain(&result.pits_beta) {
            assert!((0.0..=1.0).contains(&u), "PIT {u} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "proper prior")]
    fn sbc_rejects_flat_prior_cells() {
        let mut cell = GridCell::smoke_grid()[0];
        cell.prior = PriorKind::NoInfo;
        run_sbc(&cell, Method::Vb2, &SbcConfig::default());
    }
}
