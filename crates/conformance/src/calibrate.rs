//! Offline learner for the coverage-recalibration dictionary.
//!
//! Sweeps the seeded scenario grid and, per **regime** (model ×
//! data-kind × prior-informativeness, pooling the two sample-size
//! cells) × method, finds the spread factor `c` that restores nominal
//! empirical coverage when intervals are rescaled about the posterior
//! median (`nhpp_vb::calibration::Calibration`).
//!
//! The search does not re-fit per candidate factor. For each fitted
//! campaign the **minimal covering factor** is computed in closed form:
//! with posterior median `m`, raw interval `(lo, hi)` and truth `ω*`,
//!
//! * `ω* ≥ m` ⟹ `c* = (ω* − m) / (hi − m)`;
//! * `ω* < m` ⟹ `c* = (m − ω*) / (m − lo)`
//!
//! (the calibrated interval covers the truth iff `c ≥ c*`). Empirical
//! coverage at factor `c` is then just the fraction of campaigns with
//! `c* ≤ c` — the empirical CDF of the `c*` sample — so a grid search
//! over factors is an exact order-statistic lookup at fit cost zero.
//! Raw coverage falls out as the `c* ≤ 1` fraction of the same sample.
//!
//! Three stabilisers keep the dictionary honest:
//!
//! * **Snap-to-identity** — a method whose pooled raw rate clears
//!   `level − SNAP_SE_MARGIN·se` keeps factor `1.0` exactly:
//!   calibration must never perturb an answer when the evidence of
//!   under-coverage is weak. The margin is deliberately tighter than
//!   the gate's 3·se band — a regime that snaps on borderline pooled
//!   evidence can still fail the per-cell held-out check, so weak
//!   evidence earns a factor rather than the benefit of the doubt.
//!   (Over-coverage always snaps: factors never shrink an interval.)
//! * **Search margin** — the factor search targets an in-sample
//!   coverage of `level + TARGET_SE_MARGIN·se`, not `level` itself.
//!   A factor whose in-sample coverage sits exactly at nominal is a
//!   coin flip on a held-out seed; one binomial-se of slack keeps the
//!   held-out rate inside the gate's band.
//! * **Disjoint seed** — the learner's default base seed differs from
//!   the conformance coverage runner's, so the gate that judges the
//!   dictionary (`report::run` with calibration applied) validates on
//!   campaigns the learner never saw.

use crate::methods::Method;
use crate::scenario::{sample_prior, GridCell};
use crate::stats::binomial_se;
use nhpp_vb::calibration::{dictionary_key, CalibrationDictionary, CalibrationEntry};
use std::collections::BTreeMap;

/// Learner configuration.
#[derive(Debug, Clone)]
pub struct CalibrateConfig {
    /// Campaigns per grid cell (a regime pools its size cells).
    pub replications: usize,
    /// Nominal interval level the factors are tuned at.
    pub level: f64,
    /// Base seed of the learning sweep. The default is deliberately
    /// distinct from `CoverageConfig::default().seed`, so learned
    /// factors are validated out-of-sample by the conformance gate.
    pub seed: u64,
    /// Label recorded in the emitted dictionary.
    pub label: String,
}

impl Default for CalibrateConfig {
    fn default() -> Self {
        CalibrateConfig {
            replications: 200,
            level: 0.95,
            seed: 0xCA_11B8,
            label: "CALIBRATION".to_string(),
        }
    }
}

/// Smallest factor on the search grid.
pub const FACTOR_MIN: f64 = 0.25;
/// Largest factor on the search grid (also the cap for campaigns whose
/// truth no finite widening can reach, e.g. a degenerate interval).
pub const FACTOR_MAX: f64 = 4.0;
/// Grid step; a power of two, so every candidate factor is exact in
/// binary and the blessed dictionary is bit-stable across hosts.
pub const FACTOR_STEP: f64 = 1.0 / 64.0;
/// Snap-to-identity threshold, in binomial standard errors below the
/// nominal level (module docs).
pub const SNAP_SE_MARGIN: f64 = 1.5;
/// In-sample coverage target of the factor search, in binomial
/// standard errors above the nominal level (module docs).
pub const TARGET_SE_MARGIN: f64 = 1.0;

/// The minimal covering factor for one fitted campaign (documented in
/// the module header). Degenerate spreads fall back to `0.0` when the
/// raw interval already covers and `FACTOR_MAX` when it cannot.
pub fn minimal_covering_factor(median: f64, (lo, hi): (f64, f64), truth: f64) -> f64 {
    let (gap, spread) = if truth >= median {
        (truth - median, hi - median)
    } else {
        (median - truth, median - lo)
    };
    if gap <= 0.0 {
        return 0.0;
    }
    if !(spread > 0.0) {
        return FACTOR_MAX;
    }
    (gap / spread).min(FACTOR_MAX)
}

/// The per-(regime, method) sample the learner accumulates.
#[derive(Debug, Clone, Default)]
struct RegimeSample {
    /// Minimal covering factors of the fitted campaigns.
    factors: Vec<f64>,
}

impl RegimeSample {
    /// Empirical coverage of the calibrated interval at factor `c`.
    fn coverage_at(&self, c: f64) -> f64 {
        let covered = self.factors.iter().filter(|&&f| f <= c).count();
        covered as f64 / self.factors.len() as f64
    }

    /// Selects the dictionary entry: identity when the raw rate clears
    /// the snap threshold, otherwise the smallest grid factor whose
    /// in-sample coverage reaches the margined target (module docs).
    fn entry(&self, level: f64) -> CalibrationEntry {
        let fitted = self.factors.len();
        let raw_rate = self.coverage_at(1.0);
        let se = binomial_se(level, fitted);
        let factor = if fitted == 0 || raw_rate >= level - SNAP_SE_MARGIN * se {
            1.0
        } else {
            let target = (level + TARGET_SE_MARGIN * se).min(1.0);
            let steps = ((FACTOR_MAX - FACTOR_MIN) / FACTOR_STEP).round() as usize;
            (0..=steps)
                .map(|k| FACTOR_MIN + k as f64 * FACTOR_STEP)
                .find(|&c| self.coverage_at(c) >= target)
                .unwrap_or(FACTOR_MAX)
        };
        CalibrationEntry {
            factor,
            raw_rate,
            calibrated_rate: if fitted == 0 {
                f64::NAN
            } else {
                self.coverage_at(factor)
            },
            fitted,
        }
    }
}

/// Runs the learning sweep over `cells` and assembles the dictionary.
/// Cells sharing a regime (differing only in sample size) pool their
/// campaigns into one entry, matching the dictionary's key space.
pub fn learn(cells: &[GridCell], config: &CalibrateConfig) -> CalibrationDictionary {
    let mut samples: BTreeMap<String, RegimeSample> = BTreeMap::new();
    for cell in cells {
        let spec = cell.spec();
        let prior = cell.prior();
        let vb2_options = cell.vb2_options();
        for rep in 0..config.replications {
            // Same stream layout as the coverage runner: truth first,
            // then the trace, all from the campaign's own RNG.
            let mut rng = cell.rng(config.seed, rep as u64);
            let (omega_true, beta_true) =
                sample_prior(&prior, &mut rng).unwrap_or((cell.omega_true(), cell.beta_true()));
            let Ok(data) = cell.simulate_with(omega_true, beta_true, &mut rng) else {
                continue; // Unusable campaigns carry no interval to rescale.
            };
            for method in Method::all() {
                let Ok(posterior) = method.fit(spec, prior, &data, &vb2_options) else {
                    continue;
                };
                let median = posterior.quantile_omega(0.5);
                let interval = posterior.credible_interval_omega(config.level);
                let key = dictionary_key(
                    cell.model_key(),
                    cell.data_key(),
                    cell.prior_key(),
                    method.label(),
                );
                samples
                    .entry(key)
                    .or_default()
                    .factors
                    .push(minimal_covering_factor(median, interval, omega_true));
            }
        }
    }
    CalibrationDictionary {
        label: config.label.clone(),
        seed: config.seed,
        replications: config.replications,
        level: config.level,
        entries: samples
            .into_iter()
            .map(|(key, sample)| (key, sample.entry(config.level)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_covering_factor_matches_interval_geometry() {
        // Truth above the median: only the upper spread matters.
        assert_eq!(minimal_covering_factor(10.0, (8.0, 14.0), 16.0), 1.5);
        // Truth below: the lower spread.
        assert_eq!(minimal_covering_factor(10.0, (8.0, 14.0), 7.0), 1.5);
        // Raw interval already covers ⟺ factor ≤ 1.
        assert!(minimal_covering_factor(10.0, (8.0, 14.0), 13.0) <= 1.0);
        // Truth exactly at the median needs no spread at all.
        assert_eq!(minimal_covering_factor(10.0, (8.0, 14.0), 10.0), 0.0);
        // Degenerate spread with an uncovered truth hits the cap.
        assert_eq!(
            minimal_covering_factor(10.0, (10.0, 10.0), 12.0),
            FACTOR_MAX
        );
    }

    #[test]
    fn entry_selection_snaps_and_searches() {
        // 50 campaigns, raw rate 0.4 at level 0.95 → search widens.
        let mut sample = RegimeSample::default();
        for i in 0..50 {
            sample.factors.push(if i < 20 { 0.5 } else { 2.0 });
        }
        let entry = sample.entry(0.95);
        assert_eq!(entry.raw_rate, 0.4);
        assert_eq!(entry.factor, 2.0);
        assert!(entry.calibrated_rate >= 0.95);
        assert_eq!(entry.fitted, 50);
        // All factors ≤ 1 → raw rate 1.0: over-coverage always snaps,
        // factors never shrink an interval.
        let snug = RegimeSample {
            factors: vec![0.2; 10],
        };
        assert_eq!(snug.entry(0.95).factor, 1.0);
    }

    #[test]
    fn learner_pools_sizes_and_records_provenance() {
        let cells = [GridCell::smoke_grid()[0], GridCell::smoke_grid()[1]];
        assert_eq!(cells[0].model_key(), cells[1].model_key());
        let config = CalibrateConfig {
            replications: 4,
            label: "CAL_UNIT".to_string(),
            ..CalibrateConfig::default()
        };
        let dict = learn(&cells, &config);
        assert_eq!(dict.label, "CAL_UNIT");
        assert_eq!(dict.seed, config.seed);
        assert_eq!(dict.level, 0.95);
        // One regime, all four methods.
        assert_eq!(dict.entries.len(), 4);
        let entry = dict
            .lookup("go", "dt", "info", "VB1")
            .expect("pooled entry");
        // Both size cells contributed (allowing for rare drops).
        assert!(entry.fitted > config.replications);
        // The default learner seed must stay disjoint from the coverage
        // runner's, or the gate stops being out-of-sample.
        assert_ne!(
            CalibrateConfig::default().seed,
            crate::coverage::CoverageConfig::default().seed
        );
    }
}
