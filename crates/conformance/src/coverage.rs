//! Generalized coverage-calibration runner over the scenario grid.
//!
//! For each grid cell this fits every method on `replications` seeded
//! campaigns and tallies how often the nominal credible interval for
//! `ω` contains the generating truth, with binomial standard errors and
//! exhaustive per-method failure accounting (a [`Tally`] per method, so
//! `attempted == fitted + dropped` always holds).
//!
//! On Info cells the truth is *drawn from the prior* each campaign:
//! that is the regime in which an exactly calibrated Bayesian interval
//! has exactly nominal marginal coverage, so the ±3·se band is a real
//! two-sided gate. (With a truth pinned at the prior mean even an exact
//! posterior over-covers — the truth then sits at the posterior's
//! centre of mass.) NoInfo cells have no generative prior, so they use
//! the cell's fixed truth and are reported rather than gated.
//!
//! The verdict bands are ±3 binomial standard errors around the nominal
//! level: a calibrated method must land inside, and a method whose rate
//! falls *below* the lower band is flagged `under_covering` — the
//! paper's VB1 story, made mechanical.

use crate::methods::Method;
use crate::scenario::{sample_prior, GridCell};
use crate::stats::binomial_se;
use nhpp_vb::calibration::{Calibration, CalibrationDictionary};
use std::collections::BTreeMap;

/// Coverage counts for one method. Every campaign the runner attempts
/// is either `fitted` (interval produced) or recorded under a failure
/// reason in `dropped` — `attempted == fitted + Σ dropped`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tally {
    /// Campaigns attempted for this method.
    pub attempted: usize,
    /// Campaigns in which the interval contained the true ω.
    pub covered: usize,
    /// Campaigns successfully fitted.
    pub fitted: usize,
    /// Campaigns that produced no interval, keyed by the failure reason.
    pub dropped: BTreeMap<String, usize>,
}

impl Tally {
    /// Records one campaign: either an interval to check against the
    /// truth, or the reason no interval was produced.
    pub fn record(&mut self, interval: Result<(f64, f64), String>, truth: f64) {
        self.attempted += 1;
        match interval {
            Ok((lo, hi)) => {
                self.fitted += 1;
                if lo <= truth && truth <= hi {
                    self.covered += 1;
                }
            }
            Err(reason) => {
                *self.dropped.entry(reason).or_insert(0) += 1;
            }
        }
    }

    /// Empirical coverage rate among fitted campaigns (NaN with no
    /// successful fits).
    pub fn rate(&self) -> f64 {
        self.covered as f64 / self.fitted as f64
    }

    /// Total campaigns that produced no interval.
    pub fn dropped_total(&self) -> usize {
        self.dropped.values().sum()
    }
}

/// Coverage-runner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageConfig {
    /// Campaigns per cell.
    pub replications: usize,
    /// Nominal interval level.
    pub level: f64,
    /// Base seed; campaign `i` uses the cell stream at `rep = i`,
    /// offset so coverage and SBC never share campaigns.
    pub seed: u64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            replications: 200,
            level: 0.95,
            seed: 0xC0_7E41,
        }
    }
}

/// Coverage of the *calibrated* interval for one (cell, method) pair,
/// present when a calibration dictionary supplied a factor for the
/// cell's regime.
#[derive(Debug, Clone)]
pub struct CalibratedCoverage {
    /// The dictionary factor that was applied.
    pub factor: f64,
    /// Campaign accounting for the calibrated interval (same attempted
    /// and fitted counts as the raw tally — calibration never changes
    /// which campaigns fit, only which cover).
    pub tally: Tally,
    /// Empirical calibrated coverage rate (NaN if none fitted).
    pub rate: f64,
    /// Binomial standard error at the nominal level.
    pub se: f64,
    /// `|rate − level| ≤ 3·se` — what the calibrated gate checks.
    pub within_band: bool,
}

/// Coverage outcome for one (cell, method) pair.
#[derive(Debug, Clone)]
pub struct MethodCoverage {
    /// Method label.
    pub method: &'static str,
    /// The exhaustive campaign accounting.
    pub tally: Tally,
    /// Empirical coverage rate among fitted campaigns (NaN if none).
    pub rate: f64,
    /// Binomial standard error of the rate at the nominal level.
    pub se: f64,
    /// `|rate − level| ≤ 3·se` (the calibrated-method gate).
    pub within_band: bool,
    /// `rate < level − 3·se` (the VB1 flag).
    pub under_covering: bool,
    /// Calibrated-interval coverage, when a dictionary entry applied.
    pub calibrated: Option<CalibratedCoverage>,
}

/// Runs the coverage study for every method on one cell. With a
/// calibration dictionary, every campaign additionally tallies the
/// calibrated interval (spread rescaled about the posterior median by
/// the regime's learned factor) against the same truth — the held-out
/// evidence behind the calibrated conformance gate.
pub fn run_cell_coverage(
    cell: &GridCell,
    config: &CoverageConfig,
    calibration: Option<&CalibrationDictionary>,
) -> Vec<MethodCoverage> {
    let spec = cell.spec();
    let prior = cell.prior();
    let vb2_options = cell.vb2_options();
    let methods = Method::all();
    let factors: Vec<Option<Calibration>> = methods
        .iter()
        .map(|m| {
            calibration.and_then(|dict| {
                dict.calibration(
                    cell.model_key(),
                    cell.data_key(),
                    cell.prior_key(),
                    m.label(),
                )
            })
        })
        .collect();
    let mut tallies: Vec<Tally> = methods.iter().map(|_| Tally::default()).collect();
    let mut cal_tallies: Vec<Tally> = methods.iter().map(|_| Tally::default()).collect();

    for rep in 0..config.replications {
        // One RNG per campaign, truth drawn before the trace, so the
        // stream layout matches SBC's and campaigns are independently
        // reproducible.
        let mut rng = cell.rng(config.seed, rep as u64);
        let (omega_true, beta_true) =
            sample_prior(&prior, &mut rng).unwrap_or((cell.omega_true(), cell.beta_true()));
        match cell.simulate_with(omega_true, beta_true, &mut rng) {
            Ok(data) => {
                for (i, (method, tally)) in methods.iter().zip(tallies.iter_mut()).enumerate() {
                    match method.fit(spec, prior, &data, &vb2_options) {
                        Ok(p) => {
                            let raw = p.credible_interval_omega(config.level);
                            if let Some(cal) = &factors[i] {
                                cal_tallies[i].record(
                                    Ok(cal.interval(p.quantile_omega(0.5), raw, 0.0)),
                                    omega_true,
                                );
                            }
                            tally.record(Ok(raw), omega_true);
                        }
                        Err(reason) => {
                            if factors[i].is_some() {
                                cal_tallies[i].record(Err(reason.clone()), omega_true);
                            }
                            tally.record(Err(reason), omega_true);
                        }
                    }
                }
            }
            Err(reason) => {
                // An unusable campaign counts against every method's
                // denominator, with its reason, instead of vanishing.
                for (i, tally) in tallies.iter_mut().enumerate() {
                    if factors[i].is_some() {
                        cal_tallies[i].record(Err(reason.clone()), omega_true);
                    }
                    tally.record(Err(reason.clone()), omega_true);
                }
            }
        }
    }

    methods
        .iter()
        .zip(tallies)
        .zip(factors.iter().zip(cal_tallies))
        .map(|((method, tally), (factor, cal_tally))| {
            let rate = tally.rate();
            let se = binomial_se(config.level, tally.fitted);
            let deviation = rate - config.level;
            let calibrated = factor.map(|cal| {
                let rate = cal_tally.rate();
                let se = binomial_se(config.level, cal_tally.fitted);
                CalibratedCoverage {
                    factor: cal.factor,
                    rate,
                    se,
                    within_band: cal_tally.fitted > 0 && (rate - config.level).abs() <= 3.0 * se,
                    tally: cal_tally,
                }
            });
            MethodCoverage {
                method: method.label(),
                rate,
                se,
                within_band: tally.fitted > 0 && deviation.abs() <= 3.0 * se,
                under_covering: tally.fitted > 0 && deviation < -3.0 * se,
                tally,
                calibrated,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_arithmetic() {
        let mut tally = Tally::default();
        tally.record(Ok((1.0, 3.0)), 2.0);
        tally.record(Ok((1.0, 3.0)), 5.0);
        tally.record(Err("IllPosed".to_string()), 2.0);
        tally.record(Err("IllPosed".to_string()), 2.0);
        tally.record(Err("TooFewFailures".to_string()), 2.0);
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.fitted, 2);
        assert_eq!(tally.covered, 1);
        assert_eq!(tally.dropped_total(), 3);
        assert_eq!(tally.dropped.get("IllPosed"), Some(&2));
        assert!((tally.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cell_coverage_accounts_for_every_campaign() {
        let cell = GridCell::smoke_grid()[0];
        let config = CoverageConfig {
            replications: 25,
            ..CoverageConfig::default()
        };
        let results = run_cell_coverage(&cell, &config, None);
        assert_eq!(results.len(), 4);
        for mc in &results {
            assert_eq!(mc.tally.attempted, config.replications, "{}", mc.method);
            assert_eq!(
                mc.tally.fitted + mc.tally.dropped_total(),
                mc.tally.attempted,
                "{}",
                mc.method
            );
            assert!(!(mc.within_band && mc.under_covering), "{}", mc.method);
            assert!(mc.calibrated.is_none(), "{}", mc.method);
        }
        // The paper's Tables 2–5 story on this cell: VB1's too-narrow
        // intervals under-cover, VB2's do not, and VB2 covers more.
        let get = |label: &str| {
            results
                .iter()
                .find(|mc| mc.method == label)
                .expect("method present")
        };
        let (vb2, vb1) = (get("VB2"), get("VB1"));
        assert!(vb1.under_covering, "VB1 covered {}", vb1.tally.covered);
        assert!(!vb2.under_covering, "VB2 covered {}", vb2.tally.covered);
        assert!(
            vb2.tally.covered > vb1.tally.covered,
            "VB2 {} vs VB1 {}",
            vb2.tally.covered,
            vb1.tally.covered
        );
    }

    #[test]
    fn calibrated_tallies_share_the_raw_denominator() {
        use nhpp_vb::calibration::{dictionary_key, CalibrationEntry};
        let cell = GridCell::smoke_grid()[0];
        let config = CoverageConfig {
            replications: 12,
            ..CoverageConfig::default()
        };
        let mut entries = std::collections::BTreeMap::new();
        // A generous widening for VB1 only; other methods stay raw.
        entries.insert(
            dictionary_key(cell.model_key(), cell.data_key(), cell.prior_key(), "VB1"),
            CalibrationEntry {
                factor: 3.0,
                raw_rate: 0.8,
                calibrated_rate: 0.95,
                fitted: 100,
            },
        );
        let dict = CalibrationDictionary {
            label: "CAL_UNIT".to_string(),
            seed: 1,
            replications: 100,
            level: config.level,
            entries,
        };
        let results = run_cell_coverage(&cell, &config, Some(&dict));
        for mc in &results {
            if mc.method == "VB1" {
                let cal = mc.calibrated.as_ref().expect("dictionary entry applied");
                assert_eq!(cal.factor, 3.0);
                assert_eq!(cal.tally.attempted, mc.tally.attempted);
                assert_eq!(cal.tally.fitted, mc.tally.fitted);
                // Widening can only gain coverage.
                assert!(cal.tally.covered >= mc.tally.covered);
            } else {
                assert!(mc.calibrated.is_none(), "{}", mc.method);
            }
        }
    }
}
