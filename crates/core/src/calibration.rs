//! Coverage recalibration of credible intervals (the TVB-style
//! "bend-to-mend" layer, ROADMAP item 4).
//!
//! The conformance harness proves that VB1's credible intervals
//! structurally under-cover: its factorised posterior has zero ω–β
//! covariance, so its quantile spread is too narrow at every nominal
//! level. This module carries the *fix* without touching the fit:
//!
//! * [`Calibration`] — a pure transform that rescales a posterior's
//!   quantile spread about the posterior **median** by a factor `c`:
//!   `q_c(p) = median + c·(q(p) − median)`. `c = 1` is the identity,
//!   `c > 1` widens, `c < 1` narrows. Because the underlying quantile
//!   function is monotone in `p`, the calibrated interval endpoints
//!   stay monotone in the nominal level for any fixed `c ≥ 0`, and the
//!   interval always contains the median.
//! * [`CalibrationDictionary`] — a versioned (`nhpp-calibration/v1`)
//!   table of factors keyed by `model × data-kind × prior × method`
//!   (e.g. `"go-dt-info/VB1"`), learned offline by the conformance
//!   crate's grid-search learner against empirical coverage and loaded
//!   at boot by `nhpp-serve`. The dictionary records its learning
//!   provenance (seed, replication count, nominal level) so a served
//!   `calibrated: true` answer can echo exactly which table produced
//!   it.
//!
//! The learner lives in `nhpp_conformance::calibrate` (it needs the
//! scenario grid); this module owns the transform and the dictionary
//! format because the serving layer must apply both without depending
//! on the conformance stack.

use crate::bands::BandPoint;
use nhpp_data::json::{self, json_number, json_string, Value};
use nhpp_models::prior::{NhppPrior, ParamPrior};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the dictionary format.
pub const SCHEMA: &str = "nhpp-calibration/v1";

/// A spread rescaling about the posterior median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Spread multiplier; `1.0` is the identity.
    pub factor: f64,
}

impl Calibration {
    /// The identity transform (`factor = 1`).
    pub fn identity() -> Calibration {
        Calibration { factor: 1.0 }
    }

    /// A transform with the given spread factor.
    ///
    /// # Panics
    ///
    /// A negative or non-finite factor would destroy the monotonicity
    /// invariant, so it is rejected loudly.
    pub fn new(factor: f64) -> Calibration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "calibration factor must be finite and non-negative, got {factor}"
        );
        Calibration { factor }
    }

    /// `true` when the transform is exactly the identity.
    pub fn is_identity(&self) -> bool {
        self.factor == 1.0
    }

    /// Rescales one quantile about the median. At `factor == 1` the
    /// value passes through bitwise (no arithmetic is applied), so an
    /// identity calibration can never perturb a served answer.
    pub fn quantile(&self, median: f64, q: f64) -> f64 {
        if self.is_identity() {
            return q;
        }
        median + self.factor * (q - median)
    }

    /// Rescales an equal-tail interval about the median, clamping the
    /// lower endpoint at `floor` (scale parameters are positive; a
    /// widened interval must not extend below the parameter's support).
    /// Clamping only ever raises a lower endpoint that truth — being in
    /// the support — could never have fallen below, so empirical
    /// coverage is unaffected by it.
    pub fn interval(&self, median: f64, (lo, hi): (f64, f64), floor: f64) -> (f64, f64) {
        (
            self.quantile(median, lo).max(floor),
            self.quantile(median, hi),
        )
    }

    /// Rescales a mean-value band in place, widening each point's
    /// `[lower, upper]` about its centre `mean` (the band's published
    /// middle line) and flooring the lower edge at zero — `Λ(t)` is a
    /// count mean.
    pub fn apply_band(&self, band: &mut [BandPoint]) {
        if self.is_identity() {
            return;
        }
        for p in band {
            p.lower = self.quantile(p.mean, p.lower).max(0.0);
            p.upper = self.quantile(p.mean, p.upper);
        }
    }

    /// Rescales an SPC chart statistic `p ∈ [0, 1]` about the centre
    /// line: the chart plots a posterior tail probability, and a spread
    /// factor `c` on the posterior quantiles maps to dividing the
    /// statistic's deviation from the centre by `c` (a wider posterior
    /// assigns the same observed gap a less extreme probability).
    pub fn spc_statistic(&self, p: f64, centre: f64) -> f64 {
        if self.is_identity() {
            return p;
        }
        (centre + (p - centre) / self.factor).clamp(0.0, 1.0)
    }
}

/// One learned dictionary entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationEntry {
    /// The spread factor the learner selected.
    pub factor: f64,
    /// Empirical coverage of the *raw* interval on the learning sample.
    pub raw_rate: f64,
    /// Empirical coverage at `factor` on the learning sample.
    pub calibrated_rate: f64,
    /// Fitted campaigns behind the two rates.
    pub fitted: usize,
}

/// A versioned calibration table plus its learning provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationDictionary {
    /// Human label recorded at learning time (e.g. `CAL_PR9`).
    pub label: String,
    /// Base RNG seed of the learning sweep (disjoint from the
    /// conformance coverage seed, so the gate validates out-of-sample).
    pub seed: u64,
    /// Campaigns per grid cell in the learning sweep.
    pub replications: usize,
    /// Nominal level the factors were tuned at.
    pub level: f64,
    /// `"<model>-<data>-<prior>/<METHOD>"` → entry.
    pub entries: BTreeMap<String, CalibrationEntry>,
}

/// The canonical dictionary key for a regime × method pair, e.g.
/// `key("go", "dt", "info", "VB1") == "go-dt-info/VB1"`.
pub fn dictionary_key(model: &str, data: &str, prior: &str, method: &str) -> String {
    format!("{model}-{data}-{prior}/{method}")
}

/// Maps a prior to its dictionary informativeness axis: any flat
/// marginal makes the regime `"noinfo"` (no generative prior exists).
pub fn prior_informativeness(prior: &NhppPrior) -> &'static str {
    match (&prior.omega, &prior.beta) {
        (ParamPrior::Gamma(_), ParamPrior::Gamma(_)) => "info",
        _ => "noinfo",
    }
}

impl CalibrationDictionary {
    /// Looks up the entry for a regime × method pair.
    pub fn lookup(
        &self,
        model: &str,
        data: &str,
        prior: &str,
        method: &str,
    ) -> Option<&CalibrationEntry> {
        self.entries
            .get(&dictionary_key(model, data, prior, method))
    }

    /// The transform for a regime × method pair, when present.
    pub fn calibration(
        &self,
        model: &str,
        data: &str,
        prior: &str,
        method: &str,
    ) -> Option<Calibration> {
        self.lookup(model, data, prior, method)
            .map(|e| Calibration::new(e.factor))
    }

    /// Serialises to the canonical `nhpp-calibration/v1` layout
    /// (sorted keys via the `BTreeMap`, so the rendering is
    /// deterministic and diffs cleanly under `--bless`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(SCHEMA));
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"replications\": {},", self.replications);
        let _ = writeln!(out, "  \"level\": {},", json_number(self.level));
        out.push_str("  \"entries\": {\n");
        for (i, (key, e)) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "    {}: {{ \"factor\": {}, \"raw_rate\": {}, \"calibrated_rate\": {}, \
                 \"fitted\": {} }}",
                json_string(key),
                json_number(e.factor),
                json_number(e.raw_rate),
                json_number(e.calibrated_rate),
                e.fitted,
            );
            out.push_str(if i + 1 == self.entries.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a dictionary, validating the schema tag and every entry.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema violation; factors
    /// outside `[0, ∞)` are rejected here so a corrupt dictionary can
    /// never reach the serving path.
    pub fn parse(text: &str) -> Result<CalibrationDictionary, String> {
        let value = json::parse(text)?;
        let top = value
            .as_object()
            .ok_or("top-level value must be an object")?;
        let field = |key: &str| top.get(key).ok_or_else(|| format!("missing \"{key}\""));
        let schema = field("schema")?
            .as_str()
            .ok_or("\"schema\" must be a string")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        let label = field("label")?
            .as_str()
            .ok_or("\"label\" must be a string")?
            .to_string();
        let seed = field("seed")?.as_f64().ok_or("\"seed\" must be a number")? as u64;
        let replications = field("replications")?
            .as_f64()
            .ok_or("\"replications\" must be a number")? as usize;
        let level = field("level")?
            .as_f64()
            .ok_or("\"level\" must be a number")?;
        if !(0.0 < level && level < 1.0) {
            return Err(format!("level {level} outside (0, 1)"));
        }
        let raw_entries = field("entries")?
            .as_object()
            .ok_or("\"entries\" must be an object")?;
        let mut entries = BTreeMap::new();
        for (key, raw) in raw_entries {
            let obj = raw
                .as_object()
                .ok_or_else(|| format!("entry {key:?} must be an object"))?;
            let num = |name: &str| {
                obj.get(name)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("entry {key:?} is missing numeric \"{name}\""))
            };
            let factor = num("factor")?;
            if !(factor.is_finite() && factor >= 0.0) {
                return Err(format!("entry {key:?} has invalid factor {factor}"));
            }
            entries.insert(
                key.clone(),
                CalibrationEntry {
                    factor,
                    raw_rate: num("raw_rate")?,
                    calibrated_rate: num("calibrated_rate")?,
                    fitted: num("fitted")? as usize,
                },
            );
        }
        Ok(CalibrationDictionary {
            label,
            seed,
            replications,
            level,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dictionary() -> CalibrationDictionary {
        let mut entries = BTreeMap::new();
        entries.insert(
            "go-dt-info/VB1".to_string(),
            CalibrationEntry {
                factor: 1.625,
                raw_rate: 0.84,
                calibrated_rate: 0.955,
                fitted: 400,
            },
        );
        entries.insert(
            "go-dt-info/VB2".to_string(),
            CalibrationEntry {
                factor: 1.0,
                raw_rate: 0.95,
                calibrated_rate: 0.95,
                fitted: 400,
            },
        );
        CalibrationDictionary {
            label: "CAL_TEST".to_string(),
            seed: 0xCA11B8,
            replications: 200,
            level: 0.95,
            entries,
        }
    }

    #[test]
    fn identity_is_bitwise_passthrough() {
        let c = Calibration::identity();
        for q in [0.1, -3.75, 1e300, f64::MIN_POSITIVE] {
            // Not just approximately equal: no arithmetic at factor 1.
            assert_eq!(c.quantile(42.0, q).to_bits(), q.to_bits());
        }
        assert!(c.is_identity());
        assert!(!Calibration::new(1.5).is_identity());
    }

    #[test]
    fn widening_and_narrowing_move_endpoints_about_the_median() {
        let wide = Calibration::new(2.0);
        let (lo, hi) = wide.interval(10.0, (8.0, 14.0), 0.0);
        assert_eq!((lo, hi), (6.0, 18.0));
        let narrow = Calibration::new(0.5);
        let (lo, hi) = narrow.interval(10.0, (8.0, 14.0), 0.0);
        assert_eq!((lo, hi), (9.0, 12.0));
        // The floor keeps a widened scale-parameter interval in support.
        let (lo, _) = wide.interval(1.0, (0.2, 3.0), 0.0);
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn spc_statistic_contracts_toward_the_centre_line() {
        let c = Calibration::new(2.0);
        assert_eq!(c.spc_statistic(0.9, 0.5), 0.7);
        assert_eq!(c.spc_statistic(0.1, 0.5), 0.3);
        assert_eq!(c.spc_statistic(0.5, 0.5), 0.5);
        assert_eq!(Calibration::identity().spc_statistic(0.001, 0.5), 0.001);
    }

    #[test]
    fn band_rescaling_is_centred_on_the_mean() {
        let mut band = vec![BandPoint {
            t: 1.0,
            lower: 4.0,
            mean: 10.0,
            upper: 13.0,
        }];
        Calibration::new(2.0).apply_band(&mut band);
        assert_eq!(band[0].lower, 0.0); // 10 − 2·6 = −2, floored.
        assert_eq!(band[0].upper, 16.0);
        assert_eq!(band[0].mean, 10.0);
    }

    #[test]
    fn dictionary_round_trips_through_json() {
        let dict = dictionary();
        let text = dict.to_json();
        let back = CalibrationDictionary::parse(&text).expect("valid dictionary");
        assert_eq!(back, dict);
        let entry = back.lookup("go", "dt", "info", "VB1").expect("entry");
        assert_eq!(entry.factor, 1.625);
        assert!(back
            .calibration("go", "dt", "info", "VB2")
            .unwrap()
            .is_identity());
        assert!(back.lookup("dss", "dg", "noinfo", "VB1").is_none());
    }

    #[test]
    fn corrupt_dictionaries_are_rejected() {
        assert!(CalibrationDictionary::parse("{}").is_err());
        assert!(CalibrationDictionary::parse("{\"schema\": \"other/v9\"}").is_err());
        let bad_factor = dictionary().to_json().replace("1.625", "-2.0");
        assert!(CalibrationDictionary::parse(&bad_factor)
            .unwrap_err()
            .contains("invalid factor"));
        let missing_rate = dictionary()
            .to_json()
            .replace("\"raw_rate\"", "\"raw_rat\"");
        assert!(CalibrationDictionary::parse(&missing_rate).is_err());
    }

    #[test]
    fn prior_axis_matches_flatness() {
        assert_eq!(prior_informativeness(&NhppPrior::flat()), "noinfo");
        let gamma = nhpp_dist::Gamma::from_mean_sd(10.0, 5.0).unwrap();
        assert_eq!(
            prior_informativeness(&NhppPrior::informative(gamma, gamma)),
            "info"
        );
        assert_eq!(dictionary_key("go", "dt", "info", "VB1"), "go-dt-info/VB1");
    }
}
