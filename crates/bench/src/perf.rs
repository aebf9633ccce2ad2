//! Machine-readable performance reports (`BENCH_*.json`) and the
//! regression gate that compares two of them.
//!
//! The repo keeps one `BENCH_<pr>.json` per performance-relevant PR at
//! the repository root; `bench_report run` regenerates the current one
//! and `bench_report compare` fails (or warns, in smoke mode) when a
//! named metric regresses more than the allowed fraction against the
//! previous report. All metrics are wall times in milliseconds — lower
//! is better — so the comparison rule is uniform.
//!
//! No serde in the tree (offline build), so the schema rides on the
//! shared minimal JSON reader/writer in [`crate::json`]. Malformed
//! input is a hard error — a corrupt report must never pass a
//! regression gate by being unreadable.

use crate::json::{self, json_number, json_string, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag emitted in every report; `compare` rejects files that do
/// not carry it.
pub const SCHEMA: &str = "nhpp-bench-report/v1";

/// One timed metric: the median of `samples` wall-clock runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Median wall time in milliseconds.
    pub median_ms: f64,
    /// Number of timed samples the median is taken over.
    pub samples: usize,
    /// Median of the same metric in the baseline report, when one was
    /// supplied to `bench_report run --baseline`.
    pub baseline_median_ms: Option<f64>,
    /// `baseline_median_ms / median_ms` (>1 = faster than baseline).
    pub speedup: Option<f64>,
}

/// A full performance report: label + named metrics (sorted by name so
/// the emitted JSON is deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Report label, conventionally `BENCH_<pr>`.
    pub label: String,
    /// Metric name → measurement.
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    /// Serialises the report to the canonical JSON layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(SCHEMA));
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        out.push_str("  \"metrics\": {\n");
        let last = self.metrics.len().saturating_sub(1);
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "    {}: {{ \"median_ms\": {}, \"samples\": {}",
                json_string(name),
                json_number(m.median_ms),
                m.samples
            );
            if let Some(b) = m.baseline_median_ms {
                let _ = write!(out, ", \"baseline_median_ms\": {}", json_number(b));
            }
            if let Some(s) = m.speedup {
                let _ = write!(out, ", \"speedup\": {}", json_number(s));
            }
            out.push_str(" }");
            out.push_str(if i == last { "\n" } else { ",\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report emitted by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema violation.
    /// Unknown keys are tolerated (forward compatibility); a missing or
    /// mismatched `schema` tag, or a metric without `median_ms`, is not.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = json::parse(text)?;
        let top = value
            .as_object()
            .ok_or("top-level value must be an object")?;
        let schema = top
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing \"schema\" tag")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        let label = top
            .get("label")
            .and_then(Value::as_str)
            .ok_or("missing \"label\"")?
            .to_string();
        let metrics_obj = top
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing \"metrics\" object")?;
        let mut metrics = BTreeMap::new();
        for (name, entry) in metrics_obj {
            let obj = entry
                .as_object()
                .ok_or_else(|| format!("metric {name:?} must be an object"))?;
            let median_ms = obj
                .get("median_ms")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name:?} missing numeric \"median_ms\""))?;
            if !median_ms.is_finite() || median_ms < 0.0 {
                return Err(format!("metric {name:?} has invalid median_ms {median_ms}"));
            }
            let samples = obj
                .get("samples")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name:?} missing \"samples\""))?
                as usize;
            metrics.insert(
                name.clone(),
                Metric {
                    median_ms,
                    samples,
                    baseline_median_ms: obj.get("baseline_median_ms").and_then(Value::as_f64),
                    speedup: obj.get("speedup").and_then(Value::as_f64),
                },
            );
        }
        Ok(Report { label, metrics })
    }
}

/// One regression-gate verdict for a metric present in both reports.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Old (baseline) median in milliseconds.
    pub old_ms: f64,
    /// New median in milliseconds.
    pub new_ms: f64,
    /// `new/old − 1`; positive means slower.
    pub change: f64,
    /// True when `change` exceeds the allowed regression fraction.
    pub regressed: bool,
}

/// Outcome of a full report comparison: per-shared-metric verdicts plus
/// the metrics that exist on only one side. A metric missing from the
/// baseline is a *new* benchmark (benign); a metric missing from the new
/// report means a scenario was renamed or deleted — exactly the case a
/// regression gate must not wave through silently.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Verdicts for metrics present in both reports.
    pub deltas: Vec<Delta>,
    /// Metrics only in the new report (added benchmarks), sorted.
    pub missing_in_baseline: Vec<String>,
    /// Metrics only in the baseline (dropped/renamed benchmarks), sorted.
    pub missing_in_new: Vec<String>,
}

/// Compares `new` against `old`: shared metrics are flagged when their
/// median grew by more than `max_regression` (e.g. `0.10` = +10%), and
/// metrics present in only one report are listed instead of skipped, so
/// the caller decides whether a vanished benchmark passes the gate.
pub fn compare_full(old: &Report, new: &Report, max_regression: f64) -> Comparison {
    let mut result = Comparison::default();
    for (name, m_new) in &new.metrics {
        let Some(m_old) = old.metrics.get(name) else {
            result.missing_in_baseline.push(name.clone());
            continue;
        };
        if m_old.median_ms <= 0.0 {
            continue;
        }
        let change = m_new.median_ms / m_old.median_ms - 1.0;
        result.deltas.push(Delta {
            name: name.clone(),
            old_ms: m_old.median_ms,
            new_ms: m_new.median_ms,
            change,
            regressed: change > max_regression,
        });
    }
    for name in old.metrics.keys() {
        if !new.metrics.contains_key(name) {
            result.missing_in_new.push(name.clone());
        }
    }
    result
}

/// Shared-metric verdicts only — [`compare_full`] without the missing
/// lists, kept for callers that tolerate report-shape drift.
pub fn compare(old: &Report, new: &Report, max_regression: f64) -> Vec<Delta> {
    compare_full(old, new, max_regression).deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "vb2-sweep".to_string(),
            Metric {
                median_ms: 12.5,
                samples: 5,
                baseline_median_ms: Some(25.0),
                speedup: Some(2.0),
            },
        );
        metrics.insert(
            "nint-fit".to_string(),
            Metric {
                median_ms: 80.0,
                samples: 5,
                baseline_median_ms: None,
                speedup: None,
            },
        );
        Report {
            label: "BENCH_TEST".to_string(),
            metrics,
        }
    }

    #[test]
    fn json_round_trip() {
        let report = sample();
        let text = report.to_json();
        let back = Report::from_json(&text).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("{\"schema\": \"other/v9\"}").is_err());
        let text = sample().to_json();
        let truncated = &text[..text.len() - 4];
        assert!(Report::from_json(truncated).is_err());
        let garbage = format!("{text}x");
        assert!(Report::from_json(&garbage).is_err());
    }

    #[test]
    fn metric_without_median_is_malformed() {
        let text = format!(
            "{{\"schema\": {SCHEMA:?}, \"label\": \"x\", \"metrics\": {{\"a\": {{\"samples\": 3}}}}}}"
        );
        assert!(Report::from_json(&text).is_err());
    }

    #[test]
    fn compare_flags_only_large_regressions() {
        let old = sample();
        let mut new = sample();
        new.metrics.get_mut("vb2-sweep").unwrap().median_ms = 13.0; // +4%
        new.metrics.get_mut("nint-fit").unwrap().median_ms = 100.0; // +25%
        new.metrics.insert(
            "fresh-metric".to_string(),
            Metric {
                median_ms: 1.0,
                samples: 5,
                baseline_median_ms: None,
                speedup: None,
            },
        );
        let deltas = compare(&old, &new, 0.10);
        // The metric present only in `new` is skipped entirely.
        assert_eq!(deltas.len(), 2);
        let nint = deltas.iter().find(|d| d.name == "nint-fit").unwrap();
        assert!(nint.regressed && (nint.change - 0.25).abs() < 1e-12);
        let sweep = deltas.iter().find(|d| d.name == "vb2-sweep").unwrap();
        assert!(!sweep.regressed);
    }

    #[test]
    fn compare_full_reports_one_sided_metrics() {
        let mut old = sample();
        old.metrics.insert(
            "dropped-metric".to_string(),
            Metric {
                median_ms: 3.0,
                samples: 5,
                baseline_median_ms: None,
                speedup: None,
            },
        );
        let mut new = sample();
        new.metrics.insert(
            "fresh-metric".to_string(),
            Metric {
                median_ms: 1.0,
                samples: 5,
                baseline_median_ms: None,
                speedup: None,
            },
        );
        let full = compare_full(&old, &new, 0.10);
        assert_eq!(full.deltas.len(), 2);
        assert_eq!(full.missing_in_baseline, vec!["fresh-metric".to_string()]);
        assert_eq!(full.missing_in_new, vec!["dropped-metric".to_string()]);
        // The identical shared metrics carry no regression.
        assert!(full.deltas.iter().all(|d| !d.regressed));
        // The convenience wrapper matches the full deltas.
        let plain = compare(&old, &new, 0.10);
        assert_eq!(plain.len(), full.deltas.len());
    }
}
