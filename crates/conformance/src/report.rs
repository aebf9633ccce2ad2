//! The `conformance/v1` machine-readable report and its pass/fail gate.
//!
//! Mirrors the `bench/v1` shape from the perf-regression pipeline: a
//! schema tag, a label, and a deterministic (sorted-key) body, written
//! with the shared minimal JSON machinery in [`nhpp_bench::json`]. The
//! gate encodes the paper's claim directly: on every Info cell of the
//! gated grid, the exact methods (VB2, NINT) must pass SBC
//! rank-uniformity *and* hold nominal coverage within ±3 binomial
//! standard errors, while VB1 must be flagged under-covering somewhere
//! on the grid. The approximate methods' (VB1, LAPL) raw misses are
//! characterized, and a calibrated run hard-gates their *calibrated*
//! coverage instead — see [`gate`].

use crate::coverage::{run_cell_coverage, CoverageConfig, MethodCoverage};
use crate::sbc::{run_sbc, SbcConfig, SbcResult};
use crate::scenario::{GridCell, PriorKind};
use nhpp_bench::json::{self, json_number, json_string, Value};
use nhpp_vb::calibration::CalibrationDictionary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag emitted in every report.
pub const SCHEMA: &str = "nhpp-conformance-report/v1";

/// Which slice of the scenario grid to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The deterministic PR-time subset (Info cells only).
    Smoke,
    /// All sixteen cells.
    Full,
}

impl Grid {
    /// The cells this grid sweeps.
    pub fn cells(&self) -> Vec<GridCell> {
        match self {
            Grid::Smoke => GridCell::smoke_grid(),
            Grid::Full => GridCell::grid(),
        }
    }

    /// Stable name used in the report body.
    pub fn name(&self) -> &'static str {
        match self {
            Grid::Smoke => "smoke",
            Grid::Full => "full",
        }
    }
}

/// Results for one grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell label (`"go-dt-info-small"`).
    pub name: String,
    /// `true` for proper-prior cells (the gated ones).
    pub info: bool,
    /// Per-method coverage outcomes.
    pub coverage: Vec<MethodCoverage>,
    /// Per-method SBC outcomes (empty on NoInfo cells — SBC needs a
    /// proper generative prior).
    pub sbc: Vec<SbcResult>,
}

/// Gate verdict over a run.
#[derive(Debug, Clone)]
pub struct Gate {
    /// `true` when every gated criterion held.
    pub pass: bool,
    /// Human-readable description of each violated criterion.
    pub failures: Vec<String>,
}

/// A complete conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceRun {
    /// Report label, conventionally `CONFORMANCE_<pr>`.
    pub label: String,
    /// Grid slice that was swept.
    pub grid: Grid,
    /// Nominal interval level used by the coverage runner.
    pub level: f64,
    /// Label of the calibration dictionary applied, if any.
    pub calibration: Option<String>,
    /// Per-cell results in grid order.
    pub cells: Vec<CellResult>,
    /// The gate verdict.
    pub gate: Gate,
}

/// Sweeps the grid: coverage on every cell, SBC on the Info cells. With
/// a calibration dictionary, every cell additionally tallies the
/// calibrated intervals and the gate grows the calibrated criteria —
/// since the coverage seed differs from the learner's, this is the
/// held-out validation of the dictionary.
pub fn run(
    grid: Grid,
    label: &str,
    coverage_config: &CoverageConfig,
    sbc_config: &SbcConfig,
    calibration: Option<&CalibrationDictionary>,
) -> ConformanceRun {
    let mut cells = Vec::new();
    for cell in grid.cells() {
        let info = cell.prior == PriorKind::Info;
        let coverage = run_cell_coverage(&cell, coverage_config, calibration);
        let sbc = if info {
            crate::methods::Method::all()
                .iter()
                .map(|&m| run_sbc(&cell, m, sbc_config))
                .collect()
        } else {
            Vec::new()
        };
        cells.push(CellResult {
            name: cell.name(),
            info,
            coverage,
            sbc,
        });
    }
    let gate = gate(&cells, coverage_config.level);
    ConformanceRun {
        label: label.to_string(),
        grid,
        level: coverage_config.level,
        calibration: calibration.map(|d| d.label.clone()),
        cells,
        gate,
    }
}

/// Evaluates the gate at nominal `level`.
///
/// The methods split into two classes. **Exact** methods (VB2, NINT)
/// claim calibrated posteriors, so the raw criteria hold them to it on
/// the Info cells: within the ±3·se coverage band and SBC-uniform.
/// **Approximate** methods (VB1, LAPL) have structural interval
/// deficits — VB1's variational variance collapse everywhere, LAPL's
/// skew deficit at full-grid power on about half the cells — so their
/// raw coverage is *characterized*, not gated: VB1 must be flagged
/// under-covering somewhere (the paper's headline), and any raw miss
/// is reported in the summary/JSON.
///
/// The coverage guarantee for the approximate methods is owned by the
/// recalibration layer. In a calibrated run (any cell carrying
/// calibrated tallies), wherever raw VB1/LAPL under-covers the
/// dictionary must supply a factor *and* the calibrated coverage must
/// land within the ±3·se band; an exact method's calibrated coverage
/// must never leave the band on an Info cell (non-regression: their
/// factors snap to 1, so this cannot differ from the raw criterion
/// unless the dictionary is wrong).
pub fn gate(cells: &[CellResult], level: f64) -> Gate {
    let mut failures = Vec::new();
    let mut vb1_flagged = false;
    for cell in cells.iter().filter(|c| c.info) {
        for mc in &cell.coverage {
            match mc.method {
                "VB2" | "NINT" if !mc.within_band => {
                    failures.push(format!(
                        "{}/{}: coverage {:.3} outside {level:.3} ± 3·{:.3}",
                        cell.name, mc.method, mc.rate, mc.se
                    ));
                }
                "VB1" if mc.under_covering => {
                    vb1_flagged = true;
                }
                _ => {}
            }
        }
        for sbc in &cell.sbc {
            if matches!(sbc.method, "VB2" | "NINT") && !sbc.calibrated_omega {
                failures.push(format!(
                    "{}/{}: SBC rank-uniformity rejected (chi2 p={:.2e}, ks p={:.2e})",
                    cell.name, sbc.method, sbc.chi2_omega.p_value, sbc.ks_omega.p_value
                ));
            }
        }
    }
    if !vb1_flagged {
        failures.push("VB1 was not flagged under-covering on any Info cell".to_string());
    }
    let calibrated_run = cells
        .iter()
        .any(|c| c.coverage.iter().any(|mc| mc.calibrated.is_some()));
    if calibrated_run {
        for cell in cells {
            for mc in &cell.coverage {
                match (mc.method, &mc.calibrated) {
                    ("VB1" | "LAPL", Some(cal)) if mc.under_covering && !cal.within_band => {
                        failures.push(format!(
                            "{}/{}: calibrated coverage {:.3} (factor {}) still outside \
                             {level:.3} ± 3·{:.3}",
                            cell.name, mc.method, cal.rate, cal.factor, cal.se
                        ));
                    }
                    ("VB1" | "LAPL", None) if mc.under_covering => {
                        failures.push(format!(
                            "{}/{}: under-covering but no calibration entry for its regime",
                            cell.name, mc.method
                        ));
                    }
                    ("VB2" | "NINT", Some(cal)) if cell.info && !cal.within_band => {
                        failures.push(format!(
                            "{}/{}: calibration regressed coverage to {:.3} (factor {})",
                            cell.name, mc.method, cal.rate, cal.factor
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
    Gate {
        pass: failures.is_empty(),
        failures,
    }
}

fn json_dropped(dropped: &BTreeMap<String, usize>) -> String {
    let mut out = String::from("{");
    for (i, (reason, count)) in dropped.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_string(reason), count);
    }
    out.push('}');
    out
}

/// `NaN`-tolerant number rendering (`null` when not finite — a rate with
/// zero fitted campaigns).
fn json_maybe(x: f64) -> String {
    if x.is_finite() {
        json_number(x)
    } else {
        "null".to_string()
    }
}

impl ConformanceRun {
    /// Serialises the run to the canonical `conformance/v1` layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(SCHEMA));
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        let _ = writeln!(out, "  \"grid\": {},", json_string(self.grid.name()));
        let _ = writeln!(out, "  \"level\": {},", json_number(self.level));
        let _ = writeln!(
            out,
            "  \"calibration\": {},",
            match &self.calibration {
                Some(label) => json_string(label),
                None => "null".to_string(),
            }
        );
        out.push_str("  \"cells\": {\n");
        for (ci, cell) in self.cells.iter().enumerate() {
            let _ = writeln!(out, "    {}: {{", json_string(&cell.name));
            let _ = writeln!(out, "      \"info\": {},", cell.info);
            out.push_str("      \"coverage\": {\n");
            for (i, mc) in cell.coverage.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {}: {{ \"attempted\": {}, \"fitted\": {}, \"covered\": {}, \
                     \"rate\": {}, \"se\": {}, \"within_band\": {}, \"under_covering\": {}, \
                     \"dropped\": {}",
                    json_string(mc.method),
                    mc.tally.attempted,
                    mc.tally.fitted,
                    mc.tally.covered,
                    json_maybe(mc.rate),
                    json_maybe(mc.se),
                    mc.within_band,
                    mc.under_covering,
                    json_dropped(&mc.tally.dropped),
                );
                if let Some(cal) = &mc.calibrated {
                    let _ = write!(
                        out,
                        ", \"calibrated\": {{ \"factor\": {}, \"covered\": {}, \"rate\": {}, \
                         \"se\": {}, \"within_band\": {} }}",
                        json_number(cal.factor),
                        cal.tally.covered,
                        json_maybe(cal.rate),
                        json_maybe(cal.se),
                        cal.within_band,
                    );
                }
                out.push_str(" }");
                out.push_str(if i + 1 == cell.coverage.len() {
                    "\n"
                } else {
                    ",\n"
                });
            }
            out.push_str("      },\n");
            out.push_str("      \"sbc\": {\n");
            for (i, sbc) in cell.sbc.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {}: {{ \"attempted\": {}, \"used\": {}, \
                     \"chi2_omega\": {}, \"chi2_p_omega\": {}, \
                     \"ks_omega\": {}, \"ks_p_omega\": {}, \
                     \"chi2_p_beta\": {}, \"ks_p_beta\": {}, \
                     \"calibrated_omega\": {}, \"dropped\": {} }}",
                    json_string(sbc.method),
                    sbc.attempted,
                    sbc.pits_omega.len(),
                    json_maybe(sbc.chi2_omega.statistic),
                    json_maybe(sbc.chi2_omega.p_value),
                    json_maybe(sbc.ks_omega.statistic),
                    json_maybe(sbc.ks_omega.p_value),
                    json_maybe(sbc.chi2_beta.p_value),
                    json_maybe(sbc.ks_beta.p_value),
                    sbc.calibrated_omega,
                    json_dropped(&sbc.dropped),
                );
                out.push_str(if i + 1 == cell.sbc.len() { "\n" } else { ",\n" });
            }
            out.push_str("      }\n");
            out.push_str("    }");
            out.push_str(if ci + 1 == self.cells.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  },\n");
        out.push_str("  \"gate\": {\n");
        let _ = writeln!(out, "    \"pass\": {},", self.gate.pass);
        out.push_str("    \"failures\": [");
        for (i, f) in self.gate.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(f));
        }
        out.push_str("]\n  }\n}\n");
        out
    }

    /// Human-readable summary for the console.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "conformance run {} over the {} grid (level {:.0}%)",
            self.label,
            self.grid.name(),
            self.level * 100.0
        );
        if let Some(calibration) = &self.calibration {
            let _ = writeln!(out, "calibration dictionary: {calibration}");
        }
        for cell in &self.cells {
            let _ = writeln!(out, "  {}", cell.name);
            for mc in &cell.coverage {
                let _ = writeln!(
                    out,
                    "    {:<5} coverage {:>5}  rate {}  band {}  dropped {}",
                    mc.method,
                    format!("{}/{}", mc.tally.covered, mc.tally.fitted),
                    if mc.rate.is_finite() {
                        format!("{:.1}%", mc.rate * 100.0)
                    } else {
                        "  n/a".to_string()
                    },
                    if mc.within_band {
                        "ok"
                    } else if mc.under_covering {
                        "UNDER"
                    } else {
                        "OUT"
                    },
                    mc.tally.dropped_total(),
                );
                if let Some(cal) = &mc.calibrated {
                    let _ = writeln!(
                        out,
                        "    {:<5} calibrated {:>2}  rate {}  band {}  (factor {})",
                        mc.method,
                        "",
                        if cal.rate.is_finite() {
                            format!("{:.1}%", cal.rate * 100.0)
                        } else {
                            "  n/a".to_string()
                        },
                        if cal.within_band { "ok" } else { "OUT" },
                        cal.factor,
                    );
                }
            }
            for sbc in &cell.sbc {
                let _ = writeln!(
                    out,
                    "    {:<5} SBC      n {:>4}  chi2 p {:.2e}  ks p {:.2e}  {}",
                    sbc.method,
                    sbc.pits_omega.len(),
                    sbc.chi2_omega.p_value,
                    sbc.ks_omega.p_value,
                    if sbc.calibrated_omega {
                        "uniform"
                    } else {
                        "REJECTED"
                    },
                );
            }
        }
        let _ = writeln!(
            out,
            "gate: {}",
            if self.gate.pass { "PASS" } else { "FAIL" }
        );
        for f in &self.gate.failures {
            let _ = writeln!(out, "  - {f}");
        }
        out
    }
}

/// Reads back just the gate verdict of an emitted report (what the CI
/// artifact check needs), validating the schema tag.
///
/// # Errors
///
/// A description of the first syntax or schema violation.
pub fn gate_passed(text: &str) -> Result<bool, String> {
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
    top.get("gate")
        .and_then(Value::as_object)
        .and_then(|g| g.get("pass"))
        .and_then(Value::as_bool)
        .ok_or_else(|| "missing gate.pass".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::Tally;
    use crate::stats::UniformityTest;

    fn fake_cell(vb1_under: bool) -> CellResult {
        let mut tally = Tally::default();
        for _ in 0..57 {
            tally.record(Ok((0.0, 100.0)), 50.0);
        }
        for _ in 0..3 {
            tally.record(Ok((0.0, 1.0)), 50.0);
        }
        let mk = |method: &'static str, within: bool, under: bool| MethodCoverage {
            method,
            tally: tally.clone(),
            rate: 0.95,
            se: 0.028,
            within_band: within,
            under_covering: under,
            calibrated: None,
        };
        let uniform = UniformityTest {
            statistic: 5.0,
            p_value: 0.5,
        };
        let sbc = |method: &'static str, ok: bool| SbcResult {
            method,
            attempted: 10,
            pits_omega: vec![0.5; 10],
            pits_beta: vec![0.5; 10],
            dropped: BTreeMap::new(),
            chi2_omega: uniform,
            ks_omega: uniform,
            chi2_beta: uniform,
            ks_beta: uniform,
            calibrated_omega: ok,
        };
        CellResult {
            name: "go-dt-info-small".to_string(),
            info: true,
            coverage: vec![
                mk("VB2", true, false),
                mk("VB1", false, vb1_under),
                mk("NINT", true, false),
                mk("LAPL", true, false),
            ],
            sbc: vec![
                sbc("VB2", true),
                sbc("VB1", false),
                sbc("NINT", true),
                sbc("LAPL", true),
            ],
        }
    }

    #[test]
    fn gate_encodes_the_papers_story() {
        let good = gate(&[fake_cell(true)], 0.95);
        assert!(good.pass, "{:?}", good.failures);
        // VB1 never flagged under-covering → the gate must fail.
        let bad = gate(&[fake_cell(false)], 0.95);
        assert!(!bad.pass);
        assert!(bad.failures.iter().any(|f| f.contains("VB1")));
    }

    fn with_calibration(
        mut cell: CellResult,
        method: &str,
        factor: f64,
        within_band: bool,
    ) -> CellResult {
        let mc = cell
            .coverage
            .iter_mut()
            .find(|mc| mc.method == method)
            .expect("method present");
        mc.calibrated = Some(crate::coverage::CalibratedCoverage {
            factor,
            tally: mc.tally.clone(),
            rate: if within_band { 0.95 } else { 0.85 },
            se: 0.028,
            within_band,
        });
        cell
    }

    #[test]
    fn gate_judges_calibrated_coverage_where_raw_vb1_fails() {
        // Calibrated VB1 lands in band → the calibrated criterion holds.
        let fixed = with_calibration(fake_cell(true), "VB1", 1.5, true);
        let good = gate(&[fixed], 0.95);
        assert!(good.pass, "{:?}", good.failures);
        // Calibrated VB1 still outside the band → gate failure.
        let still_bad = with_calibration(fake_cell(true), "VB1", 1.5, false);
        let bad = gate(&[still_bad], 0.95);
        assert!(bad
            .failures
            .iter()
            .any(|f| f.contains("calibrated coverage")));
        // A calibrated run whose dictionary lacks the regime of an
        // under-covering VB1 cell is a failure, not a silent skip.
        let missing = with_calibration(fake_cell(true), "VB2", 1.0, true);
        let bad = gate(&[missing], 0.95);
        assert!(bad
            .failures
            .iter()
            .any(|f| f.contains("no calibration entry")));
        // Calibration must never push an already-calibrated method out.
        let regressed = with_calibration(
            with_calibration(fake_cell(true), "VB1", 1.5, true),
            "NINT",
            0.5,
            false,
        );
        let bad = gate(&[regressed], 0.95);
        assert!(bad.failures.iter().any(|f| f.contains("regressed")));
    }

    fn with_raw_miss(mut cell: CellResult, method: &str) -> CellResult {
        let mc = cell
            .coverage
            .iter_mut()
            .find(|mc| mc.method == method)
            .expect("method present");
        mc.rate = 0.88;
        mc.within_band = false;
        mc.under_covering = true;
        cell
    }

    #[test]
    fn lapl_raw_misses_are_characterized_until_a_calibrated_run_judges_them() {
        // Raw run: an under-covering LAPL cell is reported, not gated —
        // the approximate methods' coverage guarantee belongs to the
        // calibration layer.
        let raw = gate(&[with_raw_miss(fake_cell(true), "LAPL")], 0.95);
        assert!(raw.pass, "{:?}", raw.failures);
        // Calibrated run: the dictionary must mend exactly that cell.
        let mended = with_calibration(
            with_calibration(with_raw_miss(fake_cell(true), "LAPL"), "LAPL", 1.5, true),
            "VB1",
            2.0,
            true,
        );
        let good = gate(&[mended], 0.95);
        assert!(good.pass, "{:?}", good.failures);
        // Calibrated LAPL still outside the band → failure.
        let unmended = with_calibration(
            with_calibration(with_raw_miss(fake_cell(true), "LAPL"), "LAPL", 1.5, false),
            "VB1",
            2.0,
            true,
        );
        let bad = gate(&[unmended], 0.95);
        assert!(bad
            .failures
            .iter()
            .any(|f| f.contains("LAPL: calibrated coverage")));
        // No LAPL entry for an under-covering regime → failure.
        let missing = with_calibration(with_raw_miss(fake_cell(true), "LAPL"), "VB1", 2.0, true);
        let bad = gate(&[missing], 0.95);
        assert!(bad
            .failures
            .iter()
            .any(|f| f.contains("LAPL: under-covering but no calibration entry")));
    }

    #[test]
    fn report_json_round_trips_through_the_shared_parser() {
        let run = ConformanceRun {
            label: "CONFORMANCE_TEST".to_string(),
            grid: Grid::Smoke,
            level: 0.95,
            calibration: Some("CAL_TEST".to_string()),
            cells: vec![with_calibration(fake_cell(true), "VB1", 1.5, true)],
            gate: gate(&[with_calibration(fake_cell(true), "VB1", 1.5, true)], 0.95),
        };
        let text = run.to_json();
        assert!(gate_passed(&text).expect("valid report"));
        assert!(text.contains("\"calibration\": \"CAL_TEST\""));
        assert!(text.contains("\"factor\": 1.5"));
        assert!(gate_passed("{}").is_err());
        assert!(gate_passed("{\"schema\": \"other/v9\"}").is_err());
        // The summary renders without panicking on the same data.
        let summary = run.summary();
        assert!(summary.contains("gate: PASS"));
        assert!(summary.contains("calibrated"));
    }
}
