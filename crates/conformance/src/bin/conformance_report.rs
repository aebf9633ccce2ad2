//! CLI driver for the conformance harness.
//!
//! ```text
//! conformance_report run [--smoke] [--label L] [--out FILE]
//!     [--reps N] [--sbc-draws N] [--calibration FILE]
//!     Sweep the grid, print the human summary, write/print the
//!     conformance/v1 JSON, exit 1 when the gate fails. With
//!     --calibration the dictionary is applied and the calibrated
//!     gate criteria are active.
//!
//! conformance_report golden [--full] [--bless] [--dir DIR]
//!     Check (or with --bless regenerate) the golden-oracle fixtures.
//!     Default checks the smoke fixture only; --full adds the
//!     all-scenario fixture with MCMC.
//!
//! conformance_report calibrate [--smoke] [--label L] [--reps N]
//!     [--out FILE | --bless | --check]
//!     Run the calibration learner over the grid. --bless writes the
//!     blessed dictionary under tests/golden/, --check re-learns and
//!     diffs against the blessed copy (the CI drift gate), --out
//!     writes anywhere, default prints to stdout.
//!
//! conformance_report monitor [--smoke] [--reps N] [--run-length N]
//!     Seeded false-alarm-rate check for the SPC monitoring charts:
//!     in-control traces per cell, both limit schemes, run-length
//!     alarms counted. With --smoke at default settings the counts
//!     are gated against the golden-pinned values.
//! ```

use nhpp_conformance::calibrate::{learn, CalibrateConfig};
use nhpp_conformance::coverage::CoverageConfig;
use nhpp_conformance::golden;
use nhpp_conformance::monitor::{self, FalseAlarmConfig};
use nhpp_conformance::report::{run, Grid};
use nhpp_conformance::sbc::SbcConfig;
use nhpp_vb::calibration::CalibrationDictionary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

fn flag_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == name)?;
    if idx + 1 >= args.len() {
        eprintln!("error: {name} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    Some(value)
}

fn default_golden_dir() -> PathBuf {
    // crates/conformance → workspace root → tests/golden.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The blessed dictionary's checked-in home.
fn default_dictionary_path() -> PathBuf {
    default_golden_dir().join("calibration_v1.json")
}

fn load_dictionary(path: &Path) -> CalibrationDictionary {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read calibration dictionary {}: {e}", path.display()));
    CalibrationDictionary::parse(&text)
        .unwrap_or_else(|e| panic!("invalid calibration dictionary {}: {e}", path.display()))
}

fn cmd_run(mut args: Vec<String>) -> ExitCode {
    let smoke = flag(&mut args, "--smoke");
    let label = flag_value(&mut args, "--label")
        .unwrap_or_else(|| format!("CONFORMANCE_{}", if smoke { "SMOKE" } else { "FULL" }));
    let out = flag_value(&mut args, "--out");
    let calibration =
        flag_value(&mut args, "--calibration").map(|p| load_dictionary(Path::new(&p)));
    let mut coverage_config = CoverageConfig::default();
    let mut sbc_config = SbcConfig::default();
    if let Some(n) = flag_value(&mut args, "--reps") {
        coverage_config.replications = n.parse().expect("--reps takes an integer");
    }
    if let Some(n) = flag_value(&mut args, "--sbc-draws") {
        sbc_config.draws = n.parse().expect("--sbc-draws takes an integer");
    }
    if !args.is_empty() {
        eprintln!("error: unrecognised arguments {args:?}");
        return ExitCode::from(2);
    }
    let grid = if smoke { Grid::Smoke } else { Grid::Full };
    let result = run(
        grid,
        &label,
        &coverage_config,
        &sbc_config,
        calibration.as_ref(),
    );
    eprint!("{}", result.summary());
    let json = result.to_json();
    match out {
        Some(path) => {
            std::fs::write(&path, &json).expect("writing the report file");
            eprintln!("report written to {path}");
        }
        None => print!("{json}"),
    }
    if result.gate.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_or_bless(path: &Path, entries: &[golden::GoldenEntry], bless: bool) -> bool {
    if bless {
        std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("creating the golden directory");
        std::fs::write(path, golden::render(entries)).expect("writing the fixture");
        eprintln!("blessed {} ({} entries)", path.display(), entries.len());
        return true;
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "cannot read {}: {e} (run with --bless first?)",
                path.display()
            );
            return false;
        }
    };
    let expected = match golden::parse(&text) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return false;
        }
    };
    let mismatches = golden::compare(&expected, entries);
    if mismatches.is_empty() {
        eprintln!("{}: {} entries ok", path.display(), expected.len());
        true
    } else {
        for m in &mismatches {
            eprintln!("{}: {m}", path.display());
        }
        false
    }
}

fn cmd_golden(mut args: Vec<String>) -> ExitCode {
    let bless = flag(&mut args, "--bless");
    let full = flag(&mut args, "--full");
    let dir = flag_value(&mut args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(default_golden_dir);
    if !args.is_empty() {
        eprintln!("error: unrecognised arguments {args:?}");
        return ExitCode::from(2);
    }
    let mut ok = check_or_bless(&dir.join("smoke.txt"), &golden::smoke_entries(), bless);
    if full {
        ok &= check_or_bless(&dir.join("full.txt"), &golden::full_entries(), bless);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_calibrate(mut args: Vec<String>) -> ExitCode {
    let smoke = flag(&mut args, "--smoke");
    let bless = flag(&mut args, "--bless");
    let check = flag(&mut args, "--check");
    let out = flag_value(&mut args, "--out");
    let mut config = CalibrateConfig {
        label: format!("CALIBRATION_{}", if smoke { "SMOKE" } else { "FULL" }),
        ..CalibrateConfig::default()
    };
    if let Some(label) = flag_value(&mut args, "--label") {
        config.label = label;
    }
    if let Some(n) = flag_value(&mut args, "--reps") {
        config.replications = n.parse().expect("--reps takes an integer");
    }
    if !args.is_empty() {
        eprintln!("error: unrecognised arguments {args:?}");
        return ExitCode::from(2);
    }
    if bless && check {
        eprintln!("error: --bless and --check are mutually exclusive");
        return ExitCode::from(2);
    }
    let grid = if smoke { Grid::Smoke } else { Grid::Full };
    let dict = learn(&grid.cells(), &config);
    let json = dict.to_json();
    eprintln!(
        "learned {} entries over the {} grid ({} reps/cell, seed {:#x})",
        dict.entries.len(),
        grid.name(),
        dict.replications,
        dict.seed
    );
    if check {
        // The drift gate: a re-learn from the current tree must agree
        // with the blessed dictionary entry-for-entry (the learner is
        // fully deterministic, so any difference is a real behaviour
        // change that needs an explicit re-bless).
        let path = default_dictionary_path();
        let blessed = load_dictionary(&path);
        let mut drift = Vec::new();
        for (key, entry) in &dict.entries {
            match blessed.entries.get(key) {
                None => drift.push(format!("{key}: missing from blessed dictionary")),
                Some(b) if b.factor != entry.factor => drift.push(format!(
                    "{key}: factor {} (blessed {})",
                    entry.factor, b.factor
                )),
                _ => {}
            }
        }
        for key in blessed.entries.keys() {
            if !dict.entries.contains_key(key) {
                drift.push(format!("{key}: no longer learned"));
            }
        }
        return if drift.is_empty() {
            eprintln!("{}: no drift", path.display());
            ExitCode::SUCCESS
        } else {
            for d in &drift {
                eprintln!("{}: {d}", path.display());
            }
            eprintln!("re-bless with: conformance_report calibrate --bless");
            ExitCode::FAILURE
        };
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &json).expect("writing the dictionary");
            eprintln!("dictionary written to {path}");
        }
        None if bless => {
            let path = default_dictionary_path();
            std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
                .expect("creating the golden directory");
            std::fs::write(&path, &json).expect("writing the dictionary");
            eprintln!("blessed {}", path.display());
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

fn cmd_monitor(mut args: Vec<String>) -> ExitCode {
    let smoke = flag(&mut args, "--smoke");
    let mut config = FalseAlarmConfig::default();
    if let Some(n) = flag_value(&mut args, "--reps") {
        config.replications = n.parse().expect("--reps takes an integer");
    }
    if let Some(n) = flag_value(&mut args, "--run-length") {
        config.run_length = n.parse().expect("--run-length takes an integer");
    }
    if !args.is_empty() {
        eprintln!("error: unrecognised arguments {args:?}");
        return ExitCode::from(2);
    }
    let results = monitor::run_false_alarm(smoke, &config);
    eprintln!(
        "SPC false-alarm check ({} grid, {} reps/cell, run length {}, seed {:#x})",
        if smoke { "smoke" } else { "full" },
        config.replications,
        config.run_length,
        config.seed
    );
    eprintln!(
        "{:<22} {:>6} {:>7} {:>9} {:>9} {:>10} {:>10}",
        "cell", "traces", "points", "os-ooc", "mmle-ooc", "os-alarms", "mmle-alarms"
    );
    for r in &results {
        eprintln!(
            "{:<22} {:>6} {:>7} {:>9} {:>9} {:>10} {:>10}",
            r.cell,
            r.traces,
            r.os.points,
            r.os.deterioration + r.os.improvement,
            r.mmle.deterioration + r.mmle.improvement,
            r.os.alarms,
            r.mmle.alarms
        );
    }
    // The golden gate pins the smoke tier; custom tiers and settings
    // only report.
    if smoke && config == FalseAlarmConfig::default() {
        let failures = monitor::gate_against_golden(&results);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("gate: {f}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("gate: alarm counts match the pinned golden values");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: conformance_report <run|golden|calibrate|monitor> [options]");
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "golden" => cmd_golden(args),
        "calibrate" => cmd_calibrate(args),
        "monitor" => cmd_monitor(args),
        other => {
            eprintln!(
                "unknown subcommand {other:?}; expected `run`, `golden`, `calibrate` or `monitor`"
            );
            ExitCode::from(2)
        }
    }
}
