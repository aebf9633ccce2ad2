//! Argument handling of the bench bins: a run without `--out` is a usage
//! error (exit 2) that writes nothing, so a bare invocation can never
//! overwrite a committed `BENCH_*.json` record, and a malformed number is
//! a usage error rather than a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty directory of its own for one test.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nhpp_bench_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_in(dir: &PathBuf, bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn bench bin")
}

fn assert_usage_error(output: &Output, dir: &PathBuf) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage"), "stderr: {stderr}");
    let written: Vec<_> = std::fs::read_dir(dir).expect("read dir").collect();
    assert!(written.is_empty(), "files written: {written:?}");
}

#[test]
fn bench_report_run_without_out_is_a_usage_error_and_writes_nothing() {
    let dir = empty_dir("report_no_out");
    for args in [
        &["run"][..],
        &["run", "--quick", "--label", "X"],
        &["run", "--out"],
    ] {
        assert_usage_error(
            &run_in(&dir, env!("CARGO_BIN_EXE_bench_report"), args),
            &dir,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_report_rejects_unparsable_numbers_as_usage_errors() {
    let dir = empty_dir("report_numbers");
    let bin = env!("CARGO_BIN_EXE_bench_report");
    for samples in ["many", "0", "-3"] {
        let output = run_in(
            &dir,
            bin,
            &["run", "--out", "new.json", "--samples", samples],
        );
        assert_usage_error(&output, &dir);
    }
    for bound in ["ten", "NaN"] {
        let output = run_in(
            &dir,
            bin,
            &["compare", "a.json", "b.json", "--max-regression", bound],
        );
        assert_usage_error(&output, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_serve_without_out_is_a_usage_error_and_writes_nothing() {
    let dir = empty_dir("serve_no_out");
    for args in [
        &["--quick"][..],
        &["--overload", "--quick"],
        &["--ingest", "--quick"],
    ] {
        assert_usage_error(&run_in(&dir, env!("CARGO_BIN_EXE_bench_serve"), args), &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
