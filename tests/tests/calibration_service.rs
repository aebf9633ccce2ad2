//! End-to-end calibration over HTTP: a server booted with a
//! `nhpp-calibration/v1` dictionary serves `?calibrated=true` interval,
//! band and SPC answers whose widths actually move, echoes full
//! provenance, and refuses calibration it cannot honour with a clear
//! 400 — never by silently serving raw numbers.

use nhpp_data::json::{self, Value};
use nhpp_data::{io, sys17};
use nhpp_serve::{client_request, Server, ServerConfig, ServerHandle};
use nhpp_vb::{CalibrationDictionary, CalibrationEntry};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A handcrafted dictionary with a deliberately large factor for the
/// regime the test project lands in (`go` × times × informative prior,
/// served by VB2), so width changes are unmistakable.
fn test_dictionary() -> CalibrationDictionary {
    let mut entries = BTreeMap::new();
    entries.insert(
        "go-dt-info/VB2".to_string(),
        CalibrationEntry {
            factor: 2.0,
            raw_rate: 0.93,
            calibrated_rate: 0.99,
            fitted: 200,
        },
    );
    CalibrationDictionary {
        label: "CAL_E2E_TEST".to_string(),
        seed: 0xCA11B8,
        replications: 200,
        level: 0.95,
        entries,
    }
}

fn write_dictionary(tag: &str, dict: &CalibrationDictionary) -> PathBuf {
    let path = std::env::temp_dir().join(format!("nhpp_cal_e2e_{tag}_{}.json", std::process::id()));
    std::fs::write(&path, dict.to_json()).unwrap();
    path
}

fn spawn(calibration: Option<PathBuf>) -> ServerHandle {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        calibration,
        flush_interval: None,
        quiet: true,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Creates the paper's sys17 project and replays its failure trace.
fn seed_project(addr: &str, id: &str) {
    let path = format!("/projects/{id}?kind=times&model=go&prior=paper-info-times");
    let (status, body) = client_request(addr, "PUT", &path, None).unwrap();
    assert_eq!(status, 201, "{body}");
    let mut csv = Vec::new();
    io::write_failure_times(&mut csv, &sys17::failure_times()).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let (status, body) =
        client_request(addr, "POST", &format!("/projects/{id}/events"), Some(&csv)).unwrap();
    assert_eq!(status, 200, "{body}");
}

fn get_json(addr: &str, path: &str) -> (u16, Value) {
    let (status, body) = client_request(addr, "GET", path, None).unwrap();
    let value = json::parse(&body).unwrap_or_else(|e| panic!("{path}: {e} in {body}"));
    (status, value)
}

fn field(value: &Value, key: &str) -> f64 {
    value
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
}

fn str_field<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {key:?}"))
}

fn bool_field(value: &Value, key: &str) -> bool {
    value
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("missing boolean field {key:?}"))
}

#[test]
fn calibrated_routes_widen_and_echo_provenance() {
    let dict = test_dictionary();
    let path = write_dictionary("routes", &dict);
    let handle = spawn(Some(path.clone()));
    let addr = handle.addr().to_string();
    seed_project(&addr, "p");

    // Interval: the factor-2 calibrated interval is strictly wider and
    // the raw answer is untouched by the dictionary's presence.
    let (status, raw) = get_json(&addr, "/projects/p/interval?param=omega&level=0.99");
    assert_eq!(status, 200);
    assert!(!bool_field(&raw, "calibrated"));
    let (status, cal) = get_json(
        &addr,
        "/projects/p/interval?param=omega&level=0.99&calibrated=true",
    );
    assert_eq!(status, 200);
    assert!(bool_field(&cal, "calibrated"));
    let raw_width = field(&raw, "hi") - field(&raw, "lo");
    let cal_width = field(&cal, "hi") - field(&cal, "lo");
    assert!(
        cal_width > raw_width * 1.5,
        "factor 2 should widen decisively: raw {raw_width}, calibrated {cal_width}"
    );

    // Provenance round-trips exactly: key, factor and the dictionary's
    // identity as loaded at boot.
    let prov = cal
        .as_object()
        .and_then(|o| o.get("calibration"))
        .expect("calibration provenance object");
    assert_eq!(str_field(prov, "key"), "go-dt-info/VB2");
    assert_eq!(field(prov, "factor"), 2.0);
    assert_eq!(str_field(prov, "dictionary"), dict.label);
    assert_eq!(field(prov, "replications") as usize, dict.replications);
    assert_eq!(field(prov, "level"), dict.level);

    // Band: every point's envelope widens about its mean.
    let (_, raw_band) = get_json(&addr, "/projects/p/band?points=5&level=0.99");
    let (_, cal_band) = get_json(
        &addr,
        "/projects/p/band?points=5&level=0.99&calibrated=true",
    );
    assert!(bool_field(&cal_band, "calibrated"));
    let rows = |v: &Value| -> Vec<(f64, f64)> {
        v.as_object()
            .and_then(|o| o.get("band"))
            .and_then(Value::as_array)
            .expect("band rows")
            .iter()
            .map(|row| (field(row, "lower"), field(row, "upper")))
            .collect()
    };
    for ((raw_lo, raw_hi), (cal_lo, cal_hi)) in rows(&raw_band).iter().zip(rows(&cal_band)) {
        assert!(
            cal_lo <= *raw_lo && cal_hi >= *raw_hi,
            "band point narrowed"
        );
        assert!(
            cal_hi - cal_lo > raw_hi - raw_lo,
            "band point did not widen"
        );
    }

    // SPC: the calibrated statistic contracts toward the centre line
    // (a wider posterior finds the same gap less alarming).
    let (_, raw_spc) = get_json(&addr, "/projects/p/spc");
    let (_, cal_spc) = get_json(&addr, "/projects/p/spc?calibrated=true");
    assert!(bool_field(&cal_spc, "calibrated"));
    let cl = field(&raw_spc, "cl");
    assert!(
        (field(&cal_spc, "p") - cl).abs() <= (field(&raw_spc, "p") - cl).abs(),
        "calibration moved the SPC statistic away from the centre"
    );

    // A malformed boolean is a 400, not a silent raw answer.
    let (status, body) =
        client_request(&addr, "GET", "/projects/p/interval?calibrated=banana", None).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("calibrated"), "{body}");

    // /metrics exposes the dictionary gauge and the query counter.
    let (_, metrics) = client_request(&addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics.contains("nhpp_serve_calibration_loaded 1"),
        "{metrics}"
    );
    assert!(metrics.contains("dictionary=\"CAL_E2E_TEST\""), "{metrics}");

    std::fs::remove_file(path).ok();
    handle.shutdown();
}

#[test]
fn unhonourable_calibration_requests_are_refused_with_400() {
    // No dictionary loaded: asking for calibration is an error that
    // names the fix.
    let handle = spawn(None);
    let addr = handle.addr().to_string();
    seed_project(&addr, "p");
    for path in [
        "/projects/p/interval?calibrated=true",
        "/projects/p/band?calibrated=true",
        "/projects/p/spc?calibrated=true",
    ] {
        let (status, body) = client_request(&addr, "GET", path, None).unwrap();
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("no dictionary"), "{path}: {body}");
    }
    let (_, metrics) = client_request(&addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics.contains("nhpp_serve_calibration_loaded 0"),
        "{metrics}"
    );
    handle.shutdown();

    // Dictionary loaded but no entry for the regime: still a 400, and
    // the body names the missing key so the operator can re-learn.
    let mut dict = test_dictionary();
    dict.entries.clear();
    dict.entries.insert(
        "dss-dg-noinfo/VB1".to_string(),
        CalibrationEntry {
            factor: 1.5,
            raw_rate: 0.9,
            calibrated_rate: 0.95,
            fitted: 100,
        },
    );
    let path = write_dictionary("wrongregime", &dict);
    let handle = spawn(Some(path.clone()));
    let addr = handle.addr().to_string();
    seed_project(&addr, "p");
    let (status, body) =
        client_request(&addr, "GET", "/projects/p/interval?calibrated=true", None).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("go-dt-info/VB2"), "{body}");
    std::fs::remove_file(path).ok();
    handle.shutdown();
}

#[test]
fn corrupt_dictionary_fails_boot_not_first_query() {
    let path =
        std::env::temp_dir().join(format!("nhpp_cal_e2e_corrupt_{}.json", std::process::id()));
    std::fs::write(&path, "{\"schema\": \"wrong/v0\"}").unwrap();
    let err = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        calibration: Some(path.clone()),
        flush_interval: None,
        quiet: true,
        ..ServerConfig::default()
    })
    .err()
    .expect("boot must fail on a corrupt dictionary");
    assert!(err.to_string().contains("calibration dictionary"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn blessed_dictionary_boots_and_serves() {
    // The checked-in artefact itself must parse, load and answer: this
    // is the integration half of the drift gate (`calibrate --check`
    // keeps its *content* honest; this test keeps it *usable*).
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/golden/calibration_v1.json"
    ));
    let text = std::fs::read_to_string(&path)
        .expect("blessed dictionary exists (conformance_report calibrate --bless)");
    let dict = CalibrationDictionary::parse(&text).expect("blessed dictionary parses");
    assert!(
        dict.entries.contains_key("go-dt-info/VB1"),
        "blessed dictionary covers the paper's core regime"
    );
    let handle = spawn(Some(path));
    let addr = handle.addr().to_string();
    seed_project(&addr, "p");
    let (status, cal) = get_json(
        &addr,
        "/projects/p/interval?param=omega&level=0.99&calibrated=true",
    );
    assert_eq!(status, 200);
    assert!(bool_field(&cal, "calibrated"));
    let prov = cal
        .as_object()
        .and_then(|o| o.get("calibration"))
        .expect("provenance");
    assert_eq!(str_field(prov, "dictionary"), dict.label);
    handle.shutdown();
}
