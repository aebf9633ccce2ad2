//! Hardening tests: hostile inputs and boundary regimes across the
//! public surface.

use nhpp_bayes::nint::{NintOptions, NintPosterior};
use nhpp_data::{io, FailureTimeData, GroupedData, ObservedData};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_serve::{client_request, Server, ServerConfig};
use nhpp_vb::{Truncation, Vb2Options, Vb2Posterior, VbError};
use std::time::{Duration, Instant};

#[test]
fn io_rejects_empty_and_garbage_inputs() {
    assert!(io::read_failure_times("".as_bytes()).is_err()); // no header
    assert!(io::read_grouped("".as_bytes()).is_err()); // no intervals
    assert!(io::read_failure_times("# t_end=abc\n".as_bytes()).is_err());
    assert!(io::read_grouped("1.0,-3\n".as_bytes()).is_err()); // negative count
                                                               // Header only: zero failures is a *valid* dataset.
    let empty = io::read_failure_times("# t_end=10\n".as_bytes()).unwrap();
    assert!(empty.is_empty());
}

#[test]
fn nint_with_a_box_missing_the_mass_is_usable_but_wrong_by_design() {
    // A box far from the posterior mass still normalises (log-space), but
    // the evidence is tiny relative to a correct box — the quantitative
    // form of the paper's warning about integration-bound choice.
    let data: ObservedData = nhpp_data::sys17::failure_times().into();
    let spec = ModelSpec::goel_okumoto();
    let prior = NhppPrior::paper_info_times();
    let good = NintPosterior::fit(
        spec,
        prior,
        &data,
        ((20.0, 80.0), (4e-6, 2.5e-5)),
        NintOptions::default(),
    )
    .unwrap();
    let off = NintPosterior::fit(
        spec,
        prior,
        &data,
        ((200.0, 400.0), (4e-6, 2.5e-5)),
        NintOptions::default(),
    )
    .unwrap();
    assert!(good.log_evidence() - off.log_evidence() > 20.0);
    // The off-box posterior piles up at its boundary.
    assert!(off.mean_omega() < 220.0);
}

#[test]
fn large_counts_exercise_the_factorial_fallback() {
    // Counts beyond the ln-factorial cache (>= 256) must flow through
    // lnΓ seamlessly.
    let grouped = GroupedData::from_unit_intervals(vec![300, 280, 250, 180, 120, 60, 20]).unwrap();
    let data: ObservedData = grouped.into();
    let prior = NhppPrior::informative(
        nhpp_dist::Gamma::from_mean_sd(1300.0, 650.0).unwrap(),
        nhpp_dist::Gamma::from_mean_sd(0.3, 0.15).unwrap(),
    );
    let post = Vb2Posterior::fit(
        ModelSpec::goel_okumoto(),
        prior,
        &data,
        Vb2Options::default(),
    )
    .unwrap();
    assert!(post.mean_omega() > 1210.0, "{}", post.mean_omega()); // 1210 observed
    assert!(post.mean_omega().is_finite() && post.var_omega().is_finite());
    let total: f64 = post.pv_n().iter().map(|&(_, w)| w).sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn near_boundary_failure_times_are_handled() {
    // All failures at almost exactly t_end (pathological but legal).
    let t_end = 100.0;
    let times = vec![99.999, 99.9995, 100.0];
    let data: ObservedData = FailureTimeData::new(times, t_end).unwrap().into();
    let prior = NhppPrior::informative(
        nhpp_dist::Gamma::from_mean_sd(5.0, 5.0).unwrap(),
        nhpp_dist::Gamma::from_mean_sd(0.01, 0.01).unwrap(),
    );
    let post = Vb2Posterior::fit(
        ModelSpec::goel_okumoto(),
        prior,
        &data,
        Vb2Options::default(),
    )
    .unwrap();
    assert!(post.mean_omega().is_finite());
    assert!(post.mean_beta() > 0.0);
}

#[test]
fn single_failure_dataset_fits() {
    let data: ObservedData = FailureTimeData::new(vec![50.0], 100.0).unwrap().into();
    let prior = NhppPrior::informative(
        nhpp_dist::Gamma::from_mean_sd(3.0, 3.0).unwrap(),
        nhpp_dist::Gamma::from_mean_sd(0.02, 0.02).unwrap(),
    );
    let post = Vb2Posterior::fit(
        ModelSpec::goel_okumoto(),
        prior,
        &data,
        Vb2Options::default(),
    )
    .unwrap();
    let (lo, hi) = post.credible_interval_omega(0.95);
    assert!(lo < hi && lo >= 0.0);
    assert!(post.mean_n() >= 1.0);
    // Reliability remains a proper probability.
    let r = post.reliability_point(100.0, 50.0);
    assert!((0.0..=1.0).contains(&r));
}

#[test]
fn quantile_domains_return_nan_not_panic() {
    let data: ObservedData = nhpp_data::sys17::failure_times().into();
    let post = Vb2Posterior::fit(
        ModelSpec::goel_okumoto(),
        NhppPrior::paper_info_times(),
        &data,
        Vb2Options::default(),
    )
    .unwrap();
    assert!(post.quantile_omega(-0.1).is_nan());
    assert!(post.quantile_beta(1.1).is_nan());
    assert!(post.reliability_quantile(1.0, 1.0, 2.0).is_nan());
    // Degenerate-but-legal probabilities.
    assert_eq!(post.quantile_omega(0.0), 0.0);
    assert_eq!(post.quantile_omega(1.0), f64::INFINITY);
}

#[test]
fn extreme_time_scales_are_stable() {
    // Nanosecond-scale clocks (huge times, tiny rates) and year-scale
    // clocks (tiny times) must both work thanks to log-space evaluation.
    for scale in [1e-3, 1.0, 1e9] {
        let times: Vec<f64> = nhpp_data::sys17::FAILURE_TIMES
            .iter()
            .map(|&t| t * scale)
            .collect();
        let data: ObservedData = FailureTimeData::new(times, nhpp_data::sys17::T_END * scale)
            .unwrap()
            .into();
        let prior = NhppPrior::informative(
            nhpp_dist::Gamma::new(10.0, 0.2).unwrap(),
            nhpp_dist::Gamma::from_mean_sd(1e-5 / scale, 3.2e-6 / scale).unwrap(),
        );
        let post = Vb2Posterior::fit(
            ModelSpec::goel_okumoto(),
            prior,
            &data,
            Vb2Options::default(),
        )
        .unwrap();
        // Scale-invariance: ω estimates must agree across clock units.
        assert!(
            (post.mean_omega() - 43.66).abs() < 0.1,
            "scale {scale}: {}",
            post.mean_omega()
        );
    }
}

#[test]
fn a_first_candidate_range_past_hard_cap_is_a_typed_error() {
    // 4·10¹⁸ grouped failures: the first adaptive range [m, 2m] holds
    // ~4·10¹⁸ components, so the fit must refuse before sizing a sweep
    // buffer for it (it used to abort on `capacity overflow`).
    let counts = vec![1, 4_000_000_000_000_000_000];
    let data: ObservedData = GroupedData::new(vec![1.0, 2.0], counts).unwrap().into();
    let options = Vb2Options {
        truncation: Truncation::for_prior(&NhppPrior::flat(), data.total_count() as u64),
        ..Vb2Options::default()
    };
    let err = Vb2Posterior::fit(ModelSpec::goel_okumoto(), NhppPrior::flat(), &data, options)
        .unwrap_err();
    assert!(
        matches!(err, VbError::TruncationOverflow { cap: 2_000_000, .. }),
        "{err}"
    );
}

#[test]
fn a_grouped_project_with_a_huge_count_keeps_the_service_answering() {
    // Regression: the flat-prior cap `5·m` overflowed past
    // `u64::MAX / 5`, the first VB2 sweep then sized a buffer for ~4·10¹⁸
    // components, and the panicking fit never cleared the project's
    // in-flight marker — so every later fit, and then `/healthz`, hung.
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        flush_interval: None,
        quiet: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let (status, body) = client_request(
        &addr,
        "PUT",
        "/projects/h?kind=grouped&model=go&prior=flat",
        None,
    )
    .unwrap();
    assert_eq!(status, 201, "{body}");
    let batch = "1,1\n2,4000000000000000000\n";
    let (status, body) = client_request(&addr, "POST", "/projects/h/events", Some(batch)).unwrap();
    assert_eq!(status, 200, "{body}");
    for attempt in 0..2 {
        let started = Instant::now();
        let (status, body) = client_request(&addr, "GET", "/projects/h/fit", None)
            .unwrap_or_else(|e| panic!("fit {attempt}: no complete response: {e}"));
        // A typed error or a fallback fit are both acceptable answers.
        assert!(
            status == 200 || status >= 400,
            "fit {attempt}: {status} {body}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "fit {attempt} took {:?}",
            started.elapsed()
        );
    }
    let (status, body) = client_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}
