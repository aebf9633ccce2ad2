//! Fault-injection tests of the supervised fitting pipeline.
//!
//! Each fault class ([`FaultKind::NanZeta`], [`FaultKind::StallInner`],
//! [`FaultKind::InflateTail`]) is forced deterministically through the
//! estimators' real error paths, and the pipeline must come back with a
//! *usable* posterior carrying honest provenance — `vb2-retry` when a
//! clean retry suffices, `vb1` / `laplace` when the cascade has to
//! degrade — in both fallback and strict modes.

use nhpp_data::sys17;
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_vb::{
    fit_supervised, FaultKind, FaultPlan, RobustFit, RobustOptions, Truncation, Vb2Options, VbError,
};
use std::time::Duration;

fn spec() -> ModelSpec {
    ModelSpec::goel_okumoto()
}

fn prior() -> NhppPrior {
    NhppPrior::paper_info_times()
}

/// Cheap-but-realistic base options: small enough budgets that a
/// stalled solver fails in milliseconds, large enough that clean
/// attempts converge comfortably.
fn base() -> Vb2Options {
    Vb2Options {
        inner_max_iter: 10_000,
        ..Vb2Options::default()
    }
}

fn options(fault: FaultPlan) -> RobustOptions {
    RobustOptions {
        base: base(),
        fault: Some(fault),
        ..RobustOptions::default()
    }
}

fn strict_options(fault: FaultPlan) -> RobustOptions {
    RobustOptions {
        fallback: false,
        ..options(fault)
    }
}

/// A posterior is usable when every first/second moment is finite, the
/// variances are positive, and the credible interval is ordered.
fn assert_usable(fit: &RobustFit) {
    let p = &fit.posterior;
    assert!(p.mean_omega().is_finite() && p.mean_omega() > 0.0);
    assert!(p.mean_beta().is_finite() && p.mean_beta() > 0.0);
    assert!(p.var_omega().is_finite() && p.var_omega() > 0.0);
    assert!(p.var_beta().is_finite() && p.var_beta() > 0.0);
    assert!(p.covariance().is_finite());
    let (lo, hi) = p.credible_interval_omega(0.95);
    assert!(lo.is_finite() && hi.is_finite() && lo < hi);
}

// --- NaN injection ---------------------------------------------------

#[test]
fn nan_on_first_attempt_recovers_via_retry() {
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        options(FaultPlan::first_attempt(FaultKind::NanZeta)),
    )
    .unwrap();
    assert_eq!(fit.report.provenance, "vb2-retry");
    assert_eq!(fit.report.attempts.len(), 2);
    assert!(fit.report.attempts[0].outcome.is_err());
    assert!(fit.report.attempts[1].outcome.is_ok());
    assert_usable(&fit);
}

#[test]
fn nan_on_all_vb2_attempts_degrades_to_vb1() {
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        options(FaultPlan::all_vb2(FaultKind::NanZeta)),
    )
    .unwrap();
    assert_eq!(fit.report.provenance, "vb1");
    // 4 failed VB2 attempts + the successful VB1 one.
    assert_eq!(fit.report.attempts.len(), 5);
    assert!(!fit.report.warnings.is_empty());
    // The factorised fallback is honest about its deficiency.
    assert_eq!(fit.posterior.covariance(), 0.0);
    assert_usable(&fit);
}

#[test]
fn nan_everywhere_degrades_to_laplace() {
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        options(FaultPlan::everywhere(FaultKind::NanZeta)),
    )
    .unwrap();
    assert_eq!(fit.report.provenance, "laplace");
    assert_eq!(fit.posterior.method_name(), "LAPL");
    assert!(fit.report.warnings.len() >= 2);
    assert_usable(&fit);
}

#[test]
fn nan_in_strict_mode_recovers_when_the_fault_clears() {
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        strict_options(FaultPlan::first_attempt(FaultKind::NanZeta)),
    )
    .unwrap();
    assert_eq!(fit.report.provenance, "vb2-retry");
    assert_usable(&fit);
}

#[test]
fn persistent_nan_in_strict_mode_is_an_error_but_fallback_succeeds() {
    let plan = FaultPlan::all_vb2(FaultKind::NanZeta);
    let data = sys17::failure_times().into();
    let err = fit_supervised(spec(), prior(), &data, strict_options(plan)).unwrap_err();
    // The surfaced error is a real numerical error, not a panic.
    assert!(matches!(
        err,
        VbError::Numeric(_) | VbError::DegenerateWeights { .. }
    ));
    let fit = fit_supervised(spec(), prior(), &data, options(plan)).unwrap();
    assert_eq!(fit.report.provenance, "vb1");
}

// --- Non-convergence (stalled inner solver) --------------------------

#[test]
fn stall_on_first_attempt_recovers_via_retry() {
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        options(FaultPlan::first_attempt(FaultKind::StallInner)),
    )
    .unwrap();
    assert_eq!(fit.report.provenance, "vb2-retry");
    assert_usable(&fit);
}

#[test]
fn stall_everywhere_degrades_to_laplace() {
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        options(FaultPlan::everywhere(FaultKind::StallInner)),
    )
    .unwrap();
    assert_eq!(fit.report.provenance, "laplace");
    assert_usable(&fit);
}

#[test]
fn stall_in_strict_mode_is_an_error() {
    let err = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        strict_options(FaultPlan::all_vb2(FaultKind::StallInner)),
    )
    .unwrap_err();
    assert!(matches!(err, VbError::Numeric(_)));
}

#[test]
fn expired_deadline_surfaces_as_budget_error_then_degrades() {
    // A zero deadline trips the cooperative budget inside one check
    // stride; strict mode surfaces it, fallback mode degrades.
    let stalled = RobustOptions {
        base: Vb2Options {
            deadline: Some(Duration::ZERO),
            ..base()
        },
        fault: Some(FaultPlan::all_vb2(FaultKind::StallInner)),
        ..RobustOptions::default()
    };
    let data = sys17::failure_times().into();
    let err = fit_supervised(
        spec(),
        prior(),
        &data,
        RobustOptions {
            fallback: false,
            ..stalled
        },
    )
    .unwrap_err();
    assert!(matches!(err, VbError::Numeric(_)), "{err}");
    let fit = fit_supervised(spec(), prior(), &data, stalled).unwrap();
    assert!(matches!(fit.report.provenance, "vb1" | "laplace"));
    assert_usable(&fit);
}

// --- Truncation overflow ---------------------------------------------

/// Base options that overflow quickly once the tail is inflated.
fn overflowing_base() -> Vb2Options {
    Vb2Options {
        truncation: Truncation::Adaptive { epsilon: 5e-15 },
        hard_cap: 2_000,
        ..base()
    }
}

#[test]
fn truncation_overflow_degrades_to_capped_policy_within_vb2() {
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        RobustOptions {
            base: overflowing_base(),
            fault: Some(FaultPlan::all_vb2(FaultKind::InflateTail)),
            ..RobustOptions::default()
        },
    )
    .unwrap();
    // The degradation happens *inside* VB2 (adaptive → capped), so
    // provenance stays a VB2 retry, with a warning on record.
    assert_eq!(fit.report.provenance, "vb2-retry");
    assert!(fit
        .report
        .warnings
        .iter()
        .any(|w| w.contains("capped policy")));
    assert_usable(&fit);
}

#[test]
fn truncation_overflow_recovers_in_strict_mode_too() {
    // Capping the truncation is an accommodation, not a method switch:
    // strict mode allows it.
    let fit = fit_supervised(
        spec(),
        prior(),
        &sys17::failure_times().into(),
        RobustOptions {
            base: overflowing_base(),
            fault: Some(FaultPlan::first_attempt(FaultKind::InflateTail)),
            fallback: false,
            ..RobustOptions::default()
        },
    )
    .unwrap();
    assert_eq!(fit.report.provenance, "vb2-retry");
    assert_usable(&fit);
}

#[test]
fn capped_posterior_matches_clean_fit_closely() {
    // The capped degraded posterior is genuinely usable: within a few
    // percent of the clean fit on every first moment.
    let data = sys17::failure_times().into();
    let clean = fit_supervised(spec(), prior(), &data, RobustOptions::default()).unwrap();
    let degraded = fit_supervised(
        spec(),
        prior(),
        &data,
        RobustOptions {
            base: overflowing_base(),
            fault: Some(FaultPlan::all_vb2(FaultKind::InflateTail)),
            ..RobustOptions::default()
        },
    )
    .unwrap();
    let rel = (clean.posterior.mean_omega() - degraded.posterior.mean_omega()).abs()
        / clean.posterior.mean_omega();
    assert!(rel < 0.02, "relative mean gap {rel}");
}

// --- Grouped data ----------------------------------------------------

#[test]
fn grouped_data_cascade_works_per_fault_class() {
    let data: nhpp_data::ObservedData = sys17::grouped().into();
    let prior = NhppPrior::paper_info_grouped();
    for kind in [FaultKind::NanZeta, FaultKind::StallInner] {
        let fit = fit_supervised(
            spec(),
            prior,
            &data,
            options(FaultPlan::first_attempt(kind)),
        )
        .unwrap();
        assert_eq!(fit.report.provenance, "vb2-retry", "kind={kind:?}");
        assert_usable(&fit);
    }
}
