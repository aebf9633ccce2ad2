//! Property tests for the interval-calibration transform (DESIGN.md
//! §15): the four invariants the serving layer relies on when it
//! answers `?calibrated=true`.
//!
//! 1. factor 1 is a *bitwise* identity — an identity calibration can
//!    never perturb a served answer;
//! 2. calibrated endpoints stay monotone in the nominal level, so a
//!    99% interval always contains the 90% one;
//! 3. a calibrated interval always contains the posterior median, for
//!    any non-negative factor;
//! 4. calibration composes with the determinism contracts: across
//!    thread counts and forced SIMD dispatches the calibrated interval
//!    is bitwise identical whenever the underlying fit is.

use nhpp_bench::Scenario;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_vb::{
    Calibration, SimdPolicy, SolverKind, Vb1Options, Vb1Posterior, Vb2Options, Vb2Posterior,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One VB1 fit of the paper's `DT-Info` scenario, shared by every
/// property below (VB1 is the under-covering method the calibration
/// layer exists to mend).
fn vb1() -> &'static Vb1Posterior {
    static FIT: OnceLock<Vb1Posterior> = OnceLock::new();
    FIT.get_or_init(|| {
        let scenario = Scenario::dt_info();
        Vb1Posterior::fit(
            ModelSpec::goel_okumoto(),
            scenario.prior,
            &scenario.data,
            Vb1Options::default(),
        )
        .expect("DT-Info VB1 fit succeeds")
    })
}

/// The calibrated `ω` interval as the `/interval` route serves it: the
/// raw interval rescaled about the median, floored at 0.
fn interval_omega(cal: &Calibration, post: &dyn Posterior, level: f64) -> (f64, f64) {
    cal.interval(
        post.quantile_omega(0.5),
        post.credible_interval_omega(level),
        0.0,
    )
}

/// The calibrated `β` interval as the `/interval` route serves it.
fn interval_beta(cal: &Calibration, post: &dyn Posterior, level: f64) -> (f64, f64) {
    cal.interval(
        post.quantile_beta(0.5),
        post.credible_interval_beta(level),
        0.0,
    )
}

#[test]
fn identity_calibration_is_bitwise_on_served_quantities() {
    let post = vb1();
    let id = Calibration::identity();
    for level in [0.5, 0.9, 0.95, 0.99] {
        let raw = post.credible_interval_omega(level);
        let cal = interval_omega(&id, post, level);
        assert_eq!(raw.0.to_bits(), cal.0.to_bits());
        assert_eq!(raw.1.to_bits(), cal.1.to_bits());
        let raw = post.credible_interval_beta(level);
        let cal = interval_beta(&id, post, level);
        assert_eq!(raw.0.to_bits(), cal.0.to_bits());
        assert_eq!(raw.1.to_bits(), cal.1.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Endpoint monotonicity in the nominal level survives any
    /// calibration factor in the learner's search range: the interval
    /// at the higher level contains the one at the lower level.
    #[test]
    fn calibrated_endpoints_are_monotone_in_level(
        factor in 0.25f64..4.0,
        l_low in 0.55f64..0.90,
        widen in 0.01f64..0.09,
    ) {
        let post = vb1();
        let cal = Calibration::new(factor);
        let l_high = l_low + widen;
        let (lo1, hi1) = interval_omega(&cal, post, l_low);
        let (lo2, hi2) = interval_omega(&cal, post, l_high);
        prop_assert!(lo2 <= lo1, "omega lower endpoint not monotone: {lo2} > {lo1}");
        prop_assert!(hi2 >= hi1, "omega upper endpoint not monotone: {hi2} < {hi1}");
        let (lo1, hi1) = interval_beta(&cal, post, l_low);
        let (lo2, hi2) = interval_beta(&cal, post, l_high);
        prop_assert!(lo2 <= lo1, "beta lower endpoint not monotone");
        prop_assert!(hi2 >= hi1, "beta upper endpoint not monotone");
    }

    /// The calibrated interval contains the posterior median for any
    /// non-negative factor — rescaling *about* the median can move the
    /// endpoints but never past it, and the support floor only raises a
    /// lower endpoint that is already below the median.
    #[test]
    fn calibrated_interval_contains_the_median(
        factor in 0.0f64..6.0,
        level in 0.55f64..0.995,
    ) {
        let post = vb1();
        let cal = Calibration::new(factor);
        let median = post.quantile_omega(0.5);
        let (lo, hi) = interval_omega(&cal, post, level);
        prop_assert!(lo <= median && median <= hi, "omega: [{lo}, {hi}] vs median {median}");
        let median = post.quantile_beta(0.5);
        let (lo, hi) = interval_beta(&cal, post, level);
        prop_assert!(lo <= median && median <= hi, "beta: [{lo}, {hi}] vs median {median}");
    }

    /// The SPC rescaling is a pure contraction toward the centre line:
    /// it stays in `[0, 1]`, never crosses the centre, and factor 1 is
    /// bitwise passthrough.
    #[test]
    fn spc_rescaling_is_a_clamped_contraction(
        p in 0.0f64..1.0,
        factor in 1.0f64..4.0,
    ) {
        let centre = 0.5;
        let cal = Calibration::new(factor);
        let out = cal.spc_statistic(p, centre);
        prop_assert!((0.0..=1.0).contains(&out));
        prop_assert!(
            (out - centre).abs() <= (p - centre).abs() + 1e-15,
            "widening moved the statistic away from the centre: {p} -> {out}"
        );
        prop_assert!((out - centre) * (p - centre) >= 0.0, "crossed the centre line");
        prop_assert_eq!(
            Calibration::identity().spc_statistic(p, centre).to_bits(),
            p.to_bits()
        );
    }
}

/// Thread counts matching the determinism suite: serial, a small pool,
/// oversubscribed, plus the CI matrix pin.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Some(n) = std::env::var("NHPP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

#[test]
fn calibrated_intervals_are_bitwise_deterministic_across_threads_and_lanes() {
    // Calibration is a pure function of the posterior's quantiles, so
    // the lane/thread determinism contract (DESIGN.md §9/§14) must
    // extend verbatim to calibrated output: within a forced dispatch,
    // every thread count yields bit-identical calibrated endpoints.
    let scenario = Scenario::dt_info();
    let spec = ModelSpec::goel_okumoto();
    let cal = Calibration::new(1.625);
    for policy in [SimdPolicy::ForceScalar, SimdPolicy::ForceWide] {
        let options = |threads: usize| Vb2Options {
            solver: SolverKind::SuccessiveSubstitution,
            lanes: policy,
            threads,
            ..scenario.vb2_options()
        };
        let mut reference: Option<Vec<u64>> = None;
        for threads in thread_counts() {
            let post =
                Vb2Posterior::fit(spec, scenario.prior, &scenario.data, options(threads)).unwrap();
            let (w_lo, w_hi) = interval_omega(&cal, &post, 0.95);
            let (b_lo, b_hi) = interval_beta(&cal, &post, 0.95);
            let p = cal.spc_statistic(0.9, 0.5);
            let bits = vec![
                w_lo.to_bits(),
                w_hi.to_bits(),
                b_lo.to_bits(),
                b_hi.to_bits(),
                p.to_bits(),
            ];
            match &reference {
                None => reference = Some(bits),
                Some(expected) => assert!(
                    *expected == bits,
                    "{policy:?} calibrated interval diverged at threads={threads}"
                ),
            }
        }
    }
}
