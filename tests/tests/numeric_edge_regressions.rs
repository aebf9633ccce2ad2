//! Regression pins for numeric-edge fixes that earlier PRs landed in the
//! special-function and VB2 hot paths. Each test nails the exact boundary
//! a refactor once got wrong (or could plausibly get wrong again), so a
//! recurrence-kernel or sweep rewrite that silently reverts one fails
//! loudly here rather than as a subtly mis-calibrated posterior.

use nhpp_bench::Scenario;
use nhpp_data::sys17;
use nhpp_dist::{Continuous, GammaMixture};
use nhpp_models::ModelSpec;
use nhpp_special::{ln_factorial, ln_gamma, log_sum_exp_pair, LnGammaLadder, REANCHOR_PERIOD};
use nhpp_special::{log_sum_exp, StreamingLogSumExp};

// ---------------------------------------------------------------------
// log-sum-exp edge semantics
// ---------------------------------------------------------------------

#[test]
fn log_sum_exp_pair_of_two_infinities_is_infinity() {
    // Regression: the naive `hi + (lo - hi).exp().ln_1p()` evaluates
    // `∞ − ∞ = NaN` when both arguments are `+∞`; the sum of two
    // infinite exponentials is `+∞`.
    assert_eq!(
        log_sum_exp_pair(f64::INFINITY, f64::INFINITY),
        f64::INFINITY
    );
    // One-sided infinities and the batch evaluator agree.
    assert_eq!(log_sum_exp_pair(f64::INFINITY, 0.0), f64::INFINITY);
    assert_eq!(log_sum_exp_pair(-1.0, f64::INFINITY), f64::INFINITY);
    assert_eq!(log_sum_exp(&[f64::INFINITY, f64::INFINITY]), f64::INFINITY);
    // NaN still dominates an infinity: propagation beats saturation.
    assert!(log_sum_exp_pair(f64::NAN, f64::INFINITY).is_nan());
}

#[test]
fn streaming_log_sum_exp_empty_and_all_neg_infinity_is_neg_infinity() {
    // Regression: an accumulator that rescales by `exp(max − v)` divides
    // by zero once every entry is `−∞`; the log of an empty (or all-zero)
    // sum must stay `−∞`, not become NaN.
    let empty = StreamingLogSumExp::new();
    assert_eq!(empty.value(), f64::NEG_INFINITY);

    let mut all_neg = StreamingLogSumExp::new();
    for _ in 0..5 {
        all_neg.push(f64::NEG_INFINITY);
    }
    assert_eq!(all_neg.value(), f64::NEG_INFINITY);

    // A real entry arriving after a prefix of `−∞`s is recovered exactly.
    let mut mixed = StreamingLogSumExp::new();
    mixed.push(f64::NEG_INFINITY);
    mixed.push(-3.0);
    assert!((mixed.value() - -3.0).abs() < 1e-15);

    // And the streaming result matches the batch evaluator on the same
    // degenerate input.
    assert_eq!(
        log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]),
        f64::NEG_INFINITY
    );
}

// ---------------------------------------------------------------------
// ζ(ξ) at the u64 underflow boundary
// ---------------------------------------------------------------------

#[test]
fn zeta_guards_the_u64_underflow_boundary() {
    // Regression: the residual-fault term computes `(n − m) as f64` with
    // unsigned arithmetic; for a latent count below the observed count it
    // wrapped to ~1.8e19 and produced an astronomically wrong ζ that the
    // sweep happily consumed. The guard must return NaN below the
    // boundary and well-behaved values at and above it.
    let times = sys17::failure_times().into();
    let m = 38u64; // sys17 observed failure count
    for bad_n in [0, 1, m - 1] {
        assert!(
            nhpp_vb::zeta_probe(&times, 1.0, 1e-5, bad_n).is_nan(),
            "n = {bad_n} < m must be NaN, not a wrapped residual"
        );
    }
    let at = nhpp_vb::zeta_probe(&times, 1.0, 1e-5, m);
    let above = nhpp_vb::zeta_probe(&times, 1.0, 1e-5, m + 10);
    assert!(at.is_finite());
    assert!(above.is_finite());
    // ζ grows with the latent count (more residual faults, larger mean
    // total time) and stays nowhere near the 1.8e19 wrap signature.
    assert!(above > at);
    assert!(at.abs() < 1e12 && above.abs() < 1e12);

    // Grouped data runs through the same guard.
    let grouped = sys17::grouped().into();
    assert!(nhpp_vb::zeta_probe(&grouped, 1.0, 1e-2, m - 1).is_nan());
    assert!(nhpp_vb::zeta_probe(&grouped, 1.0, 1e-2, m).is_finite());
}

// ---------------------------------------------------------------------
// LnGammaLadder at re-anchor multiples
// ---------------------------------------------------------------------

#[test]
fn ladder_is_exact_at_reanchor_multiples() {
    // At step counts that are exact multiples of REANCHOR_PERIOD the
    // ladder has just re-anchored with a direct ln_gamma evaluation, so
    // its value must be *bitwise* equal to the direct path — any drift
    // there means the re-anchor fired at the wrong step.
    let period = REANCHOR_PERIOD as u64;
    for &x0 in &[0.5, 1.0, 2.0, 17.3] {
        let mut ladder = LnGammaLadder::new(x0);
        for step in 1..=(3 * period) {
            ladder.advance();
            let x = x0 + step as f64;
            assert_eq!(ladder.x(), x);
            if step % period == 0 {
                assert_eq!(
                    ladder.value().to_bits(),
                    ln_gamma(x).to_bits(),
                    "step {step} from x0 = {x0} should be a fresh anchor"
                );
            }
        }
    }
}

#[test]
fn ladder_drift_between_anchors_stays_bounded() {
    // One step *past* a re-anchor multiple is the freshest recurrence
    // value; one step *before* the next is the stalest. Both must stay
    // within the 1e-13 relative agreement the VB2 sweep relies on.
    let period = REANCHOR_PERIOD as u64;
    let x0 = 3.25;
    let mut ladder = LnGammaLadder::new(x0);
    for step in 1..=(2 * period) {
        ladder.advance();
        let x = x0 + step as f64;
        let direct = ln_gamma(x);
        let rel = (ladder.value() - direct).abs() / direct.abs().max(1.0);
        assert!(
            rel < 1e-13,
            "step {step}: ladder {} vs direct {direct}",
            ladder.value()
        );
    }
}

// ---------------------------------------------------------------------
// ln_factorial at the table edge
// ---------------------------------------------------------------------

#[test]
fn ln_factorial_table_edge_hands_off_to_ln_gamma_smoothly() {
    // The cached table covers n ≤ 1024; n = 1025 takes the direct
    // ln_gamma path. The two paths must agree at the seam — a table
    // rebuilt without Kahan compensation (or an off-by-one in the cache
    // size) shows up right here as a jump well above 1e-13 relative.
    for n in 1020..=1030u64 {
        let tabled_or_direct = ln_factorial(n);
        let direct = ln_gamma(n as f64 + 1.0);
        let rel = (tabled_or_direct - direct).abs() / direct;
        assert!(
            rel < 1e-13,
            "n = {n}: ln_factorial {tabled_or_direct} vs ln_gamma {direct} (rel {rel:.2e})"
        );
    }
    // The recurrence ln (n+1)! = ln n! + ln(n+1) holds across the seam.
    for n in [1023u64, 1024, 1025] {
        let lhs = ln_factorial(n + 1);
        let rhs = ln_factorial(n) + ((n + 1) as f64).ln();
        assert!(
            (lhs - rhs).abs() < 1e-10,
            "seam recurrence broke at n = {n}"
        );
    }
    // And the bottom of the table is still exact.
    assert_eq!(ln_factorial(0), 0.0);
    assert_eq!(ln_factorial(1), 0.0);
    assert!((ln_factorial(5) - 120.0f64.ln()).abs() < 1e-12);
}

// ---------------------------------------------------------------------
// VB2 marginal quantiles
// ---------------------------------------------------------------------

/// The float where the mixture's CDF (its SF above the median) crosses
/// `p`, by bisection on the bit patterns of the non-negative floats down
/// to two adjacent ones.
fn bisect_to_adjacent_floats(m: &GammaMixture, p: f64) -> f64 {
    let below = |x: f64| {
        if p > 0.5 {
            m.sf(x) > 1.0 - p
        } else {
            m.cdf(x) < p
        }
    };
    let (mut lo, mut hi) = (0.0f64.to_bits(), f64::MAX.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if below(f64::from_bits(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(hi)
}

#[test]
fn vb2_marginal_quantiles_match_bisection_to_adjacent_floats() {
    // Regression: the mixture quantile once stopped Brent at an absolute
    // tolerance of 1e-12·max(hi, 1). β sits near 1e-5, so its quantiles
    // came back only ~1e-7 accurate (relative): on DT-Info GO the 2.5%
    // quantile read 6.691355281e-6 against 6.691355518e-6.
    let ps = [1e-12, 0.005, 0.025, 0.5, 0.975, 0.995, 1.0 - 1e-12];
    for spec in [ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()] {
        for scenario in Scenario::all() {
            let post = nhpp_vb::Vb2Posterior::fit(
                spec,
                scenario.prior,
                &scenario.data,
                scenario.vb2_options(),
            )
            .unwrap();
            let mixture = post.mixture();
            for (param, marginal) in [
                ("omega", mixture.marginal_omega()),
                ("beta", mixture.marginal_beta()),
            ] {
                for p in ps {
                    let got = marginal.quantile(p);
                    let want = bisect_to_adjacent_floats(&marginal, p);
                    let rel = (got - want).abs() / want;
                    assert!(
                        rel <= 1e-12,
                        "α₀={} {} {param} p={p}: {got:e} vs {want:e} (rel {rel:.2e})",
                        spec.alpha0(),
                        scenario.name
                    );
                }
            }
        }
    }
}
