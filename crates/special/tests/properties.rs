//! Property-based tests for the special-function substrate.

use nhpp_special::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// ln Γ satisfies the recurrence ln Γ(x+1) = ln Γ(x) + ln x.
    #[test]
    fn ln_gamma_recurrence(x in 1e-3f64..1e5) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() <= 1e-10 * lhs.abs().max(1.0));
    }

    /// Digamma is the derivative of ln Γ (finite-difference check).
    #[test]
    fn digamma_is_lngamma_derivative(x in 0.1f64..1e3) {
        let h = 1e-5 * x.max(1.0);
        let fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
        prop_assert!((digamma(x) - fd).abs() <= 1e-4 * fd.abs().max(1.0));
    }

    /// Trigamma is positive and decreasing on (0, ∞).
    #[test]
    fn trigamma_positive_decreasing(x in 0.05f64..1e3) {
        let t1 = trigamma(x);
        let t2 = trigamma(x * 1.5);
        prop_assert!(t1 > 0.0 && t2 > 0.0 && t2 < t1);
    }

    /// P(a, x) + Q(a, x) = 1 over a broad parameter box.
    #[test]
    fn incgamma_complementarity(a in 1e-2f64..1e4, frac in 1e-3f64..5.0) {
        let x = a * frac;
        let s = gamma_p(a, x) + gamma_q(a, x);
        prop_assert!((s - 1.0).abs() < 1e-11, "a={a}, x={x}, s={s}");
    }

    /// P is monotone nondecreasing in x.
    #[test]
    fn incgamma_monotone(a in 1e-2f64..1e3, x in 1e-6f64..1e4, dx in 1e-6f64..10.0) {
        prop_assert!(gamma_p(a, x + dx) >= gamma_p(a, x) - 1e-14);
    }

    /// gamma_p_inv inverts gamma_p.
    #[test]
    fn incgamma_inverse_roundtrip(a in 1e-1f64..1e4, p in 1e-8f64..1.0f64) {
        prop_assume!(p < 1.0 - 1e-12);
        let x = gamma_p_inv(a, p);
        prop_assert!(x.is_finite() && x >= 0.0);
        let back = gamma_p(a, x);
        prop_assert!((back - p).abs() < 1e-8, "a={a}, p={p}, x={x}, back={back}");
    }

    /// ln-space versions agree with linear versions when no underflow occurs.
    #[test]
    fn ln_incgamma_consistent(a in 1e-1f64..1e3, frac in 0.05f64..3.0) {
        let x = a * frac;
        let p = gamma_p(a, x);
        let q = gamma_q(a, x);
        if p > 1e-280 {
            prop_assert!((ln_gamma_p(a, x) - p.ln()).abs() < 1e-8 * p.ln().abs().max(1.0));
        }
        if q > 1e-280 {
            prop_assert!((ln_gamma_q(a, x) - q.ln()).abs() < 1e-8 * q.ln().abs().max(1.0));
        }
    }

    /// erf/erfc symmetry and complementarity.
    #[test]
    fn erf_properties(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-13);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    /// Normal CDF/quantile round trip.
    #[test]
    fn norm_roundtrip(p in 1e-10f64..1.0f64) {
        prop_assume!(p < 1.0 - 1e-12);
        let z = norm_ppf(p);
        prop_assert!((norm_cdf(z) - p).abs() < 1e-10);
    }

    /// log_sum_exp equals the naive sum when safe, and is permutation- and
    /// shift-equivariant.
    #[test]
    fn log_sum_exp_properties(mut v in prop::collection::vec(-50.0f64..50.0, 1..20), shift in -1e4f64..1e4) {
        let naive = v.iter().map(|x| x.exp()).sum::<f64>().ln();
        let lse = log_sum_exp(&v);
        prop_assert!((lse - naive).abs() < 1e-9 * naive.abs().max(1.0));

        let shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
        prop_assert!((log_sum_exp(&shifted) - (lse + shift)).abs() < 1e-8 * (lse + shift).abs().max(1.0));

        v.reverse();
        prop_assert!((log_sum_exp(&v) - lse).abs() < 1e-12);
    }
}

// Properties of the recurrence kernels used by the VB2 component sweep
// (see `nhpp_special::recurrence`). The 1e-12 mixed relative/absolute
// bound is the agreement the sweep relies on: the forward-recurrence
// increment `a·ln x − x − ln Γ(a+1)` cancels terms of magnitude
// ~`a·ln a`, so a few hundred ulps of absolute error are inherent at
// large shapes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The ln Γ ladder tracks direct evaluations across many steps and
    /// re-anchor periods, over the full shape range the sweep visits.
    #[test]
    fn ladder_agrees_with_direct_ln_gamma(x0 in 0.05f64..20_000.0, steps in 1usize..200) {
        let mut ladder = LnGammaLadder::new(x0);
        for _ in 0..steps {
            ladder.advance();
        }
        let direct = ln_gamma(ladder.x());
        prop_assert!(
            (ladder.value() - direct).abs() <= 1e-12 * direct.abs().max(1.0),
            "x0={x0}, steps={steps}: ladder={}, direct={direct}", ladder.value()
        );
    }

    /// One Q-step from a direct base agrees with the direct value at
    /// the incremented shape.
    #[test]
    fn q_step_agrees_with_direct(a in 0.05f64..20_000.0, frac in 1e-3f64..5.0) {
        let x = a * frac;
        let gln1 = ln_gamma(a + 1.0);
        let stepped = ln_gamma_q_step(a, x, x.ln(), ln_gamma_q(a, x), gln1);
        let direct = ln_gamma_q(a + 1.0, x);
        // 1e-12 relative is the sweep's agreement bound; the second
        // term is the inherent rounding of the cancelled increment
        // terms (`a·ln x`, `x`, `ln Γ(a+1)`), which dominates only at
        // shapes in the thousands.
        let tol = 1e-12 * direct.abs().max(1.0)
            + 32.0 * f64::EPSILON * (a * x.ln().abs() + x + gln1.abs());
        prop_assert!(
            (stepped - direct).abs() <= tol,
            "a={a}, x={x}: stepped={stepped}, direct={direct}"
        );
    }

    /// One P-step (including its cancellation-guard fallback) agrees
    /// with the direct value at the incremented shape.
    #[test]
    fn p_step_agrees_with_direct(a in 0.05f64..20_000.0, frac in 1e-3f64..5.0) {
        let x = a * frac;
        let gln1 = ln_gamma(a + 1.0);
        let stepped = ln_gamma_p_step(a, x, x.ln(), ln_gamma_p(a, x), gln1);
        let direct = ln_gamma_p(a + 1.0, x);
        let tol = 1e-12 * direct.abs().max(1.0)
            + 32.0 * f64::EPSILON * (a * x.ln().abs() + x + gln1.abs());
        prop_assert!(
            (stepped - direct).abs() <= tol,
            "a={a}, x={x}: stepped={stepped}, direct={direct}"
        );
    }

    /// The paired evaluation is bitwise the two individual ones.
    #[test]
    fn pq_given_pair_is_bitwise_consistent(a in 0.05f64..20_000.0, frac in 1e-3f64..5.0) {
        let x = a * frac;
        let gln = ln_gamma(a);
        let (ln_p, ln_q) = ln_gamma_pq_given(a, x, gln);
        prop_assert_eq!(ln_p.to_bits(), ln_gamma_p_given(a, x, gln).to_bits());
        prop_assert_eq!(ln_q.to_bits(), ln_gamma_q_given(a, x, gln).to_bits());
    }

    /// The lane Q-step agrees with the scalar Q-step within the same
    /// cancelled-increment tolerance the sweep relies on, across the
    /// full shape range (the lane path trades bitwise identity for lane
    /// throughput here — the sweep pins which one ran).
    #[test]
    fn q_step_lane_tracks_scalar(
        a in 0.05f64..20_000.0,
        fracs in (1e-3f64..5.0, 1e-3f64..5.0, 1e-3f64..5.0, 1e-3f64..5.0)
    ) {
        let gln1 = ln_gamma(a + 1.0);
        for frac in [fracs.0, fracs.1, fracs.2, fracs.3] {
            let x = a * frac;
            let ln_q = ln_gamma_q(a, x);
            let lane = ln_gamma_q_step_lane(a, x, x.ln(), ln_q, gln1);
            let scalar = ln_gamma_q_step(a, x, x.ln(), ln_q, gln1);
            let tol = 1e-12 * scalar.abs().max(1.0)
                + 32.0 * f64::EPSILON * (a * x.ln().abs() + x + gln1.abs());
            prop_assert!(
                (lane - scalar).abs() <= tol,
                "a={}, x={}: lane={}, scalar={}", a, x, lane, scalar
            );
        }
    }

    /// The streaming accumulator matches the batch log_sum_exp to high
    /// accuracy in any order.
    #[test]
    fn streaming_log_sum_exp_matches_batch(v in prop::collection::vec(-700.0f64..700.0, 0..40)) {
        let batch = log_sum_exp(&v);
        let mut acc = StreamingLogSumExp::new();
        for &x in &v {
            acc.push(x);
        }
        let streamed = acc.value();
        if v.is_empty() {
            prop_assert_eq!(streamed, f64::NEG_INFINITY);
        } else {
            prop_assert!(
                (streamed - batch).abs() <= 1e-12 * batch.abs().max(1.0),
                "streamed={streamed}, batch={batch}"
            );
        }
    }
}
