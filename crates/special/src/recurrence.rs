//! Incremental recurrence kernels for walking special functions along a
//! unit-spaced grid of shapes.
//!
//! The VB2 component sweep evaluates `ln Γ` and the regularised incomplete
//! gamma tails at shapes that advance by a fixed stride as the latent fault
//! count `N` steps by one. Rather than re-deriving each value from scratch
//! (a Lanczos evaluation, a power series or a continued fraction), these
//! kernels advance the previous value by one term:
//!
//! * `ln Γ(x + 1) = ln x + ln Γ(x)` — the [`LnGammaLadder`];
//! * `Q(a + 1, x) = Q(a, x) + x^a e^{−x} / Γ(a + 1)` — [`ln_gamma_q_step`],
//!   a sum of positive terms, unconditionally stable in log space;
//! * `P(a + 1, x) = P(a, x) − x^a e^{−x} / Γ(a + 1)` — [`ln_gamma_p_step`],
//!   a true difference that can cancel, so the kernel falls back to a
//!   direct evaluation whenever more than half the mass cancels.
//!
//! Each unit step costs a handful of ulps at most; the ladder re-anchors
//! with a direct [`ln_gamma`] evaluation every [`REANCHOR_PERIOD`] steps so
//! accumulated drift stays below ~`period · ulp` relative — far inside the
//! `1e-12` agreement bound the property tests assert. Callers that split
//! work across threads must start a fresh ladder (and fresh recurrence
//! base) at each chunk head so results are independent of the thread
//! count; see `nhpp_vb::vb2` and DESIGN.md §10.

use crate::gamma::ln_gamma;
use crate::incgamma::ln_gamma_p_given;
use crate::logsumexp::{log_diff_exp, log_sum_exp_pair};

/// Number of unit steps a [`LnGammaLadder`] takes before re-anchoring with
/// a direct [`ln_gamma`] evaluation.
pub const REANCHOR_PERIOD: u32 = 32;

/// `ln Γ(x)` maintained incrementally along `x, x+1, x+2, …` via
/// `ln Γ(x + 1) = ln x + ln Γ(x)`, re-anchored by a direct evaluation
/// every [`REANCHOR_PERIOD`] steps to bound drift.
///
/// # Example
///
/// ```
/// use nhpp_special::{ln_gamma, LnGammaLadder};
/// let mut ladder = LnGammaLadder::new(3.5);
/// ladder.advance(); // now at 4.5
/// ladder.advance(); // now at 5.5
/// assert!((ladder.value() - ln_gamma(5.5)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LnGammaLadder {
    x: f64,
    ln_value: f64,
    steps_since_anchor: u32,
}

impl LnGammaLadder {
    /// Anchors a ladder at `x` with a direct `ln Γ(x)` evaluation.
    pub fn new(x: f64) -> Self {
        LnGammaLadder {
            x,
            ln_value: ln_gamma(x),
            steps_since_anchor: 0,
        }
    }

    /// The current argument.
    pub fn x(&self) -> f64 {
        self.x
    }

    /// `ln Γ(x)` at the current argument.
    pub fn value(&self) -> f64 {
        self.ln_value
    }

    /// Advances the ladder one unit step to `x + 1`.
    pub fn advance(&mut self) {
        self.ln_value += self.x.ln();
        self.x += 1.0;
        self.steps_since_anchor += 1;
        if self.steps_since_anchor >= REANCHOR_PERIOD {
            self.ln_value = ln_gamma(self.x);
            self.steps_since_anchor = 0;
        }
    }

    /// Advances by `stride` unit steps (the VB2 `b`-shape ladder steps by
    /// `α₀` per component).
    pub fn advance_by(&mut self, stride: u32) {
        for _ in 0..stride {
            self.advance();
        }
    }
}

/// `ln` of the shared forward-recurrence increment
/// `x^a e^{−x} / Γ(a + 1)`, i.e. `a·ln x − x − ln Γ(a + 1)`.
///
/// `ln_x` and `ln_gamma_a1 = ln Γ(a + 1)` are supplied by the caller so a
/// sweep over many shapes at a fixed `x` hoists both.
#[inline]
fn ln_increment(a: f64, x: f64, ln_x: f64, ln_gamma_a1: f64) -> f64 {
    a * ln_x - x - ln_gamma_a1
}

/// `ln Q(a + 1, x)` from `ln Q(a, x)` via the stable forward recurrence
/// `Q(a + 1, x) = Q(a, x) + x^a e^{−x} / Γ(a + 1)`.
///
/// Both terms are positive, so the log-space sum never cancels; the step
/// is accurate to a few ulps for any `a > 0`, `x ≥ 0`. `ln_x = ln x` and
/// `ln_gamma_a1 = ln Γ(a + 1)` are threaded by the caller.
pub fn ln_gamma_q_step(a: f64, x: f64, ln_x: f64, ln_q_a: f64, ln_gamma_a1: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) || ln_q_a.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == f64::INFINITY {
        return f64::NEG_INFINITY;
    }
    log_sum_exp_pair(ln_q_a, ln_increment(a, x, ln_x, ln_gamma_a1))
}

/// `ln P(a + 1, x)` from `ln P(a, x)` via the forward recurrence
/// `P(a + 1, x) = P(a, x) − x^a e^{−x} / Γ(a + 1)`.
///
/// The recurrence is a genuine difference, so it loses accuracy exactly
/// when most of `P(a, x)` cancels (the deep lower tail, `x ≪ a`). The
/// kernel detects that case — the stepped value dropping more than a
/// factor of two below `P(a, x)` — and falls back to a direct
/// [`ln_gamma_p_given`] evaluation, which is cheap there (the power
/// series converges in a few terms for `x < a + 2`).
pub fn ln_gamma_p_step(a: f64, x: f64, ln_x: f64, ln_p_a: f64, ln_gamma_a1: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) || ln_p_a.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return 0.0;
    }
    let stepped = log_diff_exp(ln_p_a, ln_increment(a, x, ln_x, ln_gamma_a1));
    if stepped.is_finite() && stepped >= ln_p_a - std::f64::consts::LN_2 {
        stepped
    } else {
        ln_gamma_p_given(a + 1.0, x, ln_gamma_a1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incgamma::{ln_gamma_p, ln_gamma_q};

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol * expected.abs().max(1.0),
            "actual={actual}, expected={expected}"
        );
    }

    #[test]
    fn ladder_tracks_ln_gamma_across_reanchors() {
        for &x0 in &[0.5, 1.0, 2.0, 17.3, 1000.5] {
            let mut ladder = LnGammaLadder::new(x0);
            for k in 0..100u32 {
                let x = x0 + k as f64;
                assert_close(ladder.value(), ln_gamma(x), 1e-13);
                ladder.advance();
            }
        }
    }

    #[test]
    fn ladder_stride_two_matches_unit_steps() {
        let mut a = LnGammaLadder::new(4.2);
        let mut b = LnGammaLadder::new(4.2);
        for _ in 0..10 {
            a.advance_by(2);
            b.advance();
            b.advance();
        }
        assert_eq!(a.value().to_bits(), b.value().to_bits());
        assert_eq!(a.x(), 24.2);
    }

    #[test]
    fn q_step_matches_direct() {
        for &a in &[0.5, 1.0, 2.0, 30.0, 500.0] {
            for &frac in &[0.05, 0.5, 1.0, 1.8, 5.0] {
                let x = a * frac;
                let stepped = ln_gamma_q_step(a, x, x.ln(), ln_gamma_q(a, x), ln_gamma(a + 1.0));
                // The increment a·ln x − x − ln Γ(a+1) cancels terms of
                // magnitude ~a·ln a, so a few hundred ulps of absolute
                // error are inherent at large shapes; 1e-12 is the bound
                // the sweep relies on.
                assert_close(stepped, ln_gamma_q(a + 1.0, x), 1e-12);
            }
        }
    }

    #[test]
    fn p_step_matches_direct_including_cancellation_regime() {
        // x ≪ a exercises the fallback path, x ≈ a and x ≫ a the
        // recurrence itself.
        for &a in &[0.5, 1.0, 2.0, 30.0, 500.0, 5000.0] {
            for &frac in &[1e-3, 0.05, 0.5, 1.0, 1.8, 5.0] {
                let x = a * frac;
                let stepped = ln_gamma_p_step(a, x, x.ln(), ln_gamma_p(a, x), ln_gamma(a + 1.0));
                assert_close(stepped, ln_gamma_p(a + 1.0, x), 1e-12);
            }
        }
    }

    #[test]
    fn step_edge_cases() {
        let gln1 = ln_gamma(3.0);
        assert_eq!(ln_gamma_q_step(2.0, 0.0, f64::NEG_INFINITY, 0.0, gln1), 0.0);
        assert_eq!(
            ln_gamma_q_step(2.0, f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, gln1),
            f64::NEG_INFINITY
        );
        assert_eq!(
            ln_gamma_p_step(2.0, 0.0, f64::NEG_INFINITY, f64::NEG_INFINITY, gln1),
            f64::NEG_INFINITY
        );
        assert_eq!(
            ln_gamma_p_step(2.0, f64::INFINITY, f64::INFINITY, 0.0, gln1),
            0.0
        );
        assert!(ln_gamma_q_step(-1.0, 1.0, 0.0, 0.0, 0.0).is_nan());
        assert!(ln_gamma_p_step(1.0, 1.0, 0.0, f64::NAN, 0.0).is_nan());
    }

    #[test]
    fn shape_one_base_is_exact() {
        // Q(1, x) = e^{−x}, so the sweep's α₀ = 1 base is ln Q = −x and
        // one Q-step gives the shape-2 tail exactly.
        for &x in &[0.1, 1.0, 10.0, 300.0] {
            let stepped = ln_gamma_q_step(1.0, x, x.ln(), -x, ln_gamma(2.0));
            assert_close(stepped, ln_gamma_q(2.0, x), 1e-14);
        }
    }
}
