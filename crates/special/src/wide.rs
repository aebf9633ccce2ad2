//! Portable lane kernels for the VB2 component sweep.
//!
//! The VB2 sweep over candidate total fault counts `N` spends its time
//! in long runs of *independent* fixed points, one per `N`. It solves
//! [`WIDE_LANES`] consecutive components side by side in plain
//! `[f64; L]` arrays, which modern compilers lower to vector
//! instructions (and which pipeline well even without them — four
//! independent divisions or polynomial chains overlap in the
//! out-of-order core where one serial chain cannot). This module holds
//! the per-lane kernels those arrays run on and the switch that selects
//! them.
//!
//! # Dispatch and determinism
//!
//! The lane width is a *software* choice, never a CPU-feature probe:
//! [`active_simd`] consults the `NHPP_SIMD` environment variable once
//! per process (`scalar` forces the plain kernels) and otherwise picks
//! the 4-lane path. Because no `cpuid`-style detection is involved, a
//! recorded lane width plus the same inputs reproduces a run bitwise on
//! any machine. Callers pin the width they used into their results (see
//! `Vb2Posterior::lane_width` / `FitReport::lane_width` in `nhpp-vb`).
//!
//! Lane and scalar kernels may differ from each other by a few ulps
//! (the lane exponential is a polynomial kernel, not libm), but each is
//! individually deterministic: same inputs, same lane width, same bits,
//! independent of thread count.

use std::sync::OnceLock;

/// Lane count of the wide kernels.
pub const WIDE_LANES: usize = 4;

/// Which kernel family a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdDispatch {
    /// Plain one-element kernels (the pre-lane code paths, unchanged).
    Scalar,
    /// Four-lane struct-of-arrays kernels.
    Wide4,
}

impl SimdDispatch {
    /// The lane width this dispatch evaluates per step.
    pub fn lane_width(self) -> usize {
        match self {
            SimdDispatch::Scalar => 1,
            SimdDispatch::Wide4 => WIDE_LANES,
        }
    }
}

/// A caller-facing lane policy: follow the process-wide dispatch or
/// force one side (tests and reproduction runs pin the width this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use [`active_simd`] (wide unless `NHPP_SIMD` forces otherwise).
    #[default]
    Auto,
    /// Force the scalar kernels.
    ForceScalar,
    /// Force the 4-lane kernels (where the caller supports them).
    ForceWide,
}

impl SimdPolicy {
    /// Resolves the policy against the process-wide default.
    pub fn resolve(self) -> SimdDispatch {
        match self {
            SimdPolicy::Auto => active_simd(),
            SimdPolicy::ForceScalar => SimdDispatch::Scalar,
            SimdPolicy::ForceWide => SimdDispatch::Wide4,
        }
    }
}

static ACTIVE: OnceLock<SimdDispatch> = OnceLock::new();

/// The process-wide kernel dispatch, decided once: `NHPP_SIMD=scalar`
/// (or `off`/`0`) forces the scalar kernels, and anything else — `wide`,
/// `wide4`, or the variable being unset — selects the 4-lane kernels.
/// Purely a software switch; no CPU feature detection is involved, so
/// the choice (and therefore every result) reproduces on any machine.
pub fn active_simd() -> SimdDispatch {
    *ACTIVE.get_or_init(|| match std::env::var("NHPP_SIMD").as_deref() {
        Ok("scalar") | Ok("off") | Ok("0") => SimdDispatch::Scalar,
        _ => SimdDispatch::Wide4,
    })
}

/// `exp(x)` for one lane through the branch-free polynomial kernel, so
/// ragged-tail elements match their in-lane neighbours bitwise.
pub fn exp_lane(x: f64) -> f64 {
    exp_fixup(x, exp_core(x))
}

// Argument beyond which exp overflows f64.
const EXP_OVERFLOW: f64 = 709.782712893384;
// Argument below which exp underflows to zero (past the last subnormal).
const EXP_UNDERFLOW: f64 = -745.2;
// 1.5 · 2^52: adding and subtracting rounds to the nearest integer.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
const LOG2_E: f64 = std::f64::consts::LOG2_E;
// ln 2 split hi/lo so `x − k·ln2` is exact in the leading term.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Branch-free core of the polynomial exponential: clamp, reduce by
/// `k = round(x / ln 2)`, evaluate the degree-13 Taylor polynomial of
/// `exp(r)` on `|r| ≤ ln2/2` (truncation ≈ 4e−18 relative), scale by
/// `2^k` through two exponent-bit factors so subnormal results stay
/// exact. Specials are repaired afterwards by [`exp_fixup`].
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    let xc = x.clamp(EXP_UNDERFLOW, EXP_OVERFLOW);
    let kf = (xc * LOG2_E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (xc - kf * LN2_HI) - kf * LN2_LO;
    // Horner over 1/k! for k = 13 down to 0, in plain mul/add on
    // purpose: `f64::mul_add` on a build without compiled-in FMA (the
    // baseline x86-64 target) lowers to a libm *call* per step, which
    // made this kernel slower than libm's own `exp`. The separate
    // roundings cost ≈1 extra ulp over |r| ≤ ln2/2 — inside this
    // kernel's couple-of-ulps contract — and `k·LN2_HI` stays exact
    // regardless (LN2_HI carries enough trailing zero bits).
    let mut p: f64 = 1.605_904_383_682_161_3e-10; // 1/13!
    p = p * r + 2.087_675_698_786_81e-9; // 1/12!
    p = p * r + 2.505_210_838_544_172e-8; // 1/11!
    p = p * r + 2.755_731_922_398_589e-7; // 1/10!
    p = p * r + 2.755_731_922_398_589_3e-6; // 1/9!
    p = p * r + 2.480_158_730_158_73e-5; // 1/8!
    p = p * r + 1.984_126_984_126_984e-4; // 1/7!
    p = p * r + 1.388_888_888_888_889e-3; // 1/6!
    p = p * r + 8.333_333_333_333_333e-3; // 1/5!
    p = p * r + 4.166_666_666_666_666_4e-2; // 1/4!
    p = p * r + 1.666_666_666_666_666_6e-1; // 1/3!
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k as two factors, each with an in-range exponent, so k down to
    // −1074 (subnormal results) and up to +1024 (overflow to ∞) work.
    let k = kf as i64;
    let k_hi = k / 2;
    let k_lo = k - k_hi;
    p * pow2(k_hi) * pow2(k_lo)
}

/// `2^k` by exponent-bit construction; `k` must lie in `[−1022, 1023]`.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((1023 + k) as u64) << 52)
}

/// Repairs the special cases the branch-free core clamped away.
#[inline(always)]
fn exp_fixup(x: f64, core: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else if x > EXP_OVERFLOW {
        f64::INFINITY
    } else if x < EXP_UNDERFLOW {
        0.0
    } else {
        core
    }
}

/// One Q-recurrence step on the lane kernels: `ln Q(a+1, x)` from
/// `ln Q(a, x)` (see the scalar [`crate::ln_gamma_q_step`]), with the
/// increment through scalar `mul_add` and the pairwise log-sum-exp on
/// [`exp_lane`]. The sum `Q + increment` never cancels, so the step is
/// safe in lane arithmetic; the polynomial exponential costs a couple
/// of ulps against the scalar step.
pub fn ln_gamma_q_step_lane(a: f64, x: f64, ln_x: f64, ln_q_a: f64, ln_gamma_a1: f64) -> f64 {
    let inc = a.mul_add(ln_x, 0.0 - x) - ln_gamma_a1;
    if !(a > 0.0) || !(x >= 0.0) || ln_q_a.is_nan() {
        f64::NAN
    } else if x == 0.0 {
        0.0
    } else if x == f64::INFINITY {
        f64::NEG_INFINITY
    } else {
        log_sum_exp_pair_lane(ln_q_a, inc)
    }
}

/// `ln(exp(a) + exp(b))` on the lane kernels ([`exp_lane`] + `ln_1p`).
fn log_sum_exp_pair_lane(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    hi + exp_lane(lo - hi).ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::ln_gamma;
    use crate::incgamma::ln_gamma_q;

    #[test]
    fn exp_lane_matches_libm_to_couple_ulps() {
        for k in -3000..=3000 {
            let x = k as f64 * 0.237;
            let got = exp_lane(x);
            let want = x.exp();
            if want == 0.0 || want.is_infinite() {
                assert_eq!(got, want, "x={x}");
            } else {
                // A couple of ulps in the bulk; the two-factor 2^k
                // scaling near the underflow boundary costs a few more.
                let bound = if x.abs() > 700.0 {
                    1e-14
                } else {
                    4.0 * f64::EPSILON
                };
                let rel = ((got - want) / want).abs();
                assert!(rel <= bound, "x={x}: got={got}, want={want}");
            }
        }
    }

    #[test]
    fn exp_lane_specials_and_extremes() {
        assert!(exp_lane(f64::NAN).is_nan());
        assert_eq!(exp_lane(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_lane(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_lane(0.0), 1.0);
        assert_eq!(exp_lane(800.0), f64::INFINITY);
        assert_eq!(exp_lane(-800.0), 0.0);
        // Subnormal results stay proportionally accurate.
        let x = -730.0;
        let got = exp_lane(x);
        let want = x.exp();
        assert!(
            got > 0.0 && (got / want - 1.0).abs() < 1e-9,
            "{got} vs {want}"
        );
    }

    #[test]
    fn q_step_lane_agrees_with_scalar_step() {
        let a = [0.5, 2.0, 500.0, 5000.0];
        let frac = [0.05, 0.5, 1.8, 3.0];
        for i in 0..4 {
            let x = a[i] * frac[i];
            let ln_q = ln_gamma_q(a[i], x);
            let gln1 = ln_gamma(a[i] + 1.0);
            let lane = ln_gamma_q_step_lane(a[i], x, x.ln(), ln_q, gln1);
            let direct = ln_gamma_q(a[i] + 1.0, x);
            let tol = 1e-12 * direct.abs().max(1.0)
                + 32.0 * f64::EPSILON * (a[i] * x.ln().abs() + x + gln1.abs());
            assert!(
                (lane - direct).abs() <= tol,
                "case {i}: lane={lane}, direct={direct}"
            );
        }
    }

    #[test]
    fn q_step_lane_edge_cases() {
        let gln1 = ln_gamma(3.0);
        assert_eq!(
            ln_gamma_q_step_lane(2.0, 0.0, f64::NEG_INFINITY, 0.0, gln1),
            0.0
        );
        assert_eq!(
            ln_gamma_q_step_lane(2.0, f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, gln1),
            f64::NEG_INFINITY
        );
        assert!(ln_gamma_q_step_lane(-1.0, 1.0, 0.0, 0.0, gln1).is_nan());
        assert!(ln_gamma_q_step_lane(2.0, 1.0, 0.0, f64::NAN, gln1).is_nan());
    }

    #[test]
    fn dispatch_policy_resolution() {
        assert_eq!(SimdPolicy::ForceScalar.resolve(), SimdDispatch::Scalar);
        assert_eq!(SimdPolicy::ForceWide.resolve(), SimdDispatch::Wide4);
        assert_eq!(SimdDispatch::Scalar.lane_width(), 1);
        assert_eq!(SimdDispatch::Wide4.lane_width(), 4);
        // Auto resolves to whatever the process-wide switch says; both
        // sides are legal, it just must be stable.
        assert_eq!(SimdPolicy::Auto.resolve(), SimdPolicy::Auto.resolve());
    }
}
