//! Regularised incomplete gamma functions `P(a, x)`, `Q(a, x)`, their
//! logarithms and their inverse.
//!
//! These are the workhorse functions of the whole workspace: the gamma CDF
//! `G_Gam(t; α, β) = P(α, βt)` drives every NHPP likelihood, the VB2 weight
//! computation needs `ln Q` deep in the tail, and posterior quantiles need
//! the inverse.

use crate::gamma::ln_gamma;
use crate::normal::norm_ppf;

/// The Euler–Mascheroni constant `γ`.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

const MAX_ITER: usize = 20_000;
const EPS: f64 = 1e-15;
/// Smallest representable scale used by the modified Lentz algorithm.
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// The power series `Σ_{n≥0} x^n Γ(a) / Γ(a + 1 + n)`, so that
/// `P(a, x) = e^{−x} x^a / Γ(a) · sum`; accurate for `x < a + 1`.
fn p_series_sum(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut del = 1.0 / a;
    let mut sum = del;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum
}

/// `ln` of the power-series representation of `P(a, x)`, accurate for
/// `x < a + 1`. Returns `ln P(a, x)`. `gln` is the caller's `ln Γ(a)`,
/// threaded so hot loops with a fixed shape pay for it once.
fn ln_gamma_p_series(a: f64, x: f64, gln: f64) -> f64 {
    -x + a * x.ln() - gln + p_series_sum(a, x).ln()
}

/// The continued fraction `h` with `Q(a, x) = e^{−x} x^a / Γ(a) · h`,
/// accurate for `x >= a + 1`, by the modified Lentz algorithm.
fn q_cf_sum(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() <= EPS {
            break;
        }
    }
    h
}

/// `ln` of the continued-fraction representation of `Q(a, x)`, accurate for
/// `x >= a + 1`. Returns `ln Q(a, x)`; `gln` is the caller's `ln Γ(a)`.
fn ln_gamma_q_cf(a: f64, x: f64, gln: f64) -> f64 {
    -x + a * x.ln() - gln + q_cf_sum(a, x).ln()
}

/// Regularised lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// `P(a, x)` is the CDF of a `Gamma(a, 1)` random variable evaluated at
/// `x`; requires `a > 0` and `x >= 0` (returns [`f64::NAN`] otherwise).
///
/// # Example
///
/// ```
/// // P(1, x) = 1 − e^{−x}
/// let x = 0.7;
/// assert!((nhpp_special::gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-14);
/// ```
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == f64::INFINITY {
        return 1.0;
    }
    if x < a + 1.0 {
        ln_gamma_p_series(a, x, ln_gamma(a)).exp()
    } else {
        -(ln_gamma_q_cf(a, x, ln_gamma(a)).exp_m1())
    }
}

/// Regularised upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// `Q(a, x)` is the survival function of a `Gamma(a, 1)` random variable;
/// requires `a > 0` and `x >= 0` (returns [`f64::NAN`] otherwise).
///
/// # Example
///
/// ```
/// // Q(n, x) = e^{−x} Σ_{k<n} x^k/k!  for integer n; here n = 3, x = 2.5.
/// let expected = (-2.5f64).exp() * (1.0 + 2.5 + 2.5f64.powi(2) / 2.0);
/// assert!((nhpp_special::gamma_q(3.0, 2.5) - expected).abs() < 1e-14);
/// ```
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x == f64::INFINITY {
        return 0.0;
    }
    if x < a + 1.0 {
        -(ln_gamma_p_series(a, x, ln_gamma(a)).exp_m1())
    } else {
        ln_gamma_q_cf(a, x, ln_gamma(a)).exp()
    }
}

/// `ln P(a, x)`, accurate even when `P` underflows (deep lower tail).
///
/// Requires `a > 0`, `x >= 0`; `ln P(a, 0) = −∞`.
pub fn ln_gamma_p(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    ln_gamma_p_given(a, x, ln_gamma(a))
}

/// [`ln_gamma_p`] with `ln Γ(a)` supplied by the caller — identical
/// value, but lets a hot loop with a fixed shape (e.g. the VB2 weight
/// sweep, where `a = α₀` for every component) hoist the `ln Γ`
/// evaluation out of the loop.
pub fn ln_gamma_p_given(a: f64, x: f64, ln_gamma_a: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return 0.0;
    }
    if x < a + 1.0 {
        ln_gamma_p_series(a, x, ln_gamma_a)
    } else {
        let q = ln_gamma_q_cf(a, x, ln_gamma_a).exp();
        (-q).ln_1p()
    }
}

/// `ln Q(a, x)`, accurate even when `Q` underflows (deep upper tail).
///
/// This is the quantity the VB2 weight recursion needs: `r · ln S(t_e)`
/// stays finite for hundreds of residual faults even when `S(t_e)` itself
/// would underflow to zero. Requires `a > 0`, `x >= 0`; `ln Q(a, 0) = 0`.
pub fn ln_gamma_q(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    ln_gamma_q_given(a, x, ln_gamma(a))
}

/// [`ln_gamma_q`] with `ln Γ(a)` supplied by the caller (see
/// [`ln_gamma_p_given`]).
pub fn ln_gamma_q_given(a: f64, x: f64, ln_gamma_a: f64) -> f64 {
    if !(a > 0.0) || !(x >= 0.0) {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == f64::INFINITY {
        return f64::NEG_INFINITY;
    }
    if x < a + 1.0 {
        let p = ln_gamma_p_series(a, x, ln_gamma_a).exp();
        (-p).ln_1p()
    } else {
        ln_gamma_q_cf(a, x, ln_gamma_a)
    }
}

/// Both `ln P(a, x)` and `ln Q(a, x)` from a single series/continued-
/// fraction pass, with `ln Γ(a)` supplied by the caller.
///
/// Each element is bitwise identical to what [`ln_gamma_p_given`] and
/// [`ln_gamma_q_given`] return for the same arguments — the pair variant
/// exists so hot loops that need both tails (e.g. the grouped-data
/// interval-mass evaluation in the VB2 sweep) pay for one evaluation of
/// the underlying series or continued fraction instead of two.
pub fn ln_gamma_pq_given(a: f64, x: f64, ln_gamma_a: f64) -> (f64, f64) {
    if !(a > 0.0) || !(x >= 0.0) {
        return (f64::NAN, f64::NAN);
    }
    if x == 0.0 {
        return (f64::NEG_INFINITY, 0.0);
    }
    if x == f64::INFINITY {
        return (0.0, f64::NEG_INFINITY);
    }
    if x < a + 1.0 {
        let ln_p = ln_gamma_p_series(a, x, ln_gamma_a);
        let p = ln_p.exp();
        (ln_p, (-p).ln_1p())
    } else {
        let ln_q = ln_gamma_q_cf(a, x, ln_gamma_a);
        let q = ln_q.exp();
        ((-q).ln_1p(), ln_q)
    }
}

/// `P(a, x)`, `Q(a, x)` and the `Gamma(a, 1)` density at `x` from a
/// single series or continued-fraction pass, with `ln Γ(a)` supplied by
/// the caller.
///
/// Both tails share the kernel `e^{−x} x^a / Γ(a)`: the pass yields the
/// smaller tail to full relative accuracy, the other is its complement,
/// and the density is the kernel over `x`. This is what one Newton step
/// on a Gamma-mixture CDF needs per component.
pub fn gamma_pq_pdf_given(a: f64, x: f64, ln_gamma_a: f64) -> (f64, f64, f64) {
    if !(a > 0.0) || !(x >= 0.0) {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if x == 0.0 {
        let pdf = match a.partial_cmp(&1.0) {
            Some(std::cmp::Ordering::Greater) => 0.0,
            Some(std::cmp::Ordering::Equal) => 1.0,
            _ => f64::INFINITY,
        };
        return (0.0, 1.0, pdf);
    }
    if x == f64::INFINITY {
        return (1.0, 0.0, 0.0);
    }
    let kernel = (-x + a * x.ln() - ln_gamma_a).exp();
    if x < a + 1.0 {
        let p = kernel * p_series_sum(a, x);
        (p, 1.0 - p, kernel / x)
    } else {
        let q = kernel * q_cf_sum(a, x);
        (1.0 - q, q, kernel / x)
    }
}

/// Inverse of [`gamma_p`] in its second argument: returns `x` such that
/// `P(a, x) = p`.
///
/// Requires `a > 0` and `p ∈ [0, 1]`; returns `0` for `p = 0`,
/// [`f64::INFINITY`] for `p = 1` and [`f64::NAN`] outside the domain.
/// Uses a Wilson–Hilferty starting guess refined by safeguarded
/// Halley/Newton iteration; accurate to a few ulps of `x`.
///
/// # Example
///
/// ```
/// let a = 4.2;
/// let x = nhpp_special::gamma_p_inv(a, 0.37);
/// assert!((nhpp_special::gamma_p(a, x) - 0.37).abs() < 1e-12);
/// ```
pub fn gamma_p_inv(a: f64, p: f64) -> f64 {
    if !(a > 0.0) || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Starting guess.
    let mut x = if a > 1.0 {
        // Wilson–Hilferty.
        let z = norm_ppf(p);
        let u = 1.0 - 1.0 / (9.0 * a) + z * (1.0 / (9.0 * a)).sqrt();
        let guess = a * u * u * u;
        if guess > 0.0 {
            guess
        } else {
            // Far lower tail: invert the leading series term P ≈ x^a/Γ(a+1).
            ((p.ln() + ln_gamma(a + 1.0)) / a).exp()
        }
    } else {
        // NR 6.2.1-style small-shape guess.
        let t = 1.0 - a * (0.253 + a * 0.12);
        if p < t {
            (p / t).powf(1.0 / a)
        } else {
            1.0 - ((1.0 - (p - t) / (1.0 - t)).ln())
        }
    };

    // Bracket maintained for safeguarding.
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    let gln = ln_gamma(a);
    for _ in 0..100 {
        if x <= 0.0 {
            x = 0.5
                * (lo
                    + if hi.is_finite() {
                        hi
                    } else {
                        lo.max(1.0) * 2.0
                    });
        }
        let err = gamma_p(a, x) - p;
        if err > 0.0 {
            hi = hi.min(x);
        } else {
            lo = lo.max(x);
        }
        // pdf of Gamma(a, 1) at x, in log space to avoid under/overflow.
        let ln_pdf = (a - 1.0) * x.ln() - x - gln;
        let t = ln_pdf.exp();
        let step = if t > 0.0 {
            let u = err / t;
            // Halley correction.
            u / (1.0 - 0.5 * (u * ((a - 1.0) / x - 1.0)).clamp(-1.0, 1.0))
        } else {
            0.0
        };
        let mut x_new = x - step;
        if !(x_new > lo && x_new < hi) || step == 0.0 {
            // Newton left the bracket (or pdf underflowed): bisect.
            x_new = if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                x * 2.0
            };
        }
        if (x_new - x).abs() <= 1e-14 * x.abs().max(1e-300) {
            return x_new;
        }
        x = x_new;
    }
    x
}

/// Inverse of [`gamma_q`]: returns `x` such that `Q(a, x) = q`.
///
/// Requires `a > 0`, `q ∈ [0, 1]`; see [`gamma_p_inv`] for accuracy notes.
pub fn gamma_q_inv(a: f64, q: f64) -> f64 {
    if !(a > 0.0) || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    gamma_p_inv(a, 1.0 - q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol * expected.abs().max(1.0),
            "actual={actual}, expected={expected}"
        );
    }

    #[test]
    fn given_variants_are_bitwise_identical_to_plain() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 123.4] {
            let gln = ln_gamma(a);
            for &x in &[0.0, 1e-6, 0.5, a, a + 1.0, 3.0 * a, 800.0, f64::INFINITY] {
                assert_eq!(
                    ln_gamma_p(a, x).to_bits(),
                    ln_gamma_p_given(a, x, gln).to_bits(),
                    "a={a}, x={x}"
                );
                assert_eq!(
                    ln_gamma_q(a, x).to_bits(),
                    ln_gamma_q_given(a, x, gln).to_bits(),
                    "a={a}, x={x}"
                );
                let (ln_p, ln_q) = ln_gamma_pq_given(a, x, gln);
                assert_eq!(ln_p.to_bits(), ln_gamma_p(a, x).to_bits(), "a={a}, x={x}");
                assert_eq!(ln_q.to_bits(), ln_gamma_q(a, x).to_bits(), "a={a}, x={x}");
            }
        }
        assert!(ln_gamma_p_given(-1.0, 1.0, 0.0).is_nan());
        assert!(ln_gamma_q_given(1.0, -1.0, 0.0).is_nan());
        let (ln_p, ln_q) = ln_gamma_pq_given(0.0, 1.0, 0.0);
        assert!(ln_p.is_nan() && ln_q.is_nan());
    }

    #[test]
    fn pq_pdf_matches_the_separate_evaluations() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 123.4, 2.5e4] {
            let gln = ln_gamma(a);
            for &frac in &[1e-6, 0.1, 0.9, 1.0, 1.1, 3.0, 40.0] {
                let x = a * frac;
                let (p, q, pdf) = gamma_pq_pdf_given(a, x, gln);
                // The smaller tail to full relative accuracy, the other
                // to full absolute accuracy.
                let (small, small_ref) = if x < a + 1.0 {
                    (p, gamma_p(a, x))
                } else {
                    (q, gamma_q(a, x))
                };
                assert!(
                    (small - small_ref).abs() <= 1e-13 * small_ref,
                    "a={a}, x={x}"
                );
                assert!((p + q - 1.0).abs() <= 1e-15, "a={a}, x={x}");
                // Both exponents sum terms of size ~a, so they agree to
                // about a·ε, not ε.
                let pdf_ref = ((a - 1.0) * x.ln() - x - gln).exp();
                let tol = 1e-14 * a.max(100.0);
                assert!((pdf - pdf_ref).abs() <= tol * pdf_ref, "a={a}, x={x}");
            }
        }
        assert_eq!(gamma_pq_pdf_given(2.0, 0.0, 0.0), (0.0, 1.0, 0.0));
        assert_eq!(gamma_pq_pdf_given(1.0, 0.0, 0.0), (0.0, 1.0, 1.0));
        assert_eq!(gamma_pq_pdf_given(0.5, 0.0, 0.0).2, f64::INFINITY);
        assert_eq!(gamma_pq_pdf_given(2.0, f64::INFINITY, 0.0), (1.0, 0.0, 0.0));
        assert!(gamma_pq_pdf_given(-1.0, 1.0, 0.0).0.is_nan());
        assert!(gamma_pq_pdf_given(1.0, f64::NAN, 0.0).2.is_nan());
    }

    #[test]
    fn p_of_shape_one_is_exponential_cdf() {
        for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 40.0] {
            assert_close(gamma_p(1.0, x), -(-x).exp_m1(), 1e-14);
        }
    }

    #[test]
    fn q_integer_shape_matches_poisson_tail() {
        // Q(n, x) = e^{-x} Σ_{k<n} x^k / k!
        let poisson_tail = |n: u32, x: f64| {
            let mut term = 1.0;
            let mut sum = 1.0;
            for k in 1..n {
                term *= x / k as f64;
                sum += term;
            }
            (-x).exp() * sum
        };
        for &(n, x) in &[(1u32, 0.3), (3, 2.5), (5, 1.0), (10, 20.0), (4, 4.0)] {
            assert_close(gamma_q(n as f64, x), poisson_tail(n, x), 1e-13);
        }
    }

    #[test]
    fn p_plus_q_is_one() {
        for &a in &[0.3, 1.0, 2.7, 10.0, 123.0, 5000.0] {
            for &frac in &[0.1, 0.5, 1.0, 1.5, 3.0] {
                let x = a * frac;
                assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-13);
            }
        }
    }

    #[test]
    fn ln_versions_consistent_with_linear() {
        for &(a, x) in &[(2.0, 1.0), (5.5, 8.0), (0.7, 0.2), (300.0, 280.0)] {
            assert_close(ln_gamma_p(a, x), gamma_p(a, x).ln(), 1e-11);
            assert_close(ln_gamma_q(a, x), gamma_q(a, x).ln(), 1e-11);
        }
    }

    #[test]
    fn ln_q_deep_tail_finite() {
        // Q(1, 800) = e^{-800}: underflows linearly, fine in logs.
        assert_close(ln_gamma_q(1.0, 800.0), -800.0, 1e-12);
        // ln P deep lower tail: P(10, 1e-3) ≈ (1e-3)^10 / 10!.
        let expected = 10.0 * (1e-3f64).ln() - ln_gamma(11.0);
        assert_close(ln_gamma_p(10.0, 1e-3), expected, 1e-3);
    }

    #[test]
    fn edge_values() {
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
        assert_eq!(gamma_p(2.0, f64::INFINITY), 1.0);
        assert!(gamma_p(-1.0, 2.0).is_nan());
        assert!(gamma_p(1.0, -2.0).is_nan());
    }

    #[test]
    fn inverse_round_trip() {
        for &a in &[0.2, 0.9, 1.0, 2.0, 17.3, 400.0, 2.5e4] {
            for &p in &[1e-10, 1e-4, 0.005, 0.025, 0.5, 0.975, 0.995, 1.0 - 1e-9] {
                let x = gamma_p_inv(a, p);
                assert!(x.is_finite() && x > 0.0, "a={a}, p={p}, x={x}");
                assert!(
                    (gamma_p(a, x) - p).abs() < 1e-10,
                    "a={a}, p={p}, x={x}, P={}",
                    gamma_p(a, x)
                );
            }
        }
    }

    #[test]
    fn inverse_edges() {
        assert_eq!(gamma_p_inv(3.0, 0.0), 0.0);
        assert_eq!(gamma_p_inv(3.0, 1.0), f64::INFINITY);
        assert!(gamma_p_inv(3.0, -0.1).is_nan());
        assert!(gamma_p_inv(3.0, 1.1).is_nan());
        // Median of Gamma(1,1) is ln 2.
        assert_close(gamma_p_inv(1.0, 0.5), 2.0f64.ln(), 1e-12);
    }

    #[test]
    fn q_inverse_matches_p_inverse() {
        let a = 6.0;
        let x = gamma_q_inv(a, 0.01);
        assert_close(gamma_q(a, x), 0.01, 1e-10);
    }

    #[test]
    fn monotone_in_x() {
        let a = 3.7;
        let mut prev = -1.0;
        for i in 1..200 {
            let x = i as f64 * 0.1;
            let p = gamma_p(a, x);
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn large_shape_normal_approximation() {
        // For large a, P(a, a + z√a) ≈ Φ(z) to O(1/√a).
        let a = 1e6;
        let p = gamma_p(a, a);
        assert!((p - 0.5).abs() < 1e-3, "p={p}");
    }
}
