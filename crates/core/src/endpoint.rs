//! Shared incomplete-gamma endpoint state for the variational sweeps.
//!
//! Both VB sweeps repeatedly need the regularised gamma tails of the
//! failure law at a scaled endpoint `x = ξ·t`, at the two shapes `α₀`
//! and `α₀ + 1` (the extra shape provides truncated means through the
//! identity `E[T·1(lo<T<hi)] = (α₀/ξ)·M_{α₀+1}(lo, hi)`). [`Endpoint`]
//! packages the pattern: one direct base evaluation per endpoint, the
//! `α₀ + 1` values by single forward recurrence steps, and the exact
//! exponential forms when `α₀ = 1` (Goel–Okumoto).

use nhpp_special::{
    exp_lane, ln_gamma_p_step, ln_gamma_pq_given, ln_gamma_q_given, ln_gamma_q_step,
    ln_gamma_q_step_lane, log_diff_exp,
};

/// The regularised incomplete-gamma state at one scaled endpoint
/// `x = ξ·t`, at both shapes `α₀` and `α₀ + 1`.
///
/// The base shape is evaluated once ([`ln_gamma_pq_given`] — one
/// series/continued-fraction pass for both tails, or the exact
/// exponential forms when `α₀ = 1`), and the `α₀ + 1` values follow by
/// one forward recurrence step each ([`ln_gamma_q_step`] /
/// [`ln_gamma_p_step`]) instead of independent evaluations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Endpoint {
    /// The unscaled endpoint `t`, used to detect that a contiguous
    /// bin's lower edge is the previous bin's upper edge.
    pub(crate) t: f64,
    pub(crate) ln_p: f64,
    pub(crate) ln_q: f64,
    pub(crate) ln_p1: f64,
    pub(crate) ln_q1: f64,
}

impl Endpoint {
    /// Upper tails only (`ln Q` at both shapes) — all the censored-tail
    /// term at `t_end` needs. Skipping the lower tails matters: at the
    /// fixed point `ξ·t_end` sits where the `P` recurrence cancels and
    /// would re-derive a power series on every solver iteration.
    pub(crate) fn eval_tail(alpha0: f64, xi: f64, t: f64, gln: f64, gln1: f64) -> (f64, f64) {
        let x = xi * t;
        let ln_q = if alpha0 == 1.0 {
            // Q(1, x) = e^{−x} exactly.
            if x == 0.0 {
                0.0
            } else {
                -x
            }
        } else {
            ln_gamma_q_given(alpha0, x, gln)
        };
        (ln_q, ln_gamma_q_step(alpha0, x, x.ln(), ln_q, gln1))
    }

    /// One lane of the wide [`Endpoint::eval_tail`]: the same two upper
    /// tails on the *lane* kernels, so a width-generic sweep gets
    /// bitwise-identical per-element results at any block size (4, 8,
    /// or a ragged tail). The base shape uses the exact
    /// `Q(1, x) = e^{−x}` branch when `α₀ = 1` and otherwise delegates
    /// to the scalar evaluation; the `α₀ + 1` tail steps forward
    /// through the lane Q-recurrence ([`ln_gamma_q_step_lane`]).
    pub(crate) fn eval_tail_lane(alpha0: f64, xi: f64, t: f64, gln: f64, gln1: f64) -> (f64, f64) {
        let x = xi * t;
        if alpha0 == 1.0 {
            let ln_q = if x == 0.0 { 0.0 } else { -x };
            (ln_q, ln_gamma_q_step_lane(alpha0, x, x.ln(), ln_q, gln1))
        } else {
            Endpoint::eval_tail(alpha0, xi, t, gln, gln1)
        }
    }

    pub(crate) fn eval(alpha0: f64, xi: f64, t: f64, gln: f64, gln1: f64) -> Self {
        let x = xi * t;
        let (ln_p, ln_q) = if alpha0 == 1.0 {
            // Q(1, x) = e^{−x} exactly: the Goel–Okumoto sweep pays no
            // series or continued fraction at the base shape.
            if x == 0.0 {
                (f64::NEG_INFINITY, 0.0)
            } else if x == f64::INFINITY {
                (0.0, f64::NEG_INFINITY)
            } else {
                ((-(-x).exp_m1()).ln(), -x)
            }
        } else {
            ln_gamma_pq_given(alpha0, x, gln)
        };
        let ln_x = x.ln();
        Endpoint {
            t,
            ln_p,
            ln_q,
            ln_p1: ln_gamma_p_step(alpha0, x, ln_x, ln_p, gln1),
            ln_q1: ln_gamma_q_step(alpha0, x, ln_x, ln_q, gln1),
        }
    }
}

/// `ln` of the interval mass between two endpoints at one shape, given
/// both log tails at each endpoint. Mirrors the branch rule of
/// `Gamma::ln_interval_mass`: difference the lower tails when both `P`
/// values are small (their sum below one), the upper tails otherwise,
/// so the subtraction always cancels the smaller pair.
pub(crate) fn ln_mass_between(lo_p: f64, lo_q: f64, hi_p: f64, hi_q: f64) -> f64 {
    if lo_p == f64::NEG_INFINITY {
        // x_lo = 0: the mass is the lower tail at the upper endpoint.
        return hi_p;
    }
    if hi_q == f64::NEG_INFINITY {
        // x_hi = ∞: the mass is the upper tail at the lower endpoint.
        return lo_q;
    }
    if lo_p.exp() + hi_p.exp() < 1.0 {
        log_diff_exp(hi_p, lo_p)
    } else {
        log_diff_exp(lo_q, hi_q)
    }
}

/// Conditional mean of a `Gamma(α₀, ξ)` variable truncated to an
/// interval, from the log interval masses at shapes `α₀` and `α₀ + 1`:
/// `(α₀/ξ)·exp(ln M_{α₀+1} − ln M_{α₀})`, NaN on zero or invalid mass —
/// exactly as `Gamma::interval_mean` reports it.
pub(crate) fn mean_from_masses(alpha0: f64, xi: f64, ln_mass: f64, ln_mass1: f64) -> f64 {
    if ln_mass == f64::NEG_INFINITY || ln_mass.is_nan() {
        return f64::NAN;
    }
    (alpha0 / xi) * (ln_mass1 - ln_mass).exp()
}

/// One lane of the wide [`mean_from_masses`] for the censored tail
/// `(t, ∞)`, where the mass is never zero:
/// `(α₀/ξ)·exp(ln M_{α₀+1} − ln M_{α₀})` on the lane exponential
/// kernel ([`exp_lane`]) — per-element bitwise at any block width.
pub(crate) fn tail_mean_from_masses_lane(alpha0: f64, xi: f64, ln_mass: f64, ln_mass1: f64) -> f64 {
    (alpha0 / xi) * exp_lane(ln_mass1 - ln_mass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_dist::{Continuous, Gamma};
    use nhpp_special::ln_gamma;

    #[test]
    fn endpoint_matches_gamma_law_tails() {
        for &alpha0 in &[1.0, 2.0, 3.5] {
            let gln = ln_gamma(alpha0);
            let gln1 = ln_gamma(alpha0 + 1.0);
            let xi = 0.7;
            for &t in &[0.3, 1.0, 4.0, 20.0] {
                let e = Endpoint::eval(alpha0, xi, t, gln, gln1);
                let law = Gamma::new(alpha0, xi).unwrap();
                let law1 = Gamma::new(alpha0 + 1.0, xi).unwrap();
                let p = law.cdf(t);
                let p1 = law1.cdf(t);
                assert!((e.ln_p.exp() - p).abs() < 1e-12, "p at {alpha0}, {t}");
                assert!((e.ln_p1.exp() - p1).abs() < 1e-12, "p1 at {alpha0}, {t}");
                assert!((e.ln_q.exp() - (1.0 - p)).abs() < 1e-12);
                assert!((e.ln_q1.exp() - (1.0 - p1)).abs() < 1e-12);
                let (tq, tq1) = Endpoint::eval_tail(alpha0, xi, t, gln, gln1);
                assert_eq!(tq.to_bits(), e.ln_q.to_bits());
                assert_eq!(tq1.to_bits(), e.ln_q1.to_bits());
            }
        }
    }

    #[test]
    fn lane_tail_tracks_scalar_tail() {
        for &alpha0 in &[1.0, 2.5] {
            let gln = ln_gamma(alpha0);
            let gln1 = ln_gamma(alpha0 + 1.0);
            let t = 3.2;
            let xis = [0.05, 0.7, 2.0, 9.5];
            for (i, &xi) in xis.iter().enumerate() {
                let (wq, wq1) = Endpoint::eval_tail_lane(alpha0, xi, t, gln, gln1);
                let mean = tail_mean_from_masses_lane(alpha0, xi, wq, wq1);
                let (sq, sq1) = Endpoint::eval_tail(alpha0, xi, t, gln, gln1);
                // The base-shape tail is closed form at α₀ = 1 (and a
                // scalar delegate otherwise): bitwise equal. The
                // stepped shape runs on the lane kernels, which trade
                // a couple of ulps for lane throughput.
                assert_eq!(wq.to_bits(), sq.to_bits(), "alpha0={alpha0} lane {i}");
                assert!(
                    (wq1 - sq1).abs() <= 1e-12 * sq1.abs().max(1.0),
                    "alpha0={alpha0} lane {i}: {wq1} vs {sq1}"
                );
                let scalar_mean = mean_from_masses(alpha0, xi, sq, sq1);
                assert!(
                    (mean - scalar_mean).abs() <= 1e-12 * scalar_mean.abs(),
                    "mean lane {i}"
                );
            }
        }
    }

    #[test]
    fn masses_and_means_match_gamma_law() {
        let (alpha0, xi) = (2.0, 1.3);
        let gln = ln_gamma(alpha0);
        let gln1 = ln_gamma(alpha0 + 1.0);
        let law = Gamma::new(alpha0, xi).unwrap();
        for &(lo, hi) in &[(0.0, 0.8), (0.8, 2.0), (2.0, f64::INFINITY)] {
            let e_lo = Endpoint::eval(alpha0, xi, lo, gln, gln1);
            let e_hi = Endpoint::eval(alpha0, xi, hi, gln, gln1);
            let ln_mass = ln_mass_between(e_lo.ln_p, e_lo.ln_q, e_hi.ln_p, e_hi.ln_q);
            let ln_mass1 = ln_mass_between(e_lo.ln_p1, e_lo.ln_q1, e_hi.ln_p1, e_hi.ln_q1);
            let expected_mass = law.ln_interval_mass(lo, hi);
            assert!(
                (ln_mass - expected_mass).abs() < 1e-11,
                "mass on ({lo}, {hi}): {ln_mass} vs {expected_mass}"
            );
            let mean = mean_from_masses(alpha0, xi, ln_mass, ln_mass1);
            let expected_mean = law.interval_mean(lo, hi);
            assert!(
                (mean - expected_mean).abs() < 1e-10 * expected_mean,
                "mean on ({lo}, {hi}): {mean} vs {expected_mean}"
            );
        }
    }
}
