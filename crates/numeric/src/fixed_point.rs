//! Fixed-point iteration for scalar and two-variable systems.
//!
//! The VB2 inner loop of the paper solves the simultaneous equations
//! (24)–(27): `ζ = g(ξ)` and `ξ = h(ζ)`. Substituting one into the other
//! gives a scalar fixed-point problem `ξ = F(ξ)` which the paper solves by
//! successive substitution (global convergence, per Attias 1999) and
//! suggests accelerating with Newton. Both are provided here, budgeted,
//! with bisection as the last-resort solver.

use crate::budget::Budget;
use crate::NumericError;

/// Outcome of a fixed-point solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPoint {
    /// The converged value.
    pub value: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Successive substitution `x ← F(x)` until `|Δx| <= tol·max(|x|, 1)`,
/// the paper's inner solver. The iteration allowance comes from a
/// shared cooperative [`Budget`] (iterations and/or deadline) so an
/// outer supervisor can bound the *total* work of many nested solves.
///
/// # Errors
///
/// * [`NumericError::NonFinite`] if `F` produces NaN/∞.
/// * [`NumericError::BudgetExhausted`] when the budget trips.
///
/// # Example
///
/// ```
/// use nhpp_numeric::fixed_point::successive_substitution_budgeted;
/// use nhpp_numeric::Budget;
/// # fn main() -> Result<(), nhpp_numeric::NumericError> {
/// // x = cos x has the Dottie number as fixed point.
/// let mut budget = Budget::iterations(10_000);
/// let fp = successive_substitution_budgeted(|x| x.cos(), 1.0, 1e-12, &mut budget)?;
/// assert!((fp.value - 0.739_085_133_215_160_6).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn successive_substitution_budgeted<F: FnMut(f64) -> f64>(
    mut f: F,
    x0: f64,
    tol: f64,
    budget: &mut Budget,
) -> Result<FixedPoint, NumericError> {
    let mut x = x0;
    let mut iterations = 0;
    loop {
        budget.charge(1)?;
        iterations += 1;
        let next = f(x);
        if !next.is_finite() {
            return Err(NumericError::NonFinite {
                context: "successive substitution update",
            });
        }
        if (next - x).abs() <= tol * x.abs().max(1.0) {
            return Ok(FixedPoint {
                value: next,
                iterations,
            });
        }
        x = next;
    }
}

/// Newton iteration on the residual `F(x) − x`, with the derivative
/// from central finite differences, safeguarded by falling back to a
/// plain substitution step whenever Newton diverges or leaves `(0, ∞)`
/// — for the VB2 inner problem, whose map is smooth and whose iterate
/// must stay positive. See [`Budget`] for the cooperative limit
/// semantics.
///
/// # Errors
///
/// * [`NumericError::NonFinite`] if `F` produces NaN/∞.
/// * [`NumericError::BudgetExhausted`] when the budget trips.
pub fn newton_fixed_point_budgeted<F: FnMut(f64) -> f64>(
    mut f: F,
    x0: f64,
    tol: f64,
    budget: &mut Budget,
) -> Result<FixedPoint, NumericError> {
    let mut x = x0;
    let mut iterations = 0;
    loop {
        budget.charge(1)?;
        iterations += 1;
        let fx = f(x);
        if !fx.is_finite() {
            return Err(NumericError::NonFinite {
                context: "newton fixed-point update",
            });
        }
        let resid = fx - x;
        if resid.abs() <= tol * x.abs().max(1.0) {
            return Ok(FixedPoint {
                value: fx,
                iterations,
            });
        }
        let h = 1e-6 * x.abs().max(1e-12);
        let fp = (f(x + h) - f(x - h)) / (2.0 * h);
        let deriv = fp - 1.0;
        let newton = x - resid / deriv;
        x = if deriv.abs() > 1e-12 && newton.is_finite() && newton > 0.0 {
            newton
        } else {
            fx
        };
    }
}

/// Bisection on the residual `F(x) − x` over `(0, ∞)`: the slow but
/// essentially unconditionally convergent last-resort inner solver of
/// the supervised fitting pipeline. A sign-changing bracket is grown
/// geometrically around `x0` (bounded away from zero), then halved to
/// tolerance. Unlike substitution or Newton it cannot be thrown by a
/// non-contractive or badly scaled map — only by a residual with no
/// sign change in `(0, ∞)` or an exhausted budget.
///
/// # Errors
///
/// * [`NumericError::NonFinite`] if `F` produces NaN/∞.
/// * [`NumericError::NoBracket`] if no sign change is found.
/// * [`NumericError::BudgetExhausted`] when the budget trips.
pub fn bisection_fixed_point<F: FnMut(f64) -> f64>(
    mut f: F,
    x0: f64,
    tol: f64,
    budget: &mut Budget,
) -> Result<FixedPoint, NumericError> {
    let mut resid = |x: f64| f(x) - x;
    let centre = if x0.is_finite() && x0 > 0.0 { x0 } else { 1.0 };
    let floor = centre * 2f64.powi(-80);
    let mut lo = centre * 0.5;
    let mut hi = centre * 2.0;
    budget.charge(2)?;
    let mut iterations = 2;
    let mut flo = resid(lo);
    let mut fhi = resid(hi);
    if !flo.is_finite() || !fhi.is_finite() {
        return Err(NumericError::NonFinite {
            context: "bisection fixed-point bracket",
        });
    }
    // Grow the bracket geometrically in both directions; 80 doublings
    // cover 48 orders of magnitude around the initial point.
    let mut expansions = 0;
    while flo.signum() == fhi.signum() {
        expansions += 1;
        if expansions > 80 {
            return Err(NumericError::NoBracket { fa: flo, fb: fhi });
        }
        budget.charge(2)?;
        iterations += 2;
        lo = (lo * 0.5).max(floor);
        hi *= 2.0;
        flo = resid(lo);
        fhi = resid(hi);
        if !flo.is_finite() || !fhi.is_finite() {
            return Err(NumericError::NonFinite {
                context: "bisection fixed-point bracket",
            });
        }
    }
    loop {
        budget.charge(1)?;
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        if (hi - lo).abs() <= tol * mid.abs().max(1.0) {
            return Ok(FixedPoint {
                value: mid,
                iterations,
            });
        }
        let fmid = resid(mid);
        if !fmid.is_finite() {
            return Err(NumericError::NonFinite {
                context: "bisection fixed-point step",
            });
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOTTIE: f64 = 0.739_085_133_215_160_6;

    #[test]
    fn newton_converges_and_is_fast() {
        let mut budget = Budget::iterations(100);
        let fp = newton_fixed_point_budgeted(|x| x.cos(), 1.0, 1e-13, &mut budget).unwrap();
        assert!((fp.value - DOTTIE).abs() < 1e-10);
        assert!(fp.iterations <= 10);
    }

    #[test]
    fn substitution_detects_non_finite() {
        let mut budget = Budget::iterations(50);
        let err =
            successive_substitution_budgeted(|_| f64::NAN, 1.0, 1e-12, &mut budget).unwrap_err();
        assert!(matches!(err, NumericError::NonFinite { .. }));
        let err =
            newton_fixed_point_budgeted(|_| f64::INFINITY, 1.0, 1e-12, &mut budget).unwrap_err();
        assert!(matches!(err, NumericError::NonFinite { .. }));
    }

    #[test]
    fn fixed_point_at_start_returns_quickly() {
        let mut budget = Budget::iterations(10);
        let fp = successive_substitution_budgeted(|x| x, 3.0, 1e-12, &mut budget).unwrap();
        assert_eq!((fp.value, fp.iterations), (3.0, 1));
        let fp = newton_fixed_point_budgeted(|x| x, 3.0, 1e-12, &mut budget).unwrap();
        assert_eq!((fp.value, fp.iterations), (3.0, 1));
    }

    #[test]
    fn budgeted_variants_converge_to_dottie() {
        let mut budget = Budget::iterations(10_000);
        let sub = successive_substitution_budgeted(|x| x.cos(), 1.0, 1e-13, &mut budget).unwrap();
        assert!((sub.value - DOTTIE).abs() < 1e-11);
        let newton = newton_fixed_point_budgeted(|x| x.cos(), 1.0, 1e-13, &mut budget).unwrap();
        assert!((newton.value - DOTTIE).abs() < 1e-10);
        let bis = bisection_fixed_point(|x| x.cos(), 1.0, 1e-12, &mut budget).unwrap();
        assert!((bis.value - DOTTIE).abs() < 1e-9);
        // All three solves drew from the same shared budget.
        assert_eq!(
            budget.used() as usize,
            sub.iterations + newton.iterations + bis.iterations
        );
    }

    #[test]
    fn budgeted_substitution_reports_exhaustion() {
        let mut budget = Budget::iterations(50);
        let err =
            successive_substitution_budgeted(|x| 2.0 * x, 1.0, 1e-12, &mut budget).unwrap_err();
        assert!(matches!(err, NumericError::BudgetExhausted { .. }));
    }

    #[test]
    fn bisection_reports_missing_bracket() {
        // x + 1 has no fixed point: the residual is identically 1.
        let mut budget = Budget::unlimited();
        let err = bisection_fixed_point(|x| x + 1.0, 1.0, 1e-12, &mut budget).unwrap_err();
        assert!(matches!(err, NumericError::NoBracket { .. }));
    }

    #[test]
    fn bisection_survives_a_non_contractive_map() {
        // x ← 4/x oscillates under substitution but has fixed point 2.
        let mut budget = Budget::iterations(10_000);
        let err =
            successive_substitution_budgeted(|x| 4.0 / x, 1.0, 1e-12, &mut budget).unwrap_err();
        assert!(matches!(err, NumericError::BudgetExhausted { .. }));
        let mut budget = Budget::iterations(10_000);
        let fp = bisection_fixed_point(|x| 4.0 / x, 1.0, 1e-12, &mut budget).unwrap();
        assert!((fp.value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn linear_contraction_all_methods_agree() {
        // x ← 0.5 x + 1 has fixed point 2.
        let f = |x: f64| 0.5 * x + 1.0;
        let mut budget = Budget::iterations(10_000);
        for result in [
            successive_substitution_budgeted(f, 10.0, 1e-13, &mut budget),
            newton_fixed_point_budgeted(f, 10.0, 1e-13, &mut budget),
            bisection_fixed_point(f, 10.0, 1e-13, &mut budget),
        ] {
            let value = result.unwrap().value;
            assert!((value - 2.0).abs() < 1e-10, "value={value}");
        }
    }
}
