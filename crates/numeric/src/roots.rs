//! One-dimensional root finding: bisection and bracket expansion.

use crate::NumericError;

/// Finds a root of `f` in `[a, b]` by plain bisection.
///
/// Robust but linearly convergent.
///
/// # Errors
///
/// * [`NumericError::NoBracket`] if `f(a)` and `f(b)` have the same sign.
/// * [`NumericError::MaxIterations`] if `max_iter` halvings do not reach
///   `tol` (the payload carries the midpoint reached).
/// * [`NumericError::NonFinite`] if `f` returns NaN.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, NumericError> {
    let mut fa = f(a);
    let fb = f(b);
    if fa.is_nan() || fb.is_nan() {
        return Err(NumericError::NonFinite {
            context: "bisect endpoint evaluation",
        });
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(NumericError::NoBracket { fa, fb });
    }
    for i in 0..max_iter {
        let mid = 0.5 * (a + b);
        if (b - a).abs() <= tol.max(f64::EPSILON * mid.abs()) {
            return Ok(mid);
        }
        let fm = f(mid);
        if fm.is_nan() {
            return Err(NumericError::NonFinite {
                context: "bisect midpoint evaluation",
            });
        }
        if fm == 0.0 {
            return Ok(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
        if i + 1 == max_iter {
            return Err(NumericError::MaxIterations {
                best: 0.5 * (a + b),
                iterations: max_iter,
            });
        }
    }
    Err(NumericError::MaxIterations {
        best: 0.5 * (a + b),
        iterations: max_iter,
    })
}

/// Expands a bracket around `x0` for a function known to be increasing in
/// the direction of its root: returns `(lo, hi)` with `f(lo) <= 0 <= f(hi)`.
///
/// Starting from `[x0/factor, x0*factor]`, geometrically widens whichever
/// side fails the sign condition. Intended for strictly positive domains
/// (quantiles of positive random variables).
///
/// # Errors
///
/// [`NumericError::MaxIterations`] if no bracket is found after
/// `max_expand` doublings, [`NumericError::NonFinite`] on NaN, and
/// [`NumericError::InvalidArgument`] if `x0 <= 0` or `factor <= 1`.
pub fn expand_bracket<F: FnMut(f64) -> f64>(
    mut f: F,
    x0: f64,
    factor: f64,
    max_expand: usize,
) -> Result<(f64, f64), NumericError> {
    if !(x0 > 0.0) || !(factor > 1.0) {
        return Err(NumericError::InvalidArgument {
            message: "expand_bracket requires x0 > 0 and factor > 1",
        });
    }
    let mut lo = x0 / factor;
    let mut hi = x0 * factor;
    let mut flo = f(lo);
    let mut fhi = f(hi);
    for _ in 0..max_expand {
        if flo.is_nan() || fhi.is_nan() {
            return Err(NumericError::NonFinite {
                context: "expand_bracket evaluation",
            });
        }
        if flo <= 0.0 && fhi >= 0.0 {
            return Ok((lo, hi));
        }
        if flo > 0.0 {
            lo /= factor;
            flo = f(lo);
        }
        if fhi < 0.0 {
            hi *= factor;
            fhi = f(hi);
        }
    }
    Err(NumericError::MaxIterations {
        best: x0,
        iterations: max_expand,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((r - 2.0f64.sqrt()).abs() < 1e-11);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumericError::NoBracket { .. }));
    }

    #[test]
    fn bisect_exact_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12, 10).unwrap(), 1.0);
    }

    #[test]
    fn expand_bracket_finds_interval() {
        // Root at 1000, start far below.
        let (lo, hi) = expand_bracket(|x| x - 1000.0, 1.0, 2.0, 64).unwrap();
        assert!(lo <= 1000.0 && hi >= 1000.0);
    }

    #[test]
    fn expand_bracket_validates_args() {
        let err = expand_bracket(|x| x, -1.0, 2.0, 16).unwrap_err();
        assert!(matches!(err, NumericError::InvalidArgument { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = NumericError::NoBracket { fa: 1.0, fb: 2.0 };
        assert!(e.to_string().contains("bracket"));
        let e = NumericError::MaxIterations {
            best: 1.5,
            iterations: 7,
        };
        assert!(e.to_string().contains('7'));
    }
}
