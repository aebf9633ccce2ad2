//! Derivative-free optimisation for MLE/MAP fitting, and finite-difference
//! derivatives of 2-D objectives.

use crate::linalg::SymMat2;
use crate::NumericError;

/// Result of an optimisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// Optimising point.
    pub x: Vec<f64>,
    /// Objective value at [`Optimum::x`].
    pub value: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Nelder–Mead simplex *minimisation* of `f` starting from `x0`.
///
/// `scale` sets the initial simplex edge length per coordinate (a single
/// value applied to all coordinates after multiplication by
/// `max(|x0_i|, 1)`). Convergence is declared when the spread of function
/// values across the simplex drops below `tol`.
///
/// # Errors
///
/// * [`NumericError::NonFinite`] if `f` returns NaN at the initial simplex.
/// * [`NumericError::MaxIterations`] if the budget is exhausted (the
///   payload carries the best objective value found).
///
/// # Example
///
/// ```
/// use nhpp_numeric::optimize::nelder_mead;
/// # fn main() -> Result<(), nhpp_numeric::NumericError> {
/// // Rosenbrock minimum at (1, 1).
/// let opt = nelder_mead(
///     |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
///     &[-1.2, 1.0],
///     0.5,
///     1e-12,
///     5_000,
/// )?;
/// assert!((opt.x[0] - 1.0).abs() < 1e-4 && (opt.x[1] - 1.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    scale: f64,
    tol: f64,
    max_iter: usize,
) -> Result<Optimum, NumericError> {
    let n = x0.len();
    if n == 0 {
        return Err(NumericError::InvalidArgument {
            message: "empty starting point",
        });
    }
    // Build initial simplex.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        v[i] += scale * v[i].abs().max(1.0);
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| f(v)).collect();
    if values.iter().any(|v| v.is_nan()) {
        return Err(NumericError::NonFinite {
            context: "nelder_mead initial simplex",
        });
    }

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    for iter in 0..max_iter {
        // Order the simplex.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&i, &j| {
            values[i]
                .partial_cmp(&values[j])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        let spread = (values[worst] - values[best]).abs();
        if spread <= tol * (values[best].abs().max(1.0)) {
            return Ok(Optimum {
                x: simplex[best].clone(),
                value: values[best],
                iterations: iter,
            });
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (idx, v) in simplex.iter().enumerate() {
            if idx != worst {
                for (c, &vi) in centroid.iter_mut().zip(v) {
                    *c += vi / n as f64;
                }
            }
        }

        let blend = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter()
                .zip(b)
                .map(|(&ai, &bi)| ai + t * (bi - ai))
                .collect()
        };

        // Reflection.
        let reflected = blend(&centroid, &simplex[worst], -ALPHA);
        let fr = f(&reflected);
        if fr < values[best] {
            // Expansion.
            let expanded = blend(&centroid, &simplex[worst], -GAMMA);
            let fe = f(&expanded);
            if fe < fr {
                simplex[worst] = expanded;
                values[worst] = fe;
            } else {
                simplex[worst] = reflected;
                values[worst] = fr;
            }
        } else if fr < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = fr;
        } else {
            // Contraction.
            let contracted = blend(&centroid, &simplex[worst], RHO);
            let fc = f(&contracted);
            if fc < values[worst] {
                simplex[worst] = contracted;
                values[worst] = fc;
            } else {
                // Shrink towards the best vertex.
                let best_point = simplex[best].clone();
                for idx in 0..=n {
                    if idx != best {
                        simplex[idx] = blend(&best_point, &simplex[idx], SIGMA);
                        values[idx] = f(&simplex[idx]);
                    }
                }
            }
        }
    }
    let best = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);
    Err(NumericError::MaxIterations {
        best: values[best],
        iterations: max_iter,
    })
}

/// Central-difference gradient of a 2-D function.
pub fn fd_gradient_2d<F: FnMut(f64, f64) -> f64>(mut f: F, x: f64, y: f64) -> [f64; 2] {
    let hx = 1e-6 * x.abs().max(1e-8);
    let hy = 1e-6 * y.abs().max(1e-8);
    [
        (f(x + hx, y) - f(x - hx, y)) / (2.0 * hx),
        (f(x, y + hy) - f(x, y - hy)) / (2.0 * hy),
    ]
}

/// Central-difference Hessian of a 2-D function.
pub fn fd_hessian_2d<F: FnMut(f64, f64) -> f64>(mut f: F, x: f64, y: f64) -> SymMat2 {
    let hx = 1e-4 * x.abs().max(1e-6);
    let hy = 1e-4 * y.abs().max(1e-6);
    let f00 = f(x, y);
    let fxx = (f(x + hx, y) - 2.0 * f00 + f(x - hx, y)) / (hx * hx);
    let fyy = (f(x, y + hy) - 2.0 * f00 + f(x, y - hy)) / (hy * hy);
    let fxy = (f(x + hx, y + hy) - f(x + hx, y - hy) - f(x - hx, y + hy) + f(x - hx, y - hy))
        / (4.0 * hx * hy);
    SymMat2::new(fxx, fxy, fyy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_quadratic_bowl() {
        let opt = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            0.5,
            1e-14,
            2_000,
        )
        .unwrap();
        assert!((opt.x[0] - 3.0).abs() < 1e-5);
        assert!((opt.x[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let opt = nelder_mead(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
            0.5,
            1e-14,
            10_000,
        )
        .unwrap();
        assert!((opt.x[0] - 1.0).abs() < 1e-4, "x={:?}", opt.x);
        assert!((opt.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_rejects_empty_start() {
        let err = nelder_mead(|_| 0.0, &[], 0.5, 1e-10, 100).unwrap_err();
        assert!(matches!(err, NumericError::InvalidArgument { .. }));
    }

    #[test]
    fn nelder_mead_rejects_nan() {
        let err = nelder_mead(|_| f64::NAN, &[1.0], 0.5, 1e-10, 100).unwrap_err();
        assert!(matches!(err, NumericError::NonFinite { .. }));
    }

    #[test]
    fn fd_gradient_matches_analytic() {
        let g = fd_gradient_2d(|x, y| x * x * y + y.powi(3), 2.0, 3.0);
        assert!((g[0] - 12.0).abs() < 1e-4);
        assert!((g[1] - (4.0 + 27.0)).abs() < 1e-4);
    }

    #[test]
    fn fd_hessian_matches_analytic() {
        let h = fd_hessian_2d(|x, y| x * x * y + y.powi(3), 2.0, 3.0);
        assert!((h.a11 - 6.0).abs() < 1e-3);
        assert!((h.a12 - 4.0).abs() < 1e-3);
        assert!((h.a22 - 18.0).abs() < 1e-3);
    }
}
