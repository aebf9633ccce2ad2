//! Minimal 2×2 symmetric matrix algebra for Laplace approximations.

/// A symmetric 2×2 matrix `[[a11, a12], [a12, a22]]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SymMat2 {
    /// Top-left entry.
    pub a11: f64,
    /// Off-diagonal entry.
    pub a12: f64,
    /// Bottom-right entry.
    pub a22: f64,
}

impl SymMat2 {
    /// Constructs the matrix from its three free entries.
    pub fn new(a11: f64, a12: f64, a22: f64) -> Self {
        SymMat2 { a11, a12, a22 }
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        self.a11 * self.a22 - self.a12 * self.a12
    }

    /// Trace.
    pub fn trace(&self) -> f64 {
        self.a11 + self.a22
    }

    /// `true` iff the matrix is (strictly) positive definite.
    pub fn is_positive_definite(&self) -> bool {
        self.a11 > 0.0 && self.det() > 0.0
    }

    /// Inverse; returns `None` when the determinant vanishes.
    pub fn inverse(&self) -> Option<SymMat2> {
        let d = self.det();
        if d == 0.0 || !d.is_finite() {
            return None;
        }
        Some(SymMat2 {
            a11: self.a22 / d,
            a12: -self.a12 / d,
            a22: self.a11 / d,
        })
    }

    /// Solves `A x = b`; returns `None` for singular `A`.
    pub fn solve(&self, b: (f64, f64)) -> Option<(f64, f64)> {
        let inv = self.inverse()?;
        Some(inv.mul_vec(b))
    }

    /// Matrix–vector product `A v`.
    pub fn mul_vec(&self, v: (f64, f64)) -> (f64, f64) {
        (
            self.a11 * v.0 + self.a12 * v.1,
            self.a12 * v.0 + self.a22 * v.1,
        )
    }

    /// Quadratic form `vᵀ A v`.
    pub fn quadratic_form(&self, v: (f64, f64)) -> f64 {
        self.a11 * v.0 * v.0 + 2.0 * self.a12 * v.0 * v.1 + self.a22 * v.1 * v.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_trace_and_inverse() {
        let a = SymMat2::new(4.0, 1.0, 3.0);
        assert_eq!(a.det(), 11.0);
        assert_eq!(a.trace(), 7.0);
        let inv = a.inverse().unwrap();
        // A · A⁻¹ = I
        let prod11 = a.a11 * inv.a11 + a.a12 * inv.a12;
        let prod12 = a.a11 * inv.a12 + a.a12 * inv.a22;
        let prod22 = a.a12 * inv.a12 + a.a22 * inv.a22;
        assert!((prod11 - 1.0).abs() < 1e-14);
        assert!(prod12.abs() < 1e-14);
        assert!((prod22 - 1.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = SymMat2::new(1.0, 1.0, 1.0);
        assert_eq!(a.det(), 0.0);
        assert!(a.inverse().is_none());
        assert!(a.solve((1.0, 2.0)).is_none());
    }

    #[test]
    fn solve_matches_manual() {
        let a = SymMat2::new(2.0, 0.5, 1.5);
        let b = (1.0, -2.0);
        let x = a.solve(b).unwrap();
        let back = a.mul_vec(x);
        assert!((back.0 - b.0).abs() < 1e-13);
        assert!((back.1 - b.1).abs() < 1e-13);
    }

    #[test]
    fn quadratic_form_positive_for_pd() {
        let a = SymMat2::new(2.0, 0.3, 1.0);
        assert!(a.is_positive_definite());
        for &v in &[(1.0, 0.0), (0.0, 1.0), (-2.0, 3.0), (0.1, -0.7)] {
            assert!(a.quadratic_form(v) > 0.0);
        }
    }
}
