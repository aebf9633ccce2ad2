//! The common interface implemented by every posterior-approximation
//! method in the workspace (NINT, Laplace, MCMC, VB1, VB2).

/// Summary interface over an (approximate) joint posterior of `(ω, β)`.
///
/// All five estimation methods of the DSN 2007 paper — numerical
/// integration, Laplace approximation, MCMC, and the two variational
/// approaches — implement this trait, which is exactly the set of
/// quantities the paper's Tables 1–5 report: posterior moments, marginal
/// credible intervals, and point/interval estimates of software
/// reliability (Eqs. (31)–(32)).
///
/// The trait is object-safe so heterogeneous method collections can be
/// iterated when regenerating the paper's tables.
pub trait Posterior {
    /// Short method label (`"NINT"`, `"LAPL"`, `"MCMC"`, `"VB1"`, `"VB2"`).
    fn method_name(&self) -> &'static str;

    /// Posterior mean `E[ω]`.
    fn mean_omega(&self) -> f64;

    /// Posterior mean `E[β]`.
    fn mean_beta(&self) -> f64;

    /// Posterior variance `Var(ω)`.
    fn var_omega(&self) -> f64;

    /// Posterior variance `Var(β)`.
    fn var_beta(&self) -> f64;

    /// Posterior covariance `Cov(ω, β)`.
    fn covariance(&self) -> f64;

    /// Central moment `E[(ω − E[ω])^k]` of the ω-marginal, `k <= 4`.
    fn central_moment_omega(&self, k: u32) -> f64;

    /// Marginal posterior quantile of `ω`.
    fn quantile_omega(&self, p: f64) -> f64;

    /// Marginal posterior quantile of `β`.
    fn quantile_beta(&self, p: f64) -> f64;

    /// Two-sided equal-tail credible interval for `ω` at the given level
    /// (e.g. `0.99` for the paper's two-sided 99% intervals).
    fn credible_interval_omega(&self, level: f64) -> (f64, f64) {
        let tail = (1.0 - level) / 2.0;
        (self.quantile_omega(tail), self.quantile_omega(1.0 - tail))
    }

    /// Two-sided equal-tail credible interval for `β`.
    fn credible_interval_beta(&self, level: f64) -> (f64, f64) {
        let tail = (1.0 - level) / 2.0;
        (self.quantile_beta(tail), self.quantile_beta(1.0 - tail))
    }

    /// Approximate joint log-density `ln p(ω, β | D)` where the method
    /// provides one analytically (`None` for sample-based methods such as
    /// MCMC, which the paper visualises by scatter instead).
    fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64>;

    /// Posterior point estimate of software reliability
    /// `E[R(t+u | t) | D]` (Eq. (31)).
    fn reliability_point(&self, t: f64, u: f64) -> f64;

    /// `p`-quantile of the posterior distribution of `R(t+u | t)`
    /// (Eq. (32)).
    fn reliability_quantile(&self, t: f64, u: f64, p: f64) -> f64;

    /// Two-sided equal-tail credible interval for the software
    /// reliability.
    fn reliability_interval(&self, t: f64, u: f64, level: f64) -> (f64, f64) {
        let tail = (1.0 - level) / 2.0;
        (
            self.reliability_quantile(t, u, tail),
            self.reliability_quantile(t, u, 1.0 - tail),
        )
    }
}

/// A flat record of the quantities the paper tabulates, convenient for
/// printing and for cross-method comparisons in tests and benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PosteriorSummary {
    /// `E[ω]`.
    pub mean_omega: f64,
    /// `E[β]`.
    pub mean_beta: f64,
    /// `Var(ω)`.
    pub var_omega: f64,
    /// `Var(β)`.
    pub var_beta: f64,
    /// `Cov(ω, β)`.
    pub covariance: f64,
    /// Credible interval for `ω` at the summary's level.
    pub interval_omega: (f64, f64),
    /// Credible interval for `β` at the summary's level.
    pub interval_beta: (f64, f64),
    /// The credible level used.
    pub level: f64,
}

impl PosteriorSummary {
    /// Computes the summary from any [`Posterior`] at the given credible
    /// level.
    pub fn compute<P: Posterior + ?Sized>(posterior: &P, level: f64) -> Self {
        PosteriorSummary {
            mean_omega: posterior.mean_omega(),
            mean_beta: posterior.mean_beta(),
            var_omega: posterior.var_omega(),
            var_beta: posterior.var_beta(),
            covariance: posterior.covariance(),
            interval_omega: posterior.credible_interval_omega(level),
            interval_beta: posterior.credible_interval_beta(level),
            level,
        }
    }

    /// Relative deviation of each summary entry against a reference
    /// summary (the paper reports all methods relative to NINT). Returns
    /// `[E[ω], E[β], Var(ω), Var(β), Cov]` deviations.
    pub fn relative_deviation(&self, reference: &PosteriorSummary) -> [f64; 5] {
        let rel = |a: f64, b: f64| {
            if b == 0.0 {
                if a == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (a - b) / b
            }
        };
        [
            rel(self.mean_omega, reference.mean_omega),
            rel(self.mean_beta, reference.mean_beta),
            rel(self.var_omega, reference.var_omega),
            rel(self.var_beta, reference.var_beta),
            rel(self.covariance, reference.covariance),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal synthetic posterior for exercising the trait defaults:
    /// independent exponentials for ω and β.
    struct Toy;

    impl Posterior for Toy {
        fn method_name(&self) -> &'static str {
            "TOY"
        }
        fn mean_omega(&self) -> f64 {
            1.0
        }
        fn mean_beta(&self) -> f64 {
            2.0
        }
        fn var_omega(&self) -> f64 {
            1.0
        }
        fn var_beta(&self) -> f64 {
            4.0
        }
        fn covariance(&self) -> f64 {
            0.0
        }
        fn central_moment_omega(&self, k: u32) -> f64 {
            // Exponential(1): central moments 1, 0, 1, 2, 9.
            [1.0, 0.0, 1.0, 2.0, 9.0][k as usize]
        }
        fn quantile_omega(&self, p: f64) -> f64 {
            -(1.0 - p).ln()
        }
        fn quantile_beta(&self, p: f64) -> f64 {
            -2.0 * (1.0 - p).ln()
        }
        fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64> {
            Some(-omega - beta / 2.0 - 2.0f64.ln())
        }
        fn reliability_point(&self, _t: f64, _u: f64) -> f64 {
            0.5
        }
        fn reliability_quantile(&self, _t: f64, _u: f64, p: f64) -> f64 {
            p
        }
    }

    #[test]
    fn default_credible_interval_uses_equal_tails() {
        let toy = Toy;
        let (lo, hi) = toy.credible_interval_omega(0.9);
        assert!((lo - -(0.95f64).ln()).abs() < 1e-12);
        assert!((hi - -(0.05f64).ln()).abs() < 1e-12);
        let (rl, rh) = toy.reliability_interval(0.0, 1.0, 0.99);
        assert!((rl - 0.005).abs() < 1e-12);
        assert!((rh - 0.995).abs() < 1e-12);
    }

    #[test]
    fn summary_and_relative_deviation() {
        let toy = Toy;
        let s = PosteriorSummary::compute(&toy, 0.99);
        assert_eq!(s.mean_omega, 1.0);
        assert_eq!(s.level, 0.99);
        let dev = s.relative_deviation(&s);
        assert_eq!(dev, [0.0; 5]);

        let mut other = s;
        other.mean_omega = 1.1;
        let dev = other.relative_deviation(&s);
        assert!((dev[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Posterior> = Box::new(Toy);
        assert_eq!(boxed.method_name(), "TOY");
        assert_eq!(boxed.mean_omega(), 1.0);
    }
}
