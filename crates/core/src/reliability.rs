//! Reliability functionals of Gamma-product-mixture posteriors.
//!
//! Both variational posteriors have the form
//! `Σ_N w_N · Gamma(ω | A_N, r_ω) ⊗ Gamma(β | B_N, r_{β,N})`, for which
//! the paper's reliability integrals (Eqs. (31)–(32)) reduce to
//! one-dimensional quadrature over `β`:
//!
//! * point estimate — the Gamma moment-generating function gives
//!   `E[e^{−ω·c(β)} | N, β] = (r_ω / (r_ω + c(β)))^{A_N}` exactly, so
//!   `E[R] = Σ_N w_N ∫ q_N(β) · e^{−A_N ln(1 + c(β)/r_ω)} dβ`;
//! * CDF — `P(R <= x | N, β) = P(ω >= −ln x / c(β)) = Q(A_N, r_ω·a)`,
//!   the regularised upper incomplete gamma, integrated over `β` and
//!   inverted by bisection for quantiles.
//!
//! Bounds and densities of the `β` integrals come from the mixture's
//! β-table ([`GammaProductMixture::beta_table`]), built once per
//! posterior; each node then costs one `mission_mass`.

use nhpp_dist::{Continuous, Gamma, GammaProductMixture};
use nhpp_models::ModelSpec;
use nhpp_numeric::quadrature::GaussLegendre;
use nhpp_numeric::roots::bisect;

/// Number of Gauss–Legendre nodes for the β integrals.
const BETA_NODES: usize = 96;

/// `c(β) = G(t+u; α₀, β) − G(t; α₀, β)`, the per-fault probability of
/// detection inside the mission window. With `x = βt` and `d = βu`,
/// Goel–Okumoto (`α₀ = 1`) and delayed S-shaped (`α₀ = 2`) have closed
/// forms:
///
/// * GO: `e^{−x}·(1 − e^{−d})`;
/// * DSS: `e^{−x}·[(1+x)(1 − e^{−d}) − d·e^{−d}] = e^{−x}·[x(1 − e^{−d}) + P(2, d)]`,
///   a sum of two non-negative terms.
///
/// Both stay within ~5e-15 relative of the density's integral for any
/// window (see the unit test). Every other `α₀` takes the difference of
/// two incomplete gammas, which loses digits when `u` is short against
/// `t`.
pub(crate) fn mission_mass(spec: ModelSpec, beta: f64, t: f64, u: f64) -> f64 {
    let a0 = spec.alpha0();
    let (x, d) = (beta * t, beta * u);
    if a0 == 1.0 {
        (-x).exp() * -(-d).exp_m1()
    } else if a0 == 2.0 {
        (-x).exp() * (x * -(-d).exp_m1() + erlang2_cdf(d))
    } else {
        Gamma::new(a0, beta)
            .expect("mixture components have positive rates")
            .ln_interval_mass(t, t + u)
            .exp()
    }
}

/// `P(2, d) = 1 − (1+d)·e^{−d}`. Below `d = 1/2` that difference would
/// cancel (relative error ≈ ε/d), so it is summed as
/// `e^{−d}·Σ_{k≥2} d^k/k!` there.
fn erlang2_cdf(d: f64) -> f64 {
    if d >= 0.5 {
        return -(-d).exp_m1() - d * (-d).exp();
    }
    let mut term = 0.5 * d * d;
    let mut sum = term;
    let mut k = 2.0;
    while term > f64::EPSILON * sum {
        k += 1.0;
        term *= d / k;
        sum += term;
    }
    (-d).exp() * sum
}

/// Posterior point estimate of software reliability, Eq. (31).
pub fn reliability_point(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, u: f64) -> f64 {
    let rule = GaussLegendre::shared(BETA_NODES);
    let mut acc = 0.0;
    for row in mixture.beta_table() {
        let (a, r) = (row.omega.shape(), row.omega.rate());
        let inner = row.expectation(&rule, |b| {
            (-a * (mission_mass(spec, b, t, u) / r).ln_1p()).exp()
        });
        acc += row.weight * inner;
    }
    acc
}

/// Posterior CDF of software reliability, `P(R(t+u|t) <= x)`, Eq. (32).
pub fn reliability_cdf(
    mixture: &GammaProductMixture,
    spec: ModelSpec,
    t: f64,
    u: f64,
    x: f64,
) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let rule = GaussLegendre::shared(BETA_NODES);
    let neg_ln_x = -x.ln();
    let mut acc = 0.0;
    for row in mixture.beta_table() {
        let inner = row.expectation(&rule, |b| {
            let c = mission_mass(spec, b, t, u);
            if c <= 0.0 {
                // Zero chance of any failure ⇒ R = 1 > x.
                0.0
            } else {
                row.omega.sf(neg_ln_x / c)
            }
        });
        acc += row.weight * inner;
    }
    acc.clamp(0.0, 1.0)
}

/// Posterior quantile of software reliability (bisection on
/// [`reliability_cdf`]).
pub fn reliability_quantile(
    mixture: &GammaProductMixture,
    spec: ModelSpec,
    t: f64,
    u: f64,
    p: f64,
) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    bisect(
        |x| reliability_cdf(mixture, spec, t, u, x) - p,
        0.0,
        1.0,
        1e-10,
        200,
    )
    .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_dist::MixtureComponent;

    /// `∫_t^{t+u} g(s; α₀, β) ds` by a 16-panel, 32-node composite
    /// Gauss–Legendre rule over the offset `s − t ∈ [0, u]`, so that a
    /// short window late in testing is not lost to rounding `t + u`.
    fn quadrature_mass(alpha0: f64, beta: f64, t: f64, u: f64) -> f64 {
        let density = Gamma::new(alpha0, beta).unwrap();
        GaussLegendre::new(32).integrate_composite(0.0, u, 16, |v| density.pdf(t + v))
    }

    /// The GO and DSS closed forms against quadrature of the density,
    /// from a window at the start of testing (`βt = 0`) to one deep in
    /// the tail, and from a burst gap (`βu = 1e−10`) to a long mission.
    #[test]
    fn mission_mass_matches_quadrature_of_the_density() {
        let beta = 1.3e-5;
        let decades = |lo: i32, hi: i32| (lo..=hi).map(|e| 10f64.powi(e));
        for spec in [ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()] {
            for x in std::iter::once(0.0).chain(decades(-4, 2)) {
                for d in decades(-10, 1) {
                    let (t, u) = (x / beta, d / beta);
                    let exact = quadrature_mass(spec.alpha0(), beta, t, u);
                    let c = mission_mass(spec, beta, t, u);
                    let rel = (c - exact).abs() / exact;
                    assert!(
                        rel <= 1e-11,
                        "α₀={} βt={x:e} βu={d:e}: {c:e} vs {exact:e} (rel {rel:e})",
                        spec.alpha0()
                    );
                }
            }
        }
    }

    /// A single-component mixture concentrated tightly around
    /// (ω₀, β₀) must reproduce the deterministic reliability.
    #[test]
    fn concentrated_mixture_matches_plugin() {
        let omega0 = 40.0;
        let beta0 = 1e-5;
        let k = 1e6; // concentration
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(k, k / omega0).unwrap(),
            beta: Gamma::new(k, k / beta0).unwrap(),
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let (t, u) = (2e5, 1e4);
        let exact = {
            let g = Gamma::new(1.0, beta0).unwrap();
            (-omega0 * (g.cdf(t + u) - g.cdf(t))).exp()
        };
        let point = reliability_point(&mixture, spec, t, u);
        assert!((point - exact).abs() < 1e-3, "point={point}, exact={exact}");
        // Quantiles collapse onto the point value.
        let med = reliability_quantile(&mixture, spec, t, u, 0.5);
        assert!((med - exact).abs() < 1e-3);
    }

    #[test]
    fn cdf_is_monotone_and_proper() {
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(40.0, 1.0).unwrap(),
            beta: Gamma::new(10.0, 1e6).unwrap(),
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let (t, u) = (2e5, 1e4);
        let mut prev = 0.0;
        for i in 1..20 {
            let x = i as f64 / 20.0;
            let c = reliability_cdf(&mixture, spec, t, u, x);
            assert!(c >= prev - 1e-12, "x={x}");
            prev = c;
        }
        assert_eq!(reliability_cdf(&mixture, spec, t, u, 0.0), 0.0);
        assert_eq!(reliability_cdf(&mixture, spec, t, u, 1.0), 1.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(40.0, 1.0).unwrap(),
            beta: Gamma::new(10.0, 1e6).unwrap(),
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let (t, u) = (2e5, 5e4);
        for &p in &[0.05, 0.5, 0.95] {
            let q = reliability_quantile(&mixture, spec, t, u, p);
            let back = reliability_cdf(&mixture, spec, t, u, q);
            assert!((back - p).abs() < 1e-6, "p={p}, q={q}, back={back}");
        }
    }

    #[test]
    fn point_estimate_within_bounds() {
        // E[R] must lie in (0, 1) and between extreme quantiles.
        let mixture = GammaProductMixture::new(vec![
            MixtureComponent {
                weight: 0.5,
                omega: Gamma::new(35.0, 1.0).unwrap(),
                beta: Gamma::new(12.0, 1.1e6).unwrap(),
            },
            MixtureComponent {
                weight: 0.5,
                omega: Gamma::new(50.0, 1.0).unwrap(),
                beta: Gamma::new(14.0, 1.2e6).unwrap(),
            },
        ])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let (t, u) = (2e5, 2e4);
        let r = reliability_point(&mixture, spec, t, u);
        let lo = reliability_quantile(&mixture, spec, t, u, 0.005);
        let hi = reliability_quantile(&mixture, spec, t, u, 0.995);
        assert!(
            0.0 < lo && lo < r && r < hi && hi < 1.0,
            "({lo}, {r}, {hi})"
        );
    }
}
