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
//! * quantiles — given β, `−ln R = ω·c(β)` is `Gamma(A_N, r_ω/c(β))`, so
//!   over quadrature cells `−ln R` is a flat Gamma mixture with an atom
//!   at `0` (the cells where `c = 0`), and `P(R ≤ x)` is
//!   `Σ_{c>0} w·Q(Y; −ln x)`, Eq. (32). Its quantiles come from
//!   [`GammaMixture::quantile`], the safeguarded Newton solver the band
//!   uses on its own cells (`cell_mixture`).
//!
//! Bounds and densities of the `β` integrals come from the mixture's
//! β-table ([`GammaProductMixture::beta_table`]), built once per
//! posterior; each node then costs one `mission_mass`. The GO and DSS
//! point estimate, which every chart point is, reads the weighted node
//! densities themselves from the cached 48-node cell table
//! ([`GammaProductMixture::cell_table`]). The quantiles run on a 96-node
//! cell table built per call: the integrand `Q(Y; −ln x)` is a sharp step
//! in `β`, and on the 48-node cells the System 17 DSS D_T-NoInfo
//! reliability quantiles moved by up to `9.8e−8`.

use nhpp_dist::{CellTable, Continuous, Gamma, GammaMixture, GammaProductMixture};
use nhpp_models::ModelSpec;
use nhpp_numeric::quadrature::GaussLegendre;

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

/// The flat mixture of `Y = ω·c(β)` over `cells`, each listed as
/// `(weight, ω distribution, β)`: per cell `Y` is `Gamma(A, r/c)`.
/// Returns `(atom, mass, mixture)`, where `atom` sums the weights of the
/// cells with `Y = 0` (`c = 0`, or a rate `r/c` that overflows), `mass`
/// those of the rest and `mixture` is the rest, normalised (`None` when
/// no cell is left).
pub(crate) fn cell_mixture<'a>(
    cells: impl Iterator<Item = (f64, &'a Gamma, f64)>,
    mut c: impl FnMut(f64) -> f64,
) -> (f64, f64, Option<GammaMixture>) {
    let mut atom = 0.0;
    let mut parts = Vec::new();
    for (w, omega, b) in cells {
        match Gamma::new(omega.shape(), omega.rate() / c(b)) {
            Ok(y) => parts.push((w, y)),
            Err(_) => atom += w,
        }
    }
    let mass = parts.iter().map(|(w, _)| w).sum();
    (atom, mass, GammaMixture::new(parts).ok())
}

/// `E[e^{−ω·c}] = (1 + c/r)^{−A}` for `ω ~ Gamma(A, r)`: the reliability
/// of a window of mission mass `c`, given the component and β.
fn reliability_given(omega: &Gamma, c: f64) -> f64 {
    (-omega.shape() * (c / omega.rate()).ln_1p()).exp()
}

/// Posterior point estimate of software reliability, Eq. (31).
///
/// GO and DSS (`α₀ ∈ {1, 2}`) take one pass over the mixture's cell table
/// ([`GammaProductMixture::cell_table`]): per cell one closed-form
/// `mission_mass` and one power, with no density to evaluate. Every other
/// `α₀` keeps the per-call 96-node rule on the β-table.
pub fn reliability_point(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, u: f64) -> f64 {
    let a0 = spec.alpha0();
    if a0 == 1.0 || a0 == 2.0 {
        return mixture
            .cell_table()
            .expectation(|omega, b| reliability_given(omega, mission_mass(spec, b, t, u)));
    }
    let rule = GaussLegendre::shared(BETA_NODES);
    let mut acc = 0.0;
    for row in mixture.beta_table() {
        let inner = row.expectation(&rule, |b| {
            reliability_given(&row.omega, mission_mass(spec, b, t, u))
        });
        acc += row.weight * inner;
    }
    acc
}

/// Posterior quantile of software reliability, the root of
/// `P(R ≤ x) = Σ_{c>0} w·Q(Y; −ln x) = p` over a 96-node cell table
/// (see `cell_mixture`).
///
/// The cells hold slightly less than unit mass and the CDF is not
/// renormalised: below `x = 1` it stays under `mass`, the weight of the
/// cells with `c > 0`, so a `p ≥ mass` has quantile `1`. Otherwise the
/// quantile is `e^{−y}`, with `y` the `1 − p/mass` quantile of the
/// cells' mixture. `p = 0` gives `0`, and a `p` outside `[0, 1]` NaN.
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
    if p == 0.0 {
        return 0.0;
    }
    let table = CellTable::new(mixture.beta_table(), GaussLegendre::shared(BETA_NODES));
    let (_, mass, cells) = cell_mixture(table.cells(), |b| mission_mass(spec, b, t, u));
    match cells {
        Some(cells) if p < mass => (-cells.quantile(1.0 - p / mass)).exp(),
        _ => 1.0,
    }
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

    /// With `t` far past β's support every cell has `c = 0`, so `R = 1`
    /// almost surely and every quantile in `(0, 1]` is exactly `1`.
    #[test]
    fn quantile_is_one_where_no_cell_can_fail() {
        let mixture = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(40.0, 1.0).unwrap(),
            beta: Gamma::new(10.0, 1e6).unwrap(),
        }])
        .unwrap();
        let spec = ModelSpec::goel_okumoto();
        let (t, u) = (1e12, 1e4);
        let table = CellTable::new(mixture.beta_table(), GaussLegendre::shared(BETA_NODES));
        assert!(table
            .cells()
            .all(|(_, _, b)| mission_mass(spec, b, t, u) == 0.0));
        for p in [f64::MIN_POSITIVE, 1e-12, 0.005, 0.5, 0.995, 1.0] {
            assert_eq!(reliability_quantile(&mixture, spec, t, u, p), 1.0, "p={p}");
        }
        assert_eq!(reliability_quantile(&mixture, spec, t, u, 0.0), 0.0);
        for p in [-1e-300, -0.5, 1.0 + f64::EPSILON, f64::INFINITY, f64::NAN] {
            assert!(
                reliability_quantile(&mixture, spec, t, u, p).is_nan(),
                "p={p}"
            );
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
