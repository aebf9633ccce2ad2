//! The credible band and the predictive count on the mixture's cell
//! table against the per-call quadrature they replaced.
//!
//! The references below are that quadrature: every call places a
//! 64-node Gauss–Legendre rule on each β-table row. The band's
//! reference CDF is `P(Λ(t) ≤ x) = Σ w ∫ q(β)·P(ω·G(t; β) ≤ x) dβ`, with
//! the probability `1` where `G = 0`; its edges are bisected here to
//! 1e-14 relative. The band mean and the predictive pmf are the same
//! rule over `E[ω]·G(t; β)` and over one negative binomial per node.
//!
//! On the System 17 fits (GO and DSS in all four scenarios, and D_T-Info
//! at α₀ = 0.5 and 3.5) the edges must agree to 1e-10 relative, the mean
//! to 1e-12 relative and the pmf to 1e-12 absolute at every k. A
//! proptest checks the edges on random mixtures against a bisection of
//! the cells' own CDF, atom at zero included. On the same mixtures it
//! checks the reliability quantiles, which invert the same kind of
//! mixture on a 96-node cell table, against an adjacent-float bisection
//! of that table's reliability CDF.

use nhpp_bench::Scenario;
use nhpp_dist::{CellTable, Continuous, Gamma, GammaProductMixture, MixtureComponent};
use nhpp_models::ModelSpec;
use nhpp_numeric::quadrature::GaussLegendre;
use nhpp_vb::bands::{mean_value_band, BandPoint};
use nhpp_vb::reliability::reliability_quantile;
use nhpp_vb::Vb2Posterior;
use proptest::prelude::*;
use std::sync::OnceLock;

const BETA_NODES: usize = 64;
const NODE_FLOOR: f64 = 1e-16;

/// `G(t+u; β) − G(t; β)`, the reference's mission mass.
fn window_mass(spec: ModelSpec, b: f64, t: f64, u: f64) -> f64 {
    Gamma::new(spec.alpha0(), b)
        .unwrap()
        .ln_interval_mass(t, t + u)
        .exp()
}

fn reference_mean(mixture: &GammaProductMixture, spec: ModelSpec, t: f64) -> f64 {
    let rule = GaussLegendre::shared(BETA_NODES);
    mixture
        .beta_table()
        .iter()
        .map(|row| {
            let g_mean = row.expectation(&rule, |b| window_mass(spec, b, 0.0, t));
            row.weight * row.omega.mean() * g_mean
        })
        .sum()
}

fn reference_cdf(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let rule = GaussLegendre::shared(BETA_NODES);
    mixture
        .beta_table()
        .iter()
        .map(|row| {
            let inner = row.expectation(&rule, |b| {
                let g = window_mass(spec, b, 0.0, t);
                if g <= 0.0 {
                    1.0
                } else {
                    row.omega.cdf(x / g)
                }
            });
            row.weight * inner
        })
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// The root of `cdf(x) = p` in `[x0·(1 − 1e-8), x0·(1 + 1e-8)]`, bisected
/// to 1e-14 relative. Panics unless that bracket holds the root, so an
/// `x0` more than 1e-8 off fails here.
fn bisect_near(cdf: impl Fn(f64) -> f64, p: f64, x0: f64) -> f64 {
    let (mut lo, mut hi) = (x0 * (1.0 - 1e-8), x0 * (1.0 + 1e-8));
    let (f_lo, f_hi) = (cdf(lo), cdf(hi));
    assert!(
        f_lo < p && p <= f_hi,
        "p={p} not bracketed around {x0}: F = {f_lo}, {f_hi}"
    );
    while hi - lo > 1e-14 * hi {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Today's predictive pmf on the per-call rule, with the same floor,
/// relative stop and tail tolerance as `Vb2Posterior::predictive_failures`.
fn reference_pmf(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, u: f64) -> Vec<f64> {
    let rule = GaussLegendre::shared(BETA_NODES);
    // (weight, shape, current pmf value, 1 − p) per node.
    let mut cells = Vec::new();
    for row in mixture.beta_table() {
        let (a, r) = (row.omega.shape(), row.omega.rate());
        for (b, gw) in rule.scaled(row.lo, row.hi) {
            let weight = row.weight * gw * row.density(b);
            if weight < NODE_FLOOR {
                continue;
            }
            let c = window_mass(spec, b, t, u);
            cells.push((weight, a, (-a * (c / r).ln_1p()).exp(), c / (r + c)));
        }
    }
    let total: f64 = cells.iter().map(|cell| cell.0).sum();
    let mut pmf = Vec::new();
    let mut cumulative = 0.0;
    for k in 0.. {
        let mass: f64 = cells.iter().map(|cell| cell.0 * cell.2).sum();
        pmf.push(mass);
        cumulative += mass;
        if cumulative >= (1.0 - 1e-10) * total {
            return pmf;
        }
        for cell in &mut cells {
            cell.2 *= (cell.1 + k as f64) / (k as f64 + 1.0) * cell.3;
        }
    }
    unreachable!()
}

struct Fit {
    label: String,
    spec: ModelSpec,
    post: Vb2Posterior,
    t_end: f64,
}

/// GO and DSS on the four System 17 scenarios, and D_T-Info at
/// α₀ = 0.5 and 3.5, fitted once for every test of this file.
fn fits() -> &'static [Fit] {
    static FITS: OnceLock<Vec<Fit>> = OnceLock::new();
    FITS.get_or_init(|| {
        let scenarios = [
            Scenario::dt_info(),
            Scenario::dt_noinfo(),
            Scenario::dg_info(),
            Scenario::dg_noinfo(),
        ];
        let shapes = [ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()];
        let cases = shapes
            .into_iter()
            .flat_map(|spec| scenarios.iter().map(move |s| (spec, s.clone())))
            .chain([0.5, 3.5].map(|a0| (ModelSpec::gamma_type(a0).unwrap(), Scenario::dt_info())));
        cases
            .map(|(spec, s)| Fit {
                label: format!("α₀={} {}", spec.alpha0(), s.name),
                spec,
                post: Vb2Posterior::fit(spec, s.prior, &s.data, s.vb2_options()).unwrap(),
                t_end: s.data.observation_end(),
            })
            .collect()
    })
}

#[test]
fn band_matches_the_per_call_quadrature() {
    for fit in fits() {
        let mixture = fit.post.mixture();
        for (t, level) in [(0.3 * fit.t_end, 0.9), (fit.t_end, 0.99)] {
            let point = fit.post.mean_value_band(&[t], level).unwrap()[0];
            let want = reference_mean(mixture, fit.spec, t);
            assert!(
                (point.mean - want).abs() <= 1e-12 * want,
                "{} mean at t={t}: {} vs {want}",
                fit.label,
                point.mean
            );
            let tail = (1.0 - level) / 2.0;
            for (got, p) in [(point.lower, tail), (point.upper, 1.0 - tail)] {
                let want = bisect_near(|x| reference_cdf(mixture, fit.spec, t, x), p, got);
                assert!(
                    (got - want).abs() <= 1e-10 * want,
                    "{} edge p={p} at t={t}: {got} vs {want}",
                    fit.label
                );
            }
        }
    }
}

#[test]
fn band_at_time_zero_is_the_origin() {
    for fit in fits() {
        let band = fit.post.mean_value_band(&[0.0, fit.t_end], 0.99).unwrap();
        let origin = BandPoint {
            t: 0.0,
            lower: 0.0,
            mean: 0.0,
            upper: 0.0,
        };
        assert_eq!(band[0], origin, "{}", fit.label);
        assert!(band[1].lower > 0.0, "{}: {:?}", fit.label, band[1]);
    }
}

#[test]
fn predictive_matches_the_per_call_quadrature() {
    for fit in fits() {
        let mixture = fit.post.mixture();
        for share in [0.01, 0.1, 1.0] {
            let u = share * fit.t_end;
            let got = fit.post.predictive_failures(fit.t_end, u).unwrap();
            let want = reference_pmf(mixture, fit.spec, fit.t_end, u);
            assert_eq!(got.k_max() + 1, want.len(), "{} u={u}", fit.label);
            for (k, &p) in want.iter().enumerate() {
                assert!(
                    (got.pmf(k) - p).abs() <= 1e-12,
                    "{} u={u} P(K={k}): {} vs {p}",
                    fit.label,
                    got.pmf(k)
                );
            }
            let want = nhpp_models::prediction::PredictiveCounts::from_pmf(want).unwrap();
            for level in [0.9, 0.99] {
                assert_eq!(
                    got.interval(level),
                    want.interval(level),
                    "{} u={u} level {level}",
                    fit.label
                );
            }
        }
    }
}

/// The cells' own CDF, `atom + Σ w·P(ω·G(t; β) ≤ x)`, where the atom
/// holds the cells with `G = 0`.
fn cell_cdf(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, x: f64) -> f64 {
    mixture
        .cell_table()
        .cells()
        .map(|(w, omega, b)| {
            let g = window_mass(spec, b, 0.0, t);
            if g <= 0.0 {
                w
            } else {
                w * omega.cdf(x / g)
            }
        })
        .sum()
}

/// Nodes per β-row of the reliability quantiles' cell table.
const RELIABILITY_NODES: usize = 96;

/// The cells of `table` as the reliability CDF
/// `P(R ≤ x) = Σ_{c>0} w·P(ω·c > −ln x)` of the window `(t, t + u]`
/// reads them: per cell `(w, Gamma(A, r/c))`, or `None` where `c = 0`.
fn reliability_cells(
    table: &CellTable,
    spec: ModelSpec,
    t: f64,
    u: f64,
) -> Vec<(f64, Option<Gamma>)> {
    table
        .cells()
        .map(|(w, omega, b)| {
            let c = window_mass(spec, b, t, u);
            (w, Gamma::new(omega.shape(), omega.rate() / c).ok())
        })
        .collect()
}

/// The first float `x` in `[0, 1]` with `P(R ≤ x) ≥ p` over `cells`,
/// bisected to adjacent floats; `P(R ≤ 1) = 1`.
fn reliability_root(cells: &[(f64, Option<Gamma>)], p: f64) -> f64 {
    let cdf = |x: f64| {
        if x >= 1.0 {
            return 1.0;
        }
        let y = -x.ln();
        cells
            .iter()
            .filter_map(|(w, cell)| cell.map(|cell| w * cell.sf(y)))
            .sum::<f64>()
    };
    // Non-negative floats order like their bit patterns.
    let (mut lo, mut hi) = (0f64.to_bits(), 1f64.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if cdf(f64::from_bits(mid)) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(hi)
}

/// GO, DSS or a gamma-type model with α₀ in `[0.5, 4)`.
fn spec_strategy() -> impl Strategy<Value = ModelSpec> {
    (0usize..3, 0.5f64..4.0).prop_map(|(kind, a0)| match kind {
        0 => ModelSpec::goel_okumoto(),
        1 => ModelSpec::delayed_s_shaped(),
        _ => ModelSpec::gamma_type(a0).unwrap(),
    })
}

/// `(weight, ω shape, ω mean, β shape, β mean)` of one component.
fn component_strategy() -> impl Strategy<Value = (f64, f64, f64, f64, f64)> {
    (
        0.05f64..1.0,
        1.0f64..200.0,
        5.0f64..500.0,
        1.0f64..200.0,
        1e-6f64..1e-3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Band edges of 1–5-component mixtures, at windows whose mission
    /// mass ranges from a sliver to nearly all of `G`, match a bisection
    /// of the same cells' CDF to 1e-10 relative. The reliability
    /// quantiles of the mission `(t, 2t]` at `tail`, 0.5 and `1 − tail`
    /// match an adjacent-float bisection of the 96-node cells' CDF to
    /// 1e-12 absolute, and rise with p.
    #[test]
    fn band_edges_invert_the_cells_cdf(
        parts in proptest::collection::vec(component_strategy(), 1..6),
        spec in spec_strategy(),
        log_bt in -2.0f64..1.0,
        level in 0.5f64..0.999,
    ) {
        let components: Vec<MixtureComponent> = parts
            .iter()
            .map(|&(weight, w_shape, w_mean, b_shape, b_mean)| MixtureComponent {
                weight,
                omega: Gamma::new(w_shape, w_shape / w_mean).unwrap(),
                beta: Gamma::new(b_shape, b_shape / b_mean).unwrap(),
            })
            .collect();
        let mixture = GammaProductMixture::new(components).unwrap();
        let t = 10f64.powf(log_bt) / mixture.mean_beta();
        let point = mean_value_band(&mixture, spec, &[t], level).unwrap()[0];
        let tail = (1.0 - level) / 2.0;
        for (got, p) in [(point.lower, tail), (point.upper, 1.0 - tail)] {
            prop_assert!(got.is_finite() && got > 0.0, "p={p}: {got}");
            let want = bisect_near(|x| cell_cdf(&mixture, spec, t, x), p, got);
            prop_assert!((got - want).abs() <= 1e-10 * want, "p={p}: {got} vs {want}");
        }
        let table = CellTable::new(mixture.beta_table(), GaussLegendre::shared(RELIABILITY_NODES));
        let cells = reliability_cells(&table, spec, t, t);
        let mut prev = 0.0;
        for p in [tail, 0.5, 1.0 - tail] {
            let got = reliability_quantile(&mixture, spec, t, t, p);
            let want = reliability_root(&cells, p);
            prop_assert!((got - want).abs() <= 1e-12, "R p={p}: {got} vs {want}");
            prop_assert!(got >= prev, "R p={p}: {got} below {prev}");
            prev = got;
        }
    }
}
