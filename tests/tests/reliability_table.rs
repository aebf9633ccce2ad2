//! The β-table reliability functionals against the per-call quadrature
//! they replaced.
//!
//! The reference below is that quadrature: every call recomputes each
//! component's β bounds and density and takes the mission mass as a
//! difference of incomplete gammas, for every α₀. Non-integer α₀ keep
//! that mission mass, so there the table must reproduce the reference
//! bit for bit. GO and DSS now use closed forms, so there R and 1 − R
//! must agree to 1e-12 relative at every System 17 chart gap; burst-size
//! gaps, where the reference itself loses digits, are checked against
//! quadrature of the density in `nhpp_vb::reliability`'s unit tests.

use nhpp_bench::Scenario;
use nhpp_data::sys17;
use nhpp_dist::{Continuous, Gamma, GammaProductMixture};
use nhpp_models::{ModelSpec, Posterior};
use nhpp_numeric::quadrature::GaussLegendre;
use nhpp_numeric::roots::bisect;
use nhpp_vb::Vb2Posterior;
use std::sync::Barrier;

const BETA_NODES: usize = 96;
const WEIGHT_FLOOR: f64 = 1e-13;
/// The interval query of the `/reliability` route: a mission of one
/// hundredth of the test period, right after it.
const MISSION: f64 = sys17::T_END / 100.0;

fn reference_expectation(rule: &GaussLegendre, beta: &Gamma, f: impl Fn(f64) -> f64) -> f64 {
    let lo = beta.quantile(1e-10);
    let hi = beta.quantile(1.0 - 1e-10);
    rule.integrate(lo, hi, |b| beta.pdf(b) * f(b))
}

fn reference_mission_mass(spec: ModelSpec, beta: f64, t: f64, u: f64) -> f64 {
    Gamma::new(spec.alpha0(), beta)
        .unwrap()
        .ln_interval_mass(t, t + u)
        .exp()
}

fn reference_point(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, u: f64) -> f64 {
    let rule = GaussLegendre::shared(BETA_NODES);
    let mut acc = 0.0;
    for comp in mixture.components() {
        if comp.weight < WEIGHT_FLOOR {
            continue;
        }
        let (a, r) = (comp.omega.shape(), comp.omega.rate());
        let inner = reference_expectation(&rule, &comp.beta, |b| {
            (-a * (reference_mission_mass(spec, b, t, u) / r).ln_1p()).exp()
        });
        acc += comp.weight * inner;
    }
    acc
}

fn reference_cdf(mixture: &GammaProductMixture, spec: ModelSpec, t: f64, u: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let rule = GaussLegendre::shared(BETA_NODES);
    let neg_ln_x = -x.ln();
    let mut acc = 0.0;
    for comp in mixture.components() {
        if comp.weight < WEIGHT_FLOOR {
            continue;
        }
        let inner = reference_expectation(&rule, &comp.beta, |b| {
            let c = reference_mission_mass(spec, b, t, u);
            if c <= 0.0 {
                0.0
            } else {
                comp.omega.sf(neg_ln_x / c)
            }
        });
        acc += comp.weight * inner;
    }
    acc.clamp(0.0, 1.0)
}

fn reference_quantile(
    mixture: &GammaProductMixture,
    spec: ModelSpec,
    t: f64,
    u: f64,
    p: f64,
) -> f64 {
    bisect(
        |x| reference_cdf(mixture, spec, t, u, x) - p,
        0.0,
        1.0,
        1e-10,
        200,
    )
    .unwrap()
}

/// The System 17 failure-time fit of `scenario` (info or flat prior,
/// with its truncation) under `spec`.
fn fit(spec: ModelSpec, scenario: &Scenario) -> Vb2Posterior {
    Vb2Posterior::fit(spec, scenario.prior, &scenario.data, scenario.vb2_options()).unwrap()
}

/// `(t_prev, τ)` for every gap the ordered-statistics chart scores.
fn chart_gaps() -> impl Iterator<Item = (f64, f64)> {
    sys17::FAILURE_TIMES
        .windows(2)
        .map(|pair| (pair[0], pair[1] - pair[0]))
}

fn assert_bitwise(spec: ModelSpec, scenario: &Scenario) {
    let post = fit(spec, scenario);
    let mixture = post.mixture();
    for (t, u) in chart_gaps().chain([(sys17::T_END, MISSION)]) {
        let (got, want) = (
            post.reliability_point(t, u),
            reference_point(mixture, spec, t, u),
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "R({t}, {u}): {got} vs {want}"
        );
    }
    let got = post.reliability_quantile(sys17::T_END, MISSION, 0.05);
    let want = reference_quantile(mixture, spec, sys17::T_END, MISSION, 0.05);
    assert_eq!(got.to_bits(), want.to_bits(), "quantile: {got} vs {want}");
}

fn assert_close(spec: ModelSpec, scenario: &Scenario) {
    let post = fit(spec, scenario);
    let mixture = post.mixture();
    for (t, u) in chart_gaps() {
        let (got, want) = (
            post.reliability_point(t, u),
            reference_point(mixture, spec, t, u),
        );
        let rel = (got - want).abs() / want;
        let rel_fail = (got - want).abs() / (1.0 - want);
        assert!(
            rel <= 1e-12 && rel_fail <= 1e-12,
            "α₀={} R({t}, {u}): {got} vs {want} (R {rel:e}, 1−R {rel_fail:e})",
            spec.alpha0()
        );
    }
    let got = post.reliability_quantile(sys17::T_END, MISSION, 0.05);
    let want = reference_quantile(mixture, spec, sys17::T_END, MISSION, 0.05);
    assert!((got - want).abs() <= 2e-10, "quantile: {got} vs {want}");
}

#[test]
fn non_integer_shapes_reproduce_the_per_call_quadrature_bitwise() {
    for alpha0 in [0.5, 3.5] {
        assert_bitwise(ModelSpec::gamma_type(alpha0).unwrap(), &Scenario::dt_info());
    }
}

#[test]
fn goel_okumoto_agrees_at_every_chart_gap() {
    for scenario in [Scenario::dt_info(), Scenario::dt_noinfo()] {
        assert_close(ModelSpec::goel_okumoto(), &scenario);
    }
}

#[test]
fn delayed_s_shaped_agrees_at_every_chart_gap() {
    for scenario in [Scenario::dt_info(), Scenario::dt_noinfo()] {
        assert_close(ModelSpec::delayed_s_shaped(), &scenario);
    }
}

#[test]
fn concurrent_first_calls_build_one_table() {
    let spec = ModelSpec::goel_okumoto();
    let post = fit(spec, &Scenario::dt_info());
    let fresh = post.clone();
    let (t, u) = (sys17::T_END, MISSION);
    let threads = 4;
    let barrier = Barrier::new(threads);
    let bits: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    post.reliability_point(t, u).to_bits()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let serial = fresh.reliability_point(t, u).to_bits();
    assert!(bits.iter().all(|&b| b == serial), "{bits:?} vs {serial}");
    assert_eq!(post.mixture().beta_table(), fresh.mixture().beta_table());
}
