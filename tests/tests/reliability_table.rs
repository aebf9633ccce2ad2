//! The β-table reliability functionals against the per-call quadrature
//! they replaced.
//!
//! The reference below is that quadrature: every call recomputes each
//! component's β bounds and density and takes the mission mass as a
//! difference of incomplete gammas, for every α₀. Non-integer α₀ keep
//! that mission mass, so there the point must reproduce the reference
//! bit for bit. GO and DSS now use closed forms, so there R and 1 − R
//! must agree to 1e-12 relative at every System 17 chart gap; burst-size
//! gaps, where the reference itself loses digits, are checked against
//! quadrature of the density in `nhpp_vb::reliability`'s unit tests.
//!
//! Reliability quantiles are Newton solves on the flat mixture of a
//! 96-node cell table, so their bits differ from any bisection. Each
//! must lie within 1e-13 absolute of the reference CDF's root bisected
//! to adjacent floats, at p ∈ {0.005, 0.05, 0.5, 0.95, 0.995}. The
//! bisection to 1e-10 they replaced was itself up to 2.9e-11 off that
//! root.
//!
//! The GO and DSS point estimate runs on the mixture's 48-node cell
//! table. Beyond the System 17 D_T fits, it is checked on the grouped
//! fits and on an ingest-like history, the posteriors the service charts
//! and queries, to 1e-13 in R itself: at `1 − R = 3e-3` the reference's
//! own summation roundoff (~1.5e-14) is already 5e-12 of `1 − R`.

use nhpp_bench::Scenario;
use nhpp_data::{sys17, FailureTimeData};
use nhpp_dist::{Continuous, Gamma, GammaProductMixture};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_numeric::quadrature::GaussLegendre;
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

/// The root of `reference_cdf(x) = p`, bisected to adjacent floats
/// inside `[x0 − 1e-12, x0 + 1e-12]`: the first float `x` with
/// `reference_cdf(x) ≥ p`. Panics unless that bracket holds the root, so
/// an `x0` more than 1e-12 off fails here.
fn reference_quantile(
    mixture: &GammaProductMixture,
    spec: ModelSpec,
    (t, u): (f64, f64),
    p: f64,
    x0: f64,
) -> f64 {
    let cdf = |x: f64| reference_cdf(mixture, spec, t, u, x);
    let (lo, hi) = ((x0 - 1e-12).max(0.0), (x0 + 1e-12).min(1.0));
    assert!(
        cdf(lo) < p && p <= cdf(hi),
        "p={p} not bracketed around {x0}"
    );
    // Non-negative floats order like their bit patterns.
    let (mut lo, mut hi) = (lo.to_bits(), hi.to_bits());
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

/// The quantile levels checked against [`reference_quantile`].
const QUANTILE_LEVELS: [f64; 5] = [0.005, 0.05, 0.5, 0.95, 0.995];
/// The bound on |Δx| between a reliability quantile and the adjacent-float
/// root of the reference CDF.
const QUANTILE_ABS_BOUND: f64 = 1e-13;

/// Every reliability quantile at [`QUANTILE_LEVELS`] for the window
/// `(t, t + u]` lies within [`QUANTILE_ABS_BOUND`] of the reference's
/// adjacent-float root.
fn assert_quantiles(spec: ModelSpec, post: &Vb2Posterior, label: &str, (t, u): (f64, f64)) {
    for p in QUANTILE_LEVELS {
        let got = post.reliability_quantile(t, u, p);
        let want = reference_quantile(post.mixture(), spec, (t, u), p, got);
        assert!(
            (got - want).abs() <= QUANTILE_ABS_BOUND,
            "α₀={} {label} quantile p={p} of R({t}, {u}): {got} vs {want} (Δ {:e})",
            spec.alpha0(),
            got - want
        );
    }
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
    assert_quantiles(spec, &post, scenario.name, (sys17::T_END, MISSION));
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
    assert_quantiles(spec, &post, scenario.name, (sys17::T_END, MISSION));
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
    assert_eq!(post.mixture().cell_table(), fresh.mixture().cell_table());
}

/// The bound on |ΔR| between the cell rule and the reference.
const CELL_ABS_BOUND: f64 = 1e-13;

fn assert_cells_within_bound(
    spec: ModelSpec,
    post: &Vb2Posterior,
    label: &str,
    windows: impl IntoIterator<Item = (f64, f64)>,
) {
    for (t, u) in windows {
        let (got, want) = (
            post.reliability_point(t, u),
            reference_point(post.mixture(), spec, t, u),
        );
        assert!(
            (got - want).abs() <= CELL_ABS_BOUND,
            "α₀={} {label} R({t}, {u}): {got} vs {want} (ΔR {:e})",
            spec.alpha0(),
            got - want
        );
    }
}

/// Grouped System 17 fits, at one-day windows from every day boundary
/// of the observation period and at the scenario's missions after it;
/// their reliability quantiles at the `/reliability` route's mission.
#[test]
fn grouped_fits_agree_across_the_observation_period() {
    for spec in [ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()] {
        for scenario in [Scenario::dg_info(), Scenario::dg_noinfo()] {
            let post = fit(spec, &scenario);
            let t_end = scenario.data.observation_end();
            let days = (0..sys17::WORKING_DAYS).map(|d| (d as f64, 1.0));
            let missions = scenario.missions.map(|u| (t_end, u));
            assert_cells_within_bound(spec, &post, scenario.name, days.chain(missions));
            assert_quantiles(spec, &post, scenario.name, (t_end, t_end / 100.0));
        }
    }
}

/// System 17 plus 40 failures appended the way the monitored ingest
/// workload appends them, at gaps spread over `[4 000, 12 000)` s, under
/// `paper-info-times`: a fit of ~235 components.
#[test]
fn ingest_like_history_agrees_at_every_chart_gap() {
    let mut times = sys17::FAILURE_TIMES.to_vec();
    let mut t = sys17::T_END;
    for i in 1..=40 {
        // Golden-ratio steps cover the gap range evenly without an RNG.
        t += 4_000.0 + 8_000.0 * (i as f64 * 0.618_033_988_75).fract();
        times.push(t);
    }
    let gaps: Vec<(f64, f64)> = times
        .windows(2)
        .map(|pair| (pair[0], pair[1] - pair[0]))
        .collect();
    let scenario = Scenario {
        name: "ingest-like",
        data: FailureTimeData::new(times, t).unwrap().into(),
        prior: NhppPrior::paper_info_times(),
        missions: [1_000.0, 10_000.0],
    };
    for spec in [ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()] {
        let post = fit(spec, &scenario);
        assert_cells_within_bound(spec, &post, scenario.name, gaps.iter().copied());
    }
}
