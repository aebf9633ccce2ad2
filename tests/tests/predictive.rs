//! Cross-method consistency of the posterior-predictive failure-count
//! distributions (an extension beyond the paper; see `DESIGN.md` §7).

use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_bayes::mcmc::{McmcOptions, McmcPosterior};
use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_bench::Scenario;
use nhpp_data::{sys17, ObservedData};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_vb::{Vb1Options, Vb1Posterior, Vb2Options, Vb2Posterior};

const U: f64 = 20_000.0;

struct Fits {
    vb2: Vb2Posterior,
    nint: NintPosterior,
    mcmc: McmcPosterior,
    lapl: LaplacePosterior,
    t: f64,
}

fn fit() -> Fits {
    let spec = ModelSpec::goel_okumoto();
    let data: ObservedData = sys17::failure_times().into();
    let prior = NhppPrior::paper_info_times();
    let vb2 = Vb2Posterior::fit(spec, prior, &data, Vb2Options::default()).unwrap();
    let nint = NintPosterior::fit(
        spec,
        prior,
        &data,
        bounds_from_posterior(&vb2),
        NintOptions::default(),
    )
    .unwrap();
    let mcmc = McmcPosterior::fit_gibbs(spec, prior, &data, McmcOptions::default()).unwrap();
    let lapl = LaplacePosterior::fit(spec, prior, &data).unwrap();
    Fits {
        vb2,
        nint,
        mcmc,
        lapl,
        t: data.observation_end(),
    }
}

#[test]
fn predictive_zero_class_equals_reliability() {
    // P(K = 0 over the window) IS the software reliability, so the two
    // independently implemented code paths must agree per method.
    let f = fit();
    let pairs: [(&str, f64, f64); 3] = [
        (
            "VB2",
            f.vb2.predictive_failures(f.t, U).unwrap().prob_zero(),
            f.vb2.reliability_point(f.t, U),
        ),
        (
            "NINT",
            f.nint.predictive_failures(f.t, U).unwrap().prob_zero(),
            f.nint.reliability_point(f.t, U),
        ),
        (
            "MCMC",
            f.mcmc.predictive_failures(f.t, U).unwrap().prob_zero(),
            f.mcmc.reliability_point(f.t, U),
        ),
    ];
    for (name, zero, reliability) in pairs {
        assert!(
            (zero - reliability).abs() < 2e-3,
            "{name}: P(K=0)={zero} vs R={reliability}"
        );
    }
}

#[test]
fn predictive_means_agree_across_methods() {
    let f = fit();
    let m_vb2 = f.vb2.predictive_failures(f.t, U).unwrap().mean();
    let m_nint = f.nint.predictive_failures(f.t, U).unwrap().mean();
    let m_mcmc = f.mcmc.predictive_failures(f.t, U).unwrap().mean();
    assert!(
        (m_vb2 - m_nint).abs() < 0.02 * m_nint,
        "{m_vb2} vs {m_nint}"
    );
    assert!(
        (m_mcmc - m_nint).abs() < 0.03 * m_nint,
        "{m_mcmc} vs {m_nint}"
    );
    // The mean must equal E[ω]·E-ish[c(β)] scale: between 0 and residual.
    assert!(m_nint > 0.0 && m_nint < f.nint.mean_omega());
}

#[test]
fn posterior_predictives_are_overdispersed_but_laplace_is_not() {
    // Parameter uncertainty inflates Var(K) above the Poisson value; the
    // plug-in Laplace predictive cannot show this.
    let f = fit();
    let vb2 = f.vb2.predictive_failures(f.t, U).unwrap();
    let lapl = f.lapl.predictive_failures(f.t, U).unwrap();
    assert!(
        vb2.variance() > 1.05 * vb2.mean(),
        "VB2 var {} vs mean {}",
        vb2.variance(),
        vb2.mean()
    );
    assert!(
        (lapl.variance() - lapl.mean()).abs() < 0.01 * lapl.mean(),
        "LAPL var {} vs mean {}",
        lapl.variance(),
        lapl.mean()
    );
}

#[test]
fn predictive_interval_widens_with_window() {
    let f = fit();
    let short = f.vb2.predictive_failures(f.t, 5_000.0).unwrap();
    let long = f.vb2.predictive_failures(f.t, 50_000.0).unwrap();
    let (s_lo, s_hi) = short.interval(0.95).unwrap();
    let (l_lo, l_hi) = long.interval(0.95).unwrap();
    assert!(long.mean() > short.mean());
    assert!(l_hi - l_lo >= s_hi - s_lo);
    assert!(s_lo <= l_lo || s_lo == 0);
}

#[test]
fn predictive_is_bounded_by_residual_faults() {
    // As u → ∞ the window captures every residual fault: the predictive
    // mean approaches E[N] − m and cannot exceed it.
    let f = fit();
    // (Within the variational approximation, E[ω·S(t_e; β)] and
    // E[N] − m agree only approximately; a sub-percent gap is expected.)
    let huge = f.vb2.predictive_failures(f.t, 1e9).unwrap();
    let residual = f.vb2.mean_n() - 38.0;
    assert!(
        (huge.mean() - residual).abs() < 0.015 * residual,
        "{} vs {residual}",
        huge.mean()
    );
}

#[test]
fn predictive_pmf_stops_where_its_mass_sits() {
    // Regression: the pmf loop once stopped at an absolute `1 − tail_tol`
    // that the β-table cells (≈ 1 − 2e-10 of the mass) never reach, so
    // every call walked to the 100 000-entry cap while the mass sat at
    // k ≤ 7. Every System 17 posterior must stop within a few entries
    // and still account for all but ~tail_tol of its mass.
    for scenario in Scenario::all() {
        let t = scenario.data.observation_end();
        for spec in [ModelSpec::goel_okumoto(), ModelSpec::delayed_s_shaped()] {
            let vb2 =
                Vb2Posterior::fit(spec, scenario.prior, &scenario.data, scenario.vb2_options())
                    .unwrap();
            let pred = vb2.predictive_failures(t, t / 100.0).unwrap();
            let label = format!("{} {spec:?}", scenario.name);
            assert!(pred.k_max() < 50, "{label}: k_max {}", pred.k_max());
            assert!(
                pred.tail_mass() < 1e-9,
                "{label}: tail {}",
                pred.tail_mass()
            );
        }
    }
    // VB1 shares the negative-binomial mixture path.
    let scenario = Scenario::dt_info();
    let t = scenario.data.observation_end();
    let vb1 = Vb1Posterior::fit(
        ModelSpec::goel_okumoto(),
        scenario.prior,
        &scenario.data,
        Vb1Options::default(),
    )
    .unwrap();
    let pred = vb1.predictive_failures(t, t / 100.0).unwrap();
    assert!(pred.k_max() < 50, "VB1: k_max {}", pred.k_max());
}
