//! ELBO validity and internal-consistency checks across crates.

use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_data::{sys17, ObservedData};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{fit_mle, FitOptions, ModelSpec, Posterior};
use nhpp_vb::{SolverKind, Vb2Options, Vb2Posterior};

/// The ELBO is a lower bound on the log evidence, and for this model the
/// structured family is rich enough that the gap is tiny. NINT computes
/// the evidence by quadrature, so `elbo <= ln Z` up to grid error — and
/// the two should be within a fraction of a nat.
#[test]
fn elbo_lower_bounds_nint_evidence() {
    let spec = ModelSpec::goel_okumoto();
    for (data, prior) in [
        (
            ObservedData::from(sys17::failure_times()),
            NhppPrior::paper_info_times(),
        ),
        (
            ObservedData::from(sys17::grouped()),
            NhppPrior::paper_info_grouped(),
        ),
    ] {
        let vb2 = Vb2Posterior::fit(spec, prior, &data, Vb2Options::default()).unwrap();
        let nint = NintPosterior::fit(
            spec,
            prior,
            &data,
            bounds_from_posterior(&vb2),
            NintOptions {
                n_omega: 320,
                n_beta: 320,
            },
        )
        .unwrap();
        let elbo = vb2.elbo();
        let ln_z = nint.log_evidence();
        assert!(
            elbo <= ln_z + 1e-6,
            "ELBO {elbo} must not exceed evidence {ln_z}"
        );
        assert!(ln_z - elbo < 0.5, "gap too large: {}", ln_z - elbo);
    }
}

/// The Laplace evidence approximation should also be in the same
/// ballpark as the NINT evidence (it is exact for Gaussian posteriors).
#[test]
fn laplace_evidence_near_nint_evidence() {
    let spec = ModelSpec::goel_okumoto();
    let data: ObservedData = sys17::failure_times().into();
    let prior = NhppPrior::paper_info_times();
    let lapl = LaplacePosterior::fit(spec, prior, &data).unwrap();
    let nint = NintPosterior::fit(
        spec,
        prior,
        &data,
        bounds_from_posterior(&lapl),
        NintOptions::default(),
    )
    .unwrap();
    assert!((lapl.log_evidence() - nint.log_evidence()).abs() < 0.5);
}

/// Fitting the same underlying trace as individual times and as grouped
/// counts on the seconds axis must produce nearby posteriors: grouping
/// only discards within-day position information.
#[test]
fn grouped_seconds_posterior_close_to_times_posterior() {
    let spec = ModelSpec::goel_okumoto();
    let prior = NhppPrior::paper_info_times();
    let times: ObservedData = sys17::failure_times().into();
    let grouped: ObservedData = sys17::grouped_seconds().into();
    let vt = Vb2Posterior::fit(spec, prior, &times, Vb2Options::default()).unwrap();
    let vg = Vb2Posterior::fit(spec, prior, &grouped, Vb2Options::default()).unwrap();
    assert!((vt.mean_omega() - vg.mean_omega()).abs() / vt.mean_omega() < 0.02);
    assert!((vt.mean_beta() - vg.mean_beta()).abs() / vt.mean_beta() < 0.05);
    assert!((vt.mean_n() - vg.mean_n()).abs() < 1.5);
}

/// The grouped-data β posterior on the day axis is the seconds-axis one
/// rescaled: β_day ≈ β_sec · SECONDS_PER_DAY.
#[test]
fn day_axis_beta_is_rescaled_seconds_beta() {
    let spec = ModelSpec::goel_okumoto();
    let days = Vb2Posterior::fit(
        spec,
        NhppPrior::paper_info_grouped(),
        &sys17::grouped().into(),
        Vb2Options::default(),
    )
    .unwrap();
    // Fit on the seconds axis with the equivalent (rescaled) prior.
    let beta_day_prior = nhpp_dist::Gamma::from_mean_sd(
        3.3e-2 / sys17::SECONDS_PER_DAY,
        1.1e-2 / sys17::SECONDS_PER_DAY,
    )
    .unwrap();
    let omega_prior = nhpp_dist::Gamma::new(10.0, 0.2).unwrap();
    let secs = Vb2Posterior::fit(
        spec,
        NhppPrior::informative(omega_prior, beta_day_prior),
        &sys17::grouped_seconds().into(),
        Vb2Options::default(),
    )
    .unwrap();
    let rescaled = secs.mean_beta() * sys17::SECONDS_PER_DAY;
    assert!(
        (days.mean_beta() - rescaled).abs() / days.mean_beta() < 1e-6,
        "{} vs {}",
        days.mean_beta(),
        rescaled
    );
    assert!((days.mean_omega() - secs.mean_omega()).abs() / days.mean_omega() < 1e-6);
}

/// VB2's E[N] must be consistent with the model: E[N] ≈ E[ω] (the total
/// fault count is Poisson(ω) a priori), and larger than the MLE-implied
/// detected fraction.
#[test]
fn mean_n_consistent_with_mean_omega() {
    let spec = ModelSpec::goel_okumoto();
    let data: ObservedData = sys17::failure_times().into();
    let vb2 = Vb2Posterior::fit(
        spec,
        NhppPrior::paper_info_times(),
        &data,
        Vb2Options::default(),
    )
    .unwrap();
    assert!(
        (vb2.mean_n() - vb2.mean_omega()).abs() < 1.5,
        "E[N]={} vs E[ω]={}",
        vb2.mean_n(),
        vb2.mean_omega()
    );
    let mle = fit_mle(spec, &data, FitOptions::default()).unwrap();
    assert!(vb2.mean_n() > 38.0 && vb2.mean_n() < 2.0 * mle.model.omega());
}

/// All three solver kinds land on the same variational optimum for the
/// grouped case (no closed form available there).
#[test]
fn solver_kinds_agree_on_grouped_data() {
    let spec = ModelSpec::goel_okumoto();
    let data: ObservedData = sys17::grouped().into();
    let prior = NhppPrior::paper_info_grouped();
    let fits: Vec<Vb2Posterior> = [
        SolverKind::Auto,
        SolverKind::SuccessiveSubstitution,
        SolverKind::Newton,
    ]
    .into_iter()
    .map(|solver| {
        Vb2Posterior::fit(
            spec,
            prior,
            &data,
            Vb2Options {
                solver,
                ..Vb2Options::default()
            },
        )
        .unwrap()
    })
    .collect();
    for pair in fits.windows(2) {
        assert!((pair[0].elbo() - pair[1].elbo()).abs() < 1e-6);
        assert!((pair[0].mean_omega() - pair[1].mean_omega()).abs() < 1e-7 * pair[0].mean_omega());
    }
}

/// Tightening the adaptive tolerance must not change the answer (the
/// tail mass it adds is negligible by construction).
#[test]
fn adaptive_epsilon_insensitivity() {
    let spec = ModelSpec::goel_okumoto();
    let data: ObservedData = sys17::failure_times().into();
    let prior = NhppPrior::paper_info_times();
    let loose = Vb2Posterior::fit(
        spec,
        prior,
        &data,
        Vb2Options {
            truncation: nhpp_vb::Truncation::Adaptive { epsilon: 1e-8 },
            ..Vb2Options::default()
        },
    )
    .unwrap();
    let tight = Vb2Posterior::fit(
        spec,
        prior,
        &data,
        Vb2Options {
            truncation: nhpp_vb::Truncation::Adaptive { epsilon: 1e-20 },
            ..Vb2Options::default()
        },
    )
    .unwrap();
    assert!((loose.mean_omega() - tight.mean_omega()).abs() < 1e-6);
    assert!((loose.var_omega() - tight.var_omega()).abs() < 1e-4);
    assert!(tight.n_max() >= loose.n_max());
}

/// The delayed S-shaped model (α₀ = 2) exercises the non-closed-form
/// path for failure-time data; NINT and VB2 must still agree.
#[test]
fn delayed_s_shaped_vb2_vs_nint() {
    let spec = ModelSpec::delayed_s_shaped();
    let data: ObservedData = sys17::failure_times().into();
    // Match the prior β scale to the DSS model (its rate is roughly twice
    // the GO rate for the same data span).
    let prior = NhppPrior::informative(
        nhpp_dist::Gamma::new(10.0, 0.2).unwrap(),
        nhpp_dist::Gamma::from_mean_sd(2e-5, 6.4e-6).unwrap(),
    );
    let vb2 = Vb2Posterior::fit(spec, prior, &data, Vb2Options::default()).unwrap();
    let nint = NintPosterior::fit(
        spec,
        prior,
        &data,
        bounds_from_posterior(&vb2),
        NintOptions::default(),
    )
    .unwrap();
    assert!(
        (vb2.mean_omega() - nint.mean_omega()).abs() / nint.mean_omega() < 0.02,
        "{} vs {}",
        vb2.mean_omega(),
        nint.mean_omega()
    );
    assert!(
        (vb2.mean_beta() - nint.mean_beta()).abs() / nint.mean_beta() < 0.02,
        "{} vs {}",
        vb2.mean_beta(),
        nint.mean_beta()
    );
    assert!(vb2.elbo() <= nint.log_evidence() + 1e-6);
}
