//! Cross-method agreement — the claims of the paper's Table 1 (moments),
//! Tables 2–3 (credible intervals) and Tables 4–5 (reliability), checked
//! as invariants on the System 17 surrogate data.
//!
//! The load-bearing assertions mirror the paper's findings:
//!
//! * NINT, MCMC and VB2 agree closely (NINT is the reference);
//! * LAPL is biased low in `E[ω]` (MAP < mean for right-skewed posteriors)
//!   and its intervals are left-shifted;
//! * VB1 has exactly zero covariance and underestimates variances, so its
//!   intervals (and reliability intervals) are too narrow.

use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_bayes::mcmc::{McmcOptions, McmcPosterior};
use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_data::{sys17, ObservedData};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_vb::{Vb1Options, Vb1Posterior, Vb2Options, Vb2Posterior};

struct Case {
    name: &'static str,
    data: ObservedData,
    prior: NhppPrior,
    /// Reliability horizons (t_e, u) probed in Tables 4–5.
    missions: [f64; 2],
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "DT-Info",
            data: sys17::failure_times().into(),
            prior: NhppPrior::paper_info_times(),
            missions: [1_000.0, 10_000.0],
        },
        Case {
            name: "DG-Info",
            data: sys17::grouped().into(),
            prior: NhppPrior::paper_info_grouped(),
            missions: [1.0, 5.0],
        },
    ]
}

struct Fits {
    nint: NintPosterior,
    lapl: LaplacePosterior,
    mcmc: McmcPosterior,
    vb1: Vb1Posterior,
    vb2: Vb2Posterior,
}

fn fit_all(case: &Case) -> Fits {
    let spec = ModelSpec::goel_okumoto();
    let vb2 = Vb2Posterior::fit(spec, case.prior, &case.data, Vb2Options::default()).unwrap();
    let vb1 = Vb1Posterior::fit(spec, case.prior, &case.data, Vb1Options::default()).unwrap();
    let lapl = LaplacePosterior::fit(spec, case.prior, &case.data).unwrap();
    let nint = NintPosterior::fit(
        spec,
        case.prior,
        &case.data,
        bounds_from_posterior(&vb2),
        NintOptions::default(),
    )
    .unwrap();
    let mcmc =
        McmcPosterior::fit_gibbs(spec, case.prior, &case.data, McmcOptions::default()).unwrap();
    Fits {
        nint,
        lapl,
        mcmc,
        vb1,
        vb2,
    }
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

#[test]
fn table1_moment_structure_holds() {
    for case in cases() {
        let f = fit_all(&case);
        let name = case.name;

        // VB2 tracks NINT closely on first and second moments.
        assert!(
            rel(f.vb2.mean_omega(), f.nint.mean_omega()) < 0.01,
            "{name}: E[w]"
        );
        assert!(
            rel(f.vb2.mean_beta(), f.nint.mean_beta()) < 0.01,
            "{name}: E[b]"
        );
        assert!(
            rel(f.vb2.var_omega(), f.nint.var_omega()) < 0.03,
            "{name}: Var(w)"
        );
        assert!(
            rel(f.vb2.var_beta(), f.nint.var_beta()) < 0.06,
            "{name}: Var(b)"
        );
        assert!(
            rel(f.vb2.covariance(), f.nint.covariance()) < 0.06,
            "{name}: Cov"
        );

        // MCMC also tracks NINT (stochastic tolerance, fixed seed).
        assert!(
            rel(f.mcmc.mean_omega(), f.nint.mean_omega()) < 0.01,
            "{name}: mcmc E[w]"
        );
        assert!(
            rel(f.mcmc.var_omega(), f.nint.var_omega()) < 0.05,
            "{name}: mcmc Var(w)"
        );

        // LAPL is biased low in E[ω] (MAP below mean under right skew).
        assert!(
            f.lapl.mean_omega() < f.nint.mean_omega(),
            "{name}: LAPL bias"
        );

        // VB1: zero covariance, underestimated variances.
        assert_eq!(f.vb1.covariance(), 0.0, "{name}: VB1 cov");
        assert!(
            f.vb1.var_omega() < 0.9 * f.nint.var_omega(),
            "{name}: VB1 Var(w)"
        );
        assert!(
            f.vb1.var_beta() < 0.7 * f.nint.var_beta(),
            "{name}: VB1 Var(b)"
        );

        // Third central moment of ω: VB2 matches NINT sign and scale
        // (the paper quotes <1% deviations; allow a loose band).
        let m3_ref = f.nint.central_moment_omega(3);
        let m3_vb2 = f.vb2.central_moment_omega(3);
        assert!(m3_ref > 0.0, "{name}: right skew expected");
        assert!(
            rel(m3_vb2, m3_ref) < 0.15,
            "{name}: m3 {m3_vb2} vs {m3_ref}"
        );
        // LAPL structurally cannot represent skew.
        assert_eq!(f.lapl.central_moment_omega(3), 0.0);
    }
}

#[test]
fn tables2_and_3_interval_structure_holds() {
    for case in cases() {
        let f = fit_all(&case);
        let name = case.name;
        let level = 0.99;

        let (n_lo, n_hi) = f.nint.credible_interval_omega(level);
        let (v_lo, v_hi) = f.vb2.credible_interval_omega(level);
        assert!(
            rel(v_lo, n_lo) < 0.02,
            "{name}: omega lower {v_lo} vs {n_lo}"
        );
        assert!(
            rel(v_hi, n_hi) < 0.02,
            "{name}: omega upper {v_hi} vs {n_hi}"
        );

        let (nb_lo, nb_hi) = f.nint.credible_interval_beta(level);
        let (vb_lo, vb_hi) = f.vb2.credible_interval_beta(level);
        assert!(
            rel(vb_lo, nb_lo) < 0.08,
            "{name}: beta lower {vb_lo} vs {nb_lo}"
        );
        assert!(
            rel(vb_hi, nb_hi) < 0.05,
            "{name}: beta upper {vb_hi} vs {nb_hi}"
        );

        // MCMC intervals track NINT too.
        let (m_lo, m_hi) = f.mcmc.credible_interval_omega(level);
        assert!(
            rel(m_lo, n_lo) < 0.03 && rel(m_hi, n_hi) < 0.03,
            "{name}: mcmc interval"
        );

        // LAPL intervals are left-shifted relative to NINT.
        let (l_lo, l_hi) = f.lapl.credible_interval_omega(level);
        assert!(l_lo < n_lo && l_hi < n_hi, "{name}: LAPL shift");

        // VB1 intervals are too narrow.
        let (v1_lo, v1_hi) = f.vb1.credible_interval_omega(level);
        assert!(v1_hi - v1_lo < n_hi - n_lo, "{name}: VB1 narrowness");
        let (v1b_lo, v1b_hi) = f.vb1.credible_interval_beta(level);
        assert!(
            v1b_hi - v1b_lo < (nb_hi - nb_lo) * 0.8,
            "{name}: VB1 beta narrowness"
        );
    }
}

#[test]
fn tables4_and_5_reliability_structure_holds() {
    for case in cases() {
        let f = fit_all(&case);
        let name = case.name;
        let t = case.data.observation_end();

        for u in case.missions {
            let r_nint = f.nint.reliability_point(t, u);
            let r_vb2 = f.vb2.reliability_point(t, u);
            let r_mcmc = f.mcmc.reliability_point(t, u);
            assert!(
                (r_vb2 - r_nint).abs() < 0.01,
                "{name} u={u}: VB2 point {r_vb2} vs {r_nint}"
            );
            assert!(
                (r_mcmc - r_nint).abs() < 0.01,
                "{name} u={u}: MCMC point {r_mcmc} vs {r_nint}"
            );

            let (n_lo, n_hi) = f.nint.reliability_interval(t, u, 0.99);
            let (v_lo, v_hi) = f.vb2.reliability_interval(t, u, 0.99);
            assert!(
                (v_lo - n_lo).abs() < 0.02,
                "{name} u={u}: lower {v_lo} vs {n_lo}"
            );
            assert!(
                (v_hi - n_hi).abs() < 0.02,
                "{name} u={u}: upper {v_hi} vs {n_hi}"
            );

            // VB1's reliability interval is too narrow.
            let (v1_lo, v1_hi) = f.vb1.reliability_interval(t, u, 0.99);
            assert!(
                v1_hi - v1_lo < (n_hi - n_lo) + 1e-9,
                "{name} u={u}: VB1 ({v1_lo},{v1_hi}) vs NINT ({n_lo},{n_hi})"
            );
        }
    }
}

#[test]
fn figure1_density_orderings() {
    // The joint densities that Figure 1 plots: VB2 and NINT should assign
    // similar (normalised) density at the NINT mean, while VB1's density
    // there differs visibly because it cannot tilt along the correlation
    // direction.
    let case = &cases()[1]; // DG-Info, the case Figure 1 shows
    let f = fit_all(case);
    let (mw, mb) = (f.nint.mean_omega(), f.nint.mean_beta());
    let d_nint = f.nint.ln_joint_density(mw, mb).unwrap();
    let d_vb2 = f.vb2.ln_joint_density(mw, mb).unwrap();
    assert!((d_nint - d_vb2).abs() < 0.1, "{d_nint} vs {d_vb2}");
    // Off-diagonal probe along the negative-correlation direction: the
    // true posterior prefers (ω+δ, β−δ') over (ω+δ, β+δ'); VB1 cannot
    // distinguish them.
    let dw = f.nint.var_omega().sqrt();
    let db = f.nint.var_beta().sqrt();
    // Separability test: for a product density the "interaction"
    // ln p(w⁺,b⁺) + ln p(w⁻,b⁻) − ln p(w⁺,b⁻) − ln p(w⁻,b⁺) vanishes;
    // for the true (negatively correlated) posterior it is negative.
    let interaction = |p: &dyn Posterior| {
        p.ln_joint_density(mw + dw, mb + db).unwrap()
            + p.ln_joint_density(mw - dw, mb - db).unwrap()
            - p.ln_joint_density(mw + dw, mb - db).unwrap()
            - p.ln_joint_density(mw - dw, mb + db).unwrap()
    };
    assert!(
        interaction(&f.nint) < -0.1,
        "NINT interaction {}",
        interaction(&f.nint)
    );
    assert!(
        interaction(&f.vb2) < -0.1,
        "VB2 interaction {}",
        interaction(&f.vb2)
    );
    assert!(interaction(&f.vb1).abs() < 1e-9, "VB1 is separable");
}

#[test]
fn noinfo_times_methods_still_roughly_agree() {
    // DT-NoInfo: the paper reports NINT/MCMC/VB2 within a few percent
    // even with flat priors (the impropriety is only logarithmic).
    let spec = ModelSpec::goel_okumoto();
    let data: ObservedData = sys17::failure_times().into();
    let prior = NhppPrior::flat();
    let vb2 = Vb2Posterior::fit(
        spec,
        prior,
        &data,
        Vb2Options {
            truncation: nhpp_vb::Truncation::AdaptiveCapped {
                epsilon: 5e-15,
                cap: 2_000,
            },
            ..Vb2Options::default()
        },
    )
    .unwrap();
    let mcmc = McmcPosterior::fit_gibbs(spec, prior, &data, McmcOptions::default()).unwrap();
    let nint = NintPosterior::fit(
        spec,
        prior,
        &data,
        bounds_from_posterior(&vb2),
        NintOptions::default(),
    )
    .unwrap();
    assert!(
        rel(vb2.mean_omega(), nint.mean_omega()) < 0.05,
        "{} vs {}",
        vb2.mean_omega(),
        nint.mean_omega()
    );
    assert!(
        rel(mcmc.mean_omega(), nint.mean_omega()) < 0.08,
        "{} vs {}",
        mcmc.mean_omega(),
        nint.mean_omega()
    );
    // NoInfo variances exceed the Info ones (less information).
    let info = Vb2Posterior::fit(
        spec,
        NhppPrior::paper_info_times(),
        &data,
        Vb2Options::default(),
    )
    .unwrap();
    assert!(vb2.var_omega() > info.var_omega());
    assert!(vb2.var_beta() > info.var_beta());
}
