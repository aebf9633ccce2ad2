//! API-contract tests following the Rust API guidelines: thread-safety
//! of public types (C-SEND-SYNC), error-type behaviour (C-GOOD-ERR), and
//! failure-injection checks on the public construction paths.

use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_bayes::mcmc::McmcPosterior;
use nhpp_bayes::nint::NintPosterior;
use nhpp_data::{FailureTimeData, GroupedData};
use nhpp_models::{GammaNhpp, LogPosterior, PosteriorSummary};
use nhpp_vb::{Vb1Posterior, Vb2Posterior};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn public_types_are_send_and_sync() {
    // Posteriors can be fitted on worker threads and shared for reading.
    assert_send_sync::<Vb2Posterior>();
    assert_send_sync::<Vb1Posterior>();
    assert_send_sync::<LaplacePosterior>();
    assert_send_sync::<McmcPosterior>();
    assert_send_sync::<NintPosterior>();
    assert_send_sync::<GammaNhpp>();
    assert_send_sync::<FailureTimeData>();
    assert_send_sync::<GroupedData>();
    assert_send_sync::<PosteriorSummary>();
    assert_send_sync::<LogPosterior<'static>>();
    assert_send_sync::<nhpp_dist::Gamma>();
    assert_send_sync::<nhpp_dist::GammaProductMixture>();
    assert_send_sync::<nhpp_models::prediction::PredictiveCounts>();
}

#[test]
fn error_types_implement_error_send_sync() {
    assert_error::<nhpp_numeric::NumericError>();
    assert_error::<nhpp_dist::DistError>();
    assert_error::<nhpp_data::DataError>();
    assert_error::<nhpp_models::ModelError>();
    assert_error::<nhpp_bayes::BayesError>();
    assert_error::<nhpp_vb::VbError>();
}

#[test]
fn error_messages_are_lowercase_without_trailing_period() {
    // C-GOOD-ERR style: concise, lowercase, no trailing punctuation.
    let errors: Vec<String> = vec![
        nhpp_numeric::NumericError::NoBracket { fa: 1.0, fb: 2.0 }.to_string(),
        nhpp_dist::Gamma::new(-1.0, 1.0).unwrap_err().to_string(),
        FailureTimeData::new(vec![-1.0], 5.0)
            .unwrap_err()
            .to_string(),
        GroupedData::new(vec![], vec![]).unwrap_err().to_string(),
    ];
    for message in errors {
        assert!(!message.ends_with('.'), "trailing period: {message}");
        let first = message.chars().next().unwrap();
        assert!(
            first.is_lowercase() || !first.is_alphabetic(),
            "capitalised: {message}"
        );
    }
}

#[test]
fn fitting_with_nan_inputs_is_rejected_not_propagated() {
    // NaN must be stopped at the validation boundary, never silently
    // flowing into estimates.
    assert!(FailureTimeData::new(vec![f64::NAN], 10.0).is_err());
    assert!(FailureTimeData::new(vec![1.0], f64::NAN).is_err());
    assert!(GroupedData::new(vec![f64::NAN], vec![1]).is_err());
    assert!(nhpp_dist::Gamma::new(f64::NAN, 1.0).is_err());
    assert!(nhpp_dist::Gamma::from_mean_sd(1.0, f64::NAN).is_err());
    assert!(nhpp_models::ModelSpec::gamma_type(f64::NAN).is_err());
    assert!(GammaNhpp::new(nhpp_models::ModelSpec::goel_okumoto(), f64::NAN, 1.0).is_err());
}

#[test]
fn posterior_trait_objects_compose() {
    // Heterogeneous collections of methods (as the bench harness uses)
    // must be expressible through the object-safe trait.
    use nhpp_models::{prior::NhppPrior, ModelSpec, Posterior};
    let data = nhpp_data::sys17::failure_times().into();
    let spec = ModelSpec::goel_okumoto();
    let prior = NhppPrior::paper_info_times();
    let methods: Vec<Box<dyn Posterior>> = vec![
        Box::new(Vb2Posterior::fit(spec, prior, &data, nhpp_vb::Vb2Options::default()).unwrap()),
        Box::new(LaplacePosterior::fit(spec, prior, &data).unwrap()),
    ];
    for method in &methods {
        let summary = PosteriorSummary::compute(method.as_ref(), 0.99);
        assert!(summary.mean_omega > 0.0, "{}", method.method_name());
        assert!(summary.interval_omega.0 < summary.interval_omega.1);
    }
}

#[test]
fn debug_representations_are_never_empty() {
    // C-DEBUG-NONEMPTY.
    let g = nhpp_dist::Gamma::new(2.0, 1.0).unwrap();
    assert!(!format!("{g:?}").is_empty());
    let d = FailureTimeData::new(vec![], 1.0).unwrap();
    assert!(!format!("{d:?}").is_empty());
    let spec = nhpp_models::ModelSpec::goel_okumoto();
    assert!(format!("{spec:?}").contains("ModelSpec"));
}

#[test]
fn datasets_are_cloneable_and_comparable() {
    // C-COMMON-TRAITS on the data-structure types.
    let a = nhpp_data::sys17::failure_times();
    let b = a.clone();
    assert_eq!(a, b);
    let g = nhpp_data::sys17::grouped();
    assert_eq!(g, g.clone());
}
