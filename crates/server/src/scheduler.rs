//! The fit scheduler: a per-project posterior cache with request
//! coalescing, warm-started refits, and a batch flush path.
//!
//! # Coalescing
//!
//! Every project carries a [`FitSlot`] (guarded by a mutex + condvar on
//! the project). A query needing the posterior calls [`ensure_fit`]:
//!
//! * cache hit — the slot already holds a result for the current data
//!   version: return it, no work;
//! * join — a fit for that version (or any other) is in flight: wait on
//!   the condvar and return the result the fitting thread publishes.
//!   Joining an identical-version fit is counted as a *coalesce*: of N
//!   concurrent queries against a stale posterior, exactly one runs the
//!   cascade and N−1 piggyback;
//! * claim — otherwise mark the version in flight, drop the lock, run
//!   [`nhpp_vb::fit_supervised_warm`] (warm-started from the previous
//!   cached posterior's `ξ` table when one exists), publish, notify.
//!
//! Failures are cached too, keyed by the same version: a dataset whose
//! fit just failed is not re-fit on every poll, only after new data
//! arrives. The [`FitFailure`] keeps its report, so error responses can
//! state budget exhaustion and the tier reached.
//!
//! # Flush tick
//!
//! [`flush_stale`] batch-refits every stale idle project through one
//! [`nhpp_vb::fit_many_supervised_warm`] pool — the background path that
//! keeps posteriors warm between queries when events stream in faster
//! than anyone asks questions.

use crate::metrics::Metrics;
use crate::registry::{Project, Registry, RegistryError};
use nhpp_vb::robust::{RobustTask, WarmRobustTask};
use nhpp_vb::{
    fit_many_supervised_warm, fit_supervised_warm, FitFailure, RobustFit, RobustOptions,
    RobustPosterior, Truncation, Vb2WarmStart,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Fit execution settings shared by the query and flush paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitSettings {
    /// Supervised-pipeline options (retry ladder, fallback policy).
    pub options: RobustOptions,
    /// Worker threads for batch refits (`0` = available parallelism).
    pub threads: usize,
    /// Per-request fit deadline: threaded into the cascade as
    /// [`RobustOptions::total_deadline`] and bounding how long a query
    /// waits on someone else's in-flight fit. `None` = unbounded.
    pub deadline: Option<Duration>,
}

/// A cached successful fit.
#[derive(Debug)]
pub struct CachedFit {
    /// Data version the fit was computed at.
    pub version: u64,
    /// Observation end of the fitted data: the `t` that windowed
    /// queries on this posterior start from, whatever arrived since.
    pub observation_end: f64,
    /// The supervised fit (posterior + provenance report).
    pub fit: RobustFit,
    /// Warm-start table extracted from the posterior (VB2 only), used
    /// to seed the *next* refit.
    pub warm: Option<Vb2WarmStart>,
    /// Whether this fit itself was warm-started.
    pub warm_started: bool,
}

/// Shared outcome of a fit, recorded per data version.
pub type FitOutcome = Result<Arc<CachedFit>, Arc<FitFailure>>;

/// Per-project fit cache and in-flight marker.
#[derive(Debug, Default)]
pub struct FitSlot {
    /// The most recent outcome and the version it belongs to.
    pub last: Option<(u64, FitOutcome)>,
    /// Data version currently being fit, if any.
    pub in_flight: Option<u64>,
    /// Version whose posterior the LRU evicted: the flush tick must not
    /// resurrect it (that would defeat the memory bound), but a direct
    /// query refits on demand.
    pub evicted: Option<u64>,
}

impl FitSlot {
    /// The warm-start table of the last successful fit, if any.
    fn warm_table(&self) -> Option<Vb2WarmStart> {
        match &self.last {
            Some((_, Ok(cached))) => cached.warm.clone(),
            _ => None,
        }
    }
}

/// Errors from [`ensure_fit`].
#[derive(Debug)]
pub enum FitServeError {
    /// The project data could not be snapshotted (no data yet, or an
    /// internal invariant failure).
    Registry(RegistryError),
    /// The supervised cascade failed; the report travels along.
    Fit(Arc<FitFailure>),
    /// The request's fit deadline passed while waiting on someone
    /// else's in-flight fit (HTTP 503 + `Retry-After`).
    DeadlineExceeded,
}

/// Per-project options: the request deadline, and the truncation the
/// project's prior calls for ([`Truncation::for_prior`], the policy the
/// batch CLI uses too).
fn tuned_options(
    settings: &FitSettings,
    prior: &nhpp_models::prior::NhppPrior,
    data: &nhpp_data::ObservedData,
) -> RobustOptions {
    let mut options = settings.options;
    options.total_deadline = settings.deadline;
    options.base.truncation = Truncation::for_prior(prior, data.total_count() as u64);
    options
}

/// Builds the cache entry for a finished fit and updates fit metrics.
fn publish_outcome(
    version: u64,
    observation_end: f64,
    result: Result<RobustFit, FitFailure>,
    warm_started: bool,
    metrics: &Metrics,
) -> FitOutcome {
    metrics.fits_total.fetch_add(1, Ordering::Relaxed);
    if warm_started {
        metrics.fits_warm.fetch_add(1, Ordering::Relaxed);
    }
    match result {
        Ok(fit) => {
            if fit.report.budget_exhausted() {
                metrics.budget_exhaustions.fetch_add(1, Ordering::Relaxed);
            }
            if fit.report.fallback_tier().is_some() {
                metrics.fallback_fits.fetch_add(1, Ordering::Relaxed);
            }
            let (warm, iterations) = match &fit.posterior {
                RobustPosterior::Vb2(p) => (Some(p.warm_start()), p.inner_iterations() as u64),
                _ => (None, 0),
            };
            metrics
                .refit_inner_iterations
                .fetch_add(iterations, Ordering::Relaxed);
            Ok(Arc::new(CachedFit {
                version,
                observation_end,
                fit,
                warm,
                warm_started,
            }))
        }
        Err(failure) => {
            metrics.fit_errors.fetch_add(1, Ordering::Relaxed);
            if failure.report.budget_exhausted() {
                metrics.budget_exhaustions.fetch_add(1, Ordering::Relaxed);
            }
            Err(Arc::new(failure))
        }
    }
}

/// Returns the posterior for the project's *current* data version,
/// fitting at most once per version across any number of concurrent
/// callers (see the module docs). When [`FitSettings::deadline`] is
/// set it bounds both the cascade itself and the time spent waiting on
/// an in-flight fit.
///
/// # Errors
///
/// [`FitServeError`] — no data yet, the cascade failed, or the
/// deadline passed while waiting.
pub fn ensure_fit(
    project: &Project,
    settings: &FitSettings,
    metrics: &Metrics,
) -> Result<Arc<CachedFit>, FitServeError> {
    // The version is read first, in O(1): only a miss copies the history,
    // and neither read holds the state lock while the slot lock is held.
    let mut version = project.version();
    let mut snapshot = None;
    let deadline_at = settings.deadline.map(|d| Instant::now() + d);

    let mut slot = project.fit.lock().expect("fit slot poisoned");
    // A caller is counted once: as a cache hit *or* as a coalesced
    // join, never both. Without the flag, a waiter that joined an
    // in-flight fit would re-enter the loop after waking and also take
    // the cache-hit branch, double-counting itself.
    let mut coalesced = false;
    let warm = loop {
        if let Some((v, outcome)) = &slot.last {
            if *v == version {
                if outcome.is_ok() && !coalesced {
                    metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                return outcome.clone().map_err(FitServeError::Fit);
            }
        }
        if snapshot.is_none() {
            // A miss: copy the history with the slot unlocked, then
            // re-check at the copy's version, which may be newer than the
            // one read above. A fit claimed later fits this copy, so the
            // answer is for the version current when the miss was seen.
            drop(slot);
            let (v, data, spec, prior) = project.snapshot().map_err(FitServeError::Registry)?;
            version = v;
            snapshot = Some((data, spec, prior));
            slot = project.fit.lock().expect("fit slot poisoned");
            continue;
        }
        match slot.in_flight {
            Some(v) => {
                if v == version && !coalesced {
                    coalesced = true;
                    metrics.fits_coalesced.fetch_add(1, Ordering::Relaxed);
                }
                slot = match deadline_at {
                    None => project.fit_ready.wait(slot).expect("fit slot poisoned"),
                    Some(at) => {
                        let remaining = at.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return Err(FitServeError::DeadlineExceeded);
                        }
                        let (slot, timeout) = project
                            .fit_ready
                            .wait_timeout(slot, remaining)
                            .expect("fit slot poisoned");
                        if timeout.timed_out() && slot.in_flight.is_some() {
                            return Err(FitServeError::DeadlineExceeded);
                        }
                        slot
                    }
                };
                // Re-check from the top: the finished fit may or may
                // not be for our version.
            }
            None => {
                slot.in_flight = Some(version);
                break slot.warm_table();
            }
        }
    };
    drop(slot);
    let (data, spec, prior) = snapshot.expect("a fit is claimed only after a snapshot");

    let mut options = tuned_options(settings, &prior, &data);
    options.base.threads = settings.threads;
    let warm_started = warm.is_some();
    let result = fit_supervised_warm(spec, prior, &data, options, warm.as_ref());
    let outcome = publish_outcome(
        version,
        data.observation_end(),
        result,
        warm_started,
        metrics,
    );

    let mut slot = project.fit.lock().expect("fit slot poisoned");
    slot.in_flight = None;
    slot.last = Some((version, outcome.clone()));
    slot.evicted = None;
    project.fit_ready.notify_all();
    drop(slot);

    outcome.map_err(FitServeError::Fit)
}

/// A registry-wide LRU bound on *cached posteriors*: each project's
/// [`FitSlot`] holds at most one posterior, so bounding the number of
/// slots that hold one bounds the service's posterior memory. Queries
/// [`FitCache::touch`] their project after [`ensure_fit`]; once more
/// than `capacity` projects hold posteriors, the least recently touched
/// one is dropped (its slot keeps the evicted version so the flush tick
/// does not immediately resurrect it — only a direct query does).
#[derive(Debug)]
pub struct FitCache {
    capacity: usize,
    inner: Mutex<FitCacheState>,
}

#[derive(Debug, Default)]
struct FitCacheState {
    tick: u64,
    entries: BTreeMap<String, (u64, Weak<Project>)>,
}

impl FitCache {
    /// A cache evicting beyond `capacity` posteriors (`0` = unbounded).
    pub fn new(capacity: usize) -> FitCache {
        FitCache {
            capacity,
            inner: Mutex::new(FitCacheState::default()),
        }
    }

    /// Records a use of `project`'s posterior and evicts the least
    /// recently used ones while over capacity. A project whose fit is
    /// in flight is skipped (its memory is live on a fitting thread);
    /// it re-enters the cache on its next touch.
    pub fn touch(&self, project: &Arc<Project>, metrics: &Metrics) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("fit cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner
            .entries
            .insert(project.id().to_string(), (tick, Arc::downgrade(project)));
        while inner.entries.len() > self.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(id, (_, weak))| (id.clone(), weak.clone()))
                .expect("entries nonempty while over capacity");
            inner.entries.remove(&oldest.0);
            if let Some(project) = oldest.1.upgrade() {
                evict_posterior(&project, metrics);
            }
        }
    }

    /// Number of projects currently tracked as holding a posterior.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("fit cache poisoned").entries.len()
    }

    /// Whether the cache tracks no posteriors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Drops a project's cached posterior (LRU eviction). Returns whether
/// anything was evicted.
fn evict_posterior(project: &Project, metrics: &Metrics) -> bool {
    let mut slot = project.fit.lock().expect("fit slot poisoned");
    if slot.in_flight.is_some() {
        return false;
    }
    match slot.last.take() {
        Some((version, outcome)) => {
            if outcome.is_ok() {
                metrics.posteriors_evicted.fetch_add(1, Ordering::Relaxed);
            }
            slot.evicted = Some(version);
            true
        }
        None => false,
    }
}

/// The last successfully cached fit, at whatever version it was
/// computed, without ever fitting. Two callers use it: introspection
/// (`GET /projects/{id}`), and read paths that deliberately tolerate a
/// posterior a version behind — the SPC status check and the monitor's
/// per-event chart scoring, where the control limits are *supposed* to
/// come from the fit before the events under test (and a refit storm
/// per status poll would defeat the coalescing scheduler). Interval,
/// band and prediction queries still always go through [`ensure_fit`].
pub fn cached_fit(project: &Project) -> Option<Arc<CachedFit>> {
    let slot = project.fit.lock().expect("fit slot poisoned");
    match &slot.last {
        Some((_, Ok(cached))) => Some(cached.clone()),
        _ => None,
    }
}

/// One pass of the flush tick: claims every stale idle project, refits
/// them as a single [`fit_many_supervised_warm`] batch, publishes the
/// results, and wakes any waiters. Returns the number of refits run.
pub fn flush_stale(registry: &Registry, settings: &FitSettings, metrics: &Metrics) -> usize {
    metrics.flush_ticks.fetch_add(1, Ordering::Relaxed);

    // Claim phase: under each project's slot lock, mark the current
    // version in flight when the cache is stale and nothing is running.
    struct Claim {
        project: Arc<Project>,
        version: u64,
        data: nhpp_data::ObservedData,
        spec: nhpp_models::ModelSpec,
        prior: nhpp_models::prior::NhppPrior,
        warm: Option<Vb2WarmStart>,
    }
    // Whether the slot wants a background refit at `version`: nothing in
    // flight, not cached, and not evicted. The LRU dropped an evicted
    // posterior to stay under the memory bound; refitting it from the
    // background tick would undo the eviction. A direct query still
    // refits on demand.
    let wants_refit = |slot: &FitSlot, version: u64| {
        slot.in_flight.is_none()
            && !matches!(&slot.last, Some((v, _)) if *v == version)
            && slot.evicted != Some(version)
    };
    let mut claims: Vec<Claim> = Vec::new();
    for project in registry.all() {
        // The O(1) version decides first, so an idle project is not
        // copied; the copy's own version is then checked again.
        let version = project.version();
        if !wants_refit(&project.fit.lock().expect("fit slot poisoned"), version) {
            continue;
        }
        let Ok((version, data, spec, prior)) = project.snapshot() else {
            continue;
        };
        let mut slot = project.fit.lock().expect("fit slot poisoned");
        if !wants_refit(&slot, version) {
            continue;
        }
        slot.in_flight = Some(version);
        let warm = slot.warm_table();
        drop(slot);
        claims.push(Claim {
            project,
            version,
            data,
            spec,
            prior,
            warm,
        });
    }
    if claims.is_empty() {
        return 0;
    }

    // Fit phase: one pool over all claimed projects.
    let tasks: Vec<WarmRobustTask<'_>> = claims
        .iter()
        .map(|c| {
            let mut options = tuned_options(settings, &c.prior, &c.data);
            options.base.threads = 1;
            WarmRobustTask {
                task: RobustTask {
                    spec: c.spec,
                    prior: c.prior,
                    data: &c.data,
                    options,
                },
                warm: c.warm.as_ref(),
            }
        })
        .collect();
    let results = fit_many_supervised_warm(&tasks, settings.threads);

    // Publish phase.
    let refits = results.len();
    for (claim, result) in claims.into_iter().zip(results) {
        let outcome = publish_outcome(
            claim.version,
            claim.data.observation_end(),
            result,
            claim.warm.is_some(),
            metrics,
        );
        let mut slot = claim.project.fit.lock().expect("fit slot poisoned");
        slot.in_flight = None;
        slot.last = Some((claim.version, outcome));
        slot.evicted = None;
        claim.project.fit_ready.notify_all();
    }
    refits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ProjectConfig;
    use nhpp_data::sys17;
    use nhpp_models::Posterior;

    fn registry_with_sys17() -> Registry {
        let registry = Registry::open(None).unwrap();
        let config = ProjectConfig::from_labels("times", "go", "paper-info-times").unwrap();
        registry.create("sys17", config).unwrap();
        let project = registry.get("sys17").unwrap();
        let mut batch = format!("# t_end={}\n", sys17::T_END);
        for t in sys17::FAILURE_TIMES {
            batch.push_str(&format!("{t}\n"));
        }
        project.ingest(&batch).unwrap();
        registry
    }

    fn load(m: &std::sync::atomic::AtomicU64) -> u64 {
        m.load(Ordering::Relaxed)
    }

    #[test]
    fn concurrent_queries_coalesce_into_exactly_one_fit() {
        let registry = registry_with_sys17();
        let project = registry.get("sys17").unwrap();
        let settings = FitSettings::default();
        let metrics = Metrics::new();

        const QUERIES: usize = 64;
        let means: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..QUERIES)
                .map(|_| {
                    scope.spawn(|| {
                        ensure_fit(&project, &settings, &metrics)
                            .expect("fit succeeds")
                            .fit
                            .posterior
                            .mean_omega()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(load(&metrics.fits_total), 1, "exactly one refit ran");
        assert_eq!(
            load(&metrics.fits_coalesced) + load(&metrics.cache_hits),
            (QUERIES - 1) as u64,
            "everyone else joined or hit the cache"
        );
        assert!(means.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn refit_after_new_events_is_warm_started() {
        let registry = registry_with_sys17();
        let project = registry.get("sys17").unwrap();
        let settings = FitSettings::default();
        let metrics = Metrics::new();

        let first = ensure_fit(&project, &settings, &metrics).unwrap();
        assert!(!first.warm_started);
        assert!(first.warm.is_some(), "VB2 fit exports a warm table");

        project
            .ingest(&format!("# t_end={}\n", sys17::T_END + 1000.0))
            .unwrap();
        let second = ensure_fit(&project, &settings, &metrics).unwrap();
        assert!(second.warm_started, "refit used the previous fit's table");
        assert_eq!(load(&metrics.fits_total), 2);
        assert_eq!(load(&metrics.fits_warm), 1);

        // Same version again: pure cache hit.
        let third = ensure_fit(&project, &settings, &metrics).unwrap();
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!(load(&metrics.fits_total), 2);
        assert_eq!(load(&metrics.cache_hits), 1);
    }

    #[test]
    fn flush_tick_batch_refits_stale_projects_only() {
        let registry = registry_with_sys17();
        let config = ProjectConfig::from_labels("grouped", "go", "paper-info-grouped").unwrap();
        registry.create("daily", config).unwrap();
        let daily = registry.get("daily").unwrap();
        let mut batch = String::new();
        for (i, c) in sys17::DAILY_COUNTS.iter().enumerate() {
            batch.push_str(&format!("{},{c}\n", i + 1));
        }
        daily.ingest(&batch).unwrap();

        let settings = FitSettings::default();
        let metrics = Metrics::new();
        assert_eq!(flush_stale(&registry, &settings, &metrics), 2);
        assert_eq!(load(&metrics.fits_total), 2);
        // Nothing stale: the next tick is a no-op.
        assert_eq!(flush_stale(&registry, &settings, &metrics), 0);
        assert_eq!(load(&metrics.fits_total), 2);

        // New data on one project: only that one refits, warm.
        registry
            .get("sys17")
            .unwrap()
            .ingest(&format!("# t_end={}\n", sys17::T_END + 500.0))
            .unwrap();
        assert_eq!(flush_stale(&registry, &settings, &metrics), 1);
        assert_eq!(load(&metrics.fits_total), 3);
        assert_eq!(load(&metrics.fits_warm), 1);

        // Queries after the flush are pure cache hits.
        let cached = ensure_fit(&registry.get("sys17").unwrap(), &settings, &metrics).unwrap();
        assert!(cached.warm_started);
        assert_eq!(load(&metrics.fits_total), 3);
    }

    #[test]
    fn lru_evicts_oldest_posterior_and_flush_respects_it() {
        let registry = registry_with_sys17();
        // Three more small projects (cheap grouped fits).
        for id in ["a", "b", "c"] {
            let config = ProjectConfig::from_labels("grouped", "go", "paper-info-grouped").unwrap();
            registry.create(id, config).unwrap();
            let p = registry.get(id).unwrap();
            let mut batch = String::new();
            for (i, c) in sys17::DAILY_COUNTS.iter().enumerate() {
                batch.push_str(&format!("{},{c}\n", i + 1));
            }
            p.ingest(&batch).unwrap();
        }
        let settings = FitSettings::default();
        let metrics = Metrics::new();
        let cache = FitCache::new(2);

        for id in ["sys17", "a", "b"] {
            let p = registry.get(id).unwrap();
            ensure_fit(&p, &settings, &metrics).unwrap();
            cache.touch(&p, &metrics);
        }
        // Capacity 2: touching the third project evicted the first.
        assert_eq!(cache.len(), 2);
        assert_eq!(load(&metrics.posteriors_evicted), 1);
        assert!(
            cached_fit(&registry.get("sys17").unwrap()).is_none(),
            "sys17 was the LRU entry"
        );
        assert!(cached_fit(&registry.get("a").unwrap()).is_some());

        // The flush tick does not resurrect the evicted posterior...
        assert_eq!(flush_stale(&registry, &settings, &metrics), 1, "only 'c'");
        assert!(cached_fit(&registry.get("sys17").unwrap()).is_none());

        // ...but a direct query does, and the eviction marker clears.
        let p = registry.get("sys17").unwrap();
        ensure_fit(&p, &settings, &metrics).unwrap();
        assert!(cached_fit(&p).is_some());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let registry = registry_with_sys17();
        let p = registry.get("sys17").unwrap();
        let settings = FitSettings::default();
        let metrics = Metrics::new();
        let cache = FitCache::new(0);
        ensure_fit(&p, &settings, &metrics).unwrap();
        cache.touch(&p, &metrics);
        assert!(cache.is_empty(), "capacity 0 tracks nothing");
        assert_eq!(load(&metrics.posteriors_evicted), 0);
        assert!(cached_fit(&p).is_some());
    }

    #[test]
    fn fit_deadline_threads_into_the_cascade() {
        let registry = registry_with_sys17();
        let project = registry.get("sys17").unwrap();
        // A spent deadline: the cascade fails fast with a budget
        // classification instead of running anything.
        let settings = FitSettings {
            deadline: Some(std::time::Duration::ZERO),
            ..FitSettings::default()
        };
        let metrics = Metrics::new();
        match ensure_fit(&project, &settings, &metrics) {
            Err(FitServeError::Fit(failure)) => {
                assert!(failure.report.budget_exhausted());
            }
            other => panic!("expected budget-exhausted failure, got {other:?}"),
        }
        assert_eq!(load(&metrics.budget_exhaustions), 1);

        // A generous deadline fits normally.
        let settings = FitSettings {
            deadline: Some(std::time::Duration::from_secs(600)),
            ..FitSettings::default()
        };
        // New data so the cached failure does not short-circuit.
        project
            .ingest(&format!("# t_end={}\n", sys17::T_END + 100.0))
            .unwrap();
        ensure_fit(&project, &settings, &metrics).unwrap();
    }

    #[test]
    fn waiters_time_out_when_an_in_flight_fit_outlives_the_deadline() {
        let registry = registry_with_sys17();
        let project = registry.get("sys17").unwrap();
        // Mark a fit in flight by hand and never publish it: a waiter
        // with a deadline must give up instead of blocking forever.
        project.fit.lock().unwrap().in_flight = Some(project.version());
        let settings = FitSettings {
            deadline: Some(std::time::Duration::from_millis(50)),
            ..FitSettings::default()
        };
        let metrics = Metrics::new();
        let started = std::time::Instant::now();
        match ensure_fit(&project, &settings, &metrics) {
            Err(FitServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        project.fit.lock().unwrap().in_flight = None;
    }

    #[test]
    fn failures_are_cached_per_version() {
        let registry = registry_with_sys17();
        let project = registry.get("sys17").unwrap();
        // An impossible budget with no fallback: the cascade must fail.
        let mut options = RobustOptions::strict();
        options.base.total_budget = Some(1);
        options.retry.max_attempts = 1;
        let settings = FitSettings {
            options,
            threads: 1,
            deadline: None,
        };
        let metrics = Metrics::new();

        let err = ensure_fit(&project, &settings, &metrics);
        assert!(matches!(err, Err(FitServeError::Fit(_))));
        assert_eq!(load(&metrics.fits_total), 1);
        assert_eq!(load(&metrics.fit_errors), 1);
        assert_eq!(load(&metrics.budget_exhaustions), 1);

        // Same version: the cached failure is returned, no refit storm.
        let err2 = ensure_fit(&project, &settings, &metrics);
        match err2 {
            Err(FitServeError::Fit(failure)) => {
                assert!(failure.report.budget_exhausted());
            }
            other => panic!("expected cached failure, got {other:?}"),
        }
        assert_eq!(
            load(&metrics.fits_total),
            1,
            "failure was served from cache"
        );
    }
}
