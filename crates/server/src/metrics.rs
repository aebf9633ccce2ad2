//! Service observability: lock-free counters and a fixed-bucket request
//! latency histogram, rendered in the Prometheus text exposition format.
//!
//! Everything is a relaxed `AtomicU64` — the numbers are monitoring
//! signals, not synchronisation, and the scrape path must never contend
//! with the serving path. The histogram keeps latency in microseconds
//! internally (an integer, so it can live in an atomic) and exposes
//! millisecond bucket labels.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds of the latency buckets, in milliseconds. The last
/// bucket is implicit `+Inf`.
pub const LATENCY_BUCKETS_MS: [f64; 10] =
    [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0];

/// All service counters. One instance lives in the shared
/// [`crate::AppState`] for the whole life of the process.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests answered with a 2xx status.
    pub requests_2xx: AtomicU64,
    /// Requests answered with a 4xx status.
    pub requests_4xx: AtomicU64,
    /// Requests answered with a 5xx status.
    pub requests_5xx: AtomicU64,
    /// Failure events accepted into project logs.
    pub events_ingested: AtomicU64,
    /// Supervised fits actually executed (cold or warm).
    pub fits_total: AtomicU64,
    /// Fits that were warm-started from a previous posterior.
    pub fits_warm: AtomicU64,
    /// Queries that piggybacked on an already in-flight fit of the same
    /// data version instead of starting their own.
    pub fits_coalesced: AtomicU64,
    /// Queries answered straight from the cached posterior.
    pub cache_hits: AtomicU64,
    /// Fits whose cascade surfaced an error.
    pub fit_errors: AtomicU64,
    /// Fits in which some attempt exhausted its solve budget.
    pub budget_exhaustions: AtomicU64,
    /// Fits whose result came from a fallback tier (VB1/Laplace).
    pub fallback_fits: AtomicU64,
    /// Inner fixed-point iterations spent across all executed fits.
    pub refit_inner_iterations: AtomicU64,
    /// Flush ticks that ran (idle ticks included).
    pub flush_ticks: AtomicU64,
    /// Requests shed by admission control (503 + `Retry-After`) because
    /// the work queue was full.
    pub requests_shed: AtomicU64,
    /// Cached posteriors dropped by the LRU memory bound.
    pub posteriors_evicted: AtomicU64,
    /// Queries answered with a calibration factor applied.
    pub calibrated_queries: AtomicU64,
    /// Calibrated queries refused with `400` (no dictionary loaded, or
    /// no entry for the project's regime).
    pub calibration_rejected: AtomicU64,
    /// Chart points scored by the monitor.
    pub monitor_points: AtomicU64,
    /// Chart points classified out of control (either side, any scheme).
    pub monitor_out_of_control: AtomicU64,
    /// Change-point alerts published.
    pub monitor_alerts: AtomicU64,
    /// Refits triggered by monitor alerts.
    pub monitor_refits: AtomicU64,
    /// Ingests whose chart scoring was deferred for lack of a cached
    /// posterior (scored on the next fit-bearing query).
    pub monitor_deferred: AtomicU64,
    /// Chart-record appends to a project log that failed (the chart
    /// keeps serving from memory).
    pub monitor_persist_errors: AtomicU64,
    /// Long-poll waits answered with at least one alert.
    pub monitor_wait_delivered: AtomicU64,
    /// Long-poll waits that timed out empty.
    pub monitor_wait_timeouts: AtomicU64,
    /// Latency bucket counters (`LATENCY_BUCKETS_MS` + `+Inf`).
    pub latency_buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    /// Total observed latency in microseconds.
    pub latency_sum_us: AtomicU64,
    /// Number of observed requests.
    pub latency_count: AtomicU64,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records a finished request: status class + latency.
    pub fn observe_request(&self, status: u16, elapsed: std::time::Duration) {
        let class = match status {
            200..=299 => &self.requests_2xx,
            400..=499 => &self.requests_4xx,
            _ => &self.requests_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let ms = us as f64 / 1000.0;
        let bucket = LATENCY_BUCKETS_MS
            .iter()
            .position(|&ub| ms <= ub)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition.
    pub fn render(&self) -> String {
        self.render_with(None)
    }

    /// Renders the exposition including the registry's durability
    /// counters, when given.
    pub fn render_with(&self, recovery: Option<&crate::registry::RecoveryStats>) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP nhpp_serve_{name} {help}");
            let _ = writeln!(out, "# TYPE nhpp_serve_{name} counter");
            let _ = writeln!(out, "nhpp_serve_{name} {value}");
        };
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);

        let _ = writeln!(
            out,
            "# HELP nhpp_serve_requests_total Requests answered, by status class."
        );
        let _ = writeln!(out, "# TYPE nhpp_serve_requests_total counter");
        for (class, v) in [
            ("2xx", g(&self.requests_2xx)),
            ("4xx", g(&self.requests_4xx)),
            ("5xx", g(&self.requests_5xx)),
        ] {
            let _ = writeln!(out, "nhpp_serve_requests_total{{class=\"{class}\"}} {v}");
        }
        counter(
            &mut out,
            "events_ingested_total",
            "Failure events accepted into project logs.",
            g(&self.events_ingested),
        );
        counter(
            &mut out,
            "fits_total",
            "Supervised fits executed.",
            g(&self.fits_total),
        );
        counter(
            &mut out,
            "fits_warm_total",
            "Fits warm-started from a previous posterior.",
            g(&self.fits_warm),
        );
        counter(
            &mut out,
            "fits_coalesced_total",
            "Queries that joined an in-flight fit instead of starting one.",
            g(&self.fits_coalesced),
        );
        counter(
            &mut out,
            "fit_cache_hits_total",
            "Queries answered from the cached posterior.",
            g(&self.cache_hits),
        );
        counter(
            &mut out,
            "fit_errors_total",
            "Fits whose cascade surfaced an error.",
            g(&self.fit_errors),
        );
        counter(
            &mut out,
            "budget_exhaustions_total",
            "Fits in which an attempt exhausted its solve budget.",
            g(&self.budget_exhaustions),
        );
        counter(
            &mut out,
            "fallback_fits_total",
            "Fits served by a fallback tier (VB1/Laplace).",
            g(&self.fallback_fits),
        );
        counter(
            &mut out,
            "refit_inner_iterations_total",
            "Inner fixed-point iterations across all executed fits.",
            g(&self.refit_inner_iterations),
        );
        counter(
            &mut out,
            "flush_ticks_total",
            "Scheduler flush ticks.",
            g(&self.flush_ticks),
        );
        counter(
            &mut out,
            "requests_shed_total",
            "Requests shed by admission control (503 + Retry-After).",
            g(&self.requests_shed),
        );
        counter(
            &mut out,
            "posteriors_evicted_total",
            "Cached posteriors dropped by the LRU memory bound.",
            g(&self.posteriors_evicted),
        );
        counter(
            &mut out,
            "calibrated_queries_total",
            "Queries answered with a calibration factor applied.",
            g(&self.calibrated_queries),
        );
        counter(
            &mut out,
            "calibration_rejected_total",
            "Calibrated queries refused (no dictionary or no regime entry).",
            g(&self.calibration_rejected),
        );
        counter(
            &mut out,
            "monitor_points_total",
            "Chart points scored by the monitor.",
            g(&self.monitor_points),
        );
        counter(
            &mut out,
            "monitor_out_of_control_total",
            "Chart points outside the control limits.",
            g(&self.monitor_out_of_control),
        );
        counter(
            &mut out,
            "monitor_alerts_total",
            "Change-point alerts published by the monitor.",
            g(&self.monitor_alerts),
        );
        counter(
            &mut out,
            "monitor_refits_total",
            "Refits triggered by monitor alerts.",
            g(&self.monitor_refits),
        );
        counter(
            &mut out,
            "monitor_deferred_total",
            "Ingests whose chart scoring awaited a first fitted posterior.",
            g(&self.monitor_deferred),
        );
        counter(
            &mut out,
            "monitor_persist_errors_total",
            "Chart-journal writes that failed.",
            g(&self.monitor_persist_errors),
        );
        counter(
            &mut out,
            "monitor_wait_delivered_total",
            "Long-poll waits answered with at least one alert.",
            g(&self.monitor_wait_delivered),
        );
        counter(
            &mut out,
            "monitor_wait_timeouts_total",
            "Long-poll waits that timed out empty.",
            g(&self.monitor_wait_timeouts),
        );
        if let Some(recovery) = recovery {
            for (name, help, value) in [
                (
                    "recovery_torn_tails_total",
                    "Torn log tails truncated during replay.",
                    &recovery.torn_truncated,
                ),
                (
                    "recovery_checksum_failures_total",
                    "Log suffixes dropped for checksum failures.",
                    &recovery.checksum_failures,
                ),
                (
                    "recovery_snapshots_loaded_total",
                    "Snapshots that seeded a project replay.",
                    &recovery.snapshots_loaded,
                ),
                (
                    "recovery_snapshot_fallbacks_total",
                    "Corrupt snapshots that forced pure log replay.",
                    &recovery.snapshot_fallbacks,
                ),
                (
                    "snapshots_written_total",
                    "Snapshots written by maintenance, compaction or shutdown.",
                    &recovery.snapshots_written,
                ),
                (
                    "compactions_total",
                    "Log compactions performed.",
                    &recovery.compactions_run,
                ),
                (
                    "recovery_duplicates_skipped_total",
                    "Replay records already covered by a snapshot.",
                    &recovery.duplicates_skipped,
                ),
                (
                    "maintenance_failures_total",
                    "Failed snapshot/compaction attempts.",
                    &recovery.maintenance_failures,
                ),
            ] {
                counter(&mut out, name, help, g(value));
            }
        }

        let _ = writeln!(
            out,
            "# HELP nhpp_serve_request_duration_ms Request latency histogram."
        );
        let _ = writeln!(out, "# TYPE nhpp_serve_request_duration_ms histogram");
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS_MS.iter().enumerate() {
            cumulative += g(&self.latency_buckets[i]);
            let _ = writeln!(
                out,
                "nhpp_serve_request_duration_ms_bucket{{le=\"{ub}\"}} {cumulative}"
            );
        }
        cumulative += g(&self.latency_buckets[LATENCY_BUCKETS_MS.len()]);
        let _ = writeln!(
            out,
            "nhpp_serve_request_duration_ms_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "nhpp_serve_request_duration_ms_sum {}",
            g(&self.latency_sum_us) as f64 / 1000.0
        );
        let _ = writeln!(
            out,
            "nhpp_serve_request_duration_ms_count {}",
            g(&self.latency_count)
        );
        out
    }
}

/// Extracts the value of a plain (unlabelled) counter from a rendered
/// exposition — the shared scrape helper for the CLI client, the load
/// generator and the smoke tests.
pub fn scrape_counter(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn request_observation_fills_class_and_histogram() {
        let m = Metrics::new();
        m.observe_request(200, Duration::from_micros(300));
        m.observe_request(404, Duration::from_millis(7));
        m.observe_request(503, Duration::from_secs(10));
        assert_eq!(m.requests_2xx.load(Ordering::Relaxed), 1);
        assert_eq!(m.requests_4xx.load(Ordering::Relaxed), 1);
        assert_eq!(m.requests_5xx.load(Ordering::Relaxed), 1);
        assert_eq!(m.latency_count.load(Ordering::Relaxed), 3);
        // 0.3 ms lands in the ≤0.5 bucket, 7 ms in ≤10, 10 s in +Inf.
        assert_eq!(m.latency_buckets[1].load(Ordering::Relaxed), 1);
        assert_eq!(m.latency_buckets[4].load(Ordering::Relaxed), 1);
        assert_eq!(
            m.latency_buckets[LATENCY_BUCKETS_MS.len()].load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn render_with_exposes_recovery_counters() {
        let m = Metrics::new();
        m.requests_shed.fetch_add(4, Ordering::Relaxed);
        m.posteriors_evicted.fetch_add(2, Ordering::Relaxed);
        let stats = crate::registry::RecoveryStats::default();
        stats.torn_truncated.fetch_add(3, Ordering::Relaxed);
        stats.compactions_run.fetch_add(1, Ordering::Relaxed);
        let text = m.render_with(Some(&stats));
        assert_eq!(
            scrape_counter(&text, "nhpp_serve_requests_shed_total"),
            Some(4)
        );
        assert_eq!(
            scrape_counter(&text, "nhpp_serve_posteriors_evicted_total"),
            Some(2)
        );
        assert_eq!(
            scrape_counter(&text, "nhpp_serve_recovery_torn_tails_total"),
            Some(3)
        );
        assert_eq!(
            scrape_counter(&text, "nhpp_serve_compactions_total"),
            Some(1)
        );
        // Without recovery stats the durability counters are absent.
        assert!(!m.render().contains("recovery_torn_tails"));
    }

    #[test]
    fn render_and_scrape_round_trip() {
        let m = Metrics::new();
        m.fits_total.fetch_add(3, Ordering::Relaxed);
        m.fits_coalesced.fetch_add(63, Ordering::Relaxed);
        m.observe_request(200, Duration::from_millis(1));
        let text = m.render();
        assert_eq!(scrape_counter(&text, "nhpp_serve_fits_total"), Some(3));
        assert_eq!(
            scrape_counter(&text, "nhpp_serve_fits_coalesced_total"),
            Some(63)
        );
        assert!(text.contains("nhpp_serve_request_duration_ms_bucket{le=\"+Inf\"} 1"));
        // Histogram buckets are cumulative.
        let le_1000: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("nhpp_serve_request_duration_ms_bucket"))
            .collect();
        assert_eq!(le_1000.len(), LATENCY_BUCKETS_MS.len() + 1);
    }
}
