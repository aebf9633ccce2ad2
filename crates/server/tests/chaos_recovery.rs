//! Crash-recovery chaos harness: kill the storage at *every* injected
//! fault point of a deterministic workload and assert that recovery
//! always yields a prefix-consistent registry.
//!
//! The property, for every crash point `k` and fault kind:
//!
//! 1. reopening the surviving bytes never fails and never surfaces a
//!    torn record;
//! 2. the recovered data version `v` equals the number of ingests that
//!    were acknowledged before the crash (acknowledged = durable), and
//!    the recovered state is exactly the first `v` batches;
//! 3. `fsck` on the recovered directory reports every project healthy;
//! 4. ingestion continues from `v` and a further reopen sees it.
//!
//! A second sweep makes each fault survivable: the failed append
//! persists half its frame or all of it, the process carries on, and
//! recovery must equal the acknowledged batches event for event.
//!
//! Overload admission control is exercised at the end of the file over
//! a real TCP server: a saturated work queue sheds with `503` +
//! `Retry-After` while the server stays live.

use nhpp_serve::registry::{fsck, RegistryError};
use nhpp_serve::{
    client_request, client_request_full, DurabilityPolicy, FaultStorage, IoFaultKind, IoFaultPlan,
    MemStorage, ProjectConfig, Registry, Server, ServerConfig, Storage,
};
use std::sync::Arc;
use std::time::Duration;

/// Batches in the deterministic workload; batch `i` (0-based) carries
/// one failure time and advances the data version to `i + 1`.
const BATCHES: usize = 8;

fn batch_text(i: usize) -> String {
    let t_end = 10.0 * (i + 1) as f64;
    let time = 10.0 * i as f64 + 5.0;
    format!("# t_end={t_end}\n{time}\n")
}

fn config() -> ProjectConfig {
    ProjectConfig::from_labels("times", "go", "paper-info-times").expect("valid config")
}

/// Runs the workload until the storage dies (or to completion) and
/// returns how many ingests were acknowledged.
fn run_workload(storage: Arc<dyn Storage>, policy: DurabilityPolicy) -> usize {
    let Ok(registry) = Registry::open_with(storage, policy) else {
        return 0;
    };
    if registry.create("chaos", config()).is_err() {
        return 0;
    }
    let project = registry.get("chaos").expect("created above");
    let mut acknowledged = 0;
    for i in 0..BATCHES {
        match project.ingest(&batch_text(i)) {
            Ok(_) => acknowledged += 1,
            Err(_) => break,
        }
    }
    // Graceful-shutdown hook; on a dead storage this only bumps the
    // maintenance-failure counter.
    registry.snapshot_all();
    acknowledged
}

/// Asserts the recovered registry is exactly the first `v` batches,
/// then continues ingestion to completion and reopens once more.
fn assert_prefix_and_continue(storage: Arc<MemStorage>, acknowledged: usize, context: &str) {
    let registry = Registry::open_with(storage.clone(), DurabilityPolicy::default())
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    let Some(project) = registry.get("chaos") else {
        // The crash predates a durable project — only legal before the
        // first ingest was acknowledged.
        assert_eq!(acknowledged, 0, "{context}: durable ingests vanished");
        return;
    };
    let v = project.version();
    assert_eq!(
        v as usize, acknowledged,
        "{context}: recovered version {v} != acknowledged {acknowledged}"
    );
    let summary = project.summary();
    assert_eq!(summary.event_count, v, "{context}: event count");
    if v >= 1 {
        let t_end = 10.0 * v as f64;
        assert_eq!(
            summary.observation_end, t_end,
            "{context}: observation end"
        );
    }
    if v >= 2 {
        // The two newest failure times are exactly the tail of the
        // prefix — the state is the batches, not merely their count.
        let (t_prev, t_last) = project.newest_gap().expect("two events");
        assert_eq!(t_prev, 10.0 * (v - 1) as f64 - 5.0, "{context}: t_prev");
        assert_eq!(t_last, 10.0 * v as f64 - 5.0, "{context}: t_last");
    }

    // Recovery truncated any torn tail, so the directory is healthy.
    for entry in fsck(storage.as_ref()).expect("fsck scans") {
        assert!(
            entry.healthy(),
            "{context}: fsck unhealthy after recovery: {entry:?}"
        );
    }

    // The log keeps accepting batches exactly where the prefix ended.
    for i in v as usize..BATCHES {
        project
            .ingest(&batch_text(i))
            .unwrap_or_else(|e| panic!("{context}: continued ingest {i} failed: {e}"));
    }
    assert_eq!(project.version() as usize, BATCHES, "{context}: final version");

    // And the continuation itself is durable.
    let reopened = Registry::open_with(storage, DurabilityPolicy::default())
        .unwrap_or_else(|e| panic!("{context}: second reopen failed: {e}"));
    let project = reopened.get("chaos").expect("project survives");
    assert_eq!(project.version() as usize, BATCHES, "{context}: reopened");
    assert_eq!(project.summary().event_count as usize, BATCHES);
}

/// Counts the storage operations the clean workload performs under a
/// policy, to size the fault sweep.
fn count_ops(policy: DurabilityPolicy) -> u64 {
    let probe = Arc::new(FaultStorage::new(IoFaultPlan::at(
        u64::MAX,
        IoFaultKind::DiskFull,
    )));
    let acknowledged = run_workload(probe.clone(), policy);
    assert_eq!(acknowledged, BATCHES, "clean probe run must complete");
    assert!(!probe.crashed());
    probe.ops()
}

fn sweep(policy: DurabilityPolicy, policy_name: &str) {
    let total_ops = count_ops(policy);
    assert!(total_ops > 0, "workload must touch storage");
    let kinds = [
        IoFaultKind::TornWrite,
        IoFaultKind::DiskFull,
        IoFaultKind::RenameFail,
    ];
    for kind in kinds {
        for k in 0..total_ops {
            let mut plan = IoFaultPlan::at(k, kind);
            // Vary the torn-write cut so short and long partial frames
            // are both exercised.
            if kind == IoFaultKind::TornWrite {
                plan.cut_quarters = 1 + (k % 3) as u8;
            }
            let storage = Arc::new(FaultStorage::over(MemStorage::new(), plan));
            let acknowledged = run_workload(storage.clone(), policy);
            let context = format!("{policy_name}/{kind:?}@op{k}");
            assert_prefix_and_continue(Arc::new(storage.survivor()), acknowledged, &context);
        }
    }
}

#[test]
fn every_write_crash_point_recovers_a_consistent_prefix() {
    // Manual policy: the log alone carries the state.
    sweep(
        DurabilityPolicy {
            snapshot_every: 0,
            compact_at_bytes: 0,
        },
        "manual",
    );
}

#[test]
fn crash_points_under_aggressive_maintenance_recover_too() {
    // Snapshot every other batch and compact almost always: every
    // maintenance crash window (snapshot temp write, snapshot rename,
    // log rewrite) falls inside the sweep.
    sweep(
        DurabilityPolicy {
            snapshot_every: 2,
            compact_at_bytes: 1,
        },
        "aggressive",
    );
}

/// Runs the workload over a storage whose one fault is survivable: the
/// process lives through the failed operation, retries a failed create
/// once and skips a failed batch. It then stops without a shutdown
/// snapshot, so recovery reads what the log holds. Returns the
/// acknowledged batches.
fn run_surviving(storage: Arc<dyn Storage>, policy: DurabilityPolicy) -> Vec<usize> {
    let Ok(registry) = Registry::open_with(storage, policy) else {
        return Vec::new();
    };
    if registry.create("chaos", config()).is_err() && registry.create("chaos", config()).is_err() {
        return Vec::new();
    }
    let project = registry.get("chaos").expect("created above");
    (0..BATCHES)
        .filter(|&i| project.ingest(&batch_text(i)).is_ok())
        .collect()
}

#[test]
fn survivable_append_faults_recover_exactly_the_acknowledged_batches() {
    let policies = [
        (
            DurabilityPolicy {
                snapshot_every: 0,
                compact_at_bytes: 0,
            },
            "manual",
        ),
        (
            DurabilityPolicy {
                snapshot_every: 2,
                compact_at_bytes: 1,
            },
            "aggressive",
        ),
    ];
    for (policy, policy_name) in policies {
        // Every operation of the clean run, so every append is hit; a
        // survivable fault elsewhere only fails the open or a snapshot.
        for k in 0..count_ops(policy) {
            // Half a frame persisted, or the whole frame persisted while
            // the append still reported failure.
            for cut_quarters in [2, 4] {
                let plan = IoFaultPlan {
                    cut_quarters,
                    survive: true,
                    ..IoFaultPlan::at(k, IoFaultKind::TornWrite)
                };
                let storage = Arc::new(FaultStorage::new(plan));
                let acknowledged = run_surviving(storage.clone(), policy);
                let context = format!("{policy_name}/survivable {cut_quarters}/4 @op{k}");
                let survivor = Arc::new(storage.survivor());
                // On the bytes as left, before replay truncates anything:
                // the failed append was rolled back, so no torn or
                // corrupt tail remains.
                for entry in fsck(survivor.as_ref()).expect("fsck scans") {
                    assert!(
                        entry.healthy() && entry.torn_tail_bytes == 0,
                        "{context}: log not rolled back: {entry:?}"
                    );
                }
                let registry = Registry::open_with(survivor, DurabilityPolicy::default())
                    .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
                let Some(project) = registry.get("chaos") else {
                    assert!(
                        acknowledged.is_empty(),
                        "{context}: durable ingests vanished"
                    );
                    continue;
                };
                let times: Vec<f64> = acknowledged
                    .iter()
                    .map(|&i| 10.0 * i as f64 + 5.0)
                    .collect();
                assert_eq!(
                    project.version() as usize,
                    times.len(),
                    "{context}: version"
                );
                assert_eq!(
                    project.times_from(0).expect("times").1,
                    times,
                    "{context}: times"
                );
                if let Some(&i) = acknowledged.last() {
                    let t_end = 10.0 * (i + 1) as f64;
                    assert_eq!(project.summary().observation_end, t_end, "{context}: t_end");
                }
            }
        }
    }
}

/// When a failed append cannot be rolled back either (here the storage
/// died with the append), the project refuses later appends with a
/// typed error instead of writing behind the unrolled frame.
#[test]
fn failed_rollback_refuses_appends_until_reopen() {
    // Op 0 lists the empty store, op 1 appends the config record, op 2
    // is the first batch append.
    for op in [1, 2] {
        let storage = Arc::new(FaultStorage::new(IoFaultPlan::at(
            op,
            IoFaultKind::TornWrite,
        )));
        let registry =
            Registry::open_with(storage.clone(), DurabilityPolicy::default()).expect("open");
        let created = registry.create("chaos", config());
        assert_eq!(created.is_err(), op == 1, "create at fault op {op}");
        let project = registry.get("chaos").expect("the id stays registered");
        if op == 2 {
            assert!(matches!(
                project.ingest(&batch_text(0)),
                Err(RegistryError::Io(_))
            ));
        }
        assert!(matches!(
            project.ingest(&batch_text(1)),
            Err(RegistryError::ReadOnly(_))
        ));
        assert_eq!(project.version(), 0);
        assert_prefix_and_continue(Arc::new(storage.survivor()), 0, "read-only reopen");
    }
}

#[test]
fn short_reads_at_recovery_time_never_fabricate_state() {
    // Build a clean durable state first.
    let clean = Arc::new(MemStorage::new());
    let acknowledged = run_workload(
        clean.clone(),
        DurabilityPolicy {
            snapshot_every: 3,
            compact_at_bytes: 0,
        },
    );
    assert_eq!(acknowledged, BATCHES);
    let bytes = clean.dump();

    // Injecting a short read at every recovery-time operation either
    // fails the open outright or yields a consistent prefix — never a
    // registry claiming data the log does not hold.
    for k in 0..64 {
        let storage = Arc::new(FaultStorage::over(
            MemStorage::from_map(bytes.clone()),
            IoFaultPlan::at(k, IoFaultKind::ShortRead),
        ));
        match Registry::open_with(storage.clone(), DurabilityPolicy::default()) {
            Err(_) => {}
            Ok(registry) => {
                if let Some(project) = registry.get("chaos") {
                    let v = project.version() as usize;
                    assert!(v <= BATCHES, "short read inflated version to {v}");
                    assert_eq!(project.summary().event_count as usize, v);
                }
            }
        }
        // The underlying bytes were never harmed: a clean reopen sees
        // the full state.
        let reopened = Registry::open_with(
            Arc::new(MemStorage::from_map(bytes.clone())),
            DurabilityPolicy::default(),
        )
        .expect("clean reopen");
        assert_eq!(
            reopened.get("chaos").expect("project").version() as usize,
            BATCHES
        );
    }
}

/// Overload admission control over real TCP: with one worker pinned by
/// an idle connection and a one-slot queue occupied, the next
/// connection is shed with `503` + `Retry-After` — and the server is
/// still alive afterwards.
#[test]
fn saturated_queue_sheds_with_retry_after_and_server_stays_live() {
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 1,
        retry_after_secs: 7,
        flush_interval: None,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("spawn");
    let addr = handle.addr().to_string();

    // Pin the single worker: an accepted connection that never sends a
    // request keeps it blocked in `read_request`.
    let pin = std::net::TcpStream::connect(&addr).expect("pin connects");
    std::thread::sleep(Duration::from_millis(300));
    // Fill the one queue slot the same way.
    let fill = std::net::TcpStream::connect(&addr).expect("fill connects");
    std::thread::sleep(Duration::from_millis(300));

    // The next request cannot be admitted: shed, with Retry-After.
    let (status, retry_after, body) =
        client_request_full(&addr, "GET", "/healthz", None).expect("shed response");
    assert_eq!(status, 503, "{body}");
    assert_eq!(retry_after, Some(7), "shed must carry Retry-After");
    let shed = handle
        .state()
        .metrics
        .requests_shed
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(shed >= 1, "shed counter not bumped");

    // Release the worker and the queue: the server serves again.
    drop(pin);
    drop(fill);
    std::thread::sleep(Duration::from_millis(300));
    let (status, body) = client_request(&addr, "GET", "/healthz", None).expect("revived");
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}
