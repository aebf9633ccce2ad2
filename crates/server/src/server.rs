//! The long-running service: a `std::net::TcpListener` accept loop
//! fanned out over the existing [`nhpp_numeric::parallel`] worker pool.
//!
//! There is deliberately no async runtime here. The service's unit of
//! work is a *fit* — milliseconds of dense floating-point arithmetic —
//! not a high-fanout I/O wait, so blocking threads are the simplest
//! correct model: one acceptor thread admits connections into a bounded
//! work queue, request workers drain it, and a slow fit occupies
//! exactly one worker without starving the others.
//!
//! The bounded queue is the overload story: when it is full the
//! acceptor sheds the connection immediately with `503` +
//! `Retry-After` instead of letting latency grow without bound.
//! Shutdown is cooperative and graceful: a shared flag plus one
//! self-connect unblocks `accept`, the queue is closed, workers drain
//! what was already admitted, and the registry takes a final
//! crash-consistent snapshot so the next start replays only a tail.

use crate::http::{read_request, Response};
use crate::metrics::Metrics;
use crate::registry::{DurabilityPolicy, Registry};
use crate::routes;
use crate::scheduler::{flush_stale, FitCache, FitSettings};
use nhpp_vb::CalibrationDictionary;
use std::collections::VecDeque;
use std::io::{self, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything the route handlers can see. One instance, shared by all
/// workers and the flush thread.
pub struct AppState {
    /// Project registry (durable if the server was given a data dir).
    pub registry: Registry,
    /// Service counters.
    pub metrics: Metrics,
    /// Options + thread budget applied to every supervised fit.
    pub fit: FitSettings,
    /// LRU bound on cached posteriors (capacity `0` = unbounded).
    pub cache: FitCache,
    /// Seconds advertised in `Retry-After` on shed/deadline responses.
    pub retry_after_secs: u32,
    /// Coverage-recalibration dictionary loaded at boot, when the
    /// server was started with one; `?calibrated=true` queries resolve
    /// their factors here.
    pub calibration: Option<Arc<CalibrationDictionary>>,
    /// Streaming SPC monitor, when the server was started with
    /// monitoring enabled; `None` answers monitor routes with `409`.
    pub monitor: Option<Arc<crate::monitor::Monitor>>,
    /// Suppress per-request log lines.
    pub quiet: bool,
}

/// Server construction parameters.
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port `0` picks a free port.
    pub addr: String,
    /// Directory for durable project logs; `None` keeps state in memory.
    pub data_dir: Option<PathBuf>,
    /// Accept workers; `0` means [`nhpp_numeric::parallel::auto_threads`].
    pub workers: usize,
    /// Period of the background flush tick that batch-refits stale
    /// projects; `None` disables it (queries still refit on demand).
    pub flush_interval: Option<Duration>,
    /// Fit options and per-fit thread budget.
    pub fit: FitSettings,
    /// Bound on connections queued between the acceptor and the
    /// workers; beyond it the acceptor sheds with `503` +
    /// `Retry-After`. `0` means unbounded (no admission control).
    pub queue_capacity: usize,
    /// Bound on cached posteriors before LRU eviction; `0` = unbounded.
    pub max_cached_fits: usize,
    /// Seconds advertised in `Retry-After` on shed/deadline responses.
    pub retry_after_secs: u32,
    /// Snapshot/compaction policy applied to a durable registry.
    pub durability: DurabilityPolicy,
    /// Path of an `nhpp-calibration/v1` dictionary to load at boot;
    /// `None` serves raw intervals only (calibrated queries get `400`).
    pub calibration: Option<PathBuf>,
    /// Streaming SPC monitor configuration; `None` disables the
    /// monitor routes and the per-ingest chart scoring.
    pub monitor: Option<crate::monitor::MonitorConfig>,
    /// Suppress per-request log lines.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            data_dir: None,
            workers: 0,
            flush_interval: Some(Duration::from_millis(500)),
            fit: FitSettings::default(),
            queue_capacity: 1024,
            max_cached_fits: 0,
            retry_after_secs: 1,
            durability: DurabilityPolicy::default(),
            calibration: None,
            monitor: None,
            quiet: false,
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    workers: usize,
    flush_interval: Option<Duration>,
    queue_capacity: usize,
}

impl Server {
    /// Binds the listener and replays any durable project logs found in
    /// the data directory. The server does not accept until [`run`] or
    /// [`spawn`].
    ///
    /// [`run`]: Server::run
    /// [`spawn`]: Server::spawn
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let invalid = |e: crate::registry::RegistryError| {
            io::Error::new(io::ErrorKind::InvalidData, e.to_string())
        };
        let registry = match config.data_dir.as_deref() {
            None => Registry::open(None).map_err(invalid)?,
            Some(dir) => {
                let storage = crate::storage::FsStorage::open(dir)?;
                Registry::open_with(Arc::new(storage), config.durability).map_err(invalid)?
            }
        };
        // A corrupt dictionary must fail the boot, not the first
        // calibrated query: the served factors are a correctness
        // artifact, so "loaded" has to mean "validated".
        let calibration = match config.calibration.as_deref() {
            None => None,
            Some(path) => {
                let text = std::fs::read_to_string(path)?;
                let dict = CalibrationDictionary::parse(&text).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("calibration dictionary {}: {e}", path.display()),
                    )
                })?;
                Some(Arc::new(dict))
            }
        };
        // Charts recover from the chart records of the replayed project
        // logs, so the monitor is built after replay completes.
        let monitor = match config.monitor {
            None => None,
            Some(mc) => Some(Arc::new(crate::monitor::Monitor::recover(mc, &registry)?)),
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            nhpp_numeric::parallel::auto_threads()
        } else {
            config.workers
        }
        .max(1);
        Ok(Server {
            listener,
            addr,
            state: Arc::new(AppState {
                registry,
                metrics: Metrics::new(),
                fit: config.fit,
                cache: FitCache::new(config.max_cached_fits),
                retry_after_secs: config.retry_after_secs,
                calibration,
                monitor,
                quiet: config.quiet,
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            workers,
            flush_interval: config.flush_interval,
            queue_capacity: config.queue_capacity,
        })
    }

    /// The bound address (useful when the config asked for port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process introspection.
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Runs the acceptor and request workers and blocks until shutdown
    /// is signalled, then drains admitted connections and takes a final
    /// snapshot of every durable project.
    pub fn run(self) -> io::Result<()> {
        let flush_thread = self.flush_interval.map(|interval| {
            let state = Arc::clone(&self.state);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::spawn(move || flush_loop(&state, &shutdown, interval))
        });

        let queue = Arc::new(WorkQueue::new(self.queue_capacity));
        let acceptor = {
            let listener = self.listener.try_clone()?;
            let state = Arc::clone(&self.state);
            let shutdown = Arc::clone(&self.shutdown);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || accept_loop(&listener, &state, &shutdown, &queue))
        };

        let worker_ids: Vec<usize> = (0..self.workers).collect();
        let state = &self.state;
        nhpp_numeric::parallel::map_items(self.workers, &worker_ids, |_, _| {
            // Graceful drain: `pop` keeps yielding admitted connections
            // after close, and returns `None` only once the queue is
            // closed *and* empty.
            while let Some(stream) = queue.pop() {
                handle_connection(stream, state);
            }
        });

        let _ = acceptor.join();
        if let Some(handle) = flush_thread {
            let _ = handle.join();
        }
        // Final crash-consistent snapshot: the next start replays
        // snapshot-plus-nothing instead of the whole log.
        self.state.registry.snapshot_all();
        Ok(())
    }

    /// Starts the server on a background thread and returns a handle
    /// that can query its state and shut it down.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.addr;
        let state = server.state();
        let shutdown = Arc::clone(&server.shutdown);
        let join = std::thread::spawn(move || server.run());
        Ok(ServerHandle {
            addr,
            state,
            shutdown,
            join: Some(join),
        })
    }
}

/// Handle to a spawned server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process assertions (tests, benches).
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Signals shutdown, wakes every blocked `accept`, and joins the
    /// server thread.
    pub fn shutdown(mut self) {
        self.signal();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    fn signal(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // One wake-up connection: only the acceptor is parked in
        // `accept`; workers are woken by the queue close that follows.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.signal();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn flush_loop(state: &AppState, shutdown: &AtomicBool, interval: Duration) {
    // Sleep in short slices so shutdown never waits a full interval.
    let slice = interval.min(Duration::from_millis(50));
    let mut elapsed = Duration::ZERO;
    loop {
        std::thread::sleep(slice);
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        elapsed += slice;
        if elapsed < interval {
            continue;
        }
        elapsed = Duration::ZERO;
        flush_stale(&state.registry, &state.fit, &state.metrics);
    }
}

/// Bounded handoff between the acceptor and the request workers: the
/// admission-control point of the overload story.
struct WorkQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    items: VecDeque<TcpStream>,
    closed: bool,
}

impl WorkQueue {
    fn new(capacity: usize) -> WorkQueue {
        WorkQueue {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits a connection, or hands it straight back when the queue is
    /// full or closed — the caller sheds it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed || (self.capacity != 0 && state.items.len() >= self.capacity) {
            return Err(stream);
        }
        state.items.push_back(stream);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next admitted connection; `None` once the queue
    /// is closed *and* drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(stream) = state.items.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Stops admission; workers drain what was already admitted.
    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }
}

fn accept_loop(listener: &TcpListener, state: &AppState, shutdown: &AtomicBool, queue: &WorkQueue) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Err(stream) = queue.push(stream) {
                    shed(stream, state);
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failure (e.g. fd pressure): back off
                // briefly instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    queue.close();
}

/// Admission control: answer a connection the queue could not take with
/// an immediate `503` + `Retry-After`, without tying up a worker or
/// parsing the request.
fn shed(mut stream: TcpStream, state: &AppState) {
    state.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let response = Response::json(
        503,
        "{\"error\": \"server overloaded, request shed\"}".to_string(),
    )
    .with_retry_after(state.retry_after_secs);
    if response.write_to(&mut stream).is_ok() {
        // Closing with unread request bytes in the receive buffer turns
        // the close into an RST, which can destroy the in-flight 503 on
        // the client side. Send our FIN, then drain what the client
        // sends — bounded in bytes and time so a slow writer cannot
        // hold the acceptor hostage.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut sink = [0u8; 4096];
        let mut drained = 0usize;
        while drained < 64 * 1024 && Instant::now() < deadline {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
    }
    state.metrics.observe_request(503, Duration::ZERO);
}

fn handle_connection(stream: TcpStream, state: &AppState) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "-".to_string());
    let mut reader = BufReader::new(stream);
    let started = Instant::now();
    let (request, response) = match read_request(&mut reader) {
        Ok(req) => {
            let resp = routes::handle(state, &req);
            (Some(req), resp)
        }
        Err(err) => (
            None,
            Response::json(400, format!("{{\"error\": \"malformed request: {err}\"}}")),
        ),
    };
    let elapsed = started.elapsed();
    state.metrics.observe_request(response.status, elapsed);
    if !state.quiet {
        let (method, path) = request
            .as_ref()
            .map(|r| (r.method.as_str(), r.path.as_str()))
            .unwrap_or(("-", "-"));
        eprintln!(
            "nhpp-serve peer={peer} method={method} path={path} status={} bytes={} ms={:.3}",
            response.status,
            response.body.len(),
            elapsed.as_secs_f64() * 1000.0,
        );
    }
    let mut stream = reader.into_inner();
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;
    use nhpp_data::sys17;

    fn quiet_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            flush_interval: None,
            quiet: true,
            ..ServerConfig::default()
        }
    }

    fn sys17_batch() -> String {
        let mut text = format!("# t_end={}\n", sys17::T_END);
        for t in sys17::FAILURE_TIMES {
            text.push_str(&format!("{t}\n"));
        }
        text
    }

    #[test]
    fn work_queue_bounds_admission_and_drains_after_close() {
        let queue = WorkQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _c1 = TcpStream::connect(addr).unwrap();
        let _c2 = TcpStream::connect(addr).unwrap();
        let _c3 = TcpStream::connect(addr).unwrap();
        let (s1, _) = listener.accept().unwrap();
        let (s2, _) = listener.accept().unwrap();
        let (s3, _) = listener.accept().unwrap();

        assert!(queue.push(s1).is_ok(), "first admission fits");
        let rejected = queue.push(s2);
        assert!(rejected.is_err(), "capacity 1 sheds the second");
        assert_eq!(queue.len(), 1);

        // Close stops admission but the admitted connection drains.
        queue.close();
        assert!(queue.push(s3).is_err(), "closed queue admits nothing");
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none(), "closed and drained");
    }

    #[test]
    fn shed_answers_503_with_retry_after() {
        let state = AppState {
            registry: Registry::open(None).unwrap(),
            metrics: Metrics::new(),
            fit: FitSettings::default(),
            cache: FitCache::new(0),
            retry_after_secs: 3,
            calibration: None,
            monitor: None,
            quiet: true,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            use std::io::Read as _;
            stream.read_to_string(&mut text).unwrap();
            text
        });
        let (server_side, _) = listener.accept().unwrap();
        shed(server_side, &state);
        let text = client.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        assert_eq!(state.metrics.requests_shed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn graceful_shutdown_snapshots_durable_projects() {
        let dir = std::env::temp_dir().join(format!("nhpp-serve-shutdown-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = quiet_config();
        config.data_dir = Some(dir.clone());
        let handle = Server::spawn(config).unwrap();
        let addr = handle.addr().to_string();
        client_request(
            &addr,
            "PUT",
            "/projects/p?kind=times&model=go&prior=paper-info-times",
            None,
        )
        .unwrap();
        client_request(&addr, "POST", "/projects/p/events", Some(&sys17_batch())).unwrap();
        handle.shutdown();

        assert!(dir.join("p.snap").exists(), "shutdown snapshot missing");
        // The next start replays snapshot-plus-nothing.
        let registry = Registry::open(Some(&dir)).unwrap();
        let project = registry.get("p").unwrap();
        assert_eq!(project.version(), 1);
        assert_eq!(registry.stats().snapshots_loaded.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spawned_server_answers_over_real_tcp_and_shuts_down() {
        let handle = Server::spawn(quiet_config()).unwrap();
        let addr = handle.addr().to_string();

        let (status, body) = client_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ok\""));

        let (status, _) = client_request(
            &addr,
            "PUT",
            "/projects/sys17?kind=times&model=go&prior=paper-info-times",
            None,
        )
        .unwrap();
        assert_eq!(status, 201);

        let batch = sys17_batch();
        let (status, body) =
            client_request(&addr, "POST", "/projects/sys17/events", Some(&batch)).unwrap();
        assert_eq!(status, 200, "{body}");

        let (status, body) = client_request(&addr, "GET", "/projects/sys17/fit", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"provenance\": \"vb2\""), "{body}");

        let (status, body) = client_request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            crate::metrics::scrape_counter(&body, "nhpp_serve_fits_total"),
            Some(1),
            "{body}"
        );

        handle.shutdown();
    }

    #[test]
    fn flush_tick_refits_in_background() {
        let mut config = quiet_config();
        config.flush_interval = Some(Duration::from_millis(60));
        let handle = Server::spawn(config).unwrap();
        let addr = handle.addr().to_string();

        client_request(
            &addr,
            "PUT",
            "/projects/p?kind=times&model=go&prior=paper-info-times",
            None,
        )
        .unwrap();
        client_request(&addr, "POST", "/projects/p/events", Some(&sys17_batch())).unwrap();

        // Wait for a tick to fit the stale project without any query.
        let state = handle.state();
        let deadline = Instant::now() + Duration::from_secs(10);
        while state
            .metrics
            .fits_total
            .load(std::sync::atomic::Ordering::Relaxed)
            == 0
        {
            assert!(Instant::now() < deadline, "flush tick never fitted");
            std::thread::sleep(Duration::from_millis(20));
        }

        // The query is now a pure cache hit.
        let (status, _) = client_request(&addr, "GET", "/projects/p/fit", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            state
                .metrics
                .fits_total
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        handle.shutdown();
    }
}
