//! The storage boundary of the durable registry: a small trait over the
//! handful of filesystem operations the log/snapshot machinery needs,
//! with a real backend, an in-memory backend, and a deterministic
//! fault-injecting backend for crash testing.
//!
//! # Why a trait
//!
//! PR 1 taught the *estimator* to survive its own pathologies by
//! injecting them deterministically through the live code paths
//! ([`nhpp_vb::FaultPlan`]). The registry needs the same treatment for
//! I/O: torn writes, short reads, a full disk, and a failed rename are
//! exactly the crash windows a durable log must survive, and none of
//! them can be provoked reliably against a real filesystem. The
//! [`Storage`] trait makes the registry's durability logic backend
//! agnostic, so the chaos harness can run the *production* replay and
//! compaction code over a [`FaultStorage`] that fails at every
//! injection point in turn.
//!
//! # Record framing
//!
//! Every durable record — log appends and snapshots alike — is framed
//! as `u32 LE length | u32 LE CRC-32 | payload`. The CRC covers the
//! payload only; the length covers the payload only. A record is valid
//! iff the full frame is present *and* the checksum matches, so replay
//! can distinguish a torn tail (crash window residue, silently
//! truncated) from mid-log corruption (counted and truncated, reported
//! by `nhpp fsck`).

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;

/// Hard sanity bound on a single record's payload (16 MiB): a length
/// prefix beyond it is treated as corruption, not an allocation request.
pub const MAX_RECORD_BYTES: usize = 16 << 20;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven — no dependencies.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Record framing.
// ---------------------------------------------------------------------

/// Frames one record (`tag` byte + `body`) for durable storage.
pub fn frame_record(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(tag);
    payload.extend_from_slice(body);
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Why a scan stopped before the end of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStop {
    /// An incomplete frame at the end: the crash window of an append.
    TornTail,
    /// A complete frame whose checksum (or length sanity bound) failed:
    /// true corruption, everything after it is untrusted.
    Corrupt,
}

/// Outcome of scanning a byte stream of framed records.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Fully-validated records, in order: `(tag, body)`.
    pub records: Vec<(u8, Vec<u8>)>,
    /// Byte length of the validated prefix. Everything at and beyond
    /// this offset is torn or corrupt and must be truncated away before
    /// the file is appended to again.
    pub valid_len: u64,
    /// Why the scan stopped early, if it did.
    pub stop: Option<ScanStop>,
}

/// Scans `bytes` into validated records, stopping at the first torn or
/// corrupt frame (see [`ScanOutcome`]).
pub fn scan_records(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut stop = None;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            stop = Some(ScanStop::TornTail);
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_BYTES {
            // A zero-length record has no tag byte and cannot be
            // produced by `frame_record`; an absurd length is a
            // scribbled prefix. Both are corruption, not a torn append.
            stop = Some(ScanStop::Corrupt);
            break;
        }
        if rest.len() < 8 + len {
            stop = Some(ScanStop::TornTail);
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            stop = Some(ScanStop::Corrupt);
            break;
        }
        records.push((payload[0], payload[1..].to_vec()));
        offset += 8 + len;
    }
    ScanOutcome {
        records,
        valid_len: offset as u64,
        stop,
    }
}

// ---------------------------------------------------------------------
// The storage trait.
// ---------------------------------------------------------------------

/// The filesystem surface the registry needs, kept deliberately small
/// so a fault-injecting double stays faithful. Names are flat (no
/// directories) and restricted to the registry's id grammar plus an
/// extension.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// All stored file names (unordered).
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn list(&self) -> io::Result<Vec<String>>;

    /// The full contents of `name`, or `None` if it does not exist.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Appends `data` to `name` (creating it if absent), forces it to
    /// stable storage, and returns the file's new length.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; on failure the file may hold any
    /// prefix of `data` (the torn-write crash window).
    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64>;

    /// Atomically replaces the contents of `name` with `data`:
    /// write-temp → fsync → rename, so a crash leaves either the old
    /// or the new contents, never a mixture.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the visible file is unchanged then.
    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Truncates `name` to `len` bytes and syncs.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Removes `name` if it exists.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    fn remove(&self, name: &str) -> io::Result<()>;
}

fn check_name(name: &str) -> io::Result<()> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid storage name '{name}'"),
        ))
    }
}

// ---------------------------------------------------------------------
// Real filesystem backend.
// ---------------------------------------------------------------------

/// Durable storage in one flat directory.
#[derive(Debug)]
pub struct FsStorage {
    dir: PathBuf,
}

impl FsStorage {
    /// Opens (creating if necessary) the directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn open(dir: &std::path::Path) -> io::Result<FsStorage> {
        std::fs::create_dir_all(dir)?;
        Ok(FsStorage {
            dir: dir.to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> io::Result<PathBuf> {
        check_name(name)?;
        Ok(self.dir.join(name))
    }

    /// Best-effort directory fsync, so renames and creations are
    /// themselves durable on filesystems that need it.
    fn sync_dir(&self) {
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
    }
}

impl Storage for FsStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let path = self.path(name)?;
        match std::fs::File::open(&path) {
            Ok(mut file) => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let path = self.path(name)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        file.write_all(data)?;
        file.sync_data()?;
        Ok(file.metadata()?.len())
    }

    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let path = self.path(name)?;
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(data)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        self.sync_dir();
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let path = self.path(name)?;
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let path = self.path(name)?;
        match std::fs::remove_file(&path) {
            Ok(()) => {
                self.sync_dir();
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// In-memory backend.
// ---------------------------------------------------------------------

/// Volatile storage: a name → bytes map. The substrate of the fault
/// harness and of storage-level unit tests; `Registry::open(None)`
/// (pure in-memory registries) bypasses storage entirely and does not
/// use this.
#[derive(Debug, Default)]
pub struct MemStorage {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// A store pre-populated with `files` — used by the chaos harness
    /// to "reboot" onto the bytes that survived a crash.
    pub fn from_map(files: BTreeMap<String, Vec<u8>>) -> MemStorage {
        MemStorage {
            files: Mutex::new(files),
        }
    }

    /// A point-in-time copy of every stored file.
    pub fn dump(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.lock().expect("mem storage poisoned").clone()
    }
}

impl Storage for MemStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self
            .files
            .lock()
            .expect("mem storage poisoned")
            .keys()
            .cloned()
            .collect())
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        check_name(name)?;
        Ok(self
            .files
            .lock()
            .expect("mem storage poisoned")
            .get(name)
            .cloned())
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        check_name(name)?;
        let mut files = self.files.lock().expect("mem storage poisoned");
        let file = files.entry(name.to_string()).or_default();
        file.extend_from_slice(data);
        Ok(file.len() as u64)
    }

    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()> {
        check_name(name)?;
        self.files
            .lock()
            .expect("mem storage poisoned")
            .insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        check_name(name)?;
        let mut files = self.files.lock().expect("mem storage poisoned");
        match files.get_mut(name) {
            Some(file) => {
                file.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        check_name(name)?;
        self.files.lock().expect("mem storage poisoned").remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------

/// Which I/O pathology to force — the storage-layer extension of the
/// estimator's [`nhpp_vb::FaultKind`] idiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// An append persists only a prefix of its bytes, then the process
    /// dies: the classic torn write.
    TornWrite,
    /// A read returns only a prefix of the file: a file truncated by
    /// the crash, or a filesystem serving a short tail.
    ShortRead,
    /// A write fails outright with nothing persisted (`ENOSPC`).
    DiskFull,
    /// An atomic replace writes its temp file but the rename never
    /// lands: the visible file keeps its old contents.
    RenameFail,
}

/// A deterministic schedule: count storage operations and inject
/// `kind` on operation number `fail_at_op` (0-based). After the fault
/// fires the storage is dead — every later operation fails — modelling
/// a process that crashed at that exact point; a survivable plan keeps
/// it working instead, modelling an I/O error the process lives
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// 0-based index of the operation to sabotage.
    pub fail_at_op: u64,
    /// The pathology to force.
    pub kind: IoFaultKind,
    /// For [`IoFaultKind::TornWrite`]/[`IoFaultKind::ShortRead`]: the
    /// numerator of the fraction of bytes that survive, over 4 (so
    /// 0 ⇒ nothing, 2 ⇒ half, 4 ⇒ all of them).
    pub cut_quarters: u8,
    /// Whether later operations succeed after the fault fires.
    pub survive: bool,
}

impl IoFaultPlan {
    /// A plan failing operation `fail_at_op` with `kind`, cutting torn
    /// writes and short reads at half their bytes.
    pub fn at(fail_at_op: u64, kind: IoFaultKind) -> IoFaultPlan {
        IoFaultPlan {
            fail_at_op,
            kind,
            cut_quarters: 2,
            survive: false,
        }
    }

    fn cut(&self, len: usize) -> usize {
        len * usize::from(self.cut_quarters.min(4)) / 4
    }
}

#[derive(Debug)]
struct FaultState {
    ops: u64,
    dead: bool,
}

/// A [`MemStorage`] wrapper that injects one deterministic fault and
/// then plays dead, unless the plan is survivable (see
/// [`IoFaultPlan`]). [`FaultStorage::survivor`] yields the bytes a
/// reboot would find.
#[derive(Debug)]
pub struct FaultStorage {
    inner: MemStorage,
    plan: IoFaultPlan,
    state: Mutex<FaultState>,
}

impl FaultStorage {
    /// Wraps a fresh in-memory store with the fault plan.
    pub fn new(plan: IoFaultPlan) -> FaultStorage {
        FaultStorage::over(MemStorage::new(), plan)
    }

    /// Wraps an existing in-memory store (e.g. a previous survivor).
    pub fn over(inner: MemStorage, plan: IoFaultPlan) -> FaultStorage {
        FaultStorage {
            inner,
            plan,
            state: Mutex::new(FaultState { ops: 0, dead: false }),
        }
    }

    /// Whether the injected fault has killed the storage (never, for a
    /// survivable plan).
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("fault state poisoned").dead
    }

    /// Total operations observed so far (used to size fault sweeps).
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("fault state poisoned").ops
    }

    /// The surviving bytes, as a fresh healthy [`MemStorage`] — what
    /// the filesystem would hold when the crashed process restarts.
    pub fn survivor(&self) -> MemStorage {
        MemStorage::from_map(self.inner.dump())
    }

    /// Charges one operation; `Some(kind)` when this is the sabotaged
    /// one. Errors if the storage already died.
    fn charge(&self) -> io::Result<Option<IoFaultKind>> {
        let mut state = self.state.lock().expect("fault state poisoned");
        if state.dead {
            return Err(dead_err());
        }
        let op = state.ops;
        state.ops += 1;
        if op == self.plan.fail_at_op {
            state.dead = !self.plan.survive;
            return Ok(Some(self.plan.kind));
        }
        Ok(None)
    }
}

fn dead_err() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "injected crash: storage is dead")
}

fn injected(kind: IoFaultKind) -> io::Error {
    io::Error::other(format!("injected storage fault: {kind:?}"))
}

impl Storage for FaultStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        match self.charge()? {
            None => self.inner.list(),
            Some(kind) => Err(injected(kind)),
        }
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match self.charge()? {
            None => self.inner.read(name),
            Some(IoFaultKind::ShortRead) => Ok(self
                .inner
                .read(name)?
                .map(|bytes| bytes[..self.plan.cut(bytes.len())].to_vec())),
            Some(kind) => Err(injected(kind)),
        }
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        match self.charge()? {
            None => self.inner.append(name, data),
            Some(IoFaultKind::TornWrite) => {
                let _ = self.inner.append(name, &data[..self.plan.cut(data.len())]);
                Err(injected(IoFaultKind::TornWrite))
            }
            Some(kind) => Err(injected(kind)),
        }
    }

    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()> {
        match self.charge()? {
            None => self.inner.replace(name, data),
            // DiskFull, RenameFail and the rest all leave the visible
            // file untouched: replace is all-or-nothing by contract.
            Some(kind) => Err(injected(kind)),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        match self.charge()? {
            None => self.inner.truncate(name, len),
            Some(kind) => Err(injected(kind)),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match self.charge()? {
            None => self.inner.remove(name),
            Some(kind) => Err(injected(kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_check_value() {
        // The IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_and_scan_round_trip() {
        let mut bytes = frame_record(b'C', b"times go flat");
        bytes.extend_from_slice(&frame_record(b'B', b"1\n# t_end=5\n1.0\n"));
        let scan = scan_records(&bytes);
        assert_eq!(scan.stop, None);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], (b'C', b"times go flat".to_vec()));
        assert_eq!(scan.records[1].0, b'B');
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let good = frame_record(b'C', b"config");
        let torn = frame_record(b'B', b"payload that gets cut");
        for cut in [1, 4, 7, 9, torn.len() - 1] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&torn[..cut]);
            let scan = scan_records(&bytes);
            assert_eq!(scan.stop, Some(ScanStop::TornTail), "cut={cut}");
            assert_eq!(scan.valid_len, good.len() as u64);
            assert_eq!(scan.records.len(), 1);
        }
    }

    #[test]
    fn scan_flags_corruption_not_torn_tail() {
        let good = frame_record(b'C', b"config");
        // Bit flip inside the second record's payload.
        let mut bytes = good.clone();
        let mut bad = frame_record(b'B', b"1\ndata");
        let n = bad.len();
        bad[n - 1] ^= 0x40;
        bytes.extend_from_slice(&bad);
        // A further valid record is untrusted once corruption is seen.
        bytes.extend_from_slice(&frame_record(b'B', b"2\nmore"));
        let scan = scan_records(&bytes);
        assert_eq!(scan.stop, Some(ScanStop::Corrupt));
        assert_eq!(scan.valid_len, good.len() as u64);
        assert_eq!(scan.records.len(), 1);

        // A zero-length record is corruption too (no tag byte).
        let mut bytes = good.clone();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&crc32(b"").to_le_bytes());
        let scan = scan_records(&bytes);
        assert_eq!(scan.stop, Some(ScanStop::Corrupt));
        assert_eq!(scan.valid_len, good.len() as u64);
    }

    fn exercise(storage: &dyn Storage) {
        assert_eq!(storage.read("a.log").unwrap(), None);
        assert_eq!(storage.append("a.log", b"one").unwrap(), 3);
        assert_eq!(storage.append("a.log", b"two").unwrap(), 6);
        assert_eq!(storage.read("a.log").unwrap().unwrap(), b"onetwo");
        storage.replace("a.snap", b"snap").unwrap();
        assert_eq!(storage.read("a.snap").unwrap().unwrap(), b"snap");
        storage.truncate("a.log", 3).unwrap();
        assert_eq!(storage.read("a.log").unwrap().unwrap(), b"one");
        let mut names = storage.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a.log".to_string(), "a.snap".to_string()]);
        storage.remove("a.snap").unwrap();
        assert_eq!(storage.read("a.snap").unwrap(), None);
        storage.remove("a.snap").unwrap(); // idempotent
        assert!(storage.read("../evil").is_err(), "path escape rejected");
    }

    #[test]
    fn mem_storage_contract() {
        exercise(&MemStorage::new());
    }

    #[test]
    fn fs_storage_contract() {
        let dir = std::env::temp_dir().join(format!("nhpp-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = FsStorage::open(&dir).unwrap();
        exercise(&storage);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_persists_a_prefix_then_dies() {
        let storage = FaultStorage::new(IoFaultPlan::at(1, IoFaultKind::TornWrite));
        storage.append("a.log", b"12345678").unwrap(); // op 0: clean
        let err = storage.append("a.log", b"ABCDEFGH").unwrap_err(); // op 1: torn
        assert!(err.to_string().contains("TornWrite"));
        assert!(storage.crashed());
        // Dead afterwards.
        assert!(storage.read("a.log").is_err());
        // The survivor holds the clean append plus half the torn one.
        let survivor = storage.survivor();
        assert_eq!(survivor.read("a.log").unwrap().unwrap(), b"12345678ABCD");
    }

    #[test]
    fn survivable_torn_write_fails_once_then_storage_keeps_working() {
        let mut plan = IoFaultPlan::at(1, IoFaultKind::TornWrite);
        plan.survive = true;
        let storage = FaultStorage::new(plan);
        storage.append("a.log", b"12345678").unwrap();
        assert!(storage.append("a.log", b"ABCDEFGH").is_err());
        assert!(!storage.crashed());
        storage.truncate("a.log", 8).unwrap();
        assert_eq!(storage.append("a.log", b"XY").unwrap(), 10);
        assert_eq!(
            storage.survivor().read("a.log").unwrap().unwrap(),
            b"12345678XY"
        );
    }

    #[test]
    fn disk_full_and_rename_faults_leave_old_contents() {
        for kind in [IoFaultKind::DiskFull, IoFaultKind::RenameFail] {
            let storage = FaultStorage::new(IoFaultPlan::at(1, kind));
            storage.replace("a.snap", b"old").unwrap();
            assert!(storage.replace("a.snap", b"new").is_err());
            assert_eq!(storage.survivor().read("a.snap").unwrap().unwrap(), b"old");
        }
    }

    #[test]
    fn short_read_fault_returns_a_prefix() {
        let storage = FaultStorage::new(IoFaultPlan::at(1, IoFaultKind::ShortRead));
        storage.append("a.log", b"12345678").unwrap();
        assert_eq!(storage.read("a.log").unwrap().unwrap(), b"1234");
        assert!(storage.crashed());
    }
}
