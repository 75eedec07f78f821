//! Append-only log-segment storage backend ("cask"-style) with crash
//! recovery: the one [`StorageBackend`], durable over a directory or in
//! memory over a [`SimFile`].
//!
//! # Segment format
//!
//! Objects live in one append-only segment (`segment.log`, beside a
//! `cask.json` naming format version 2) of CRC-framed records:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [flag: u8][key: 32 B][data]        flag 0 = put, 1 = tombstone
//! ```
//!
//! Opening rebuilds the in-memory index (key → offset/length) by one scan
//! of the segment and truncates a torn tail — an incomplete or CRC-corrupt
//! final record — which is idempotent. Tombstones keep removals durable. A
//! first open writes `cask.json` through a synced temp file and a rename,
//! so a crash leaves no manifest or a whole one; a directory whose manifest
//! is unreadable or names another version (the sharded version 1) is
//! refused with a typed [`StorageError`] and left untouched.
//!
//! # The segment is a file the cask does not own
//!
//! The cask reaches its segment through one crate-private trait,
//! `SegmentFile`: a vectored write at an offset, `sync_data`, a read at an
//! offset, the length, truncation, and compaction's rewrite-then-swap.
//! [`CaskBackend::open_with`] puts it over a `std::fs::File`,
//! [`CaskBackend::open_sim`] over a [`SimFile`]. [`MemBackend`] is the cask
//! over a fault-free `SimFile` landing synchronously, so every store runs
//! this one code path.
//!
//! # One append order, one write discipline
//!
//! `put_many` resolves dedup for the whole call under one index write
//! lock, inserting a `Pending` slot (holding the bytes, so reads see the
//! key at once) per new key; the call's new records become **one group**,
//! chunks first, manifest last (a `remove` makes its tombstone a group of
//! one). Groups land at the segment's tail in submission order through one
//! function, `land`: one vectored write of whole groups (each record's
//! 41-byte header beside the very `Bytes` its slot holds), one
//! `sync_data`, then the slots swing to their offsets. So a crash leaves
//! exactly the records of a prefix of the submission order, with at most
//! one torn group at its end — a blob's manifest never outlives its new
//! chunks.
//!
//! With a writer thread (the default) groups queue in a FIFO the writer
//! drains in batches of whole groups up to 1 MiB, and [`CaskBackend::flush`]
//! waits for it to drain; the FIFO is bounded at `MAX_PENDING_BYTES`, and a
//! `put_many` that would pass the bound waits for a landing. Without one
//! ([`CaskOptions::synchronous`]) the caller lands its own group, and only
//! then pays fsyncs (`mlcask_cask_blocking_syncs_total`). A landing holds
//! the tail lock; `get` reads through the file handle readers and
//! compaction share, so a read never waits for a landing's sync.
//!
//! # Compaction
//!
//! [`CaskBackend::compact`] rewrites the segment without tombstones and
//! dead records (on disk: a temp file, a sync and a rename), holding the
//! tail lock; reads wait only for the swap and the index swing.
//! `Workspace::sweep_orphans` drives it after tombstoning orphans.
//!
//! # Faults
//!
//! The cask plays no faults; its file fails, and it answers. A failed
//! write or `sync_data` takes the backend **down** before any record of the
//! batch is swung: every later write, `flush` and `get` fails until the
//! segment is reopened. A failed read fails that `get` only, with
//! [`StorageError::Io`]. A crash is the file's: [`SimFile::crash`] drops
//! the unsynced suffix and kills the cask's handle, and [`SimFile::reopen`]
//! hands the next cask what survived; a [`FaultPlan`] on the `SimFile`
//! plays torn writes, crashes, EIO and a crash inside compaction. Without
//! a writer thread the batch boundaries are the caller's, so a plan's crash
//! point is reproducible byte for byte.
//!
//! [`MemBackend`]: crate::backend::MemBackend
//! [`FaultPlan`]: crate::fault::FaultPlan

use crate::backend::StorageBackend;
use crate::errors::{Result, StorageError};
use crate::fault::SimFile;
use crate::hash::Hash256;
use bytes::Bytes;
use mlcask_obs::metrics::{instance_label, LATENCY_SECONDS, SIZE_BYTES};
use mlcask_obs::{Counter, Histogram, MetricsRegistry};
use parking_lot::{Mutex as PlMutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, IoSlice, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Frame header size: payload length + CRC, both little-endian `u32`s.
pub const FRAME_HEADER: usize = 8;
/// Segment record payload overhead: flag byte + 32-byte key.
pub(crate) const RECORD_OVERHEAD: usize = 33;

const FLAG_PUT: u8 = 0;
const FLAG_TOMBSTONE: u8 = 1;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE) — implemented locally; the container has no registry access.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table of the
/// reflected IEEE polynomial, and `t[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight input bytes fold in with eight independent
/// lookups instead of a chain of eight.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Folds `data` into a CRC-32 register (pre- and post-inversion are the
/// caller's), so a record's CRC runs over its parts without joining them.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------------
// Frame codec — the segment files' record framing.
// ---------------------------------------------------------------------------

/// Frames `payload` as `[len][crc][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Scans a buffer of consecutive frames. Returns the `(payload_offset,
/// payload_len)` of every intact frame plus the length of the valid prefix;
/// everything past it (an incomplete header, a payload cut short by a torn
/// write, or a CRC mismatch) is a torn tail the caller should truncate.
/// Scanning an already-truncated buffer returns the same frames and
/// `valid == buf.len()` — truncation is idempotent.
pub fn scan_frames(buf: &[u8]) -> (Vec<(usize, usize)>, usize) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off + FRAME_HEADER <= buf.len() {
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("4 bytes"));
        let start = off + FRAME_HEADER;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > buf.len() || crc32(&buf[start..end]) != crc {
            break;
        }
        frames.push((start, len));
        off = end;
    }
    (frames, off)
}

/// Bytes of a segment record before its data: frame header, flag, key.
const RECORD_HEADER: usize = FRAME_HEADER + RECORD_OVERHEAD;

/// Everything of one segment record's frame but its data
/// (`[len][crc][flag][key]`); the CRC is folded over flag, key and data in
/// place, so the record is never assembled in one buffer.
fn record_header(flag: u8, key: &Hash256, data: &[u8]) -> [u8; RECORD_HEADER] {
    let mut h = [0u8; RECORD_HEADER];
    h[FRAME_HEADER] = flag;
    h[FRAME_HEADER + 1..].copy_from_slice(&key.0);
    let crc = !crc32_update(crc32_update(!0, &h[FRAME_HEADER..]), data);
    h[..4].copy_from_slice(&((RECORD_OVERHEAD + data.len()) as u32).to_le_bytes());
    h[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    h
}

/// On-disk frame size of a record holding `data_len` payload bytes.
fn record_file_len(data_len: u64) -> u64 {
    RECORD_HEADER as u64 + data_len
}

// ---------------------------------------------------------------------------
// The segment file
// ---------------------------------------------------------------------------

/// The segment as the cask sees it, implemented on disk by `DiskFile` and
/// in memory by [`SimFile`]: `write_at` writes `parts` (none empty) back to
/// back at `off`; `sync_data`, `read_exact_at`, `len` and `set_len` are the
/// file's; `rewrite` writes a new image through `fill`, makes it durable,
/// swaps it in for this file and returns the handle on it.
pub(crate) trait SegmentFile: Send + Sync {
    fn write_at(&self, off: u64, parts: &mut [IoSlice<'_>]) -> io::Result<()>;
    fn sync_data(&self) -> io::Result<()>;
    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()>;
    fn len(&self) -> io::Result<u64>;
    fn set_len(&self, len: u64) -> io::Result<()>;
    fn rewrite(
        &self,
        fill: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<Box<dyn SegmentFile>>;
}

/// `segment.log` in a cask directory.
struct DiskFile {
    file: File,
    path: PathBuf,
}

impl SegmentFile for DiskFile {
    /// Vectored, so a whole batch is one `writev` unless the kernel takes
    /// less.
    fn write_at(&self, off: u64, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(off))?;
        while !parts.is_empty() {
            match file.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        FileExt::read_exact_at(&self.file, buf, off)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    /// A temp file beside the segment, synced, then renamed over it — and
    /// the directory synced, or a crash could lose the rename after later
    /// appends went to the new file.
    fn rewrite(
        &self,
        fill: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<Box<dyn SegmentFile>> {
        let tmp = self.path.with_extension("log.compact");
        let mut out = BufWriter::new(File::create(&tmp)?);
        fill(&mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
        fs::rename(&tmp, &self.path)?;
        let dir = self
            .path
            .parent()
            .expect("a segment lives in its cask's directory");
        File::open(dir)?.sync_all()?;
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        Ok(Box::new(DiskFile {
            file,
            path: self.path.clone(),
        }))
    }
}

// ---------------------------------------------------------------------------
// Options and manifest
// ---------------------------------------------------------------------------

/// Construction options for [`CaskBackend`].
#[derive(Debug, Clone)]
pub struct CaskOptions {
    /// Whether one writer thread lands queued groups (the default), or each
    /// caller lands its own group before its write returns.
    pub writer_thread: bool,
}

impl Default for CaskOptions {
    fn default() -> Self {
        CaskOptions {
            writer_thread: true,
        }
    }
}

impl CaskOptions {
    /// No writer thread: `put_many` and `remove` land their group — one
    /// write, one `sync_data` — on the caller's thread and return only once
    /// it is durable. The baseline the writer thread is compared against,
    /// and the mode crash tests use: batch boundaries are the caller's, so
    /// a fault plan's crash point is reproducible.
    pub fn synchronous() -> Self {
        CaskOptions {
            writer_thread: false,
        }
    }
}

/// Upper bound on the bytes the writer drains into one batch (at least one
/// queued group, which is never split) — bounds commit latency.
const MAX_BATCH_BYTES: usize = 1 << 20;

/// Upper bound on the bytes queued for the writer or landing: a
/// `put_many` that would pass it waits (a lone group larger than the bound
/// is let in alone). It caps the memory a writer that outruns `sync_data`
/// can hold. Caskbench's workloads reach at most 3.2 MiB (a batch is at
/// most `MAX_BATCH_BYTES`); five times that keeps the bound off their path.
pub(crate) const MAX_PENDING_BYTES: usize = 16 << 20;

/// The layout this build reads and writes: one segment, no shard count.
const FORMAT_VERSION: u32 = 2;

/// `cask.json`. Version 1 counted its `shard-NNN.log` segments in
/// `shards`; version 2 has one segment and writes `null` there.
#[derive(serde::Serialize, serde::Deserialize)]
struct CaskManifest {
    version: u32,
    shards: Option<u32>,
}

/// Reads `root`'s `cask.json` and refuses any but this build's layout, or
/// writes a new one — through a synced temp file and a rename, then a sync
/// of the directory, so a crash never leaves a torn manifest.
fn check_or_write_manifest(root: &Path) -> Result<()> {
    let path = root.join("cask.json");
    if path.exists() {
        let m: CaskManifest = serde_json::from_slice(&fs::read(&path)?)
            .map_err(|e| StorageError::Codec(format!("unreadable cask.json: {e}")))?;
        if m.version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedLayout {
                version: m.version,
                shards: m.shards,
            });
        }
        return Ok(());
    }
    let m = CaskManifest {
        version: FORMAT_VERSION,
        shards: None,
    };
    let tmp = root.join("cask.json.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&serde_json::to_vec(&m)?)?;
    f.sync_all()?;
    fs::rename(&tmp, &path)?;
    File::open(root)?.sync_all()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Backend state
// ---------------------------------------------------------------------------

/// One index entry: either already durable in the segment, or held in
/// memory while its group waits to land.
#[derive(Clone)]
enum Slot {
    Durable { off: u64, len: u32 },
    Pending(Bytes),
}

impl Slot {
    fn len(&self) -> u64 {
        match self {
            Slot::Durable { len, .. } => *len as u64,
            Slot::Pending(b) => b.len() as u64,
        }
    }
}

/// Map and live-byte total under one lock, so `len`/`physical_bytes` are
/// never observed out of sync.
#[derive(Default)]
struct CaskIndex {
    map: HashMap<Hash256, Slot>,
    live_bytes: u64,
}

/// One record on its way to the segment.
struct Job {
    /// `Some` for a put (converted to `Durable` once written), `None` for a
    /// tombstone (immediately dead bytes).
    key: Option<Hash256>,
    header: [u8; RECORD_HEADER],
    /// The record's data — for a put, the very `Bytes` its `Pending` slot
    /// holds (a shared `Arc`, not a copy); empty for a tombstone.
    data: Bytes,
}

impl Job {
    fn new(flag: u8, key: Hash256, data: Bytes) -> Job {
        Job {
            key: (flag == FLAG_PUT).then_some(key),
            header: record_header(flag, &key, &data),
            data,
        }
    }

    /// On-disk frame size.
    fn len(&self) -> usize {
        RECORD_HEADER + self.data.len()
    }

    /// The frame's parts, for a vectored write.
    fn push_slices<'a>(&'a self, out: &mut Vec<IoSlice<'a>>) {
        out.push(IoSlice::new(&self.header));
        if !self.data.is_empty() {
            out.push(IoSlice::new(&self.data));
        }
    }
}

/// Records landed as one unit — a `put_many`'s new records, chunks first
/// and manifest last, or one tombstone. A batch holds whole groups only, so
/// a group lands with one write and one `sync_data`.
struct Group {
    jobs: Vec<Job>,
    /// Sum of the jobs' frame sizes.
    bytes: usize,
}

impl Group {
    fn new(jobs: Vec<Job>) -> Group {
        let bytes = jobs.iter().map(Job::len).sum();
        Group { jobs, bytes }
    }
}

/// The FIFO of groups the writer thread drains.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled on enqueue and shutdown.
    work: Condvar,
    /// Signalled after every landing: `flush` waits on it for the queue to
    /// drain, and a `put_many` for room under the bound.
    landed: Condvar,
}

#[derive(Default)]
struct QueueState {
    groups: VecDeque<Group>,
    /// Frame bytes of the queued groups and of the batch landing — what
    /// [`MAX_PENDING_BYTES`] bounds.
    bytes: usize,
    /// The writer has taken a batch off the queue and not yet landed it.
    landing: bool,
    shutdown: bool,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(cv: &Condvar, state: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        cv.wait(state).unwrap_or_else(|e| e.into_inner())
    }
}

/// The cask's telemetry: `mlcask_cask_*` series in the global
/// [`MetricsRegistry`] for a cask in a directory, handles registered
/// nowhere for one over a [`SimFile`] — a process builds many in-memory
/// stores, and each would mint a fresh set of `instance` series. Either
/// way each backend owns its counters, so two backends count apart.
struct Telemetry {
    appends: Counter,
    /// Fsyncs on a caller's thread — durability work that blocks.
    blocking_syncs: Counter,
    /// Segment fsyncs for append durability, one per landed batch.
    syncs_total: Counter,
    group_commits: Counter,
    /// Segment reads served by `get` (`Pending` hits don't count).
    read_ops: Counter,
    /// `sync_data` latency (`kind` = `inline` or `group`).
    fsync: Histogram,
    group_commit_bytes: Histogram,
}

impl Telemetry {
    /// Counters carry a unique `instance` label so two registered backends
    /// get independent series; the fsync/byte histograms aggregate across
    /// instances — latency distributions are a process-level concern.
    fn new(reg: Option<&MetricsRegistry>, writer_thread: bool) -> Telemetry {
        let instance = reg.map(|_| instance_label("cask")).unwrap_or_default();
        let ilabel = [("instance", instance.as_str())];
        let counter = |name: &str, help: &str| {
            reg.map_or_else(Counter::default, |r| r.counter(name, help, &ilabel))
        };
        let histogram = |name: &str, help: &str, labels: &[(&str, &str)], bounds: &[f64]| {
            reg.map_or_else(
                || Histogram::new(bounds),
                |r| r.histogram(name, help, labels, bounds),
            )
        };
        let fsync_kind = if writer_thread { "group" } else { "inline" };
        Telemetry {
            appends: counter(
                "mlcask_cask_appends_total",
                "Cask appends attempted (puts + tombstones)",
            ),
            blocking_syncs: counter(
                "mlcask_cask_blocking_syncs_total",
                "Fsyncs performed on a caller's thread",
            ),
            syncs_total: counter(
                "mlcask_cask_syncs_total",
                "Segment fsyncs performed for append durability",
            ),
            group_commits: counter(
                "mlcask_cask_group_commit_batches_total",
                "Batches made durable with one group commit each",
            ),
            read_ops: counter(
                "mlcask_cask_read_ops_total",
                "Segment disk reads served by get",
            ),
            fsync: histogram(
                "mlcask_cask_fsync_seconds",
                "Segment sync_data latency by call site",
                &[("kind", fsync_kind)],
                LATENCY_SECONDS,
            ),
            group_commit_bytes: histogram(
                "mlcask_cask_group_commit_bytes",
                "Bytes made durable per group-commit batch",
                &[],
                SIZE_BYTES,
            ),
        }
    }
}

struct Inner {
    /// The segment file. Reads and compaction's copy share it; only the swap
    /// to a compacted file takes it exclusively, together with the index.
    file: RwLock<Box<dyn SegmentFile>>,
    /// The segment's append end, under the lock that decides who appends: a
    /// landing holds it across its write, sync and index swing, and
    /// compaction across its whole rewrite. Reads never take it. Every byte
    /// before it is written and synced.
    tail: PlMutex<u64>,
    /// File bytes occupied by dead records (tombstones + what they killed).
    dead_bytes: AtomicU64,
    index: RwLock<CaskIndex>,
    /// The writer thread's FIFO; `None` lands every group on its caller's
    /// thread.
    queue: Option<Queue>,
    /// Why the backend is down — a failed write or sync. Set once; every
    /// later write, flush and read fails with it until the segment is
    /// reopened.
    down: OnceLock<String>,
    telemetry: Telemetry,
}

/// Append-only log-segment storage backend: one segment of CRC-framed
/// records landed in submission order, an index rebuilt on open (truncating
/// a torn tail), write offloading to one writer thread with group commit,
/// and tombstone-based removal with compaction. See the
/// [module docs](self) for the format.
pub struct CaskBackend {
    inner: Arc<Inner>,
    writer: Option<JoinHandle<()>>,
}

/// Rebuilds the index from the segment, truncating a torn tail
/// (idempotent: re-scanning a truncated file truncates nothing further).
/// Returns the index, the dead bytes and the valid length.
fn recover(file: &dyn SegmentFile) -> Result<(CaskIndex, u64, u64)> {
    let mut buf = vec![0u8; file.len()? as usize];
    file.read_exact_at(&mut buf, 0)?;
    let mut index = CaskIndex::default();
    let mut dead = 0u64;
    let (frames, mut valid) = scan_frames(&buf);
    for (off, len) in frames {
        if len < RECORD_OVERHEAD {
            // Malformed record body: treat like a torn tail.
            valid = off - FRAME_HEADER;
            break;
        }
        let key = Hash256(
            buf[off + 1..off + RECORD_OVERHEAD]
                .try_into()
                .expect("32 key bytes"),
        );
        let data_len = (len - RECORD_OVERHEAD) as u64;
        // A put supersedes an earlier record of its key (a duplicate append
        // of the same content address); a tombstone kills it and is dead
        // itself.
        let prev = match buf[off] {
            FLAG_PUT => index.map.insert(
                key,
                Slot::Durable {
                    off: (off + RECORD_OVERHEAD) as u64,
                    len: data_len as u32,
                },
            ),
            FLAG_TOMBSTONE => {
                dead += record_file_len(data_len);
                index.map.remove(&key)
            }
            _ => {
                valid = off - FRAME_HEADER;
                break;
            }
        };
        dead += prev.map_or(0, |prev| record_file_len(prev.len()));
    }
    index.live_bytes = index.map.values().map(Slot::len).sum();
    if valid < buf.len() {
        file.set_len(valid as u64)?;
        file.sync_data()?;
    }
    Ok((index, dead, valid as u64))
}

impl Default for CaskBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl CaskBackend {
    /// An empty in-memory cask: a fault-free [`SimFile`], landed
    /// synchronously — what [`MemBackend::new`](crate::backend::MemBackend)
    /// builds.
    pub fn new() -> Self {
        Self::open_sim(SimFile::new(), CaskOptions::synchronous())
            .expect("an empty simulated file opens")
    }

    /// Opens (creating if needed) a cask directory with default options.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(root, CaskOptions::default())
    }

    /// Opens (creating if needed) a cask directory, rebuilding the index by
    /// scanning the segment and truncating a torn tail. A directory whose
    /// `cask.json` is unreadable ([`StorageError::Codec`]) or names another
    /// format version ([`StorageError::UnsupportedLayout`]) is refused
    /// before any file in it is opened or written.
    pub fn open_with(root: impl AsRef<Path>, opts: CaskOptions) -> Result<Self> {
        let root = root.as_ref();
        fs::create_dir_all(root)?;
        check_or_write_manifest(root)?;
        let path = root.join("segment.log");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file = Box::new(DiskFile { file, path });
        Self::over(file, opts, Some(MetricsRegistry::global()))
    }

    /// Opens a cask over a simulated file, rebuilding the index from what
    /// the file holds — after a [`SimFile::crash`], open the file's
    /// [`SimFile::reopen`]. Its telemetry is registered nowhere.
    pub fn open_sim(file: SimFile, opts: CaskOptions) -> Result<Self> {
        Self::over(Box::new(file), opts, None)
    }

    fn over(
        file: Box<dyn SegmentFile>,
        opts: CaskOptions,
        reg: Option<&MetricsRegistry>,
    ) -> Result<Self> {
        let (index, dead, valid) = recover(file.as_ref())?;
        let inner = Arc::new(Inner {
            file: RwLock::new(file),
            tail: PlMutex::new(valid),
            dead_bytes: AtomicU64::new(dead),
            index: RwLock::new(index),
            queue: opts.writer_thread.then(Queue::default),
            down: OnceLock::new(),
            telemetry: Telemetry::new(reg, opts.writer_thread),
        });
        let writer = inner.queue.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || Inner::writer_loop(inner))
        });
        Ok(CaskBackend { inner, writer })
    }

    /// Records (puts + tombstones) handed to a landing, including those of
    /// a failed one.
    pub fn append_count(&self) -> u64 {
        self.inner.telemetry.appends.get()
    }

    /// Every segment fsync performed for append durability: one per landed
    /// batch. Divide by [`CaskBackend::append_count`] for fsyncs-per-append:
    /// one per `put_many` in synchronous mode, lower still once the writer
    /// coalesces queued groups into one batch.
    pub fn sync_count(&self) -> u64 {
        self.inner.telemetry.syncs_total.get()
    }

    /// Segment reads served by `get` (in-memory `Pending` hits don't
    /// count) — what the blob cache above this backend saves.
    pub fn read_ops(&self) -> u64 {
        self.inner.telemetry.read_ops.get()
    }

    /// Total segment file bytes (live + dead), the quantity compaction
    /// shrinks.
    pub fn file_bytes(&self) -> u64 {
        *self.inner.tail.lock()
    }

    /// File bytes occupied by dead records.
    pub fn dead_bytes(&self) -> u64 {
        self.inner.dead_bytes.load(Ordering::Relaxed)
    }

    /// Frame bytes queued for the writer thread or landing — what the
    /// queue's byte bound caps (always 0 without a writer thread).
    pub fn pending_bytes(&self) -> usize {
        self.inner.queue.as_ref().map_or(0, |q| q.lock().bytes)
    }
}

impl Inner {
    fn check_up(&self) -> Result<()> {
        match self.down.get() {
            Some(why) => Err(StorageError::Io(io::Error::other(why.clone()))),
            None => Ok(()),
        }
    }

    /// Takes the backend down (the first reason sticks) and returns the
    /// error the failing operation surfaces.
    fn go_down(&self, why: String) -> StorageError {
        let err = StorageError::Io(io::Error::other(why.clone()));
        let _ = self.down.set(why);
        err
    }

    /// Queues a group for the writer thread — waiting while it would take
    /// the queue past [`MAX_PENDING_BYTES`] — or lands it on the calling
    /// thread when there is none.
    fn submit(&self, group: Group) -> Result<()> {
        let Some(queue) = &self.queue else {
            return self.land(&[group]);
        };
        let mut state = queue.lock();
        while state.bytes > 0 && state.bytes + group.bytes > MAX_PENDING_BYTES {
            self.check_up()?;
            state = Queue::wait(&queue.landed, state);
        }
        self.check_up()?;
        state.bytes += group.bytes;
        state.groups.push_back(group);
        queue.work.notify_one();
        Ok(())
    }

    /// Lands `batch` — whole groups, oldest first — at the segment's tail:
    /// one vectored write (each record's header beside its shared data, no
    /// concatenation buffer), one `sync_data`, then every put's index entry
    /// swings from `Pending` to its offset. The one write path: the writer
    /// thread calls it on drained batches, the caller's thread on its own
    /// group when there is no writer. A failed write or sync takes the
    /// backend down before any record of the batch is swung.
    fn land(&self, batch: &[Group]) -> Result<()> {
        self.check_up()?;
        let jobs: Vec<&Job> = batch.iter().flat_map(|g| &g.jobs).collect();
        let total: usize = batch.iter().map(|g| g.bytes).sum();
        let t = &self.telemetry;
        t.appends.add(jobs.len() as u64);
        // Held through the index swing, so a rewrite never copies the
        // segment while a landed record is still `Pending`.
        let mut end = self.tail.lock();
        let failed = |e: io::Error| self.go_down(format!("cask write failed: {e}"));
        let start = *end;
        {
            let file = self.file.read();
            let mut parts = Vec::with_capacity(2 * jobs.len());
            jobs.iter().for_each(|job| job.push_slices(&mut parts));
            file.write_at(start, &mut parts).map_err(failed)?;
            let synced = Instant::now();
            file.sync_data().map_err(failed)?;
            t.fsync.observe_duration(synced.elapsed());
        }
        *end += total as u64;
        t.syncs_total.inc();
        t.group_commits.inc();
        t.group_commit_bytes.observe(total as f64);
        if self.queue.is_none() {
            t.blocking_syncs.inc();
        }
        let mut off = start;
        let mut idx = self.index.write();
        for job in jobs {
            let frame_len = job.len() as u64;
            match job.key.and_then(|key| idx.map.get_mut(&key)) {
                Some(slot @ Slot::Pending(_)) => {
                    *slot = Slot::Durable {
                        off: off + RECORD_HEADER as u64,
                        len: job.data.len() as u32,
                    };
                }
                // A tombstone, or a put removed (or replaced) while
                // queued: dead on arrival.
                _ => {
                    self.dead_bytes.fetch_add(frame_len, Ordering::Relaxed);
                }
            }
            off += frame_len;
        }
        Ok(())
    }

    /// The writer thread: drains the FIFO in batches, oldest group first,
    /// until shutdown finds it empty.
    fn writer_loop(inner: Arc<Inner>) {
        let queue = inner.queue.as_ref().expect("a writer thread has a queue");
        let mut state = queue.lock();
        loop {
            if state.groups.is_empty() {
                if state.shutdown {
                    return;
                }
                state = Queue::wait(&queue.work, state);
                continue;
            }
            // A bounded batch: whole groups, up to `MAX_BATCH_BYTES` (always
            // at least one group).
            let mut batch = Vec::new();
            let mut bytes = 0usize;
            while let Some(group) = state.groups.front() {
                if !batch.is_empty() && bytes + group.bytes > MAX_BATCH_BYTES {
                    break;
                }
                bytes += group.bytes;
                batch.extend(state.groups.pop_front());
            }
            state.landing = true;
            drop(state);
            // A failure took the backend down; `flush` and the next write
            // report it.
            let _ = inner.land(&batch);
            drop(batch);
            state = queue.lock();
            state.landing = false;
            state.bytes -= bytes;
            queue.landed.notify_all();
        }
    }

    /// The commit barrier: waits until every queued group has landed (a
    /// landing syncs its own bytes) and surfaces a failure.
    fn flush_all(&self) -> Result<()> {
        self.check_up()?;
        if let Some(queue) = &self.queue {
            let mut state = queue.lock();
            while state.landing || !state.groups.is_empty() {
                state = Queue::wait(&queue.landed, state);
            }
        }
        self.check_up()
    }

    /// Rewrites the segment without its dead records and returns the bytes
    /// reclaimed. Holds the tail lock throughout, so nothing lands
    /// meanwhile; reads share the file handle while the live records are
    /// copied, and wait only for the swap to the new file and the index
    /// swing. A record removed while the copy ran (the sweep protocol is
    /// quiescent, but stay safe) was counted dead by its removal, and its
    /// copy stays dead.
    fn rewrite(&self) -> Result<u64> {
        let mut end = self.tail.lock();
        // `remove` counts dead bytes under the index lock, so the snapshot
        // of the live records and of the dead bytes agree.
        let (mut live, dead_before) = {
            let idx = self.index.read();
            let live: Vec<(Hash256, u64, u32)> = idx
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Durable { off, len } => Some((*k, *off, *len)),
                    Slot::Pending(_) => None,
                })
                .collect();
            (live, self.dead_bytes.load(Ordering::Relaxed))
        };
        live.sort_by_key(|&(_, off, _)| off);
        let mut moved = Vec::with_capacity(live.len());
        let mut new_end = 0u64;
        let rewritten = {
            let file = self.file.read();
            file.rewrite(&mut |out| {
                for &(key, off, len) in &live {
                    let mut data = vec![0u8; len as usize];
                    file.read_exact_at(&mut data, off)?;
                    out.write_all(&record_header(FLAG_PUT, &key, &data))?;
                    out.write_all(&data)?;
                    moved.push((key, new_end + RECORD_HEADER as u64));
                    new_end += record_file_len(len as u64);
                }
                Ok(())
            })?
        };
        {
            let mut file = self.file.write();
            *file = rewritten;
            let mut idx = self.index.write();
            for (key, new_off) in moved {
                // Nothing lands while the tail lock is held, so a durable
                // slot is the record just copied.
                if let Some(Slot::Durable { off, .. }) = idx.map.get_mut(&key) {
                    *off = new_off;
                }
            }
        }
        self.dead_bytes.fetch_sub(dead_before, Ordering::Relaxed);
        let reclaimed = *end - new_end;
        *end = new_end;
        Ok(reclaimed)
    }
}

impl StorageBackend for CaskBackend {
    fn put(&self, key: Hash256, data: &[u8]) -> Result<bool> {
        Ok(self.put_many(&[(key, data)])?[0])
    }

    /// Resolves dedup for the whole call under one index write lock (new
    /// keys gain `Pending` slots, so reads see them at once), then submits
    /// every new record as one group: one write, one `sync_data`.
    fn put_many(&self, items: &[(Hash256, &[u8])]) -> Result<Vec<bool>> {
        let inner = &*self.inner;
        inner.check_up()?;
        let mut fresh = vec![false; items.len()];
        let mut new_records = Vec::new();
        {
            let mut idx = inner.index.write();
            for (&(key, data), fresh) in items.iter().zip(&mut fresh) {
                if idx.map.contains_key(&key) {
                    continue;
                }
                let data = Bytes::copy_from_slice(data);
                idx.live_bytes += data.len() as u64;
                idx.map.insert(key, Slot::Pending(data.clone()));
                new_records.push((key, data));
                *fresh = true;
            }
        }
        if new_records.is_empty() {
            return Ok(fresh);
        }
        let group = Group::new(
            new_records
                .into_iter()
                .map(|(key, data)| Job::new(FLAG_PUT, key, data))
                .collect(),
        );
        inner.submit(group)?;
        Ok(fresh)
    }

    fn get(&self, key: Hash256) -> Result<Bytes> {
        let inner = &*self.inner;
        inner.check_up()?;
        // The file handle before the index: compaction swaps the file and
        // swings the offsets under the handle's write lock, so an offset is
        // read from the file it belongs to.
        let file = inner.file.read();
        let slot = inner.index.read().map.get(&key).cloned();
        match slot {
            None => Err(StorageError::NotFound(key)),
            Some(Slot::Pending(b)) => Ok(b),
            Some(Slot::Durable { off, len }) => {
                let mut out = vec![0u8; len as usize];
                file.read_exact_at(&mut out, off)?;
                drop(file);
                inner.telemetry.read_ops.inc();
                let actual = Hash256::of(&out);
                if actual != key {
                    return Err(StorageError::Corrupt {
                        expected: key,
                        actual,
                    });
                }
                Ok(Bytes::from(out))
            }
        }
    }

    fn contains(&self, key: Hash256) -> bool {
        self.inner.index.read().map.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.inner.index.read().map.len()
    }

    fn physical_bytes(&self) -> u64 {
        self.inner.index.read().live_bytes
    }

    fn keys(&self) -> Vec<Hash256> {
        self.inner.index.read().map.keys().copied().collect()
    }

    fn remove(&self, key: Hash256) -> Result<Option<u64>> {
        let inner = &*self.inner;
        inner.check_up()?;
        // A pending record must land before its tombstone or the log would
        // replay them in the wrong order on reopen; drain the queue first.
        while matches!(inner.index.read().map.get(&key), Some(Slot::Pending(_))) {
            inner.flush_all()?;
        }
        let len = {
            let mut idx = inner.index.write();
            match idx.map.get(&key) {
                None => return Ok(None),
                Some(Slot::Pending(_)) => {
                    // Raced with a concurrent put; the sweep protocol is
                    // quiescent so this is effectively unreachable, but stay
                    // safe and refuse rather than corrupt log order.
                    return Err(StorageError::Io(std::io::Error::other(
                        "remove raced a concurrent put of the same key",
                    )));
                }
                Some(&Slot::Durable { len, .. }) => {
                    let len = len as u64;
                    idx.map.remove(&key);
                    idx.live_bytes -= len;
                    inner
                        .dead_bytes
                        .fetch_add(record_file_len(len), Ordering::Relaxed);
                    len
                }
            }
        };
        let tombstone = Job::new(FLAG_TOMBSTONE, key, Bytes::new());
        inner.submit(Group::new(vec![tombstone]))?;
        Ok(Some(len))
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush_all()
    }

    fn compact(&self) -> Result<u64> {
        let inner = &*self.inner;
        inner.flush_all()?;
        if inner.dead_bytes.load(Ordering::Relaxed) == 0 {
            return Ok(0);
        }
        inner.rewrite()
    }
}

impl Drop for CaskBackend {
    fn drop(&mut self) {
        if let Some(queue) = &self.inner.queue {
            queue.lock().shutdown = true;
            queue.work.notify_all();
        }
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use std::collections::HashSet;

    fn temp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "mlcask-cask-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn exercise(backend: &dyn StorageBackend) {
        assert!(backend.is_empty());
        let a = Hash256::of(b"aaa");
        let b = Hash256::of(b"bbb");
        assert!(backend.put(a, b"aaa").unwrap());
        assert!(!backend.put(a, b"aaa").unwrap(), "idempotent put");
        assert!(backend.put(b, b"bbb").unwrap());
        assert_eq!(backend.len(), 2);
        assert_eq!(backend.get(a).unwrap().as_ref(), b"aaa");
        assert_eq!(backend.get(b).unwrap().as_ref(), b"bbb");
        assert!(backend.contains(a));
        assert!(!backend.contains(Hash256::of(b"missing")));
        assert_eq!(backend.physical_bytes(), 6);
        assert_eq!(backend.remove(a).unwrap(), Some(3));
        assert_eq!(backend.remove(a).unwrap(), None);
        assert!(!backend.contains(a));
        assert_eq!(backend.physical_bytes(), 3);
        assert!(backend.put(a, b"aaa").unwrap(), "removed keys can return");
        backend.flush().unwrap();
    }

    /// The byte-at-a-time CRC-32 the on-disk format was defined with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_sliced_equals_bytewise() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length around the 8-byte stride, at every alignment.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 7)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in (0..64).chain([255, 256, 257, 1000, 4096]) {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn cask_basics_sync_mode() {
        let root = temp_root("basics-sync");
        let be = CaskBackend::open_with(&root, CaskOptions::synchronous()).unwrap();
        exercise(&be);
        drop(be);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cask_basics_pool_mode() {
        let root = temp_root("basics-pool");
        let be = CaskBackend::open_with(&root, CaskOptions::default()).unwrap();
        exercise(&be);
        drop(be);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cask_reopen_recovers_contents_and_removals() {
        let root = temp_root("reopen");
        let a = Hash256::of(b"alpha");
        let b = Hash256::of(b"beta");
        {
            let be = CaskBackend::open(&root).unwrap();
            be.put(a, b"alpha").unwrap();
            be.put(b, b"beta").unwrap();
            be.remove(b).unwrap();
            be.flush().unwrap();
        }
        let be = CaskBackend::open(&root).unwrap();
        assert_eq!(be.get(a).unwrap().as_ref(), b"alpha");
        assert!(!be.contains(b), "tombstone survives reopen");
        assert_eq!(be.len(), 1);
        drop(be);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cask_truncates_torn_tail_idempotently() {
        let root = temp_root("torn");
        let key = Hash256::of(b"survivor");
        let segment = root.join("segment.log");
        {
            let be = CaskBackend::open_with(&root, CaskOptions::synchronous()).unwrap();
            be.put(key, b"survivor").unwrap();
        }
        // Append garbage (a torn record) behind the backend's back.
        let mut raw = fs::read(&segment).unwrap();
        let intact = raw.len();
        raw.extend_from_slice(&[0x55; 13]);
        fs::write(&segment, &raw).unwrap();
        {
            let be = CaskBackend::open(&root).unwrap();
            assert_eq!(be.get(key).unwrap().as_ref(), b"survivor");
        }
        assert_eq!(fs::metadata(&segment).unwrap().len() as usize, intact);
        // Second reopen changes nothing (idempotent truncation).
        {
            let _be = CaskBackend::open(&root).unwrap();
        }
        assert_eq!(fs::metadata(&segment).unwrap().len() as usize, intact);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cask_injected_torn_crash_recovers_prior_writes() {
        let keys: Vec<(Hash256, Vec<u8>)> = (0..6u8)
            .map(|i| {
                let data = vec![i; 64 + i as usize];
                (Hash256::of(&data), data)
            })
            .collect();
        let sim = SimFile::new();
        {
            sim.arm(FaultPlan::new(FaultKind::Torn, 4, 42));
            let be = CaskBackend::open_sim(sim.clone(), CaskOptions::synchronous()).unwrap();
            let mut failed_at = None;
            for (i, (k, d)) in keys.iter().enumerate() {
                if let Err(_e) = be.put(*k, d) {
                    failed_at = Some(i);
                    break;
                }
            }
            assert_eq!(failed_at, Some(3), "4th append crashes");
            assert!(be.put(keys[4].0, &keys[4].1).is_err(), "dead after crash");
            assert!(be.get(keys[0].0).is_err(), "reads fail after crash too");
        }
        let be = CaskBackend::open_sim(sim.reopen(), CaskOptions::synchronous()).unwrap();
        for (k, d) in &keys[..3] {
            assert_eq!(
                be.get(*k).unwrap().as_ref(),
                &d[..],
                "pre-crash writes survive"
            );
        }
        assert!(!be.contains(keys[3].0), "torn record is truncated away");
        assert_eq!(be.len(), 3);
    }

    #[test]
    fn cask_compaction_reclaims_dead_bytes_and_preserves_liveness() {
        let root = temp_root("compact");
        let be = CaskBackend::open_with(&root, CaskOptions::synchronous()).unwrap();
        let blobs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i ^ 0xA5; 100]).collect();
        let hashes: Vec<Hash256> = blobs.iter().map(|b| Hash256::of(b)).collect();
        for (h, b) in hashes.iter().zip(&blobs) {
            be.put(*h, b).unwrap();
        }
        for h in &hashes[..5] {
            be.remove(*h).unwrap();
        }
        let before = be.file_bytes();
        assert!(be.dead_bytes() > 0);
        let reclaimed = be.compact().unwrap();
        assert!(reclaimed > 0);
        assert_eq!(be.file_bytes(), before - reclaimed);
        assert_eq!(be.dead_bytes(), 0);
        for (h, b) in hashes.iter().zip(&blobs).skip(5) {
            assert_eq!(be.get(*h).unwrap().as_ref(), &b[..], "live data survives");
        }
        drop(be);
        // Compacted state survives reopen.
        let be = CaskBackend::open(&root).unwrap();
        assert_eq!(be.len(), 5);
        for (h, b) in hashes.iter().zip(&blobs).skip(5) {
            assert_eq!(be.get(*h).unwrap().as_ref(), &b[..]);
        }
        drop(be);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pool_mode_blocks_fewer_syncs_than_sync_mode() {
        let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 256]).collect();
        let root_s = temp_root("syncs-s");
        let root_p = temp_root("syncs-p");
        let sync = CaskBackend::open_with(&root_s, CaskOptions::synchronous()).unwrap();
        let pool = CaskBackend::open_with(&root_p, CaskOptions::default()).unwrap();
        for p in &payloads {
            sync.put(Hash256::of(p), p).unwrap();
            pool.put(Hash256::of(p), p).unwrap();
        }
        sync.flush().unwrap();
        pool.flush().unwrap();
        // One per landed put on the caller's thread against none: the writer
        // lands (and syncs) every group on its own thread.
        assert!(
            pool.inner.telemetry.blocking_syncs.get() * 4
                <= sync.inner.telemetry.blocking_syncs.get(),
            "pool {} vs sync {}",
            pool.inner.telemetry.blocking_syncs.get(),
            sync.inner.telemetry.blocking_syncs.get()
        );
        drop(sync);
        drop(pool);
        fs::remove_dir_all(&root_s).unwrap();
        fs::remove_dir_all(&root_p).unwrap();
    }

    #[test]
    fn group_commit_coalesces_fsyncs_below_one_per_append() {
        let root = temp_root("group-commit");
        let be = CaskBackend::open_with(&root, CaskOptions::default()).unwrap();
        // Enqueueing is a hashmap insert + memcpy; each group commit is a
        // write plus an fsync syscall. The queue therefore builds up and
        // batches must coalesce.
        let payloads: Vec<Vec<u8>> = (0..=255u8).map(|i| vec![i; 256]).collect();
        for p in &payloads {
            be.put(Hash256::of(p), p).unwrap();
        }
        be.flush().unwrap();
        assert_eq!(be.append_count(), 256);
        assert!(be.inner.telemetry.group_commits.get() >= 1);
        assert!(
            be.sync_count() < be.append_count(),
            "batching coalesces fsyncs: {} syncs for {} appends",
            be.sync_count(),
            be.append_count()
        );
        for p in &payloads {
            assert_eq!(be.get(Hash256::of(p)).unwrap().as_ref(), &p[..]);
        }
        drop(be);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn group_commit_crash_preserves_flushed_writes_and_serves_no_garbage() {
        let sim = SimFile::new();
        let flushed: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 128]).collect();
        let racing: Vec<Vec<u8>> = (100..140u8).map(|i| vec![i; 128]).collect();
        {
            let be = CaskBackend::open_sim(sim.clone(), CaskOptions::default()).unwrap();
            for p in &flushed {
                be.put(Hash256::of(p), p).unwrap();
            }
            be.flush().unwrap();
            for p in &racing {
                be.put(Hash256::of(p), p).unwrap();
            }
            // Crash mid-stream: whichever batches group-committed survive,
            // the rest vanish — never a torn or corrupt record.
            sim.crash();
        }
        let be = CaskBackend::open_sim(sim.reopen(), CaskOptions::default()).unwrap();
        for p in &flushed {
            assert_eq!(
                be.get(Hash256::of(p)).unwrap().as_ref(),
                &p[..],
                "flushed writes always survive"
            );
        }
        let all: std::collections::HashSet<Hash256> = flushed
            .iter()
            .chain(&racing)
            .map(|p| Hash256::of(p))
            .collect();
        for key in be.keys() {
            assert!(all.contains(&key), "recovery only ever surfaces real puts");
            // `get` verifies content hashes, so this proves byte integrity.
            be.get(key).unwrap();
        }
    }

    #[test]
    fn read_ops_counts_segment_reads_only() {
        let root = temp_root("read-ops");
        let be = CaskBackend::open_with(&root, CaskOptions::synchronous()).unwrap();
        let key = Hash256::of(b"counted");
        be.put(key, b"counted").unwrap();
        assert_eq!(be.read_ops(), 0);
        be.get(key).unwrap();
        be.get(key).unwrap();
        assert_eq!(be.read_ops(), 2, "every durable get hits the segment");
        drop(be);
        fs::remove_dir_all(&root).unwrap();
    }

    /// The record layout did not move when framing went from one joined
    /// buffer to a header beside the data: the header plus the data is the
    /// public frame codec applied to `flag + key + data`.
    #[test]
    fn record_header_is_the_frame_of_flag_key_and_data() {
        for (flag, data) in [(FLAG_PUT, &b"payload"[..]), (FLAG_TOMBSTONE, &[][..])] {
            let key = Hash256::of(data);
            let mut payload = vec![flag];
            payload.extend_from_slice(&key.0);
            payload.extend_from_slice(data);
            let job = Job::new(flag, key, Bytes::copy_from_slice(data));
            assert_eq!([&job.header[..], &job.data].concat(), frame(&payload));
            assert_eq!(job.len() as u64, record_file_len(data.len() as u64));
        }
    }

    /// Every new record of one `put_many` lands as one group commit at the
    /// segment's tail, in call order, on the caller's thread or the writer
    /// thread; a later call's record lands behind it.
    #[test]
    fn put_many_lands_as_one_group_at_the_tail() {
        let blobs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 40 + i as usize]).collect();
        let items: Vec<(Hash256, &[u8])> = blobs.iter().map(|b| (Hash256::of(b), &b[..])).collect();
        let keys_on_disk = |root: &Path| -> Vec<Hash256> {
            let buf = fs::read(root.join("segment.log")).unwrap();
            let (frames, valid) = scan_frames(&buf);
            assert_eq!(valid, buf.len());
            frames
                .into_iter()
                .map(|(off, _)| Hash256(buf[off + 1..off + RECORD_OVERHEAD].try_into().unwrap()))
                .collect()
        };
        for opts in [CaskOptions::default(), CaskOptions::synchronous()] {
            let root = temp_root("tail");
            let be = CaskBackend::open_with(&root, opts).unwrap();
            assert_eq!(be.put_many(&items).unwrap(), vec![true; items.len()]);
            be.flush().unwrap();
            let total: u64 = blobs.iter().map(|b| record_file_len(b.len() as u64)).sum();
            assert_eq!(be.file_bytes(), total);
            assert_eq!(
                be.inner.telemetry.group_commits.get(),
                1,
                "one group, one commit"
            );
            assert_eq!(be.sync_count(), 1);
            assert_eq!(be.append_count(), items.len() as u64);
            drop(be);
            let mut order: Vec<Hash256> = items.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys_on_disk(&root), order);
            let be = CaskBackend::open(&root).unwrap();
            for (k, d) in &items {
                assert_eq!(be.get(*k).unwrap().as_ref(), *d);
            }
            let (key, data) = (Hash256::of(b"alone"), b"alone");
            be.put(key, data).unwrap();
            be.flush().unwrap();
            assert_eq!(be.file_bytes(), total + record_file_len(data.len() as u64));
            drop(be);
            order.push(key);
            assert_eq!(keys_on_disk(&root), order);
            fs::remove_dir_all(&root).unwrap();
        }
    }

    /// A directory in the sharded version-1 layout is refused with the
    /// typed error naming its version and shard count, and every file in it
    /// stays byte for byte as it was: no torn tail truncated, no segment
    /// created.
    #[test]
    fn a_version_1_directory_is_refused_untouched() {
        let root = temp_root("v1");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("cask.json"), br#"{"version":1,"shards":8}"#).unwrap();
        for s in 0..8u8 {
            let data = vec![s; 50];
            let mut payload = vec![FLAG_PUT];
            payload.extend_from_slice(&Hash256::of(&data).0);
            payload.extend_from_slice(&data);
            // A whole record, then a torn one that a recovery would cut.
            let mut bytes = frame(&payload);
            bytes.extend_from_slice(&[0x55; 13]);
            fs::write(root.join(format!("shard-{s:03}.log")), bytes).unwrap();
        }
        let snapshot = || -> Vec<(PathBuf, Vec<u8>)> {
            let mut files: Vec<_> = fs::read_dir(&root)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let bytes = fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = snapshot();
        assert_eq!(before.len(), 9);
        for opts in [CaskOptions::default(), CaskOptions::synchronous()] {
            match CaskBackend::open_with(&root, opts) {
                Err(StorageError::UnsupportedLayout { version, shards }) => {
                    assert_eq!((version, shards), (1, Some(8)));
                }
                Err(e) => panic!("expected the layout refusal, got {e}"),
                Ok(_) => panic!("a version-1 directory opened"),
            }
            assert!(snapshot() == before, "the refused directory was touched");
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// A failed group commit — its write or its `sync_data`, in the batch
    /// of group n — takes the backend down on the writer thread and on the
    /// caller's thread alike: the error surfaces from `flush` (and, without
    /// a writer thread, from the `put_many` itself) and from the next
    /// `put_many`, no record of the failed group is swung to `Durable`, and
    /// a reopen — after a crash, or of the file as the failure left it —
    /// serves every group flushed before it byte-exact and no torn record.
    #[test]
    fn group_commit_fault_surfaces_and_keeps_flushed_groups() {
        let groups: Vec<Vec<Vec<u8>>> = (0..5u8)
            .map(|g| {
                (0..3u8)
                    .map(|r| vec![g * 16 + r; 200 + r as usize])
                    .collect()
            })
            .collect();
        let keyed = |group: &[Vec<u8>]| -> Vec<(Hash256, Vec<u8>)> {
            group.iter().map(|b| (Hash256::of(b), b.clone())).collect()
        };
        for writer_thread in [true, false] {
            for kind in [FaultKind::WriteError, FaultKind::SyncError] {
                for (seed, crash) in [(0u64, false), (7, true)] {
                    for n in 1..=4u64 {
                        let sim = SimFile::new();
                        // One flush per group makes batch k exactly group k:
                        // write k, sync k.
                        sim.arm(FaultPlan::new(kind, n, seed));
                        let cell = format!("writer {writer_thread} {kind:?} seed {seed} n {n}");
                        let mut flushed = Vec::new();
                        {
                            let opts = CaskOptions { writer_thread };
                            let be = CaskBackend::open_sim(sim.clone(), opts).unwrap();
                            for group in &groups[..n as usize - 1] {
                                let items = keyed(group);
                                let refs: Vec<(Hash256, &[u8])> =
                                    items.iter().map(|(k, d)| (*k, &d[..])).collect();
                                be.put_many(&refs).unwrap();
                                be.flush().unwrap();
                                flushed.extend(items);
                            }
                            let failed = keyed(&groups[n as usize - 1]);
                            let refs: Vec<(Hash256, &[u8])> =
                                failed.iter().map(|(k, d)| (*k, &d[..])).collect();
                            assert_eq!(be.put_many(&refs).is_err(), !writer_thread, "{cell}");
                            assert!(be.flush().is_err(), "{cell}: flush reports it");
                            let next = keyed(&groups[n as usize]);
                            assert!(be.put_many(&[(next[0].0, &next[0].1)]).is_err());
                            assert!(be.flush().is_err(), "{cell}: and keeps reporting it");
                            let idx = be.inner.index.read();
                            for (k, _) in &failed {
                                assert!(matches!(idx.map.get(k), Some(Slot::Pending(_))));
                            }
                            drop(idx);
                            assert_eq!(be.inner.telemetry.group_commits.get(), n - 1, "{cell}");
                        }
                        if crash {
                            sim.crash();
                        }
                        let be = CaskBackend::open_sim(sim.reopen(), CaskOptions::synchronous())
                            .unwrap();
                        for (k, d) in &flushed {
                            assert_eq!(be.get(*k).unwrap().as_ref(), &d[..], "{cell}");
                        }
                        let known: HashSet<Hash256> = groups
                            .iter()
                            .flat_map(|g| keyed(g))
                            .map(|(k, _)| k)
                            .collect();
                        for k in be.keys() {
                            assert!(known.contains(&k));
                            be.get(k).unwrap(); // hash-verified: nothing torn
                        }
                    }
                }
            }
        }
    }

    /// EIO on a read fails that `get` with a typed I/O error and takes
    /// nothing down: the next read of the same record succeeds.
    #[test]
    fn a_read_error_fails_that_get_only() {
        let sim = SimFile::new();
        let be = CaskBackend::open_sim(sim.clone(), CaskOptions::synchronous()).unwrap();
        let key = Hash256::of(b"read me");
        be.put(key, b"read me").unwrap();
        sim.arm(FaultPlan::new(FaultKind::ReadError, 1, 0));
        assert!(matches!(be.get(key), Err(StorageError::Io(_))));
        assert_eq!(be.get(key).unwrap().as_ref(), b"read me");
        assert!(be.put(Hash256::of(b"more"), b"more").unwrap(), "still up");
    }

    /// A crash between compaction's rewrite and its swap loses only the
    /// rewrite: a reopen reads back every live key and no swept one.
    #[test]
    fn a_crash_between_rewrite_and_swap_keeps_live_and_swept_keys_apart() {
        let sim = SimFile::new();
        let blobs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i ^ 0x3C; 80 + i as usize]).collect();
        let keys: Vec<Hash256> = blobs.iter().map(|b| Hash256::of(b)).collect();
        {
            let be = CaskBackend::open_sim(sim.clone(), CaskOptions::default()).unwrap();
            for (k, b) in keys.iter().zip(&blobs) {
                be.put(*k, b).unwrap();
            }
            for k in &keys[..5] {
                be.remove(*k).unwrap();
            }
            sim.arm(FaultPlan::new(FaultKind::CompactCrash, 1, 0));
            assert!(be.compact().is_err());
        }
        let be = CaskBackend::open_sim(sim.reopen(), CaskOptions::synchronous()).unwrap();
        assert_eq!(be.len(), 5);
        for k in &keys[..5] {
            assert!(!be.contains(*k), "a swept key came back");
        }
        for (k, b) in keys.iter().zip(&blobs).skip(5) {
            assert_eq!(be.get(*k).unwrap().as_ref(), &b[..]);
        }
        // The reopened cask compacts for real.
        assert!(be.compact().unwrap() > 0);
        assert_eq!(be.len(), 5);
    }

    /// A garbled or empty `cask.json` is refused with a typed error before
    /// anything in the directory is opened: every file stays byte for byte
    /// as it was.
    #[test]
    fn an_unreadable_manifest_is_refused_untouched() {
        for manifest in [&b""[..], b"{\"version\":2,", b"\x00garbage"] {
            let root = temp_root("bad-manifest");
            fs::create_dir_all(&root).unwrap();
            fs::write(root.join("cask.json"), manifest).unwrap();
            let mut payload = vec![FLAG_PUT];
            payload.extend_from_slice(&Hash256::of(b"kept").0);
            payload.extend_from_slice(b"kept");
            let mut segment = frame(&payload);
            segment.extend_from_slice(&[0x55; 9]);
            fs::write(root.join("segment.log"), &segment).unwrap();
            match CaskBackend::open(&root) {
                Err(StorageError::Codec(msg)) => assert!(msg.contains("cask.json"), "{msg}"),
                Err(e) => panic!("expected the manifest refusal, got {e}"),
                Ok(_) => panic!("an unreadable manifest opened"),
            }
            assert_eq!(fs::read(root.join("cask.json")).unwrap(), manifest);
            assert_eq!(fs::read(root.join("segment.log")).unwrap(), segment);
            assert_eq!(fs::read_dir(&root).unwrap().count(), 2);
            fs::remove_dir_all(&root).unwrap();
        }
    }

    /// The writer's FIFO holds at most `MAX_PENDING_BYTES`: with every
    /// `sync_data` held at the file's gate, a producer that outruns the
    /// writer fills the queue to the bound and then waits in `put_many`,
    /// never failing, until the gate opens and landings make room. Three
    /// threads: this one, the producer and the writer.
    #[test]
    fn the_writer_queue_never_holds_more_than_its_bound() {
        const DATA: usize = 256 << 10;
        let frame_len = RECORD_HEADER + DATA;
        let groups = MAX_PENDING_BYTES / frame_len + 8;
        let sim = SimFile::new();
        let be = CaskBackend::open_sim(sim.clone(), CaskOptions::default()).unwrap();
        let held = sim.hold_syncs();
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                for i in 0..groups as u32 {
                    let mut data = vec![i as u8; DATA];
                    data[..4].copy_from_slice(&i.to_le_bytes());
                    assert!(be.put(Hash256::of(&data), &data).unwrap());
                }
            });
            // The writer is stuck in its first sync: the queue fills until
            // the next group would pass the bound.
            while be.pending_bytes() + frame_len <= MAX_PENDING_BYTES {
                std::thread::yield_now();
            }
            let pending = be.pending_bytes();
            assert!(pending <= MAX_PENDING_BYTES, "{pending} pending bytes");
            assert!(!producer.is_finished(), "the producer waits for room");
            drop(held);
            producer.join().unwrap();
        });
        be.flush().unwrap();
        assert_eq!(be.pending_bytes(), 0);
        assert_eq!(be.len(), groups);
    }

    /// `cask.json` through `write_json` is what the tree renders, and a
    /// new directory's manifest is version 2 with no shard count.
    #[test]
    fn cask_manifest_writes_the_bytes_of_its_tree() {
        for (version, shards) in [(2, None), (1, Some(8)), (0, Some(0)), (u32::MAX, None)] {
            let m = CaskManifest { version, shards };
            let mut tree = String::new();
            serde::write_value(&mut tree, &serde::Serialize::to_value(&m), None, 0);
            assert_eq!(serde_json::to_string(&m).unwrap(), tree);
        }
        let root = temp_root("manifest");
        drop(CaskBackend::open(&root).unwrap());
        assert_eq!(
            fs::read(root.join("cask.json")).unwrap(),
            br#"{"version":2,"shards":null}"#
        );
        assert!(
            !root.join("cask.json.tmp").exists(),
            "the temp file was renamed"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn frame_scan_rejects_crc_corruption() {
        let mut buf = frame(b"hello");
        buf.extend_from_slice(&frame(b"world"));
        let (frames, valid) = scan_frames(&buf);
        assert_eq!(frames.len(), 2);
        assert_eq!(valid, buf.len());
        // Flip one payload byte of the second frame.
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        let (frames, valid) = scan_frames(&buf);
        assert_eq!(frames.len(), 1);
        assert_eq!(valid, frame(b"hello").len());
    }
}
