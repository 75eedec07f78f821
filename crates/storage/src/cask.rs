//! Durable append-only log-segment backend ("cask"-style) with crash
//! recovery — the on-disk counterpart of [`MemBackend`](crate::backend::MemBackend).
//!
//! # Segment format
//!
//! Objects live in `shards` append-only segment files (`shard-NNN.log`).
//! Every record is a CRC-framed block:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [flag: u8][key: 32 B][data]        flag 0 = put, 1 = tombstone
//! ```
//!
//! The in-memory index (key → shard/offset/length) is rebuilt on
//! [`CaskBackend::open`] by scanning every shard **concurrently** on a
//! scoped thread pool (shards are independent files, so the scans share
//! nothing); a torn tail — an incomplete or CRC-corrupt final record left
//! by a crash — is truncated away per shard, which is idempotent
//! (re-scanning a truncated file truncates nothing further). Tombstones
//! keep removals durable across reopen.
//!
//! # Routing: a blob is one group in one segment
//!
//! [`StorageBackend::put_many`] is the write path: `ChunkStore` hands it a
//! blob's chunks and then its manifest in one call. Dedup for the whole
//! call is resolved under one index write lock, and every *new* record is
//! appended to one segment — the shard of the call's last key
//! (`key[0] % shards`), i.e. the blob's manifest — chunks first, manifest
//! last. `put` is `put_many` of one key, so a lone record lands where
//! hash-prefix sharding always put it. A tombstone goes to the segment
//! holding the record it kills.
//!
//! Because a record's segment follows its blob, not its own hash, one key
//! can end up live in two segments: a sweep's tombstone for K queued in one
//! shard and lost in a crash, while K, re-put by another blob, became
//! durable in another. Both records hold the same bytes (content
//! addressing), so recovery keeps the lowest shard's record live and books
//! the other as that shard's dead bytes; `len` and `physical_bytes` count
//! K once and the next compaction drops the duplicate.
//!
//! # One write discipline: a batch lands with one write and one fsync
//!
//! `put_many` inserts a `Pending` index entry per new key (holding the
//! bytes, so reads and `contains` see the key immediately) and makes the
//! call's new records **one group** on their shard; `remove` makes its
//! tombstone a group of one. A record is its 41-byte header (CRC folded
//! over flag, key and data in place) beside the very `Bytes` its `Pending`
//! entry holds — the data is never copied again. Every group reaches the
//! disk through one function, `land`: one vectored write of a batch of
//! whole groups at the shard's tail, one `sync_data`, then each record's
//! index entry swings to its offset. So a blob costs one write and one
//! fsync, and its manifest is never durable without its new chunks.
//!
//! Only the thread differs. With `writer_threads > 0` (the default) a group
//! is queued on its shard and a pool worker drains the queue in batches
//! (whole groups up to 1 MiB, at least one); durability overlaps component
//! execution, and [`CaskBackend::flush`] waits for the queues to drain.
//! With `writer_threads == 0` ([`CaskOptions::synchronous`]) the caller
//! lands its own group before `put_many` returns, so records land in call
//! order. The `mlcask_cask_blocking_syncs_total` series counts the fsyncs a
//! *caller* waited on, so only this mode pays any. The traced-execute/replay protocol already
//! decouples accounting from write timing, so the engines need no changes.
//!
//! # Compaction
//!
//! Removals and superseded records leave dead bytes in the segments;
//! [`CaskBackend::compact`] rewrites every shard that has any, via a
//! temp-file + rename, dropping tombstones and dead records. Shards compact
//! **in parallel** on the same scoped pool the recovery scan uses, and each
//! shard's rewrite holds only that shard's I/O lock — reads of every other
//! shard (and index lookups, which are only briefly locked to snapshot and
//! to swing offsets) proceed while it runs, so compaction overlaps the read
//! path instead of stopping the world. The `Workspace::sweep_orphans`
//! liveness walk drives it: sweep first (which tombstones orphans), then
//! compact to reclaim the file bytes.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] (deterministic, seeded) fires inside `land` at the k-th
//! record landed, whichever thread lands it: the batch is written up to a
//! byte cut inside that record, or through its end, or every segment drops
//! back to its length at the last flush, or the batch's write or
//! `sync_data` fails ([`FaultKind`]). The backend then goes **down** — the
//! one state an injected crash, [`CaskBackend::simulate_crash`] and a real
//! failed write or sync all set — before any record of the batch is swung,
//! and every operation fails until the directory is reopened. Without a
//! pool the crash point is reproducible byte for byte.

use crate::backend::StorageBackend;
use crate::errors::{Result, StorageError};
use crate::fault::{FaultKind, FaultPlan};
use crate::hash::Hash256;
use bytes::Bytes;
use mlcask_obs::metrics::{instance_label, LATENCY_SECONDS, SIZE_BYTES};
use mlcask_obs::{Counter, Histogram, MetricsRegistry};
use parking_lot::{Mutex as PlMutex, RwLock, RwLockWriteGuard};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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

/// Writes `parts` back to back at `off` — vectored, so a whole batch is
/// one `writev` unless the kernel takes less. Empty parts are not allowed
/// (a write of nothing would read as "no progress").
fn write_all_vectored_at(file: &File, off: u64, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    let mut file = file;
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

// ---------------------------------------------------------------------------
// Options and manifest
// ---------------------------------------------------------------------------

/// Construction options for [`CaskBackend`].
#[derive(Debug, Clone)]
pub struct CaskOptions {
    /// Number of shard segment files. Fixed at directory creation; reopening
    /// uses the manifest's count and ignores this field.
    pub shards: usize,
    /// Writer-pool size. `0` lands every group on the caller's thread.
    pub writer_threads: usize,
    /// Deterministic fault injection (tests only).
    pub fault: Option<FaultPlan>,
}

impl Default for CaskOptions {
    fn default() -> Self {
        CaskOptions {
            shards: 8,
            writer_threads: 2,
            fault: None,
        }
    }
}

impl CaskOptions {
    /// No writer pool: `put_many` and `remove` land their group — one
    /// write, one `sync_data` — on the caller's thread and return only once
    /// it is durable. The baseline the writer pool is compared against, and
    /// the mode crash tests use: records land in call order, so a fault
    /// plan's crash point is reproducible.
    pub fn synchronous() -> Self {
        CaskOptions {
            writer_threads: 0,
            ..Self::default()
        }
    }

    /// Replaces the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replaces the fault plan; the writer-pool size stays as set.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Upper bound on the bytes a pool worker drains into one batch (at least
/// one queued group, which is never split) — bounds commit latency.
const MAX_BATCH_BYTES: usize = 1 << 20;

#[derive(serde::Serialize, serde::Deserialize)]
struct CaskManifest {
    version: u32,
    shards: u32,
}

// ---------------------------------------------------------------------------
// Backend state
// ---------------------------------------------------------------------------

/// One index entry: either already durable in a shard, or held in memory
/// while a queued writer-pool job lands it.
#[derive(Clone)]
enum Slot {
    Durable { shard: u32, off: u64, len: u32 },
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
/// never observed out of sync (same invariant as `MemBackend`).
#[derive(Default)]
struct CaskIndex {
    map: HashMap<Hash256, Slot>,
    live_bytes: u64,
}

struct ShardIo {
    file: File,
    /// End of the landed region: every byte before it is written and synced.
    tail: u64,
    /// `tail` at the last flush or open — what a dropped page cache
    /// ([`FaultKind::DropUnsynced`]) rolls the segment back to.
    flushed: u64,
}

struct Shard {
    path: PathBuf,
    io: RwLock<ShardIo>,
    queue: PlMutex<VecDeque<Group>>,
    /// Claimed by at most one pool worker at a time, so each shard's groups
    /// land in FIFO order (a tombstone must never overtake the put it
    /// supersedes).
    busy: AtomicBool,
    /// File bytes occupied by dead records (tombstones + what they killed).
    dead_bytes: AtomicU64,
}

/// One record on its way to a segment.
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

    /// The frame in one buffer — only fault injection needs it, to cut it.
    fn frame(&self) -> Vec<u8> {
        [&self.header[..], &self.data].concat()
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

struct PoolCtl {
    /// Groups queued or being landed.
    pending: usize,
    shutdown: bool,
}

struct Pool {
    state: Mutex<PoolCtl>,
    /// Signalled on enqueue and shutdown.
    work: Condvar,
    /// Signalled when `pending` reaches zero.
    drained: Condvar,
}

struct FaultState {
    plan: FaultPlan,
    /// Records counted toward the plan's trigger, in landing order.
    records: AtomicU64,
}

impl FaultState {
    /// Counts a batch of `n` records; the index within it of the record
    /// the plan fires at, if the batch holds it.
    fn hit(&self, n: usize) -> Option<usize> {
        let before = self.records.fetch_add(n as u64, Ordering::Relaxed);
        let k = self.plan.crash_at_append;
        (k > before && k - before <= n as u64).then(|| (k - before - 1) as usize)
    }
}

struct Inner {
    shards: Vec<Shard>,
    index: RwLock<CaskIndex>,
    pool: Option<Pool>,
    fault: Option<FaultState>,
    /// Why the backend is down — an injected crash, `simulate_crash`, or a
    /// failed write or sync. Set once; every later operation fails with it
    /// until the directory is reopened.
    down: OnceLock<String>,
    /// Registry-backed telemetry (`mlcask_cask_*{instance=...}` series in
    /// the global [`MetricsRegistry`]). The counters keep their pre-registry
    /// accessor semantics — each backend instance owns distinct series, so
    /// tests comparing two backends still see independent counts.
    appends: Counter,
    /// Fsyncs performed on a caller's thread (landings without a writer
    /// pool) — the durability work that *blocks* execution. The writer
    /// pool's whole point is driving this down
    /// (`pool_mode_blocks_fewer_syncs_than_sync_mode` gates on it).
    blocking_syncs: Counter,
    /// Every segment fsync done for append durability, one per landed
    /// batch. `syncs_total / appends` is the fsyncs-per-append metric
    /// `group_commit_coalesces_fsyncs_below_one_per_append` gates below 1.
    syncs_total: Counter,
    /// Batches landed, each with a single group commit.
    group_commits: Counter,
    /// Segment reads served by `get` (Pending hits don't count). The blob
    /// cache sits above this backend, so the read-path bench compares this
    /// counter cache-on vs cache-off.
    read_ops: Counter,
    /// `sync_data` latency of a landing (`kind` = `inline` on the caller's
    /// thread, `group` on a pool worker).
    fsync: Histogram,
    /// Bytes made durable per landed batch.
    group_commit_bytes: Histogram,
}

/// Append-only log-segment storage backend with per-blob routing over
/// sharded segments, CRC-framed records, an index rebuilt on open
/// (truncating torn tails), write offloading to a small writer pool with
/// group commit, and tombstone-based removal with compaction. See the
/// [module docs](self) for the format.
pub struct CaskBackend {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

const INJECTED_CRASH: &str = "injected crash: backend is down";

/// Runs `f(0)..f(count-1)` on a scoped thread pool (work-stealing by atomic
/// index; at most one OS thread per hardware thread) and returns the
/// results in task order. Used for the recovery scan and for parallel
/// compaction, where each task owns one shard and shares nothing.
fn scoped_sharded<T, F>(count: usize, f: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let slots: Vec<PlMutex<Option<Result<T>>>> = (0..count).map(|_| PlMutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                *slots[i].lock() = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("every shard task ran"))
        .collect()
}

/// One shard's recovery-scan result: the shard state plus the records live
/// in its segment.
struct ShardScan {
    shard: Shard,
    map: HashMap<Hash256, Slot>,
}

/// Opens and scans one shard segment, truncating its torn tail (idempotent:
/// re-scanning a truncated file truncates nothing further).
fn scan_shard(root: &Path, s: usize) -> Result<ShardScan> {
    let path = root.join(format!("shard-{s:03}.log"));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)?;
    let mut buf = Vec::new();
    (&file).read_to_end(&mut buf)?;
    let mut map: HashMap<Hash256, Slot> = HashMap::new();
    let mut dead = 0u64;
    let (frames, mut valid) = scan_frames(&buf);
    for (off, len) in frames {
        if len < RECORD_OVERHEAD {
            // Malformed record body: treat like a torn tail.
            valid = off - FRAME_HEADER;
            break;
        }
        let flag = buf[off];
        let key = Hash256(
            buf[off + 1..off + RECORD_OVERHEAD]
                .try_into()
                .expect("32 key bytes"),
        );
        let data_len = (len - RECORD_OVERHEAD) as u64;
        match flag {
            FLAG_PUT => {
                let slot = Slot::Durable {
                    shard: s as u32,
                    off: (off + RECORD_OVERHEAD) as u64,
                    len: data_len as u32,
                };
                if let Some(prev) = map.insert(key, slot) {
                    // A duplicate append (same content address): the
                    // earlier record is dead.
                    dead += record_file_len(prev.len());
                }
            }
            FLAG_TOMBSTONE => {
                dead += record_file_len(data_len);
                if let Some(prev) = map.remove(&key) {
                    dead += record_file_len(prev.len());
                }
            }
            _ => {
                valid = off - FRAME_HEADER;
                break;
            }
        }
    }
    if (valid as u64) < buf.len() as u64 || file.metadata()?.len() > buf.len() as u64 {
        file.set_len(valid as u64)?;
        file.sync_data()?;
    }
    Ok(ShardScan {
        shard: Shard {
            path,
            io: RwLock::new(ShardIo {
                file,
                tail: valid as u64,
                flushed: valid as u64,
            }),
            queue: PlMutex::new(VecDeque::new()),
            busy: AtomicBool::new(false),
            dead_bytes: AtomicU64::new(dead),
        },
        map,
    })
}

impl CaskBackend {
    /// Opens (creating if needed) a cask directory with default options.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(root, CaskOptions::default())
    }

    /// Opens (creating if needed) a cask directory, rebuilding the index by
    /// scanning every shard and truncating torn tails. A pre-existing
    /// directory's shard count comes from its manifest; `opts.shards` only
    /// applies on creation.
    pub fn open_with(root: impl AsRef<Path>, opts: CaskOptions) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let manifest_path = root.join("cask.json");
        let shards = if manifest_path.exists() {
            let m: CaskManifest = serde_json::from_slice(&fs::read(&manifest_path)?)?;
            m.shards as usize
        } else {
            let n = opts.shards.max(1);
            let m = CaskManifest {
                version: 1,
                shards: n as u32,
            };
            fs::write(&manifest_path, serde_json::to_vec(&m)?)?;
            n
        };

        // Shards are independent files, so recovery scans them
        // concurrently; each task truncates its own torn tail (idempotent
        // per shard) and builds a local index to merge below.
        let mut index = CaskIndex::default();
        let mut shard_states = Vec::with_capacity(shards);
        for scan in scoped_sharded(shards, |s| scan_shard(&root, s)) {
            let scan = scan?;
            for (key, slot) in scan.map {
                match index.map.entry(key) {
                    Entry::Vacant(e) => {
                        index.live_bytes += slot.len();
                        e.insert(slot);
                    }
                    // Live in two segments: records go where their blob's
                    // manifest routes them, so a re-put can land in one
                    // shard while the tombstone that killed the key's old
                    // record in another was lost in a crash. Both hold the
                    // same bytes (content addressing); the lowest shard's
                    // record stays live and this one is dead.
                    Entry::Occupied(_) => {
                        scan.shard
                            .dead_bytes
                            .fetch_add(record_file_len(slot.len()), Ordering::Relaxed);
                    }
                }
            }
            shard_states.push(scan.shard);
        }

        let pool = (opts.writer_threads > 0).then(|| Pool {
            state: Mutex::new(PoolCtl {
                pending: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            drained: Condvar::new(),
        });
        // Telemetry series. Counters carry a unique `instance` label so two
        // backends in one process (pool vs sync, tests comparing modes) get
        // independent series; the fsync/byte histograms aggregate across
        // instances — latency distributions are a process-level concern.
        let reg = MetricsRegistry::global();
        let instance = instance_label("cask");
        let ilabel = [("instance", instance.as_str())];
        let counter = |name: &str, help: &str| reg.counter(name, help, &ilabel);
        let fsync_kind = if pool.is_some() { "group" } else { "inline" };
        let inner = Arc::new(Inner {
            shards: shard_states,
            index: RwLock::new(index),
            pool,
            fault: opts.fault.map(|plan| FaultState {
                plan,
                records: AtomicU64::new(0),
            }),
            down: OnceLock::new(),
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
            fsync: reg.histogram(
                "mlcask_cask_fsync_seconds",
                "Segment sync_data latency by call site",
                &[("kind", fsync_kind)],
                LATENCY_SECONDS,
            ),
            group_commit_bytes: reg.histogram(
                "mlcask_cask_group_commit_bytes",
                "Bytes made durable per group-commit batch",
                &[],
                SIZE_BYTES,
            ),
        });
        let workers = (0..opts.writer_threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Inner::worker_loop(inner))
            })
            .collect();
        Ok(CaskBackend { inner, workers })
    }

    /// Records (puts + tombstones) handed to a landing, including those of
    /// a failed one. The crash-matrix tests size their sweep with this.
    pub fn append_count(&self) -> u64 {
        self.inner.appends.get()
    }

    /// Every segment fsync performed for append durability: one per landed
    /// batch. Divide by [`CaskBackend::append_count`] for fsyncs-per-append:
    /// one per `put_many` in synchronous mode, lower still once the pool
    /// coalesces queued groups into one batch.
    pub fn sync_count(&self) -> u64 {
        self.inner.syncs_total.get()
    }

    /// Segment disk reads served by `get` (in-memory `Pending` hits don't
    /// count). The blob cache above this backend absorbs repeat reads, so
    /// `tests/storage_properties.rs` compares this counter cache-on vs
    /// cache-off.
    pub fn read_ops(&self) -> u64 {
        self.inner.read_ops.get()
    }

    /// Total segment file bytes (live + dead), the quantity compaction
    /// shrinks.
    pub fn file_bytes(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.io.read().tail).sum()
    }

    /// File bytes occupied by dead records across all shards.
    pub fn dead_bytes(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.dead_bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Simulates a process death: the backend goes down, queued groups are
    /// discarded, a landing in flight finishes, and whatever a failed
    /// landing left past a segment's tail is truncated away. Reopen the
    /// directory to recover — every landed group survives, nothing else.
    pub fn simulate_crash(&self) {
        self.inner.go_down(INJECTED_CRASH.into());
        // Discard queued groups (workers skip them once down, but the
        // queue must drain so `pending` reaches zero for anyone flushing).
        let mut discarded = 0usize;
        for shard in &self.inner.shards {
            discarded += shard.queue.lock().drain(..).count();
        }
        if let Some(pool) = &self.inner.pool {
            let mut ctl = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            ctl.pending -= discarded.min(ctl.pending);
            // Wait out any in-flight batch so truncation does not race a write.
            while ctl.pending > 0 {
                ctl = pool.drained.wait(ctl).unwrap_or_else(|e| e.into_inner());
            }
            pool.drained.notify_all();
        }
        for shard in &self.inner.shards {
            let io = shard.io.write();
            let _ = io.file.set_len(io.tail);
        }
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

    /// Hands a group to the writer pool, or lands it on the calling thread
    /// when there is none.
    fn submit(&self, sid: usize, group: Group) -> Result<()> {
        let Some(pool) = &self.pool else {
            return self.land(sid, &[group]);
        };
        self.shards[sid].queue.lock().push_back(group);
        let mut ctl = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        ctl.pending += 1;
        drop(ctl);
        pool.work.notify_one();
        Ok(())
    }

    /// Lands `batch` — whole groups, oldest first — at the tail of shard
    /// `sid`: one vectored write (each record's header beside its shared
    /// data, no concatenation buffer), one `sync_data`, then every put's
    /// index entry swings from `Pending` to its offset. The one write path:
    /// pool workers call it on drained batches, the caller's thread on its
    /// own group when there is no pool. A fault plan fires here, at the
    /// record it counts to; it, or a failed write or sync, takes the backend
    /// down before any record of the batch is swung.
    fn land(&self, sid: usize, batch: &[Group]) -> Result<()> {
        self.check_up()?;
        let jobs: Vec<&Job> = batch.iter().flat_map(|g| &g.jobs).collect();
        let total: usize = batch.iter().map(|g| g.bytes).sum();
        self.appends.add(jobs.len() as u64);
        let mut io = self.shards[sid].io.write();
        if let Some(f) = &self.fault {
            if let Some(at) = f.hit(jobs.len()) {
                return Err(self.inject(io, &jobs, f.plan, at));
            }
        }
        let failed = |e: io::Error| self.go_down(format!("cask write failed: {e}"));
        let start = io.tail;
        let mut parts = Vec::with_capacity(2 * jobs.len());
        jobs.iter().for_each(|job| job.push_slices(&mut parts));
        write_all_vectored_at(&io.file, start, &mut parts).map_err(failed)?;
        let t = Instant::now();
        io.file.sync_data().map_err(failed)?;
        self.fsync.observe_duration(t.elapsed());
        io.tail += total as u64;
        drop(io);
        self.syncs_total.inc();
        self.group_commits.inc();
        self.group_commit_bytes.observe(total as f64);
        if self.pool.is_none() {
            self.blocking_syncs.inc();
        }
        let mut off = start;
        let mut idx = self.index.write();
        for job in jobs {
            let frame_len = job.len() as u64;
            match job.key.and_then(|key| idx.map.get_mut(&key)) {
                Some(slot @ Slot::Pending(_)) => {
                    *slot = Slot::Durable {
                        shard: sid as u32,
                        off: off + RECORD_HEADER as u64,
                        len: job.data.len() as u32,
                    };
                }
                // A tombstone, or a put removed (or replaced) while
                // queued: dead on arrival.
                _ => {
                    self.shards[sid]
                        .dead_bytes
                        .fetch_add(frame_len, Ordering::Relaxed);
                }
            }
            off += frame_len;
        }
        Ok(())
    }

    /// Plays the fault `plan` fires at record `at` of a batch about to land
    /// at `io`'s tail, then takes the backend down. Returns the error the
    /// landing surfaces.
    fn inject(
        &self,
        io: RwLockWriteGuard<'_, ShardIo>,
        jobs: &[&Job],
        plan: FaultPlan,
        at: usize,
    ) -> StorageError {
        let frames = |n: usize| -> Vec<u8> { jobs[..n].iter().flat_map(|j| j.frame()).collect() };
        let start = io.tail;
        let (why, played) = match plan.kind {
            // Record `at` is cut at a seeded byte behind the whole records
            // before it: the torn tail recovery truncates.
            FaultKind::Torn => {
                let mut buf = frames(at);
                let frame = jobs[at].frame();
                buf.extend_from_slice(&frame[..plan.torn_cut(frame.len())]);
                let torn = io.file.write_all_at(&buf, start);
                (INJECTED_CRASH, torn.and_then(|()| io.file.sync_data()))
            }
            // Record `at` is durable, but its caller never hears back.
            FaultKind::AfterWrite => {
                let written = io.file.write_all_at(&frames(at + 1), start);
                (INJECTED_CRASH, written.and_then(|()| io.file.sync_data()))
            }
            // The machine dies with its page cache: every segment is back
            // at its length at the last flush (or open).
            FaultKind::DropUnsynced => {
                drop(io);
                let rolled_back = self.shards.iter().try_for_each(|shard| {
                    let mut io = shard.io.write();
                    io.file.set_len(io.flushed)?;
                    io.tail = io.flushed;
                    Ok(())
                });
                (INJECTED_CRASH, rolled_back)
            }
            // ENOSPC mid-write: a seeded prefix of the batch reaches the file.
            FaultKind::GroupCommitError if plan.seed.is_multiple_of(2) => {
                let buf = frames(jobs.len());
                let cut = plan.torn_cut(buf.len());
                (
                    "injected fault: write failed (no space left on device)",
                    io.file.write_all_at(&buf[..cut], start),
                )
            }
            // EIO from `sync_data`: the whole batch reached the file.
            FaultKind::GroupCommitError => (
                "injected fault: sync_data failed (EIO)",
                io.file.write_all_at(&frames(jobs.len()), start),
            ),
        };
        self.go_down(played.map_or_else(|e| e.to_string(), |()| why.into()))
    }

    fn worker_loop(inner: Arc<Inner>) {
        let pool = inner.pool.as_ref().expect("worker requires a pool");
        loop {
            let mut did_work = false;
            for (sid, shard) in inner.shards.iter().enumerate() {
                if shard.queue.lock().is_empty() {
                    continue;
                }
                if shard.busy.swap(true, Ordering::Acquire) {
                    continue;
                }
                loop {
                    // Drain a bounded batch: whole groups, up to
                    // `MAX_BATCH_BYTES` (always at least one group).
                    let batch = {
                        let mut q = shard.queue.lock();
                        let mut batch = Vec::new();
                        let mut bytes = 0usize;
                        while let Some(group) = q.front() {
                            if !batch.is_empty() && bytes + group.bytes > MAX_BATCH_BYTES {
                                break;
                            }
                            bytes += group.bytes;
                            batch.push(q.pop_front().expect("front exists"));
                        }
                        batch
                    };
                    if batch.is_empty() {
                        break;
                    }
                    let n = batch.len();
                    // A failure took the backend down; `flush` and the next
                    // write report it.
                    let _ = inner.land(sid, &batch);
                    let mut ctl = pool.state.lock().unwrap_or_else(|e| e.into_inner());
                    ctl.pending -= n;
                    if ctl.pending == 0 {
                        pool.drained.notify_all();
                    }
                }
                shard.busy.store(false, Ordering::Release);
                did_work = true;
            }
            if did_work {
                continue;
            }
            let ctl = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            if ctl.shutdown && ctl.pending == 0 {
                return;
            }
            if ctl.pending > 0 {
                // Jobs exist but are claimed by (or racing with) other
                // workers; a timed wait avoids a lost wakeup when a shard is
                // unclaimed right after our scan.
                let (guard, _) = pool
                    .work
                    .wait_timeout(ctl, std::time::Duration::from_millis(2))
                    .unwrap_or_else(|e| e.into_inner());
                drop(guard);
            } else {
                drop(pool.work.wait(ctl).unwrap_or_else(|e| e.into_inner()));
            }
        }
    }

    /// The commit barrier: waits until every queued group has landed (a
    /// landing syncs its own bytes), surfaces a failure, and records each
    /// segment's tail as flushed.
    fn flush_all(&self) -> Result<()> {
        self.check_up()?;
        if let Some(pool) = &self.pool {
            let mut ctl = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            while ctl.pending > 0 {
                pool.work.notify_all();
                let (c, _) = pool
                    .drained
                    .wait_timeout(ctl, std::time::Duration::from_millis(2))
                    .unwrap_or_else(|e| e.into_inner());
                ctl = c;
            }
        }
        self.check_up()?;
        for shard in &self.shards {
            let mut io = shard.io.write();
            io.flushed = io.tail;
        }
        Ok(())
    }

    /// Rewrites one shard's segment, dropping dead records. Holds only this
    /// shard's I/O lock for the duration (other shards keep serving reads
    /// and writes) and touches the shared index just twice, briefly: a read
    /// to snapshot the shard's live entries, and a write to swing offsets
    /// after the rename. Entries that changed while the copy ran (the sweep
    /// protocol is quiescent, but stay safe) are left untouched.
    fn compact_shard(&self, sid: usize) -> Result<u64> {
        let shard = &self.shards[sid];
        if shard.dead_bytes.load(Ordering::Relaxed) == 0 {
            return Ok(0);
        }
        let mut io = shard.io.write();
        let mut entries: Vec<(Hash256, u64, u32)> = {
            let idx = self.index.read();
            idx.map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Durable { shard, off, len } if *shard as usize == sid => {
                        Some((*k, *off, *len))
                    }
                    _ => None,
                })
                .collect()
        };
        entries.sort_by_key(|(_, off, _)| *off);
        // The copy loop runs with no index lock held — concurrent readers
        // of other keys (and writers of other shards) proceed untouched.
        let mut out: Vec<u8> = Vec::new();
        let mut moved: Vec<(Hash256, u64, u64, u32)> = Vec::with_capacity(entries.len());
        for (key, off, len) in entries {
            let mut data = vec![0u8; len as usize];
            io.file.read_exact_at(&mut data, off)?;
            let new_off = (out.len() + RECORD_HEADER) as u64;
            out.extend_from_slice(&record_header(FLAG_PUT, &key, &data));
            out.extend_from_slice(&data);
            moved.push((key, off, new_off, len));
        }
        let tmp = shard.path.with_extension("log.compact");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &shard.path)?;
        let new_file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&shard.path)?;
        let reclaimed = io.tail.saturating_sub(out.len() as u64);
        io.file = new_file;
        io.tail = out.len() as u64;
        io.flushed = out.len() as u64;
        {
            let mut idx = self.index.write();
            for (key, old_off, new_off, len) in moved {
                if let Some(slot) = idx.map.get_mut(&key) {
                    let unchanged = matches!(
                        slot,
                        Slot::Durable { shard, off, .. }
                            if *shard as usize == sid && *off == old_off
                    );
                    if unchanged {
                        *slot = Slot::Durable {
                            shard: sid as u32,
                            off: new_off,
                            len,
                        };
                    }
                }
            }
        }
        shard.dead_bytes.store(0, Ordering::Relaxed);
        Ok(reclaimed)
    }
}

impl StorageBackend for CaskBackend {
    fn put(&self, key: Hash256, data: &[u8]) -> Result<bool> {
        Ok(self.put_many(&[(key, data)])?[0])
    }

    /// Resolves dedup for the whole call under one index write lock (new
    /// keys gain `Pending` slots, so reads see them at once), then submits
    /// every new record as one group to one segment — the last key's shard,
    /// which for a blob is its manifest's: one write, one `sync_data`.
    fn put_many(&self, items: &[(Hash256, &[u8])]) -> Result<Vec<bool>> {
        let inner = &*self.inner;
        inner.check_up()?;
        let Some(&(route, _)) = items.last() else {
            return Ok(Vec::new());
        };
        let sid = (route.0[0] as usize) % inner.shards.len();
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
        inner.submit(sid, group)?;
        Ok(fresh)
    }

    fn get(&self, key: Hash256) -> Result<Bytes> {
        let inner = &*self.inner;
        inner.check_up()?;
        // Clone the slot out rather than holding the index lock across the
        // shard I/O lock (the writer pool acquires them in the opposite
        // order).
        let slot = inner.index.read().map.get(&key).cloned();
        match slot {
            None => Err(StorageError::NotFound(key)),
            Some(Slot::Pending(b)) => Ok(b),
            Some(Slot::Durable { shard, off, len }) => {
                let mut out = vec![0u8; len as usize];
                {
                    let io = inner.shards[shard as usize].io.read();
                    io.file.read_exact_at(&mut out, off)?;
                }
                inner.read_ops.inc();
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
        // replay them in the wrong order on reopen; drain the queues first.
        while matches!(inner.index.read().map.get(&key), Some(Slot::Pending(_))) {
            inner.flush_all()?;
        }
        let (sid, len) = {
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
                Some(Slot::Durable { shard, len, .. }) => {
                    let (s, l) = (*shard as usize, *len as u64);
                    idx.map.remove(&key);
                    idx.live_bytes -= l;
                    (s, l)
                }
            }
        };
        inner.shards[sid]
            .dead_bytes
            .fetch_add(record_file_len(len), Ordering::Relaxed);
        let tombstone = Job::new(FLAG_TOMBSTONE, key, Bytes::new());
        inner.submit(sid, Group::new(vec![tombstone]))?;
        Ok(Some(len))
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush_all()
    }

    fn compact(&self) -> Result<u64> {
        let inner = &*self.inner;
        inner.flush_all()?;
        // Shards compact independently and in parallel; each task holds
        // only its own shard's I/O lock, so reads of other shards overlap
        // the rewrites.
        let mut reclaimed = 0u64;
        for r in scoped_sharded(inner.shards.len(), |sid| inner.compact_shard(sid)) {
            reclaimed += r?;
        }
        Ok(reclaimed)
    }
}

impl Drop for CaskBackend {
    fn drop(&mut self) {
        if let Some(pool) = &self.inner.pool {
            {
                let mut ctl = pool.state.lock().unwrap_or_else(|e| e.into_inner());
                ctl.shutdown = true;
            }
            pool.work.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
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
        let be = CaskBackend::open_with(
            &root,
            CaskOptions {
                writer_threads: 3,
                shards: 4,
                ..CaskOptions::default()
            },
        )
        .unwrap();
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
            let be = CaskBackend::open_with(&root, CaskOptions::default().with_shards(3)).unwrap();
            be.put(a, b"alpha").unwrap();
            be.put(b, b"beta").unwrap();
            be.remove(b).unwrap();
            be.flush().unwrap();
        }
        // Reopen ignores the (different) requested shard count: the
        // manifest pins it.
        let be = CaskBackend::open_with(&root, CaskOptions::default().with_shards(9)).unwrap();
        assert_eq!(be.inner.shards.len(), 3);
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
        let shard_path;
        {
            let be =
                CaskBackend::open_with(&root, CaskOptions::synchronous().with_shards(1)).unwrap();
            be.put(key, b"survivor").unwrap();
            shard_path = root.join("shard-000.log");
        }
        // Append garbage (a torn record) behind the backend's back.
        let mut raw = fs::read(&shard_path).unwrap();
        let intact = raw.len();
        raw.extend_from_slice(&[0x55; 13]);
        fs::write(&shard_path, &raw).unwrap();
        {
            let be = CaskBackend::open(&root).unwrap();
            assert_eq!(be.get(key).unwrap().as_ref(), b"survivor");
        }
        assert_eq!(fs::metadata(&shard_path).unwrap().len() as usize, intact);
        // Second reopen changes nothing (idempotent truncation).
        {
            let _be = CaskBackend::open(&root).unwrap();
        }
        assert_eq!(fs::metadata(&shard_path).unwrap().len() as usize, intact);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cask_injected_torn_crash_recovers_prior_writes() {
        let root = temp_root("fault-torn");
        let keys: Vec<(Hash256, Vec<u8>)> = (0..6u8)
            .map(|i| {
                let data = vec![i; 64 + i as usize];
                (Hash256::of(&data), data)
            })
            .collect();
        {
            let opts = CaskOptions::synchronous().with_fault(FaultPlan::torn(4, 42));
            let be = CaskBackend::open_with(&root, opts).unwrap();
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
        let be = CaskBackend::open(&root).unwrap();
        for (k, d) in &keys[..3] {
            assert_eq!(
                be.get(*k).unwrap().as_ref(),
                &d[..],
                "pre-crash writes survive"
            );
        }
        assert!(!be.contains(keys[3].0), "torn record is truncated away");
        assert_eq!(be.len(), 3);
        drop(be);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cask_compaction_reclaims_dead_bytes_and_preserves_liveness() {
        let root = temp_root("compact");
        let be = CaskBackend::open_with(&root, CaskOptions::synchronous().with_shards(2)).unwrap();
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
        // One per landed put on the caller's thread against none: the pool
        // lands (and syncs) every group on its own threads.
        assert!(
            pool.inner.blocking_syncs.get() * 4 <= sync.inner.blocking_syncs.get(),
            "pool {} vs sync {}",
            pool.inner.blocking_syncs.get(),
            sync.inner.blocking_syncs.get()
        );
        drop(sync);
        drop(pool);
        fs::remove_dir_all(&root_s).unwrap();
        fs::remove_dir_all(&root_p).unwrap();
    }

    #[test]
    fn group_commit_coalesces_fsyncs_below_one_per_append() {
        let root = temp_root("group-commit");
        let be = CaskBackend::open_with(
            &root,
            CaskOptions {
                writer_threads: 1,
                shards: 1,
                ..CaskOptions::default()
            },
        )
        .unwrap();
        // Enqueueing is a hashmap insert + memcpy; each group commit is a
        // write plus an fsync syscall. The queue therefore builds up and
        // batches must coalesce.
        let payloads: Vec<Vec<u8>> = (0..=255u8).map(|i| vec![i; 256]).collect();
        for p in &payloads {
            be.put(Hash256::of(p), p).unwrap();
        }
        be.flush().unwrap();
        assert_eq!(be.append_count(), 256);
        assert!(be.inner.group_commits.get() >= 1);
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
        let root = temp_root("group-commit-crash");
        let flushed: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 128]).collect();
        let racing: Vec<Vec<u8>> = (100..140u8).map(|i| vec![i; 128]).collect();
        {
            let be = CaskBackend::open_with(
                &root,
                CaskOptions {
                    writer_threads: 2,
                    shards: 4,
                    ..CaskOptions::default()
                },
            )
            .unwrap();
            for p in &flushed {
                be.put(Hash256::of(p), p).unwrap();
            }
            be.flush().unwrap();
            for p in &racing {
                be.put(Hash256::of(p), p).unwrap();
            }
            // Crash mid-stream: whichever batches group-committed survive,
            // the rest vanish — never a torn or corrupt record.
            be.simulate_crash();
        }
        let be = CaskBackend::open(&root).unwrap();
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
        drop(be);
        fs::remove_dir_all(&root).unwrap();
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
            assert_eq!(job.frame(), frame(&payload));
            assert_eq!(job.len() as u64, record_file_len(data.len() as u64));
        }
    }

    /// Every new record of one `put_many` lands in one segment — the last
    /// key's shard — as one group commit, on the caller's thread or a pool
    /// worker; a single-key call lands where `key[0] % shards` puts it.
    #[test]
    fn put_many_lands_in_the_last_keys_shard() {
        let blobs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 40 + i as usize]).collect();
        let items: Vec<(Hash256, &[u8])> = blobs.iter().map(|b| (Hash256::of(b), &b[..])).collect();
        let route = (items.last().unwrap().0 .0[0] as usize) % 4;
        let spread = items
            .iter()
            .map(|(k, _)| k.0[0] % 4)
            .collect::<HashSet<_>>();
        assert!(spread.len() > 1, "the keys alone would spread over shards");
        for writer_threads in [0, 2] {
            let root = temp_root("route");
            let opts = CaskOptions {
                shards: 4,
                writer_threads,
                ..CaskOptions::default()
            };
            let be = CaskBackend::open_with(&root, opts).unwrap();
            assert_eq!(be.put_many(&items).unwrap(), vec![true; items.len()]);
            be.flush().unwrap();
            let sizes: Vec<u64> = (0..4)
                .map(|s| {
                    fs::metadata(root.join(format!("shard-{s:03}.log")))
                        .unwrap()
                        .len()
                })
                .collect();
            let total: u64 = blobs.iter().map(|b| record_file_len(b.len() as u64)).sum();
            assert_eq!(sizes[route], total, "threads {writer_threads}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<u64>(), total);
            assert_eq!(be.inner.group_commits.get(), 1, "one group, one commit");
            assert_eq!(be.sync_count(), 1);
            assert_eq!(be.append_count(), items.len() as u64);
            drop(be);
            let be = CaskBackend::open(&root).unwrap();
            for (k, d) in &items {
                assert_eq!(be.get(*k).unwrap().as_ref(), *d);
            }
            let (key, data) = (Hash256::of(b"alone"), b"alone");
            be.put(key, data).unwrap();
            be.flush().unwrap();
            let alone = root.join(format!("shard-{:03}.log", key.0[0] % 4));
            assert_eq!(
                fs::metadata(alone).unwrap().len(),
                sizes[(key.0[0] % 4) as usize] + record_file_len(data.len() as u64)
            );
            drop(be);
            fs::remove_dir_all(&root).unwrap();
        }
    }

    /// A failed group commit — its write (even seed) or its `sync_data`
    /// (odd seed), in the batch holding the k-th record — takes the backend
    /// down on the pool and on the caller's thread alike: the error surfaces
    /// from `flush` (and, without a pool, from the `put_many` itself) and
    /// from the next `put_many`, no record of the failed group is swung to
    /// `Durable`, and a reopen serves every group flushed before it
    /// byte-exact and no torn record.
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
        for writer_threads in [2, 0] {
            for seed in [0u64, 1, 6, 7] {
                for n in 1..=4u64 {
                    let root = temp_root("group-fault");
                    // Group n holds records 3n-2..=3n; vary which one fires.
                    let plan = FaultPlan {
                        crash_at_append: 3 * (n - 1) + 1 + n % 3,
                        kind: FaultKind::GroupCommitError,
                        seed,
                    };
                    let cell = format!("threads {writer_threads} seed {seed} n {n}");
                    let mut flushed = Vec::new();
                    {
                        let opts = CaskOptions {
                            shards: 3,
                            writer_threads,
                            fault: Some(plan),
                        };
                        let be = CaskBackend::open_with(&root, opts).unwrap();
                        // One flush per group makes batch k exactly group k.
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
                        assert_eq!(be.put_many(&refs).is_err(), writer_threads == 0, "{cell}");
                        assert!(be.flush().is_err(), "{cell}: flush reports it");
                        let next = keyed(&groups[n as usize]);
                        assert!(be.put_many(&[(next[0].0, &next[0].1)]).is_err());
                        assert!(be.flush().is_err(), "{cell}: and keeps reporting it");
                        let idx = be.inner.index.read();
                        for (k, _) in &failed {
                            assert!(matches!(idx.map.get(k), Some(Slot::Pending(_))));
                        }
                        drop(idx);
                        assert_eq!(be.inner.group_commits.get(), n - 1, "{cell}");
                    }
                    let be = CaskBackend::open(&root).unwrap();
                    for (k, d) in &flushed {
                        assert_eq!(be.get(*k).unwrap().as_ref(), &d[..]);
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
                    drop(be);
                    fs::remove_dir_all(&root).unwrap();
                }
            }
        }
    }

    /// `cask.json` through `write_json` is what the tree renders.
    #[test]
    fn cask_manifest_writes_the_bytes_of_its_tree() {
        for (version, shards) in [(1, 8), (0, 0), (u32::MAX, 3)] {
            let m = CaskManifest { version, shards };
            let mut tree = String::new();
            serde::write_value(&mut tree, &serde::Serialize::to_value(&m), None, 0);
            assert_eq!(serde_json::to_string(&m).unwrap(), tree);
        }
        let m = CaskManifest {
            version: 1,
            shards: 8,
        };
        assert_eq!(
            serde_json::to_vec(&m).unwrap(),
            br#"{"version":1,"shards":8}"#
        );
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
