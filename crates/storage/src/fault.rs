//! The simulated segment file: the cask's segment in memory, with a seeded
//! plan that plays every way a disk file fails.
//!
//! A [`SimFile`] is what a [`CaskBackend`](crate::cask::CaskBackend) opened
//! with [`open_sim`](crate::cask::CaskBackend::open_sim) appends to;
//! [`MemBackend`](crate::backend::MemBackend) is the cask over a fault-free
//! one. It keeps two lengths, like a file under a page cache: the bytes
//! *written* and the prefix of them *synced*. [`SimFile::crash`] is the
//! machine dying — the unsynced suffix is dropped and every handle dies —
//! and [`SimFile::reopen`] a new process opening the file: a live handle on
//! what it holds, every older handle dead. A [`FaultPlan`] armed with
//! [`SimFile::arm`] fires at the n-th write, sync, read or compaction
//! rewrite after arming ([`FaultKind`]); it is deterministic in
//! `(kind, at, seed)`, so the same plan against the same writes leaves the
//! same bytes. [`SimFile::hold_syncs`] holds every `sync_data` at a gate,
//! so a test can stall the writer without sleeping.

use crate::cask::SegmentFile;
use std::io::{self, IoSlice, Write};
use std::sync::{Arc, Mutex, MutexGuard};

/// What a [`FaultPlan`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The n-th write reaches the disk up to a seeded byte short of its
    /// end, then the machine dies: a torn tail.
    Torn,
    /// The machine dies at the n-th write, before it is synced.
    Crash,
    /// The n-th write and its sync complete, then the machine dies before
    /// the caller hears back.
    AfterSync,
    /// The n-th write fails with EIO after a seeded prefix of it was
    /// written (as on ENOSPC); the file stays up.
    WriteError,
    /// The n-th `sync_data` fails with EIO; the file stays up.
    SyncError,
    /// The n-th read fails with EIO; the file stays up.
    ReadError,
    /// The machine dies inside the n-th compaction, between its rewrite
    /// and its swap: the new image is lost.
    CompactCrash,
}

/// A deterministic fault for a [`SimFile`]: `kind` fires at the `at`-th
/// operation of its sort (1-based; writes for the write-side kinds, syncs,
/// reads or rewrites for the others) counted from [`SimFile::arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// What happens.
    pub kind: FaultKind,
    /// The 1-based operation it happens at.
    pub at: u64,
    /// Seeds the byte cut of a torn or failed write.
    pub seed: u64,
}

impl FaultPlan {
    /// The write-side kinds — what a crash matrix sweeps.
    pub const WRITE_KINDS: [FaultKind; 5] = [
        FaultKind::Torn,
        FaultKind::Crash,
        FaultKind::AfterSync,
        FaultKind::WriteError,
        FaultKind::SyncError,
    ];

    /// `kind` at operation `at`, cut seeded by `seed`.
    pub fn new(kind: FaultKind, at: u64, seed: u64) -> Self {
        FaultPlan { kind, at, seed }
    }

    /// A seeded plan of a pseudo-random write-side kind at a write in
    /// `1..=max_writes` — property tests sweep `seed` to cover the space.
    pub fn seeded(seed: u64, max_writes: u64) -> Self {
        let r = splitmix64(seed);
        let kind = Self::WRITE_KINDS[(r % Self::WRITE_KINDS.len() as u64) as usize];
        Self::new(kind, 1 + splitmix64(r) % max_writes.max(1), seed)
    }

    /// Where a torn or failed write of `len` bytes is cut: deterministic in
    /// `(seed, at)`, anywhere in `0..len`, so the write's last byte is
    /// always lost.
    pub(crate) fn cut(&self, len: usize) -> usize {
        (splitmix64(self.seed ^ self.at) % len.max(1) as u64) as usize
    }
}

/// SplitMix64 — the standard 64-bit seed scrambler; deterministic and
/// dependency-free.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The file's state, shared by every handle on it.
#[derive(Default)]
struct Disk {
    /// The written bytes, in one `Vec` appended at its end.
    bytes: Vec<u8>,
    /// How much of `bytes` is synced.
    synced: usize,
    /// The live handles' generation; a crash or reopen ends it.
    epoch: u64,
    plan: Option<FaultPlan>,
    /// Operations since the plan was armed: writes, syncs, reads, rewrites.
    ops: [u64; 4],
    /// An `AfterSync` plan fired: the next sync completes, then a crash.
    crash_after_sync: bool,
}

const WRITE: usize = 0;
const SYNC: usize = 1;
const READ: usize = 2;
const REWRITE: usize = 3;

impl Disk {
    /// Counts one operation of sort `op` and returns the armed plan if it
    /// fires there.
    fn tick(&mut self, op: usize) -> Option<FaultPlan> {
        self.ops[op] += 1;
        let sort = |kind| match kind {
            FaultKind::SyncError => SYNC,
            FaultKind::ReadError => READ,
            FaultKind::CompactCrash => REWRITE,
            _ => WRITE,
        };
        let ops = self.ops[op];
        self.plan.filter(|p| sort(p.kind) == op && p.at == ops)
    }

    /// The machine dies: the unsynced suffix goes, and so do the handles.
    fn crash(&mut self) {
        self.bytes.truncate(self.synced);
        self.epoch += 1;
    }

    /// Appends `data`: the cask writes only at the end of its segment.
    fn write(&mut self, off: usize, data: &[u8]) -> io::Result<()> {
        if off != self.bytes.len() {
            return Err(io::Error::other("a simulated file is written at its end"));
        }
        self.bytes.extend_from_slice(data);
        Ok(())
    }
}

#[derive(Default)]
struct Shared {
    disk: Mutex<Disk>,
    /// Every `sync_data` passes through it first; [`SimFile::hold_syncs`]
    /// holds it.
    gate: Mutex<()>,
}

/// An in-memory segment file with a written and a synced length, a crash
/// and a reopen, and a seeded [`FaultPlan`]. See the [module docs](self).
#[derive(Clone, Default)]
pub struct SimFile {
    shared: Arc<Shared>,
    /// The generation this handle belongs to.
    epoch: u64,
}

fn eio(what: &str) -> io::Error {
    io::Error::other(format!("simulated EIO on {what}"))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SimFile {
    /// An empty, fault-free file.
    pub fn new() -> Self {
        Self::default()
    }

    fn disk(&self) -> MutexGuard<'_, Disk> {
        lock(&self.shared.disk)
    }

    /// The disk, if this handle is still live.
    fn live(&self) -> io::Result<MutexGuard<'_, Disk>> {
        let disk = self.disk();
        if disk.epoch != self.epoch {
            return Err(io::Error::other(
                "simulated crash: the file handle died with its process",
            ));
        }
        Ok(disk)
    }

    /// Arms `plan` (replacing any other) and restarts the operation counts
    /// it fires on.
    pub fn arm(&self, plan: FaultPlan) {
        let mut disk = self.disk();
        disk.plan = Some(plan);
        disk.ops = [0; 4];
    }

    /// Writes since the last [`arm`](Self::arm) (or since creation) — a
    /// crash matrix sizes its sweep with a clean run's count.
    pub fn writes(&self) -> u64 {
        self.disk().ops[WRITE]
    }

    /// The machine dies: the unsynced suffix is dropped and every handle is
    /// dead. [`reopen`](Self::reopen) to go on.
    pub fn crash(&self) {
        self.disk().crash();
    }

    /// A handle for a new process on what the file holds now; every older
    /// handle is dead from here on.
    pub fn reopen(&self) -> SimFile {
        let mut disk = self.disk();
        disk.epoch += 1;
        SimFile {
            shared: Arc::clone(&self.shared),
            epoch: disk.epoch,
        }
    }

    /// The written bytes, synced or not.
    pub fn contents(&self) -> Vec<u8> {
        self.disk().bytes.clone()
    }

    /// Holds every `sync_data` until the returned guard is dropped; the
    /// file's other operations go on.
    pub fn hold_syncs(&self) -> MutexGuard<'_, ()> {
        lock(&self.shared.gate)
    }
}

impl SegmentFile for SimFile {
    fn write_at(&self, off: u64, parts: &mut [IoSlice<'_>]) -> io::Result<()> {
        let mut disk = self.live()?;
        let off = off as usize;
        let Some(plan) = disk.tick(WRITE) else {
            let mut at = off;
            for part in parts.iter() {
                disk.write(at, part)?;
                at += part.len();
            }
            return Ok(());
        };
        let data: Vec<u8> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        match plan.kind {
            FaultKind::Torn => {
                disk.write(off, &data[..plan.cut(data.len())])?;
                disk.synced = disk.bytes.len();
                disk.crash();
                return Err(io::Error::other("simulated crash: torn write"));
            }
            FaultKind::Crash => {
                disk.crash();
                return Err(io::Error::other("simulated crash before the write"));
            }
            FaultKind::AfterSync => {
                disk.write(off, &data)?;
                disk.crash_after_sync = true;
            }
            _ => {
                disk.write(off, &data[..plan.cut(data.len())])?;
                return Err(eio("write"));
            }
        }
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        drop(lock(&self.shared.gate));
        let mut disk = self.live()?;
        if disk.tick(SYNC).is_some() {
            return Err(eio("sync_data"));
        }
        disk.synced = disk.bytes.len();
        if std::mem::take(&mut disk.crash_after_sync) {
            disk.crash();
            return Err(io::Error::other("simulated crash after the sync"));
        }
        Ok(())
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        let mut disk = self.live()?;
        if disk.tick(READ).is_some() {
            return Err(eio("read"));
        }
        let off = off as usize;
        let src = disk
            .bytes
            .get(off..off + buf.len())
            .ok_or(io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.live()?.bytes.len() as u64)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut disk = self.live()?;
        disk.bytes.resize(len as usize, 0);
        disk.synced = disk.synced.min(len as usize);
        Ok(())
    }

    /// Builds the new image without the lock (`fill` reads through this
    /// handle), then swaps it in whole, synced — or, under a
    /// `CompactCrash` plan, crashes before the swap.
    fn rewrite(
        &self,
        fill: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<Box<dyn SegmentFile>> {
        let mut image = Vec::new();
        fill(&mut image)?;
        let mut disk = self.live()?;
        if disk.tick(REWRITE).is_some() {
            disk.crash();
            return Err(io::Error::other("simulated crash before the swap"));
        }
        disk.synced = image.len();
        disk.bytes = image;
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(f: &SimFile, data: &[u8]) -> io::Result<()> {
        f.write_at(f.len()?, &mut [IoSlice::new(data)])
    }

    #[test]
    fn splitmix_is_deterministic_and_scrambles() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }

    #[test]
    fn torn_cut_covers_full_range_deterministically() {
        let plan = FaultPlan::new(FaultKind::Torn, 7, 99);
        let a = plan.cut(100);
        assert_eq!(a, plan.cut(100), "same plan, same cut");
        assert!(a < 100);
        assert_ne!(
            plan.cut(1000),
            FaultPlan::new(FaultKind::Torn, 8, 99).cut(1000)
        );
        assert_eq!(plan.cut(1), 0);
    }

    #[test]
    fn seeded_plans_stay_in_bounds() {
        for seed in 0..64u64 {
            let p = FaultPlan::seeded(seed, 10);
            assert!(p.at >= 1 && p.at <= 10);
            assert!(FaultPlan::WRITE_KINDS.contains(&p.kind));
        }
    }

    /// A crash keeps the synced prefix only and kills every handle; a
    /// reopen gives a live one on what survived.
    #[test]
    fn a_crash_drops_the_unsynced_suffix_and_kills_old_handles() {
        let f = SimFile::new();
        write(&f, b"synced").unwrap();
        f.sync_data().unwrap();
        write(&f, b"+lost").unwrap();
        assert_eq!(f.contents(), b"synced+lost");
        f.crash();
        assert_eq!(f.contents(), b"synced");
        assert!(write(&f, b"x").is_err(), "the old handle is dead");
        assert!(f.len().is_err());
        let g = f.reopen();
        write(&g, b"!").unwrap();
        assert_eq!(g.contents(), b"synced!");
        // A reopen without a crash keeps unsynced bytes and ends `g` too.
        let h = g.reopen();
        assert_eq!(h.len().unwrap(), 7);
        assert!(g.sync_data().is_err());
    }

    /// Without a plan nothing fails, however many operations run.
    #[test]
    fn an_unarmed_sim_file_never_fails() {
        let f = SimFile::new();
        for i in 0..50u8 {
            write(&f, &[i; 4]).unwrap();
            f.sync_data().unwrap();
            let mut b = [0u8; 4];
            f.read_exact_at(&mut b, 4 * i as u64).unwrap();
            assert_eq!(b, [i; 4]);
        }
        assert_eq!(f.writes(), 50);
    }

    /// Each write-side kind at write 2 of three 10-byte writes, each synced.
    #[test]
    fn each_write_side_kind_leaves_what_it_promises() {
        for (kind, expect_err, survives) in [
            (FaultKind::Torn, true, None),
            (FaultKind::Crash, true, Some(10)),
            (FaultKind::AfterSync, true, Some(20)),
            (FaultKind::WriteError, true, None),
            (FaultKind::SyncError, true, None),
        ] {
            let f = SimFile::new();
            f.arm(FaultPlan::new(kind, 2, 5));
            let mut err = false;
            for i in 0..3u8 {
                if write(&f, &[i; 10]).and_then(|()| f.sync_data()).is_err() {
                    err = true;
                    break;
                }
            }
            assert_eq!(err, expect_err, "{kind:?}");
            let len = f.contents().len();
            match (kind, survives) {
                (_, Some(n)) => {
                    f.crash();
                    assert_eq!(f.contents().len(), n, "{kind:?}");
                }
                (FaultKind::Torn, _) => {
                    assert!((10..20).contains(&len), "{kind:?}: {len}");
                    assert!(f.len().is_err(), "a torn write crashes");
                }
                (FaultKind::WriteError, _) => {
                    assert!((10..20).contains(&len));
                    assert!(f.len().is_ok(), "the file stays up");
                }
                _ => {
                    assert_eq!(len, 20);
                    f.crash();
                    assert_eq!(f.contents().len(), 10, "the failed sync synced nothing");
                }
            }
        }
    }

    #[test]
    fn a_read_error_fires_once_at_its_read() {
        let f = SimFile::new();
        write(&f, b"abcdef").unwrap();
        f.arm(FaultPlan::new(FaultKind::ReadError, 2, 0));
        let mut b = [0u8; 3];
        f.read_exact_at(&mut b, 0).unwrap();
        assert!(f.read_exact_at(&mut b, 0).is_err());
        f.read_exact_at(&mut b, 3).unwrap();
        assert_eq!(&b, b"def");
    }

    #[test]
    fn a_compact_crash_loses_the_image_and_keeps_the_synced_file() {
        let f = SimFile::new();
        write(&f, b"old").unwrap();
        f.sync_data().unwrap();
        f.arm(FaultPlan::new(FaultKind::CompactCrash, 1, 0));
        let err = f.rewrite(&mut |out| out.write_all(b"new"));
        assert!(err.is_err());
        assert_eq!(f.reopen().contents(), b"old");
        let g = f.reopen();
        let h = g.rewrite(&mut |out| out.write_all(b"new")).unwrap();
        assert_eq!(h.len().unwrap(), 3);
        assert_eq!(g.contents(), b"new");
    }

    /// A held sync waits at the gate until released, and the file's other
    /// operations go on meanwhile.
    #[test]
    fn held_syncs_wait_for_the_gate() {
        let f = SimFile::new();
        write(&f, b"abc").unwrap();
        let held = f.hold_syncs();
        let g = f.clone();
        let syncer = std::thread::spawn(move || g.sync_data());
        let mut b = [0u8; 3];
        f.read_exact_at(&mut b, 0).unwrap();
        write(&f, b"def").unwrap();
        drop(held);
        syncer.join().unwrap().unwrap();
        f.crash();
        assert!(f.contents().len() >= 3, "the released sync synced");
    }
}
