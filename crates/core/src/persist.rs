//! Crash-safe session persistence: checkpoint + journal + warm restart.
//!
//! NR-Scope runs unattended for days against live cells; a process crash
//! must not cost the tracked C-RNTI population, throughput windows, or
//! sync-health state (re-discovering UEs passively takes until each next
//! RACHes). This module makes scope state durable with two artefacts:
//!
//! * **Snapshots** (`ckpt-<slot>.snap`): a versioned binary image of all
//!   recoverable state ([`SessionState`]), written atomically
//!   (tmp + fsync + rename + directory fsync) on a slot-count cadence
//!   from a background writer thread. Background snapshots are
//!   delta-encoded: a full image every [`PersistConfig::full_snapshot_every`]
//!   checkpoints, with intermediate snapshots storing only the fields
//!   that changed since the last full one.
//! * **Journal** (`journal-<start>.jnl`): an append-only record of every
//!   slot since the journal file's start, written as CRC-guarded binary
//!   **group-commit batches**: the hot path appends records to an
//!   in-memory buffer and a dedicated writer thread pushes sealed
//!   batches to the OS, amortising the write syscall across
//!   [`PersistConfig::flush_max_slots`] slots (or
//!   [`PersistConfig::flush_max_latency_us`], whichever trips first).
//!   `kill -9` loses at most the bounded tail that was not yet handed
//!   to the OS — a configurable loss window instead of the old
//!   flush-per-slot lose-at-most-one guarantee, at ~25× less hot-path
//!   cost. Checkpoint, rotation, and shutdown act as barriers that seal
//!   and drain the in-flight batch first.
//!
//! Recovery loads the newest *valid* snapshot (torn or corrupt ones are
//! detected by CRC + length prefix and skipped — never panic, never load
//! garbage) and replays the journal tail on top. Replay is idempotent via
//! the slot-sequence watermark: entries below the snapshot's slot are
//! already folded in and skip, so bytes are never double-counted no
//! matter how snapshot and journal overlap. A journal file may mix the
//! legacy `J1` JSONL records with binary batches (a session upgraded in
//! place appends batches after its old tail); the reader sniffs the
//! format at every record boundary.

use crate::binfmt;
use crate::clock::ClockRecoveryState;
use crate::config::{ScopeConfig, StoragePolicy};
use crate::governor::OverloadGovernor;
use crate::metrics::{Counter, Gauge, Metrics, MetricsSnapshot};
use crate::scope::{CellKnowledge, NrScope, ScopeStats, SyncState};
use crate::telemetry::TelemetryRecord;
use crate::throughput::ThroughputState;
use crate::tracker::{TrackerAux, TrackerState};
use nr_phy::types::{Pci, Rnti};
use nr_radio::{splitmix64, GOLDEN};
use nr_rrc::RrcSetup;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CRC-32 slice-by-8 lookup tables, built at compile time from the
/// reflected IEEE polynomial. `CRC32_TABLES[0]` is the classic one-byte
/// table; table `k` advances a byte `k` positions through the register,
/// so eight bytes fold in with eight independent loads per iteration.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the guard on
/// every snapshot payload and journal batch. Slice-by-8: the group
/// commit checksums a multi-KiB payload per batch, so a bitwise loop
/// (~30x slower per byte) would hand a measurable slice of each slot
/// budget back to the checksum.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// CRC-32 over the concatenation of two slices (header fields + payload)
/// without materialising the concatenation.
fn crc32_pair(a: &[u8], b: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, a), b)
}

/// One state-mutating operation of a processed slot, in occurrence order.
/// Replaying a slot's ops (then overwriting with its [`MicroState`])
/// reconstructs the scope exactly as the live run left it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SlotOp {
    /// A UE entered the tracked set (MSG 4 promotion or hypothesis-retry
    /// restore — the distinction washes out because the entry's aux image
    /// carries the bookkeeping verbatim).
    Track {
        /// The C-RNTI tracked.
        rnti: Rnti,
        /// The RRC Setup its state was built from.
        rrc: RrcSetup,
    },
    /// A telemetry record was produced (activity, HARQ memory, and
    /// throughput-window side effects are re-derived from the record).
    Record(TelemetryRecord),
    /// Housekeeping expired an idle UE.
    Expire {
        /// The expired C-RNTI.
        rnti: Rnti,
    },
}

/// End-of-slot continuous state, carried in the *final* record of every
/// group-commit batch so replay never re-derives sync/governor/stats
/// decisions (and so cannot drift from what the live run concluded).
/// Torn batches are discarded whole, so replay always lands on a record
/// that carries one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicroState {
    /// Cell knowledge (PCI, MIB, SIB1, frame anchor).
    pub cell: CellKnowledge,
    /// Sync-health machine state.
    pub sync: SyncState,
    /// Consecutive unhealthy slots feeding that machine.
    pub unhealthy_streak: u64,
    /// PCI believed before a sync loss (reacquisition hint).
    pub last_pci: Option<Pci>,
    /// Session counters.
    pub stats: ScopeStats,
    /// Overload-governor ladder state.
    pub governor: OverloadGovernor,
    /// Tracker bookkeeping (pending TC-RNTIs, expiry shadow, RRC cache).
    pub tracker_aux: TrackerAux,
    /// Timing-recovery loop state (`None` when no clock observables ever
    /// arrived). Defaulted so pre-clock journals still parse.
    #[serde(default)]
    pub clock: Option<ClockRecoveryState>,
}

/// One journal record: everything slot `seq` did to the session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The slot this entry describes.
    pub seq: u64,
    /// Whether the front end dropped this slot (diagnostics only; replay
    /// treats both kinds identically).
    pub dropped: bool,
    /// Ordered state mutations.
    pub ops: Vec<SlotOp>,
    /// End-of-slot continuous state. Present on every legacy JSONL record
    /// and on the final record of each binary batch; `None` on interior
    /// batch records (ops replay alone carries them, and the batch's
    /// closing record re-anchors the continuous state exactly).
    #[serde(default)]
    pub micro: Option<MicroState>,
}

/// The full recoverable image of a session — what a snapshot holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionState {
    /// Serialisation schema version ([`crate::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Next slot to process; doubles as the replay watermark.
    pub slot: u64,
    /// Cell knowledge.
    pub cell: CellKnowledge,
    /// Sync-health machine state.
    pub sync: SyncState,
    /// Consecutive unhealthy slots.
    pub unhealthy_streak: u64,
    /// Reacquisition PCI hint.
    pub last_pci: Option<Pci>,
    /// Out-of-band PCI the session was started with.
    pub assumed_pci: Option<Pci>,
    /// Session counters.
    pub stats: ScopeStats,
    /// Overload-governor ladder state.
    pub governor: OverloadGovernor,
    /// UE tracker (table + bookkeeping).
    pub tracker: TrackerState,
    /// Throughput estimator (windows + history).
    pub throughput: ThroughputState,
    /// Metrics counters at snapshot time.
    pub metrics: MetricsSnapshot,
    /// Timing-recovery loop state (`None` when no clock observables ever
    /// arrived). Defaulted so pre-clock snapshots still parse.
    #[serde(default)]
    pub clock: Option<ClockRecoveryState>,
}

/// What recovery found and did — written as `RECOVERY_report.json` by the
/// supervisor soak so CI can assert warm-restart invariants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Serialisation schema version.
    pub schema_version: u32,
    /// Whether any prior state was found (false = cold start).
    pub resumed: bool,
    /// Slot of the snapshot restored, if one was valid.
    pub snapshot_slot: Option<u64>,
    /// Snapshots rejected as torn/corrupt/future-schema before one loaded.
    pub corrupt_checkpoints_skipped: u64,
    /// Journal entries applied on top of the snapshot.
    pub replayed_entries: u64,
    /// Journal segments discarded as truncated or corrupt.
    pub journal_entries_discarded: u64,
    /// The slot the session resumed at (watermark after replay).
    pub resumed_slot: u64,
    /// UEs tracked at resume.
    pub recovered_ues: u64,
}

const SNAP_MAGIC: &str = "NRSCOPE-SNAP";
const JOURNAL_MAGIC: &str = "J1";
const SNAP_PREFIX: &str = "ckpt-";
const SNAP_SUFFIX: &str = ".snap";
const JOURNAL_PREFIX: &str = "journal-";
const JOURNAL_SUFFIX: &str = ".jnl";

// ---------------------------------------------------------------------------
// Storage backend abstraction + deterministic fault injection.
//
// Every *mutating* file operation the persistence layer performs — open
// for append, truncating create, write, fsync, rename, dir-fsync,
// remove — goes through a `StorageBackend`, so a test or bench can swap
// the real filesystem for a `FaultyBackend` that injects scheduled
// faults at chosen operation counts, the way `ImpairmentSchedule`
// injects radio faults. Read paths stay direct `std::fs`: a read failure
// is already handled by recovery's corruption tolerance and cannot lose
// data that was durably written.
// ---------------------------------------------------------------------------

/// A writable file handle issued by a [`StorageBackend`].
pub trait StorageFile: Send {
    /// Write all of `buf` (the durability unit — a whole journal batch or
    /// snapshot image per call).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file contents and metadata to the device.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate (or extend) to exactly `len` bytes — the retry path cuts
    /// a short write back to the last committed batch boundary with this.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn file_len(&self) -> io::Result<u64>;
}

/// The set of mutating filesystem operations the persistence layer needs.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// `fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Open (creating if needed) for append — the journal path.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Create truncating — tmp snapshots and the re-probe file.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Atomic rename (snapshot tmp → final name).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file (pruning).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory so a rename within it is itself durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealBackend;

impl StorageFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

impl StorageBackend for RealBackend {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

fn err_eio() -> io::Error {
    io::Error::from_raw_os_error(5) // EIO
}

fn err_enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28)
}

/// One kind of injectable storage fault. Serialisable so a chaos plan can
/// script storage windows for a supervised child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// `write` fails with `EIO` (transient within its window, persistent
    /// when the window is unbounded).
    WriteEio,
    /// `write` lands only the first half of the buffer, then fails with
    /// `EIO` — the classic torn append.
    WriteShort,
    /// `write` fails with `ENOSPC` (disk full).
    WriteEnospc,
    /// `write` reports success but the bytes are silently dropped — the
    /// fsync-gate lie (data lost despite every syscall reporting ok).
    WriteFsyncGate,
    /// `fsync` fails with `EIO` (also fails the re-probe).
    FsyncEio,
    /// `rename` fails with `EIO` (breaks atomic snapshot installs).
    RenameFail,
    /// `open`/`create` fails with `EIO` (dead disk on reopen).
    OpenFail,
}

impl FaultKind {
    fn is_write(self) -> bool {
        matches!(
            self,
            FaultKind::WriteEio
                | FaultKind::WriteShort
                | FaultKind::WriteEnospc
                | FaultKind::WriteFsyncGate
        )
    }
}

/// Deterministic seeded fault schedule, mirroring `ImpairmentSchedule`:
/// each fault kind fires inside half-open windows of *operation indices*,
/// counted per operation class (writes, fsyncs, renames, opens — each
/// class has its own counter, shared across every file the backend ever
/// issues). An optional seeded per-write `EIO` probability adds random
/// transients on top.
#[derive(Debug, Clone, Default)]
pub struct StorageFaultSchedule {
    seed: u64,
    faults: Vec<(FaultKind, Range<u64>)>,
    write_eio_prob: f64,
}

impl StorageFaultSchedule {
    /// An empty schedule (no faults) with the given random seed.
    pub fn new(seed: u64) -> StorageFaultSchedule {
        StorageFaultSchedule {
            seed,
            ..StorageFaultSchedule::default()
        }
    }

    fn with(mut self, kind: FaultKind, window: Range<u64>) -> StorageFaultSchedule {
        self.faults.push((kind, window));
        self
    }

    /// Write ops in `window` fail with `EIO`.
    pub fn with_write_eio(self, window: Range<u64>) -> StorageFaultSchedule {
        self.with(FaultKind::WriteEio, window)
    }

    /// Write ops in `window` land half the buffer, then fail with `EIO`.
    pub fn with_short_writes(self, window: Range<u64>) -> StorageFaultSchedule {
        self.with(FaultKind::WriteShort, window)
    }

    /// Write ops in `window` fail with `ENOSPC`.
    pub fn with_enospc(self, window: Range<u64>) -> StorageFaultSchedule {
        self.with(FaultKind::WriteEnospc, window)
    }

    /// Write ops in `window` report success but drop the bytes.
    pub fn with_fsync_gate(self, window: Range<u64>) -> StorageFaultSchedule {
        self.with(FaultKind::WriteFsyncGate, window)
    }

    /// Fsync ops in `window` fail with `EIO`.
    pub fn with_fsync_eio(self, window: Range<u64>) -> StorageFaultSchedule {
        self.with(FaultKind::FsyncEio, window)
    }

    /// Rename ops in `window` fail with `EIO`.
    pub fn with_rename_failures(self, window: Range<u64>) -> StorageFaultSchedule {
        self.with(FaultKind::RenameFail, window)
    }

    /// Open/create ops in `window` fail with `EIO`.
    pub fn with_open_failures(self, window: Range<u64>) -> StorageFaultSchedule {
        self.with(FaultKind::OpenFail, window)
    }

    /// Every write op additionally fails with `EIO` at probability `p`,
    /// drawn from the schedule's seed (deterministic per op index).
    pub fn with_random_write_eio(mut self, p: f64) -> StorageFaultSchedule {
        self.write_eio_prob = p.clamp(0.0, 1.0);
        self
    }
}

#[derive(Debug)]
struct FaultState {
    schedule: StorageFaultSchedule,
    rng: u64,
    writes: u64,
    fsyncs: u64,
    renames: u64,
    opens: u64,
    removes: u64,
}

impl FaultState {
    fn fault_at(&self, class: impl Fn(FaultKind) -> bool, i: u64) -> Option<FaultKind> {
        self.schedule
            .faults
            .iter()
            .find(|(k, w)| class(*k) && w.contains(&i))
            .map(|(k, _)| *k)
    }
}

/// A [`StorageBackend`] wrapping the real filesystem that injects the
/// faults its [`StorageFaultSchedule`] dictates. Clones share one fault
/// state, so operation counts are global across every file and clone —
/// deterministic given a deterministic operation sequence.
#[derive(Debug, Clone)]
pub struct FaultyBackend {
    state: Arc<Mutex<FaultState>>,
}

impl FaultyBackend {
    /// Wrap the real filesystem with `schedule`.
    pub fn new(schedule: StorageFaultSchedule) -> FaultyBackend {
        let rng = schedule.seed ^ 0x5357_4F52_4147_4531; // "STORAGE1"
        FaultyBackend {
            state: Arc::new(Mutex::new(FaultState {
                schedule,
                rng,
                writes: 0,
                fsyncs: 0,
                renames: 0,
                opens: 0,
                removes: 0,
            })),
        }
    }

    /// Arm another fault window at runtime (op indices stay absolute, so
    /// `backend.writes()..` makes a fault persistent "from now on").
    pub fn arm(&self, kind: FaultKind, window: Range<u64>) {
        lock_clean(&self.state).schedule.faults.push((kind, window));
    }

    /// Disarm every scheduled fault (the "disk recovered" transition).
    pub fn clear_faults(&self) {
        let mut s = lock_clean(&self.state);
        s.schedule.faults.clear();
        s.schedule.write_eio_prob = 0.0;
    }

    /// Write operations attempted so far (faulted or not).
    pub fn writes(&self) -> u64 {
        lock_clean(&self.state).writes
    }

    /// Fsync operations attempted so far.
    pub fn fsyncs(&self) -> u64 {
        lock_clean(&self.state).fsyncs
    }

    /// Rename operations attempted so far.
    pub fn renames(&self) -> u64 {
        lock_clean(&self.state).renames
    }

    /// Open/create operations attempted so far.
    pub fn opens(&self) -> u64 {
        lock_clean(&self.state).opens
    }

    /// Remove operations attempted so far.
    pub fn removes(&self) -> u64 {
        lock_clean(&self.state).removes
    }

    fn next_write_fault(&self) -> Option<FaultKind> {
        let mut s = lock_clean(&self.state);
        let i = s.writes;
        s.writes += 1;
        if let Some(k) = s.fault_at(FaultKind::is_write, i) {
            return Some(k);
        }
        if s.schedule.write_eio_prob > 0.0 {
            let bits = splitmix64(s.rng);
            s.rng = s.rng.wrapping_add(GOLDEN);
            let draw = (bits >> 11) as f64 / (1u64 << 53) as f64;
            if draw < s.schedule.write_eio_prob {
                return Some(FaultKind::WriteEio);
            }
        }
        None
    }

    fn next_fsync_fault(&self) -> Option<FaultKind> {
        let mut s = lock_clean(&self.state);
        let i = s.fsyncs;
        s.fsyncs += 1;
        s.fault_at(|k| k == FaultKind::FsyncEio, i)
    }

    fn next_rename_fault(&self) -> Option<FaultKind> {
        let mut s = lock_clean(&self.state);
        let i = s.renames;
        s.renames += 1;
        s.fault_at(|k| k == FaultKind::RenameFail, i)
    }

    fn next_open_fault(&self) -> Option<FaultKind> {
        let mut s = lock_clean(&self.state);
        let i = s.opens;
        s.opens += 1;
        s.fault_at(|k| k == FaultKind::OpenFail, i)
    }
}

struct FaultyFile {
    real: File,
    faults: FaultyBackend,
}

impl StorageFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.faults.next_write_fault() {
            None => io::Write::write_all(&mut self.real, buf),
            Some(FaultKind::WriteEio) => Err(err_eio()),
            Some(FaultKind::WriteEnospc) => Err(err_enospc()),
            Some(FaultKind::WriteShort) => {
                let _ = io::Write::write_all(&mut self.real, &buf[..buf.len() / 2]);
                Err(err_eio())
            }
            // The lie: every syscall reports success, the bytes are gone.
            Some(FaultKind::WriteFsyncGate) => Ok(()),
            Some(_) => Err(err_eio()),
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.faults.next_fsync_fault() {
            None => self.real.sync_all(),
            Some(_) => Err(err_eio()),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // Not faulted: truncate is the *recovery* half of the retry path.
        self.real.set_len(len)
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.real.metadata()?.len())
    }
}

impl StorageBackend for FaultyBackend {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if self.next_open_fault().is_some() {
            return Err(err_eio());
        }
        Ok(Box::new(FaultyFile {
            real: OpenOptions::new().create(true).append(true).open(path)?,
            faults: self.clone(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if self.next_open_fault().is_some() {
            return Err(err_eio());
        }
        Ok(Box::new(FaultyFile {
            real: File::create(path)?,
            faults: self.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.next_rename_fault().is_some() {
            return Err(err_eio());
        }
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock_clean(&self.state).removes += 1;
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.next_fsync_fault() {
            None => File::open(dir)?.sync_all(),
            Some(_) => Err(err_eio()),
        }
    }
}

// ---------------------------------------------------------------------------
// Durability degradation ladder.
// ---------------------------------------------------------------------------

/// The durability ladder: how much the session currently promises about
/// crash survival. Stored as a `u64` in a shared atomic (and exported as
/// the `durability_rung` gauge), so the writer thread, the hot path, and
/// fleet rollups all see one truth without locking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DurabilityRung {
    /// Journal + checkpoints healthy: `kill -9` loses at most
    /// [`PersistConfig::loss_window_slots`].
    Durable = 0,
    /// A recent storage error was retried (or recovery from `NonDurable`
    /// is being confirmed): same bounded loss window, but the disk is
    /// suspect. Promotes back to `Durable` after a clean-write streak.
    DurableDegraded = 1,
    /// Storage failed persistently: decoding continues, nothing is being
    /// journalled, and the loss window is **unbounded** — reported
    /// honestly as such. A background probe re-promotes when the disk
    /// recovers.
    NonDurable = 2,
}

impl DurabilityRung {
    /// All rungs, best first.
    pub const ALL: [DurabilityRung; 3] = [
        DurabilityRung::Durable,
        DurabilityRung::DurableDegraded,
        DurabilityRung::NonDurable,
    ];

    /// Stable snake_case name used in rollups and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DurabilityRung::Durable => "durable",
            DurabilityRung::DurableDegraded => "durable_degraded",
            DurabilityRung::NonDurable => "non_durable",
        }
    }

    /// Decode the gauge/atomic encoding (clamps unknown values to
    /// `NonDurable` — the honest direction to be wrong in).
    pub fn from_u64(v: u64) -> DurabilityRung {
        match v {
            0 => DurabilityRung::Durable,
            1 => DurabilityRung::DurableDegraded,
            _ => DurabilityRung::NonDurable,
        }
    }
}

/// Consecutive first-attempt batch writes before `DurableDegraded`
/// promotes back to `Durable` — the governor's promote-hysteresis shape
/// applied to disks (one good write after an error streak proves little).
const PROMOTE_CLEAN_BATCHES: u32 = 4;

/// Base backoff before a failed batch write is retried, doubling per
/// attempt. Retries run on the writer thread: with the default
/// `storage_retry_max` of 4 the worst case blocks it ~7.5 ms — bounded,
/// and invisible to the capture hot path unless its queue fills.
const RETRY_BACKOFF_BASE_US: u64 = 500;

/// Cap on the re-probe flap backoff exponent
/// (`reprobe_interval_slots << exp`), the governor's demote-fast /
/// promote-slow hysteresis shape: 2048-slot probes degrade to ~2
/// minutes between attempts on a disk that stays dead.
const MAX_PROBE_FLAP_EXP: u32 = 6;

// ---------------------------------------------------------------------------
// Binary group-commit batch format.
//
//   offset  size  field
//   0       4     magic "NRSB"
//   4       1     format version (1)
//   5       4     payload length, u32 LE
//   9       4     CRC-32 of payload, u32 LE
//   13      4     record count, u32 LE
//   17      ...   payload: `record count` records back to back
//
// Each record:
//   varint  seq
//   u8      flags (bit 0 = slot dropped, bit 1 = MicroState follows ops)
//   varint  op count
//   ...     ops, binfmt-encoded SlotOp values
//   [...]   binfmt-encoded MicroState, iff flag bit 1
//
// The batch is the durability unit: a torn or bit-flipped batch fails its
// length or CRC check and is discarded whole, so replay always stops at a
// batch boundary — whose final record carries the MicroState re-anchor.
// ---------------------------------------------------------------------------

/// Magic prefix of a binary journal batch.
pub const BATCH_MAGIC: &[u8; 4] = b"NRSB";
const BATCH_VERSION: u8 = 1;
const BATCH_HEADER_LEN: usize = 17;
const FLAG_DROPPED: u8 = 0b01;
const FLAG_MICRO: u8 = 0b10;

/// Checked little-endian u32 read: `None` instead of a panic when the
/// slice is short. Header-length checks at the call sites should make a
/// short read impossible, but decode paths handle untrusted bytes — a
/// framing bug must degrade to "corrupt record", never a panic.
fn read_u32_le(data: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        data.get(at..at.checked_add(4)?)?.try_into().ok()?,
    ))
}

/// Checked little-endian u64 read (see [`read_u32_le`]).
fn read_u64_le(data: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        data.get(at..at.checked_add(8)?)?.try_into().ok()?,
    ))
}

fn push_record_bytes(buf: &mut Vec<u8>, seq: u64, dropped: bool, ops: &[SlotOp]) -> usize {
    binfmt::put_varint(buf, seq);
    let flags_at = buf.len();
    buf.push(if dropped { FLAG_DROPPED } else { 0 });
    binfmt::put_varint(buf, ops.len() as u64);
    for op in ops {
        put_slot_op(buf, op);
    }
    flags_at
}

/// Hand-rolled encoding of the journal's hottest value, byte-for-byte
/// identical to `binfmt::put_value(buf, op)` (pinned by the
/// `direct_slot_op_encoding_matches_derived` test). The derived path
/// builds a `Content` tree per value — fine for checkpoints, but the
/// dominant CPU cost at slot rate — so the per-slot `Record` variant is
/// written straight to bytes and the rare variants keep the derived path.
fn put_slot_op(buf: &mut Vec<u8>, op: &SlotOp) {
    use nr_phy::dci::DciFormat;
    use nr_phy::pdcch::AggregationLevel;
    use nr_phy::types::RntiType;

    let SlotOp::Record(r) = op else {
        binfmt::put_value(buf, op);
        return;
    };
    binfmt::put_map_header(buf, 1);
    binfmt::put_key(buf, "Record");
    binfmt::put_map_header(buf, 19);
    binfmt::put_key(buf, "schema_version");
    binfmt::put_u64(buf, u64::from(r.schema_version));
    binfmt::put_key(buf, "slot");
    binfmt::put_u64(buf, r.slot);
    binfmt::put_key(buf, "sfn");
    binfmt::put_u64(buf, u64::from(r.sfn));
    binfmt::put_key(buf, "rnti");
    binfmt::put_u64(buf, u64::from(r.rnti.0));
    binfmt::put_key(buf, "rnti_type");
    binfmt::put_str(
        buf,
        match r.rnti_type {
            RntiType::C => "C",
            RntiType::Tc => "Tc",
            RntiType::Ra => "Ra",
            RntiType::Si => "Si",
            RntiType::P => "P",
        },
    );
    binfmt::put_key(buf, "format");
    binfmt::put_str(
        buf,
        match r.format {
            DciFormat::Ul0_1 => "Ul0_1",
            DciFormat::Dl1_1 => "Dl1_1",
        },
    );
    binfmt::put_key(buf, "level");
    binfmt::put_str(
        buf,
        match r.level {
            AggregationLevel::L1 => "L1",
            AggregationLevel::L2 => "L2",
            AggregationLevel::L4 => "L4",
            AggregationLevel::L8 => "L8",
            AggregationLevel::L16 => "L16",
        },
    );
    binfmt::put_key(buf, "cce_start");
    binfmt::put_u64(buf, r.cce_start as u64);
    binfmt::put_key(buf, "prb_start");
    binfmt::put_u64(buf, r.prb_start as u64);
    binfmt::put_key(buf, "prb_len");
    binfmt::put_u64(buf, r.prb_len as u64);
    binfmt::put_key(buf, "symbol_start");
    binfmt::put_u64(buf, r.symbol_start as u64);
    binfmt::put_key(buf, "symbol_len");
    binfmt::put_u64(buf, r.symbol_len as u64);
    binfmt::put_key(buf, "mcs");
    binfmt::put_u64(buf, u64::from(r.mcs));
    binfmt::put_key(buf, "ndi");
    binfmt::put_u64(buf, u64::from(r.ndi));
    binfmt::put_key(buf, "rv");
    binfmt::put_u64(buf, u64::from(r.rv));
    binfmt::put_key(buf, "harq_id");
    binfmt::put_u64(buf, u64::from(r.harq_id));
    binfmt::put_key(buf, "layers");
    binfmt::put_u64(buf, r.layers as u64);
    binfmt::put_key(buf, "tbs");
    binfmt::put_u64(buf, u64::from(r.tbs));
    binfmt::put_key(buf, "is_retx");
    binfmt::put_bool(buf, r.is_retx);
}

fn finish_batch(buf: &mut [u8], n_records: u32) {
    let payload_len = (buf.len() - BATCH_HEADER_LEN) as u32;
    let crc = crc32(&buf[BATCH_HEADER_LEN..]);
    buf[..4].copy_from_slice(BATCH_MAGIC);
    buf[4] = BATCH_VERSION;
    buf[5..9].copy_from_slice(&payload_len.to_le_bytes());
    buf[9..13].copy_from_slice(&crc.to_le_bytes());
    buf[13..17].copy_from_slice(&n_records.to_le_bytes());
}

/// Encode a slice of entries as one sealed binary batch (each entry's
/// `micro` presence is honoured verbatim).
pub fn encode_batch(entries: &[JournalEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_batch_into(&mut buf, entries);
    buf
}

/// [`encode_batch`] into a reused scratch buffer (cleared first). Encoding
/// runs on the writer thread, off the capture hot path — the hot path
/// only moves already-owned [`JournalEntry`] values into the batch.
fn encode_batch_into(buf: &mut Vec<u8>, entries: &[JournalEntry]) {
    buf.clear();
    buf.resize(BATCH_HEADER_LEN, 0);
    for e in entries {
        let flags_at = push_record_bytes(buf, e.seq, e.dropped, &e.ops);
        if let Some(m) = &e.micro {
            buf[flags_at] |= FLAG_MICRO;
            binfmt::put_value(buf, m);
        }
    }
    finish_batch(buf, entries.len() as u32);
}

/// Parse one batch at the start of `data`. Returns the decoded entries and
/// the byte length consumed, or `None` for anything torn, corrupt,
/// non-monotonic, or from a future format version.
fn parse_batch(data: &[u8], prev_seq: Option<u64>) -> Option<(Vec<JournalEntry>, usize)> {
    if data.len() < BATCH_HEADER_LEN || &data[..4] != BATCH_MAGIC || data[4] != BATCH_VERSION {
        return None;
    }
    let payload_len = read_u32_le(data, 5)? as usize;
    let crc = read_u32_le(data, 9)?;
    let n_records = read_u32_le(data, 13)?;
    let end = BATCH_HEADER_LEN.checked_add(payload_len)?;
    if end > data.len() {
        return None; // torn tail
    }
    let payload = &data[BATCH_HEADER_LEN..end];
    if crc32(payload) != crc {
        return None;
    }
    // Each record costs at least 3 bytes; a count the payload cannot back
    // is corrupt (and the CRC matching it would be miraculous).
    if n_records as usize > payload_len.max(1) {
        return None;
    }
    let mut entries = Vec::with_capacity(n_records as usize);
    let mut pos = 0usize;
    let mut prev = prev_seq;
    for _ in 0..n_records {
        let seq = binfmt::get_varint(payload, &mut pos)?;
        // Sequences must strictly advance within a file; a repeat or a
        // jump backwards means the file was stitched or corrupted.
        if prev.is_some_and(|p| seq <= p) {
            return None;
        }
        prev = Some(seq);
        let flags = *payload.get(pos)?;
        pos += 1;
        if flags & !(FLAG_DROPPED | FLAG_MICRO) != 0 {
            return None;
        }
        let n_ops = binfmt::get_varint(payload, &mut pos)? as usize;
        if n_ops > payload.len().saturating_sub(pos) {
            return None;
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            ops.push(binfmt::get_value::<SlotOp>(payload, &mut pos)?);
        }
        let micro = if flags & FLAG_MICRO != 0 {
            Some(binfmt::get_value::<MicroState>(payload, &mut pos)?)
        } else {
            None
        };
        entries.push(JournalEntry {
            seq,
            dropped: flags & FLAG_DROPPED != 0,
            ops,
            micro,
        });
    }
    if pos != payload.len() {
        return None; // slack bytes inside a CRC-valid payload: framing bug
    }
    Some((entries, end))
}

/// Append one legacy journal record: `J1 <len:08x> <crc:08x> <json>\n`.
/// Kept as the writer for upgrade fixtures and mixed-format tests; the
/// live path writes binary batches via [`JournalWriter`].
pub fn append_journal_entry<W: Write>(w: &mut W, e: &JournalEntry) -> io::Result<()> {
    let json = serde_json::to_string(e).map_err(io::Error::from)?;
    writeln!(
        w,
        "{JOURNAL_MAGIC} {:08x} {:08x} {json}",
        json.len(),
        crc32(json.as_bytes())
    )
}

/// Parse journal bytes, stopping at the first invalid record (truncated
/// tail, bad CRC, zero-length or malformed payload, non-monotonic
/// sequence, torn batch). Returns the valid prefix and the number of
/// discarded segments. The format is sniffed at every record boundary:
/// `J1 ` starts a legacy JSONL record, `NRSB` a binary batch — so a file
/// whose session was upgraded mid-stream replays end to end.
pub fn read_journal_bytes(data: &[u8]) -> (Vec<JournalEntry>, u64) {
    let mut out: Vec<JournalEntry> = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        let rest = &data[pos..];
        let prev = out.last().map(|e| e.seq);
        if rest.starts_with(BATCH_MAGIC) {
            match parse_batch(rest, prev) {
                Some((mut entries, used)) => {
                    out.append(&mut entries);
                    pos += used;
                }
                None => break,
            }
        } else if rest.starts_with(JOURNAL_MAGIC.as_bytes()) {
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                break; // torn JSONL tail
            };
            match parse_journal_segment(&rest[..nl], prev) {
                Some(entry) => {
                    out.push(entry);
                    pos += nl + 1;
                }
                None => break,
            }
        } else {
            break;
        }
    }
    // Everything from the first bad byte on is untrusted: count the
    // remaining line-ish segments (≥ 1 whenever anything was discarded).
    let discarded = if pos >= data.len() {
        0
    } else {
        (data[pos..]
            .split(|&b| b == b'\n')
            .filter(|s| !s.is_empty())
            .count() as u64)
            .max(1)
    };
    (out, discarded)
}

fn parse_journal_segment(seg: &[u8], prev_seq: Option<u64>) -> Option<JournalEntry> {
    let text = std::str::from_utf8(seg).ok()?;
    let rest = text.strip_prefix(JOURNAL_MAGIC)?.strip_prefix(' ')?;
    let (len_hex, rest) = rest.split_at_checked(8)?;
    let rest = rest.strip_prefix(' ')?;
    let (crc_hex, rest) = rest.split_at_checked(8)?;
    let json = rest.strip_prefix(' ')?;
    let len = usize::from_str_radix(len_hex, 16).ok()?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if len == 0 || json.len() != len || crc32(json.as_bytes()) != crc {
        return None;
    }
    let entry: JournalEntry = serde_json::from_str(json).ok()?;
    if prev_seq.is_some_and(|p| entry.seq <= p) {
        return None;
    }
    Some(entry)
}

// ---------------------------------------------------------------------------
// Binary snapshot format.
//
//   offset  size  field
//   0       4     magic "NRCK"
//   4       1     schema version
//   5       1     kind (0 = full, 1 = delta)
//   6       8     snapshot slot, u64 LE
//   14      8     base slot (the full snapshot a delta overlays; equals
//                 the snapshot slot for fulls), u64 LE
//   22      4     payload length, u32 LE
//   26      4     CRC-32 over bytes [4..26) + payload, u32 LE
//   30      ...   payload
//
// Payload: varint field count, then per field `u8 id | varint len | bytes`
// where the bytes are the binfmt encoding of that SessionState field. A
// delta stores only the fields whose encoding differs from its base full
// snapshot; loading overlays them on the base's fields. The CRC covers
// the header metadata too, so a bit flip anywhere in the file is caught.
// ---------------------------------------------------------------------------

const SNAP_BIN_MAGIC: &[u8; 4] = b"NRCK";
const SNAP_KIND_FULL: u8 = 0;
const SNAP_KIND_DELTA: u8 = 1;
const SNAP_BIN_HEADER_LEN: usize = 30;

const F_SCHEMA: u8 = 0;
const F_SLOT: u8 = 1;
const F_CELL: u8 = 2;
const F_SYNC: u8 = 3;
const F_STREAK: u8 = 4;
const F_LAST_PCI: u8 = 5;
const F_ASSUMED_PCI: u8 = 6;
const F_STATS: u8 = 7;
const F_GOVERNOR: u8 = 8;
const F_TRACKER: u8 = 9;
const F_THROUGHPUT: u8 = 10;
const F_METRICS: u8 = 11;
const F_CLOCK: u8 = 12;
/// Field count written by this version.
const SNAP_FIELDS: usize = 13;
/// Minimum accepted field count: pre-clock snapshots carry 12 fields and
/// load with `clock: None` (the same admission older JSON snapshots get
/// from `#[serde(default)]`).
const SNAP_FIELDS_MIN: usize = 12;

type SnapFields = Vec<(u8, Vec<u8>)>;

fn encode_state_fields(state: &SessionState) -> SnapFields {
    vec![
        (F_SCHEMA, binfmt::encode_value(&state.schema_version)),
        (F_SLOT, binfmt::encode_value(&state.slot)),
        (F_CELL, binfmt::encode_value(&state.cell)),
        (F_SYNC, binfmt::encode_value(&state.sync)),
        (F_STREAK, binfmt::encode_value(&state.unhealthy_streak)),
        (F_LAST_PCI, binfmt::encode_value(&state.last_pci)),
        (F_ASSUMED_PCI, binfmt::encode_value(&state.assumed_pci)),
        (F_STATS, binfmt::encode_value(&state.stats)),
        (F_GOVERNOR, binfmt::encode_value(&state.governor)),
        (F_TRACKER, binfmt::encode_value(&state.tracker)),
        (F_THROUGHPUT, binfmt::encode_value(&state.throughput)),
        (F_METRICS, binfmt::encode_value(&state.metrics)),
        (F_CLOCK, binfmt::encode_value(&state.clock)),
    ]
}

fn state_from_fields(fields: &SnapFields) -> Option<SessionState> {
    if fields.len() < SNAP_FIELDS_MIN || fields.len() > SNAP_FIELDS {
        return None;
    }
    let get = |id: u8| {
        fields
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, b)| b.as_slice())
    };
    Some(SessionState {
        schema_version: binfmt::decode_value(get(F_SCHEMA)?)?,
        slot: binfmt::decode_value(get(F_SLOT)?)?,
        cell: binfmt::decode_value(get(F_CELL)?)?,
        sync: binfmt::decode_value(get(F_SYNC)?)?,
        unhealthy_streak: binfmt::decode_value(get(F_STREAK)?)?,
        last_pci: binfmt::decode_value(get(F_LAST_PCI)?)?,
        assumed_pci: binfmt::decode_value(get(F_ASSUMED_PCI)?)?,
        stats: binfmt::decode_value(get(F_STATS)?)?,
        governor: binfmt::decode_value(get(F_GOVERNOR)?)?,
        tracker: binfmt::decode_value(get(F_TRACKER)?)?,
        throughput: binfmt::decode_value(get(F_THROUGHPUT)?)?,
        metrics: binfmt::decode_value(get(F_METRICS)?)?,
        clock: match get(F_CLOCK) {
            Some(bytes) => binfmt::decode_value(bytes)?,
            None => None,
        },
    })
}

fn encode_snapshot_payload(fields: &SnapFields) -> Vec<u8> {
    let mut payload = Vec::new();
    binfmt::put_varint(&mut payload, fields.len() as u64);
    for (id, bytes) in fields {
        payload.push(*id);
        binfmt::put_varint(&mut payload, bytes.len() as u64);
        payload.extend_from_slice(bytes);
    }
    payload
}

fn decode_snapshot_payload(payload: &[u8]) -> Option<SnapFields> {
    let mut pos = 0usize;
    let n = binfmt::get_varint(payload, &mut pos)? as usize;
    if n > payload.len().saturating_sub(pos) {
        return None;
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let id = *payload.get(pos)?;
        pos += 1;
        let len = binfmt::get_varint(payload, &mut pos)? as usize;
        let end = pos.checked_add(len)?;
        if end > payload.len() {
            return None;
        }
        fields.push((id, payload[pos..end].to_vec()));
        pos = end;
    }
    (pos == payload.len()).then_some(fields)
}

/// Directory of checkpoints + journals for one session, with atomic
/// snapshot writes and corruption-tolerant loading. All mutating file
/// operations go through the store's [`StorageBackend`].
#[derive(Debug, Clone)]
pub struct SessionStore {
    dir: PathBuf,
    backend: Arc<dyn StorageBackend>,
}

impl SessionStore {
    /// Open (creating if needed) a session directory on the real
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<SessionStore> {
        SessionStore::with_backend(dir, Arc::new(RealBackend))
    }

    /// Open (creating if needed) a session directory through `backend`.
    pub fn with_backend(
        dir: impl Into<PathBuf>,
        backend: Arc<dyn StorageBackend>,
    ) -> io::Result<SessionStore> {
        let dir = dir.into();
        backend.create_dir_all(&dir)?;
        Ok(SessionStore { dir, backend })
    }

    /// The storage backend mutating operations go through.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Small test write + fsync to a probe file, then best-effort
    /// cleanup: the `NonDurable` → recovery check. Returns `true` iff
    /// the disk accepted and synced the bytes.
    pub fn probe_write(&self) -> bool {
        let path = self.dir.join(".probe");
        let result = (|| -> io::Result<()> {
            let mut f = self.backend.create(&path)?;
            f.write_all(b"nrscope-durability-probe")?;
            f.sync_all()
        })();
        let _ = self.backend.remove_file(&path);
        result.is_ok()
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the journal file starting at `start_slot`.
    pub fn journal_path(&self, start_slot: u64) -> PathBuf {
        self.dir
            .join(format!("{JOURNAL_PREFIX}{start_slot:012}{JOURNAL_SUFFIX}"))
    }

    fn snapshot_path(&self, slot: u64) -> PathBuf {
        self.dir
            .join(format!("{SNAP_PREFIX}{slot:012}{SNAP_SUFFIX}"))
    }

    /// Slots of all snapshot files present, ascending.
    pub fn snapshot_slots(&self) -> Vec<u64> {
        self.list_slots(SNAP_PREFIX, SNAP_SUFFIX)
    }

    /// Start slots of all journal files present, ascending.
    pub fn journal_starts(&self) -> Vec<u64> {
        self.list_slots(JOURNAL_PREFIX, JOURNAL_SUFFIX)
    }

    fn list_slots(&self, prefix: &str, suffix: &str) -> Vec<u64> {
        let mut slots: Vec<u64> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .to_str()?
                    .strip_prefix(prefix)?
                    .strip_suffix(suffix)?
                    .parse()
                    .ok()
            })
            .collect();
        slots.sort_unstable();
        slots
    }

    fn write_snapshot_file(
        &self,
        slot: u64,
        schema_version: u32,
        kind: u8,
        base_slot: u64,
        fields: &SnapFields,
    ) -> io::Result<u64> {
        let payload = encode_snapshot_payload(fields);
        let mut meta = [0u8; SNAP_BIN_HEADER_LEN - 8];
        // Bytes [4..26) of the final file: version, kind, slot, base.
        meta[0] = schema_version.min(u8::MAX as u32) as u8;
        meta[1] = kind;
        meta[2..10].copy_from_slice(&slot.to_le_bytes());
        meta[10..18].copy_from_slice(&base_slot.to_le_bytes());
        meta[18..22].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32_pair(&meta[..18], &payload);
        let tmp = self.dir.join(format!(".tmp-{SNAP_PREFIX}{slot:012}"));
        // One contiguous image, one write op: the whole snapshot is the
        // durability unit, so fault injection (and the device) sees it as
        // a single all-or-nothing append to the tmp file.
        let mut image = Vec::with_capacity(SNAP_BIN_HEADER_LEN + payload.len());
        image.extend_from_slice(SNAP_BIN_MAGIC);
        image.extend_from_slice(&meta);
        image.extend_from_slice(&crc.to_le_bytes());
        image.extend_from_slice(&payload);
        {
            let mut f = self.backend.create(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
        }
        self.backend
            .rename(&tmp, self.snapshot_path(slot).as_path())?;
        // Persist the rename itself (directory metadata).
        let _ = self.backend.sync_dir(&self.dir);
        Ok(slot)
    }

    /// Write a **full** snapshot atomically: serialise, CRC, write to a
    /// temp file, fsync it, rename into place, fsync the directory. A
    /// crash at any point leaves either the old set of snapshots or the
    /// old set plus a complete new one — never a half-written file under
    /// the real name.
    pub fn write_checkpoint(&self, state: &SessionState) -> io::Result<u64> {
        let fields = encode_state_fields(state);
        self.write_snapshot_file(
            state.slot,
            state.schema_version,
            SNAP_KIND_FULL,
            state.slot,
            &fields,
        )
    }

    /// Load the newest valid snapshot, walking backwards past torn,
    /// corrupt, or future-schema files (a delta whose base full snapshot
    /// is itself missing or corrupt counts as invalid). Returns the state
    /// (if any) and how many snapshots were rejected on the way.
    pub fn load_latest(&self) -> (Option<SessionState>, u64) {
        let mut rejected = 0u64;
        for slot in self.snapshot_slots().into_iter().rev() {
            match self.load_snapshot(slot) {
                Some(state) => return (Some(state), rejected),
                None => rejected += 1,
            }
        }
        (None, rejected)
    }

    fn load_snapshot(&self, slot: u64) -> Option<SessionState> {
        let data = fs::read(self.snapshot_path(slot)).ok()?;
        if data.starts_with(SNAP_MAGIC.as_bytes()) {
            return load_snapshot_json(&data);
        }
        let (kind, base_slot, fields) = parse_snapshot_bin(&data, slot)?;
        let fields = match kind {
            SNAP_KIND_FULL => fields,
            SNAP_KIND_DELTA => {
                // Overlay the delta's fields on its base full snapshot.
                let base_data = fs::read(self.snapshot_path(base_slot)).ok()?;
                let (base_kind, _, mut base) = parse_snapshot_bin(&base_data, base_slot)?;
                if base_kind != SNAP_KIND_FULL {
                    return None; // delta chains are depth 1 by construction
                }
                for (id, bytes) in fields {
                    match base.iter_mut().find(|(i, _)| *i == id) {
                        Some(slot_entry) => slot_entry.1 = bytes,
                        None => base.push((id, bytes)),
                    }
                }
                base
            }
            _ => return None,
        };
        let state = state_from_fields(&fields)?;
        if state.schema_version > crate::SCHEMA_VERSION || state.slot != slot {
            return None;
        }
        Some(state)
    }

    /// Base slot a delta snapshot overlays, `None` for fulls, legacy JSON
    /// snapshots, or anything unreadable. Header peek only — no payload
    /// validation — because pruning must be conservative even around
    /// corrupt files.
    fn snapshot_base(&self, slot: u64) -> Option<u64> {
        let mut head = [0u8; SNAP_BIN_HEADER_LEN];
        let mut f = File::open(self.snapshot_path(slot)).ok()?;
        io::Read::read_exact(&mut f, &mut head).ok()?;
        if &head[..4] != SNAP_BIN_MAGIC || head[5] != SNAP_KIND_DELTA {
            return None;
        }
        Some(u64::from_le_bytes(head[14..22].try_into().ok()?))
    }

    /// Delete all but the newest `keep` snapshots, always also retaining
    /// any full snapshot a kept delta is based on.
    pub fn prune_checkpoints(&self, keep: usize) {
        let slots = self.snapshot_slots();
        let kept: Vec<u64> = slots.iter().rev().take(keep.max(1)).copied().collect();
        let needed: Vec<u64> = kept.iter().filter_map(|&s| self.snapshot_base(s)).collect();
        for &slot in slots.iter().rev().skip(keep.max(1)) {
            if !needed.contains(&slot) {
                let _ = self.backend.remove_file(&self.snapshot_path(slot));
            }
        }
    }

    /// Delete journal files wholly covered by newer ones, given the oldest
    /// slot any retained snapshot still needs replay from. A file covers
    /// `[its start, next file's start)`; it is removable once the next
    /// file starts at or before `oldest_needed`.
    pub fn prune_journals(&self, oldest_needed: u64) {
        let starts = self.journal_starts();
        for pair in starts.windows(2) {
            if pair[1] <= oldest_needed {
                let _ = self.backend.remove_file(&self.journal_path(pair[0]));
            }
        }
    }

    /// Rebuild a session: newest valid snapshot (or a fresh scope when
    /// none exists), then replay every journal entry at or past the
    /// watermark, stopping at corruption or a sequence gap. Never panics;
    /// the worst corruption possible degrades to a cold start.
    pub fn recover(&self, cfg: ScopeConfig, assumed_pci: Option<Pci>) -> (NrScope, RecoveryReport) {
        let (snapshot, rejected) = self.load_latest();
        let snapshot_slot = snapshot.as_ref().map(|s| s.slot);
        let had_journals = !self.journal_starts().is_empty();
        let mut scope = match &snapshot {
            Some(state) => NrScope::from_state(cfg, state),
            None => NrScope::new(cfg, assumed_pci),
        };
        let mut replayed = 0u64;
        let mut discarded = 0u64;
        'files: for start in self.journal_starts() {
            let Ok(data) = fs::read(self.journal_path(start)) else {
                continue;
            };
            let (entries, bad) = read_journal_bytes(&data);
            discarded += bad;
            for e in &entries {
                if e.seq > scope.slot_watermark() {
                    // A sequence gap (a journal file lost between this one
                    // and the watermark): applying ops at the wrong slot
                    // would corrupt state — stop replaying.
                    break 'files;
                }
                if scope.apply_journal_entry(e) {
                    replayed += 1;
                }
            }
        }
        let report = RecoveryReport {
            schema_version: crate::SCHEMA_VERSION,
            resumed: snapshot.is_some() || replayed > 0 || had_journals,
            snapshot_slot,
            corrupt_checkpoints_skipped: rejected,
            replayed_entries: replayed,
            journal_entries_discarded: discarded,
            resumed_slot: scope.slot_watermark(),
            recovered_ues: scope.tracked_rntis().len() as u64,
        };
        (scope, report)
    }
}

/// Parse a binary snapshot's header + payload into its kind, base slot,
/// and raw fields. Validates magic, schema version, expected slot, exact
/// payload length, and the CRC (which covers the header metadata too).
fn parse_snapshot_bin(data: &[u8], expect_slot: u64) -> Option<(u8, u64, SnapFields)> {
    if data.len() < SNAP_BIN_HEADER_LEN || &data[..4] != SNAP_BIN_MAGIC {
        return None;
    }
    let version = data[4] as u32;
    if version > crate::SCHEMA_VERSION {
        return None;
    }
    let kind = *data.get(5)?;
    let slot = read_u64_le(data, 6)?;
    let base_slot = read_u64_le(data, 14)?;
    let payload_len = read_u32_le(data, 22)? as usize;
    let crc = read_u32_le(data, 26)?;
    let payload = data.get(SNAP_BIN_HEADER_LEN..)?;
    if slot != expect_slot || payload.len() != payload_len {
        return None;
    }
    if crc32_pair(&data[4..22], payload) != crc {
        return None;
    }
    Some((kind, base_slot, decode_snapshot_payload(payload)?))
}

/// Legacy `NRSCOPE-SNAP <version> <len> <crc>\n<json>` loader, kept so a
/// session upgraded in place restores from its pre-upgrade checkpoints.
fn load_snapshot_json(data: &[u8]) -> Option<SessionState> {
    let nl = data.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&data[..nl]).ok()?;
    let mut parts = header.split(' ');
    if parts.next() != Some(SNAP_MAGIC) {
        return None;
    }
    let version: u32 = parts.next()?.parse().ok()?;
    if version > crate::SCHEMA_VERSION {
        return None;
    }
    let len = usize::from_str_radix(parts.next()?, 16).ok()?;
    let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
    let payload = &data[nl + 1..];
    if payload.len() != len || crc32(payload) != crc {
        return None;
    }
    let state: SessionState = serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()?;
    if state.schema_version > crate::SCHEMA_VERSION {
        return None;
    }
    Some(state)
}

// ---------------------------------------------------------------------------
// Group-commit journal writer.
// ---------------------------------------------------------------------------

const WRITER_QUEUE_DEPTH: usize = 8;
const BUF_POOL_MAX: usize = 16;

/// How long a batch submit will wait on a full writer queue before giving
/// the batch up and demoting durability. Generous next to the ~2 ms flush
/// latency deadline, tiny next to a real wedge — the slot loop must keep
/// decoding while storage is stuck.
const SUBMIT_GRACE_US: u64 = 5_000;

/// What became of a submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubmitOutcome {
    /// Queued on the writer thread.
    Queued,
    /// Queue full past [`SUBMIT_GRACE_US`]: the writer is wedged or
    /// hopelessly behind. The batch was dropped.
    Full,
    /// The writer thread is gone (died or shut down).
    Gone,
}

/// Everything the writer thread needs to serve one journal file's
/// durability ladder, bundled so [`WriterCmd::Open`] stays readable.
struct WriterCtx {
    path: PathBuf,
    durable: Arc<AtomicU64>,
    metrics: Arc<Metrics>,
    store: SessionStore,
    policy: StoragePolicy,
    rung: Arc<AtomicU64>,
}

enum WriterCmd {
    /// Register a journal file under `id` and open it for append.
    Open {
        id: u64,
        ctx: Box<WriterCtx>,
        ack: SyncSender<bool>,
    },
    /// Encode and append one sealed batch to file `id`. The records
    /// arrive unencoded: serialization is the writer thread's job, so the
    /// capture hot path pays only the move.
    Batch {
        id: u64,
        entries: Vec<JournalEntry>,
        last_seq: u64,
    },
    /// Switch file `id` to a new path. Refused (ack `false`) while the
    /// old file has an unacknowledged write failure or the new file
    /// cannot be opened — the caller keeps the old file and retries.
    Rotate {
        id: u64,
        path: PathBuf,
        ack: SyncSender<bool>,
    },
    /// Ack once every previously queued batch for `id` has been handed to
    /// the OS (`true` iff all of them succeeded since the last rotation).
    Barrier { id: u64, ack: SyncSender<bool> },
    /// While `NonDurable`: test the disk with a probe write, and on
    /// success reopen the journal and climb back to `DurableDegraded`.
    /// Fire-and-forget — the session observes the outcome through the
    /// shared rung atomic.
    Probe { id: u64 },
    /// Chaos injection: sleep in-line on the writer thread for the given
    /// duration, so queued batches back up exactly as they would behind a
    /// blocked disk driver. The submit path's bounded patience must then
    /// demote durability honestly instead of stalling the slot loop.
    Wedge { duration_ms: u64 },
    /// Drain and forget file `id`.
    Close { id: u64, ack: SyncSender<bool> },
}

struct WriterFile {
    file: Box<dyn StorageFile>,
    /// Path currently open (probe recovery reopens it after a fault).
    path: PathBuf,
    /// Bytes known good in `file`: a retry truncates back to this before
    /// rewriting, so a short write can never leave a torn batch followed
    /// by a good one.
    committed_len: u64,
    durable: Arc<AtomicU64>,
    metrics: Arc<Metrics>,
    /// The store owning this journal — the emergency-prune and re-probe
    /// paths act on it (same backend, same fault schedule).
    store: SessionStore,
    policy: StoragePolicy,
    /// Shared durability rung (see [`DurabilityRung`]).
    rung: Arc<AtomicU64>,
    /// First-attempt successes since the last write error; promotes
    /// `DurableDegraded` → `Durable` at [`PROMOTE_CLEAN_BATCHES`].
    clean_streak: u32,
    /// False after a failed batch write; a rotation observed while
    /// unhealthy is refused (the failure is already counted) and the flag
    /// resets so the next attempt can succeed.
    healthy: bool,
}

impl WriterFile {
    fn open(ctx: WriterCtx) -> io::Result<WriterFile> {
        let file = ctx.store.backend().open_append(&ctx.path)?;
        let committed_len = file.file_len().unwrap_or(0);
        Ok(WriterFile {
            file,
            path: ctx.path,
            committed_len,
            durable: ctx.durable,
            metrics: ctx.metrics,
            store: ctx.store,
            policy: ctx.policy,
            rung: ctx.rung,
            clean_streak: 0,
            healthy: true,
        })
    }

    fn rung(&self) -> DurabilityRung {
        DurabilityRung::from_u64(self.rung.load(Relaxed))
    }

    fn set_rung(&self, rung: DurabilityRung) {
        self.rung.store(rung as u64, Relaxed);
        self.metrics.gauge_set(Gauge::DurabilityRung, rung as u64);
    }

    /// Append one encoded batch with the ladder's bounded-retry policy.
    /// Transient errors back off and retry (after truncating any torn
    /// tail); `ENOSPC` gets one emergency prune before its first retry;
    /// exhausted retries demote to `NonDurable` and drop the batch.
    fn append_batch(&mut self, bytes: &[u8], n_records: u64, last_seq: u64) {
        if self.rung() == DurabilityRung::NonDurable {
            // Demoted (e.g. by writer-death detection racing a recovery):
            // the batch is lost and counted; the session stops sending
            // once it observes the rung.
            self.metrics.add(Counter::JournalWriteFailures, n_records);
            return;
        }
        let mut pruned = false;
        let mut attempt = 0u32;
        loop {
            match self.file.write_all(bytes) {
                Ok(()) => {
                    // The batch is in the OS: `kill -9` of this process
                    // can no longer lose it. (Machine-crash durability
                    // would need fsync here — same guarantee level the
                    // old flush-per-slot journal offered.)
                    self.committed_len += bytes.len() as u64;
                    self.durable.store(last_seq + 1, Relaxed);
                    self.metrics.inc(Counter::JournalBatches);
                    if attempt == 0 {
                        self.clean_streak = self.clean_streak.saturating_add(1);
                        if self.clean_streak >= PROMOTE_CLEAN_BATCHES
                            && self.rung() == DurabilityRung::DurableDegraded
                        {
                            self.set_rung(DurabilityRung::Durable);
                        }
                    } else {
                        // Succeeded only on retry: stay degraded, restart
                        // the streak the promotion needs.
                        self.clean_streak = 0;
                    }
                    return;
                }
                Err(e) => {
                    self.clean_streak = 0;
                    if self.rung() == DurabilityRung::Durable {
                        self.set_rung(DurabilityRung::DurableDegraded);
                    }
                    if is_enospc(&e) && !pruned {
                        // Disk full: free what the ladder can spare —
                        // old checkpoints and the journals they cover —
                        // then retry the write into the reclaimed space.
                        pruned = true;
                        self.store
                            .prune_checkpoints(self.policy.emergency_prune_keep);
                        if let Some(&oldest) = self.store.snapshot_slots().first() {
                            self.store.prune_journals(oldest);
                        }
                        self.metrics.inc(Counter::EmergencyPrunes);
                        self.metrics.note("storage_error", e.to_string());
                    }
                    attempt += 1;
                    if attempt > self.policy.storage_retry_max {
                        // Atomic swap: the session (queue-full path) may
                        // have demoted concurrently — one outage is one
                        // demotion, whoever observes it first counts it.
                        let prev = self.rung.swap(DurabilityRung::NonDurable as u64, Relaxed);
                        self.metrics
                            .gauge_set(Gauge::DurabilityRung, DurabilityRung::NonDurable as u64);
                        if prev != DurabilityRung::NonDurable as u64 {
                            self.metrics.inc(Counter::StorageDemotions);
                            self.metrics.note("storage_demotion", e.to_string());
                        }
                        self.metrics.add(Counter::JournalWriteFailures, n_records);
                        self.healthy = false;
                        return;
                    }
                    self.metrics.inc(Counter::StorageRetries);
                    // Cut any torn tail back to the last committed batch
                    // boundary before rewriting (failure tolerated: the
                    // reader discards a torn batch whole anyway).
                    let _ = self.file.truncate(self.committed_len);
                    std::thread::sleep(Duration::from_micros(
                        RETRY_BACKOFF_BASE_US << (attempt - 1).min(4),
                    ));
                }
            }
        }
    }

    /// The `NonDurable` → `DurableDegraded` transition: probe the disk,
    /// and on success reopen the journal path so appends resume.
    fn try_recover(&mut self) {
        if self.rung() != DurabilityRung::NonDurable || !self.store.probe_write() {
            return;
        }
        match self.store.backend().open_append(&self.path) {
            Ok(file) => {
                self.committed_len = file.file_len().unwrap_or(0);
                self.file = file;
                self.healthy = true;
                self.clean_streak = 0;
                self.set_rung(DurabilityRung::DurableDegraded);
            }
            Err(e) => {
                // Probe ok but the journal itself will not reopen: stay
                // demoted and record why.
                self.metrics.note("storage_error", e.to_string());
            }
        }
    }
}

struct WriterShared {
    tx: Mutex<Option<SyncSender<WriterCmd>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
    pool: Arc<Mutex<Vec<Vec<JournalEntry>>>>,
}

fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Drop for WriterShared {
    fn drop(&mut self) {
        lock_clean(&self.tx).take();
        if let Some(h) = lock_clean(&self.handle).take() {
            let _ = h.join();
        }
    }
}

/// Shared group-commit journal writer: one background thread serving any
/// number of journal files (each durable fleet shard registers its own),
/// so N cells cost one writer thread and batched syscalls instead of N
/// flush-per-slot streams. Cloning shares the thread; it exits when the
/// last clone drops.
#[derive(Clone)]
pub struct JournalWriter {
    shared: Arc<WriterShared>,
}

impl JournalWriter {
    /// Start a writer thread with no registered files.
    pub fn spawn() -> JournalWriter {
        let (tx, rx) = sync_channel::<WriterCmd>(WRITER_QUEUE_DEPTH);
        let pool = Arc::new(Mutex::new(Vec::new()));
        let pool_for_thread = Arc::clone(&pool);
        let handle =
            crate::worker::spawn_background("journal", move || writer_loop(rx, pool_for_thread));
        JournalWriter {
            shared: Arc::new(WriterShared {
                tx: Mutex::new(Some(tx)),
                handle: Mutex::new(Some(handle)),
                next_id: AtomicU64::new(1),
                pool,
            }),
        }
    }

    fn send(&self, cmd: WriterCmd) -> bool {
        match lock_clean(&self.shared.tx).as_ref() {
            Some(tx) => tx.send(cmd).is_ok(),
            None => false,
        }
    }

    /// Non-blocking command enqueue: `Full` when the queue is backed up
    /// (a wedged or hopelessly behind writer), `Gone` when the thread has
    /// exited. Returns the command on `Full` so the caller can retry.
    fn try_send(&self, cmd: WriterCmd) -> Result<(), TrySendError<WriterCmd>> {
        match lock_clean(&self.shared.tx).as_ref() {
            Some(tx) => tx.try_send(cmd),
            None => Err(TrySendError::Disconnected(cmd)),
        }
    }

    fn send_acked(&self, make: impl FnOnce(SyncSender<bool>) -> WriterCmd) -> bool {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.send(make(ack_tx)) && ack_rx.recv() == Ok(true)
    }

    /// Register a journal file for append; returns its id.
    fn register(&self, ctx: WriterCtx) -> io::Result<u64> {
        let id = self.shared.next_id.fetch_add(1, Relaxed);
        let path = ctx.path.clone();
        let opened = self.send_acked(|ack| WriterCmd::Open {
            id,
            ctx: Box::new(ctx),
            ack,
        });
        if opened {
            Ok(id)
        } else {
            Err(io::Error::other(format!(
                "journal writer could not open {}",
                path.display()
            )))
        }
    }

    /// Queue one sealed batch (fire and forget — failures are counted by
    /// the writer thread against the file's metrics) with bounded
    /// patience: if the queue stays full past [`SUBMIT_GRACE_US`] the
    /// batch is given up as [`SubmitOutcome::Full`] rather than blocking
    /// the slot loop behind a wedged writer — the liveness contract is
    /// that decode outlives storage, whatever storage is doing.
    fn submit(&self, id: u64, entries: Vec<JournalEntry>, last_seq: u64) -> SubmitOutcome {
        let mut cmd = WriterCmd::Batch {
            id,
            entries,
            last_seq,
        };
        let deadline = Instant::now() + Duration::from_micros(SUBMIT_GRACE_US);
        loop {
            match self.try_send(cmd) {
                Ok(()) => return SubmitOutcome::Queued,
                Err(TrySendError::Disconnected(_)) => return SubmitOutcome::Gone,
                Err(TrySendError::Full(c)) => {
                    if Instant::now() >= deadline {
                        return SubmitOutcome::Full;
                    }
                    cmd = c;
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    fn rotate(&self, id: u64, path: PathBuf) -> bool {
        self.send_acked(|ack| WriterCmd::Rotate { id, path, ack })
    }

    fn barrier(&self, id: u64) -> bool {
        self.send_acked(|ack| WriterCmd::Barrier { id, ack })
    }

    /// Queue a disk re-probe for file `id` (fire and forget; the outcome
    /// lands in the shared rung atomic). Non-blocking: while the writer
    /// is wedged with a full queue the probe is simply skipped — the
    /// flap backoff schedules another.
    fn probe(&self, id: u64) -> bool {
        self.try_send(WriterCmd::Probe { id }).is_ok()
    }

    /// Chaos hook: wedge the writer thread for `dur`. It sleeps in-line,
    /// so everything queued behind the wedge backs up exactly like a
    /// blocked disk driver. Returns `false` if the command could not be
    /// enqueued (thread gone or queue already full).
    pub fn inject_wedge(&self, dur: Duration) -> bool {
        self.try_send(WriterCmd::Wedge {
            duration_ms: dur.as_millis() as u64,
        })
        .is_ok()
    }

    fn close(&self, id: u64) -> bool {
        self.send_acked(|ack| WriterCmd::Close { id, ack })
    }

    /// A recycled record buffer, if one is pooled.
    fn pooled_buf(&self) -> Vec<JournalEntry> {
        lock_clean(&self.shared.pool).pop().unwrap_or_default()
    }
}

fn writer_loop(rx: Receiver<WriterCmd>, pool: Arc<Mutex<Vec<Vec<JournalEntry>>>>) {
    let mut files: HashMap<u64, WriterFile> = HashMap::new();
    // Scratch encode buffer, reused across batches: it grows once to the
    // steady-state batch size and never reallocates after.
    let mut scratch: Vec<u8> = Vec::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WriterCmd::Open { id, ctx, ack } => {
                let ok = match WriterFile::open(*ctx) {
                    Ok(f) => {
                        files.insert(id, f);
                        true
                    }
                    Err(_) => false,
                };
                let _ = ack.send(ok);
            }
            WriterCmd::Batch {
                id,
                mut entries,
                last_seq,
            } => {
                if let Some(f) = files.get_mut(&id) {
                    encode_batch_into(&mut scratch, &entries);
                    f.append_batch(&scratch, entries.len() as u64, last_seq);
                }
                entries.clear();
                let mut p = lock_clean(&pool);
                if p.len() < BUF_POOL_MAX {
                    p.push(entries);
                }
            }
            WriterCmd::Rotate { id, path, ack } => {
                let ok = match files.get_mut(&id) {
                    Some(f) => {
                        // Everything queued before this command has been
                        // written (in-order channel); refuse the switch if
                        // any of it failed so the caller retries instead
                        // of silently abandoning the old file's tail.
                        let was_healthy = f.healthy;
                        f.healthy = true;
                        was_healthy
                            && match f.store.backend().open_append(&path) {
                                Ok(new_file) => {
                                    f.committed_len = new_file.file_len().unwrap_or(0);
                                    f.file = new_file;
                                    f.path = path;
                                    true
                                }
                                Err(_) => false,
                            }
                    }
                    None => false,
                };
                let _ = ack.send(ok);
            }
            WriterCmd::Barrier { id, ack } => {
                let _ = ack.send(files.get(&id).is_some_and(|f| f.healthy));
            }
            WriterCmd::Probe { id } => {
                if let Some(f) = files.get_mut(&id) {
                    f.try_recover();
                }
            }
            WriterCmd::Wedge { duration_ms } => {
                std::thread::sleep(Duration::from_millis(duration_ms));
            }
            WriterCmd::Close { id, ack } => {
                files.remove(&id);
                let _ = ack.send(true);
            }
        }
    }
}

/// The hot-path half of group commit: the records of the batch being
/// built. Nothing is serialized here — records are moved in as-is and the
/// writer thread encodes them, so the per-slot cost is a `Vec` push.
struct BatchBuf {
    entries: Vec<JournalEntry>,
    started: Option<Instant>,
}

impl BatchBuf {
    fn new() -> BatchBuf {
        BatchBuf {
            entries: Vec::new(),
            started: None,
        }
    }

    fn reset(&mut self, mut entries: Vec<JournalEntry>) {
        entries.clear();
        self.entries = entries;
        self.started = None;
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    fn push_record(&mut self, seq: u64, dropped: bool, ops: Vec<SlotOp>) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        self.entries.push(JournalEntry {
            seq,
            dropped,
            ops,
            micro: None,
        });
    }

    fn age_us(&self) -> u64 {
        self.started
            .map(|t| t.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    /// Attach `micro` to the final record — the batch's replay re-anchor —
    /// and take the records. The buffer is left empty; call
    /// [`BatchBuf::reset`].
    fn seal(&mut self, micro: MicroState) -> (Vec<JournalEntry>, u64) {
        let last = self.entries.last_mut().expect("seal of a non-empty batch");
        last.micro = Some(micro);
        let last_seq = last.seq;
        self.started = None;
        (std::mem::take(&mut self.entries), last_seq)
    }
}

/// Background checkpoint writer: a single worker thread fed through a
/// depth-1 channel. The hot path hands over a frozen [`SessionState`] and
/// returns immediately; if the previous write is still in flight the
/// request is skipped (and counted) rather than queued — a fresher
/// snapshot is always coming. The thread delta-encodes: a full snapshot
/// every `full_every` writes, intermediate ones storing only the fields
/// whose encoding changed since the last full.
struct CheckpointWriter {
    tx: Option<SyncSender<SessionState>>,
    handle: Option<JoinHandle<()>>,
    last_written: Arc<AtomicU64>,
    metrics: Arc<Metrics>,
}

impl CheckpointWriter {
    fn spawn(
        store: SessionStore,
        keep: usize,
        full_every: u64,
        metrics: Arc<Metrics>,
    ) -> CheckpointWriter {
        let (tx, rx) = sync_channel::<SessionState>(1);
        let last_written = Arc::new(AtomicU64::new(0));
        let last = Arc::clone(&last_written);
        let m = Arc::clone(&metrics);
        let handle = crate::worker::spawn_background("checkpoint", move || {
            // (base slot, base field encodings) of the last full snapshot.
            let mut full_base: Option<(u64, SnapFields)> = None;
            let mut since_full = 0u64;
            while let Ok(state) = rx.recv() {
                let fields = encode_state_fields(&state);
                let write_full = match &full_base {
                    None => true,
                    Some(_) => since_full + 1 >= full_every.max(1),
                };
                let result = if write_full {
                    store.write_snapshot_file(
                        state.slot,
                        state.schema_version,
                        SNAP_KIND_FULL,
                        state.slot,
                        &fields,
                    )
                } else {
                    let (base_slot, base_fields) = full_base.as_ref().unwrap();
                    let delta: SnapFields = fields
                        .iter()
                        .filter(|(id, bytes)| {
                            base_fields
                                .iter()
                                .find(|(bid, _)| bid == id)
                                .is_none_or(|(_, bb)| bb != bytes)
                        })
                        .cloned()
                        .collect();
                    store
                        .write_snapshot_file(
                            state.slot,
                            state.schema_version,
                            SNAP_KIND_DELTA,
                            *base_slot,
                            &delta,
                        )
                        .inspect(|_| m.inc(Counter::SnapshotDeltasWritten))
                };
                match result {
                    Ok(slot) => {
                        if write_full {
                            full_base = Some((state.slot, fields));
                            since_full = 0;
                        } else {
                            since_full += 1;
                        }
                        last.store(slot, Relaxed);
                        m.inc(Counter::CheckpointsWritten);
                        store.prune_checkpoints(keep);
                        if let Some(&oldest) = store.snapshot_slots().first() {
                            store.prune_journals(oldest);
                        }
                    }
                    Err(e) => {
                        // A failed write is not a busy-skip: count it
                        // separately and record *why* so the summary can
                        // show the reason, not just a tally.
                        m.inc(Counter::CheckpointFailures);
                        m.note("checkpoint_error", e.to_string());
                    }
                }
            }
        });
        CheckpointWriter {
            tx: Some(tx),
            handle: Some(handle),
            last_written,
            metrics,
        }
    }

    /// Offer a snapshot; returns immediately. Skipped (and counted) when
    /// the writer is still busy with the previous one.
    fn try_submit(&self, state: SessionState) {
        if let Some(tx) = &self.tx {
            match tx.try_send(state) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.metrics.inc(Counter::CheckpointsSkipped);
                }
            }
        }
    }

    /// Newest slot durably checkpointed by the background thread.
    fn last_written(&self) -> u64 {
        self.last_written.load(Relaxed)
    }

    /// Drain and join the writer.
    fn shutdown(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Persistence knobs.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Session directory (checkpoints + journals).
    pub dir: PathBuf,
    /// Snapshot cadence in slots (512 ≈ every 0.25 s at µ=1).
    pub checkpoint_every_slots: u64,
    /// Snapshots retained (≥ 1; the previous one is the fallback when the
    /// newest turns out torn).
    pub keep_checkpoints: usize,
    /// Group-commit batch size: seal and hand the batch to the writer
    /// thread after this many slots. Together with the queued-batch depth
    /// this bounds the `kill -9` loss window (see DESIGN.md).
    pub flush_max_slots: u64,
    /// Seal the batch once its oldest record is this old, even if it is
    /// not full — bounds durability lag on a quiet cell.
    pub flush_max_latency_us: u64,
    /// Delta-snapshot cadence: every K-th background checkpoint is a full
    /// image, the rest store only fields changed since the last full.
    /// `1` disables deltas.
    pub full_snapshot_every: u64,
    /// Storage-fault policy: retry budget, re-probe cadence, emergency
    /// prune depth (the durability degradation ladder).
    pub storage: StoragePolicy,
    /// Backend every mutating file operation goes through. The real
    /// filesystem by default; tests and the `durafault` bench swap in a
    /// [`FaultyBackend`].
    pub backend: Arc<dyn StorageBackend>,
}

impl PersistConfig {
    /// Defaults: checkpoint every 512 slots, keep 2, batch 64 slots with
    /// a 2 ms latency ceiling, full snapshot every 8th checkpoint.
    pub fn new(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            checkpoint_every_slots: 512,
            keep_checkpoints: 2,
            flush_max_slots: 128,
            flush_max_latency_us: 2000,
            full_snapshot_every: 8,
            storage: StoragePolicy::default(),
            backend: Arc::new(RealBackend),
        }
    }

    /// Swap the storage backend (builder style).
    pub fn with_backend(mut self, backend: Arc<dyn StorageBackend>) -> PersistConfig {
        self.backend = backend;
        self
    }

    /// Upper bound on slots a `kill -9` can lose: the batch being built,
    /// every batch that may sit in the writer queue, and the one the
    /// writer may have dequeued but not yet written.
    pub fn loss_window_slots(&self) -> u64 {
        self.flush_max_slots.max(1) * (WRITER_QUEUE_DEPTH as u64 + 2)
    }
}

/// An [`NrScope`] wrapped with durability: every processed capture lands
/// in a group-commit journal batch, snapshots stream from a background
/// writer, and [`PersistentSession::open`] warm-restarts from whatever
/// survived the last crash.
pub struct PersistentSession {
    scope: NrScope,
    store: SessionStore,
    cfg: PersistConfig,
    writer: JournalWriter,
    /// This session's journal file id within the (possibly shared) writer.
    file_id: u64,
    /// Watermark up to which the journal is in the OS (exclusive).
    durable: Arc<AtomicU64>,
    batch: BatchBuf,
    /// Start slot of the journal file currently being appended.
    journal_start: u64,
    /// Watermark at which the checkpoint cadence last fired. Cadence
    /// triggers on `watermark - last >= cadence`, not divisibility, so a
    /// gap-fill resume that jumps the watermark past a multiple cannot
    /// silently skip a checkpoint.
    last_checkpoint_slot: u64,
    ckpt: CheckpointWriter,
    /// Shared durability rung (written by the writer thread's ladder,
    /// observed here once per slot).
    rung: Arc<AtomicU64>,
    /// True while `NonDurable` has been observed: journaling is paused
    /// (slot ops are not even collected) and probes are being scheduled.
    journaling_paused: bool,
    /// Watermark at which the next re-probe fires while paused.
    next_probe_at: u64,
    /// Probe flap-backoff exponent (`reprobe_interval_slots << exp`,
    /// capped at [`MAX_PROBE_FLAP_EXP`]); resets once fully `Durable`.
    probe_flap_exp: u32,
    finalized: bool,
}

impl PersistentSession {
    /// Open (or resume) a durable session in `cfg.dir` with its own
    /// dedicated journal-writer thread. Recovery is part of opening: the
    /// returned report says what was restored.
    pub fn open(
        cfg: PersistConfig,
        scope_cfg: ScopeConfig,
        assumed_pci: Option<Pci>,
    ) -> io::Result<(PersistentSession, RecoveryReport)> {
        Self::open_with_writer(cfg, scope_cfg, assumed_pci, &JournalWriter::spawn())
    }

    /// Open (or resume) a durable session whose journal batches go
    /// through `writer` — the fleet path, where every shard shares one
    /// group-commit thread.
    pub fn open_with_writer(
        cfg: PersistConfig,
        scope_cfg: ScopeConfig,
        assumed_pci: Option<Pci>,
        writer: &JournalWriter,
    ) -> io::Result<(PersistentSession, RecoveryReport)> {
        let store = SessionStore::with_backend(&cfg.dir, Arc::clone(&cfg.backend))?;
        let (mut scope, report) = store.recover(scope_cfg, assumed_pci);
        scope.start_journaling();
        let journal_start = scope.slot_watermark();
        let durable = Arc::new(AtomicU64::new(journal_start));
        let rung = Arc::new(AtomicU64::new(DurabilityRung::Durable as u64));
        // Append mode: re-opening after a crash-before-rotation continues
        // the same file (the reader tolerates a torn final batch, and
        // sniffs per record, so binary batches may follow a legacy JSONL
        // tail in the same file).
        let file_id = writer.register(WriterCtx {
            path: store.journal_path(journal_start),
            durable: Arc::clone(&durable),
            metrics: Arc::clone(scope.metrics()),
            store: store.clone(),
            policy: cfg.storage,
            rung: Arc::clone(&rung),
        })?;
        let ckpt = CheckpointWriter::spawn(
            store.clone(),
            cfg.keep_checkpoints,
            cfg.full_snapshot_every,
            Arc::clone(scope.metrics()),
        );
        Ok((
            PersistentSession {
                scope,
                store,
                last_checkpoint_slot: journal_start,
                cfg,
                writer: writer.clone(),
                file_id,
                durable,
                batch: BatchBuf::new(),
                journal_start,
                ckpt,
                rung,
                journaling_paused: false,
                next_probe_at: 0,
                probe_flap_exp: 0,
                finalized: false,
            },
            report,
        ))
    }

    /// The wrapped scope.
    pub fn scope(&self) -> &NrScope {
        &self.scope
    }

    /// Mutable access to the wrapped scope.
    pub fn scope_mut(&mut self) -> &mut NrScope {
        &mut self.scope
    }

    /// The session store (tests inspect the directory through this).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// Watermark up to which the journal has been handed to the OS
    /// (exclusive): slots below this survive `kill -9`. The gap up to
    /// [`NrScope::slot_watermark`] is the live loss window, bounded by
    /// [`PersistConfig::loss_window_slots`].
    pub fn durable_watermark(&self) -> u64 {
        self.durable.load(Relaxed)
    }

    /// Current rung of the durability ladder.
    pub fn durability_rung(&self) -> DurabilityRung {
        DurabilityRung::from_u64(self.rung.load(Relaxed))
    }

    /// The loss window this session honestly promises right now:
    /// `Some(bound)` while the journal is healthy (`kill -9` loses at
    /// most that many slots), `None` — **unbounded** — while
    /// `NonDurable` (nothing has been journalled since the demotion, so
    /// a crash loses everything back to the last durable watermark).
    pub fn reported_loss_window(&self) -> Option<u64> {
        match self.durability_rung() {
            DurabilityRung::NonDurable => None,
            _ => Some(self.cfg.loss_window_slots()),
        }
    }

    /// Seal the in-flight batch (attaching the current end-of-slot
    /// continuous state to its final record) and queue it on the writer.
    fn submit_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let records = self.batch.len();
        let (entries, last_seq) = self.batch.seal(self.scope.micro_state());
        match self.writer.submit(self.file_id, entries, last_seq) {
            SubmitOutcome::Queued => {}
            // Writer gone (died or shut down under us) or unresponsive
            // past the submit grace (wedged thread, queue full): the
            // records are lost and nothing is draining — that is a
            // storage demotion, not just a counter bump.
            // `service_durability` observes the rung next slot, pauses
            // journaling, schedules probes, and keeps decoding; when a
            // mere wedge ends, a probe re-promotes and the session
            // re-anchors with a fresh checkpoint.
            outcome => {
                self.scope
                    .metrics()
                    .add(Counter::JournalWriteFailures, records);
                // Atomic swap: the writer thread's retry-exhaustion path
                // may demote concurrently (a dead disk backs the queue up
                // while it burns retries) — one outage is one demotion,
                // whoever observes it first counts it.
                let prev = self.rung.swap(DurabilityRung::NonDurable as u64, Relaxed);
                self.scope
                    .metrics()
                    .gauge_set(Gauge::DurabilityRung, DurabilityRung::NonDurable as u64);
                if prev != DurabilityRung::NonDurable as u64 {
                    self.scope.metrics().inc(Counter::StorageDemotions);
                    let why = match outcome {
                        SubmitOutcome::Full => {
                            "journal writer unresponsive (queue full past grace)"
                        }
                        _ => "journal writer thread gone",
                    };
                    self.scope.metrics().note("storage_demotion", why);
                }
            }
        }
        let recycled = self.writer.pooled_buf();
        self.batch.reset(recycled);
    }

    /// Chaos hook
    /// ([`HangTarget::JournalWriter`](crate::chaos::HangTarget)): wedge
    /// this session's journal-writer thread for `dur`. Decode continues;
    /// batches back up behind the wedge, and once the submit grace runs
    /// out the ladder demotes honestly ([`DurabilityRung::NonDurable`],
    /// loss window reported unbounded) until a post-wedge probe
    /// re-promotes and the session re-anchors on a fresh checkpoint.
    pub fn inject_writer_wedge(&mut self, dur: Duration) {
        self.scope.metrics().note(
            "chaos",
            format!("journal writer wedged for {} ms", dur.as_millis()),
        );
        self.writer.inject_wedge(dur);
    }

    /// Seal and drain the in-flight batch, returning once the writer has
    /// handed everything queued so far to the OS (`true` iff every batch
    /// since the last rotation succeeded). A durability barrier for
    /// tests, benches, and shutdown paths — the hot path never calls it.
    pub fn flush_barrier(&mut self) -> bool {
        self.submit_batch();
        self.writer.barrier(self.file_id)
    }

    /// Observe the durability ladder once per slot: pause journaling on
    /// demotion to `NonDurable` (decode must outlive the disk), schedule
    /// flap-backoff re-probes while down, and re-anchor + resume once the
    /// writer's probe recovered the disk.
    fn service_durability(&mut self) {
        let watermark = self.scope.slot_watermark();
        match self.durability_rung() {
            DurabilityRung::NonDurable => {
                if !self.journaling_paused {
                    // First observation of the demotion. The in-flight
                    // batch can never drain — count it lost, stop
                    // collecting slot ops, start probing.
                    let lost = self.batch.len();
                    if lost > 0 {
                        self.scope
                            .metrics()
                            .add(Counter::JournalWriteFailures, lost);
                        self.batch.reset(Vec::new());
                    }
                    self.scope.pause_journaling();
                    self.journaling_paused = true;
                    self.next_probe_at = watermark + self.cfg.storage.reprobe_interval_slots.max(1);
                } else if watermark >= self.next_probe_at {
                    self.writer.probe(self.file_id);
                    // Governor-style flap backoff: each unanswered probe
                    // doubles the wait, so a dead disk costs a bounded,
                    // shrinking fraction of writer-thread time.
                    self.probe_flap_exp = (self.probe_flap_exp + 1).min(MAX_PROBE_FLAP_EXP);
                    self.next_probe_at = watermark
                        + (self.cfg.storage.reprobe_interval_slots.max(1) << self.probe_flap_exp);
                }
            }
            rung => {
                if self.journaling_paused {
                    // The writer's probe re-promoted us. Everything since
                    // the demotion was never journalled: re-anchor with a
                    // synchronous checkpoint at the current watermark so
                    // the loss window is bounded again *from here*, then
                    // resume collecting slot ops.
                    self.journaling_paused = false;
                    self.scope.resume_journaling();
                    match self.checkpoint_now() {
                        Ok(slot) => {
                            // State ≤ `slot` is durable via the snapshot;
                            // align the journal and the durable watermark
                            // with it.
                            if self
                                .writer
                                .rotate(self.file_id, self.store.journal_path(slot))
                            {
                                self.journal_start = slot;
                            }
                            self.durable.fetch_max(slot, Relaxed);
                        }
                        Err(_) => {
                            // Disk flapped straight back down: re-demote
                            // and keep probing (backoff still rising).
                            self.rung.store(DurabilityRung::NonDurable as u64, Relaxed);
                            self.scope.metrics().gauge_set(
                                Gauge::DurabilityRung,
                                DurabilityRung::NonDurable as u64,
                            );
                            self.scope.metrics().inc(Counter::StorageDemotions);
                            self.scope.pause_journaling();
                            self.journaling_paused = true;
                            self.next_probe_at = watermark
                                + (self.cfg.storage.reprobe_interval_slots.max(1)
                                    << self.probe_flap_exp);
                        }
                    }
                } else if rung == DurabilityRung::Durable {
                    // Fully healthy again: the next outage starts its
                    // probe backoff from scratch.
                    self.probe_flap_exp = 0;
                }
            }
        }
    }

    /// Process one capture durably: decode, append the slot to the
    /// group-commit batch (sealed to the writer thread on buffer-full or
    /// latency deadline), and kick the checkpoint cadence. Journal write
    /// failures are counted in metrics, never raised — losing durability
    /// must not stop capture.
    pub fn process_capture(&mut self, cap: &crate::observe::Capture) -> Vec<TelemetryRecord> {
        let records = self.scope.process_capture(cap);
        self.service_durability();
        if let Some((seq, dropped, ops)) = self.scope.take_slot_ops() {
            self.batch.push_record(seq, dropped, ops);
            let full = self.batch.len() >= self.cfg.flush_max_slots.max(1);
            if full || self.batch.age_us() >= self.cfg.flush_max_latency_us {
                self.submit_batch();
            }
        }
        let watermark = self.scope.slot_watermark();
        if !self.journaling_paused
            && watermark.saturating_sub(self.last_checkpoint_slot)
                >= self.cfg.checkpoint_every_slots
        {
            self.last_checkpoint_slot = watermark;
            self.ckpt.try_submit(self.scope.session_state());
        }
        // Once a checkpoint newer than this journal file's start is
        // durable, rotate: replay will start from that snapshot, so new
        // entries belong in a file aligned with it and older files become
        // prunable. The in-flight batch holds records *below* the rotation
        // point, so it is sealed into the old file first (a barrier); the
        // writer refuses the switch if any of the old file's batches
        // failed, in which case we keep the old file and retry on a later
        // slot — rotation must never abandon an unflushed tail.
        if !self.journaling_paused && self.ckpt.last_written() > self.journal_start {
            self.submit_batch();
            if self
                .writer
                .rotate(self.file_id, self.store.journal_path(watermark))
            {
                self.journal_start = watermark;
            }
        }
        records
    }

    /// Write a checkpoint synchronously (shutdown path — unlike the
    /// cadence writes, the caller wants it durable before returning).
    /// Acts as a group-commit barrier: the in-flight batch is sealed and
    /// drained first.
    pub fn checkpoint_now(&mut self) -> io::Result<u64> {
        self.submit_batch();
        self.writer.barrier(self.file_id);
        let slot = self.store.write_checkpoint(&self.scope.session_state())?;
        self.last_checkpoint_slot = slot;
        self.store.prune_checkpoints(self.cfg.keep_checkpoints);
        if let Some(&oldest) = self.store.snapshot_slots().first() {
            self.store.prune_journals(oldest);
        }
        Ok(slot)
    }

    /// Clean shutdown: drain the journal through a barrier, write a final
    /// full checkpoint, stop the background writers.
    pub fn finalize(mut self) -> io::Result<u64> {
        let slot = self.checkpoint_now()?;
        self.writer.close(self.file_id);
        self.ckpt.shutdown();
        self.finalized = true;
        Ok(slot)
    }
}

impl Drop for PersistentSession {
    fn drop(&mut self) {
        if self.finalized {
            return;
        }
        // Orderly teardown without finalize (a dropped session) still
        // drains the tail: seal the in-flight batch and wait for the
        // writer to hand everything to the OS, so an in-process "crash"
        // loses nothing — matching the old flush-per-slot teardown. Only
        // an actual `kill -9` pays the bounded loss window.
        self.submit_batch();
        self.writer.close(self.file_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("nrscope-persist-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_pair(b"12345", b"6789"), 0xCBF4_3926);
    }

    /// The hand-rolled hot-path encoder must stay byte-for-byte identical
    /// to the derived serialization it shortcuts — old journals decode
    /// through the generic path, so any divergence is silent corruption.
    #[test]
    fn direct_slot_op_encoding_matches_derived() {
        use nr_phy::dci::DciFormat;
        use nr_phy::pdcch::AggregationLevel;
        use nr_phy::types::RntiType;

        let mut ops = Vec::new();
        for (i, (rt, fmt, lvl)) in [
            (RntiType::C, DciFormat::Dl1_1, AggregationLevel::L1),
            (RntiType::Tc, DciFormat::Ul0_1, AggregationLevel::L2),
            (RntiType::Ra, DciFormat::Dl1_1, AggregationLevel::L4),
            (RntiType::Si, DciFormat::Ul0_1, AggregationLevel::L8),
            (RntiType::P, DciFormat::Dl1_1, AggregationLevel::L16),
        ]
        .into_iter()
        .enumerate()
        {
            ops.push(SlotOp::Record(TelemetryRecord {
                schema_version: crate::SCHEMA_VERSION,
                slot: 1_000_000 + i as u64,
                sfn: 512 + i as u32,
                rnti: Rnti(0x4601 + i as u16),
                rnti_type: rt,
                format: fmt,
                level: lvl,
                cce_start: 3 * i,
                prb_start: 7 * i,
                prb_len: 24,
                symbol_start: 1,
                symbol_len: 13,
                mcs: 17,
                ndi: (i % 2) as u8,
                rv: 2,
                harq_id: i as u8,
                layers: 2,
                tbs: 48_384 + i as u32,
                is_retx: i % 2 == 1,
            }));
        }
        ops.push(SlotOp::Expire { rnti: Rnti(0x4601) });
        for op in &ops {
            let mut direct = Vec::new();
            put_slot_op(&mut direct, op);
            let derived = binfmt::encode_value(op);
            assert_eq!(direct, derived, "encoding diverged for {op:?}");
        }
    }

    fn dummy_micro() -> MicroState {
        MicroState {
            cell: CellKnowledge::default(),
            sync: SyncState::Synced,
            unhealthy_streak: 0,
            last_pci: None,
            stats: ScopeStats::default(),
            governor: OverloadGovernor::new(crate::governor::GovernorConfig::default()),
            tracker_aux: TrackerAux::default(),
            clock: None,
        }
    }

    fn dummy_entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            dropped: false,
            ops: Vec::new(),
            micro: Some(dummy_micro()),
        }
    }

    #[test]
    fn journal_round_trip() {
        let mut buf = Vec::new();
        for seq in 0..5 {
            append_journal_entry(&mut buf, &dummy_entry(seq)).unwrap();
        }
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 5);
        assert_eq!(discarded, 0);
        assert_eq!(entries[4].seq, 4);
    }

    #[test]
    fn binary_batch_round_trip() {
        let entries: Vec<JournalEntry> = (0..5)
            .map(|seq| JournalEntry {
                micro: (seq == 4).then(dummy_micro),
                ..dummy_entry(seq)
            })
            .collect();
        let batch = encode_batch(&entries);
        let (out, discarded) = read_journal_bytes(&batch);
        assert_eq!(out.len(), 5);
        assert_eq!(discarded, 0);
        assert!(out[..4].iter().all(|e| e.micro.is_none()));
        assert!(out[4].micro.is_some(), "trailer micro survives");
    }

    #[test]
    fn mixed_jsonl_then_binary_replays_end_to_end() {
        // A session upgraded in place: JSONL records 0..3, then binary
        // batches appended to the same file.
        let mut buf = Vec::new();
        for seq in 0..3 {
            append_journal_entry(&mut buf, &dummy_entry(seq)).unwrap();
        }
        buf.extend_from_slice(&encode_batch(&[dummy_entry(3), dummy_entry(4)]));
        buf.extend_from_slice(&encode_batch(&[dummy_entry(5)]));
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 6);
        assert_eq!(discarded, 0);
        assert_eq!(entries.last().unwrap().seq, 5);
    }

    #[test]
    fn truncated_tail_recovers_valid_prefix() {
        let mut buf = Vec::new();
        for seq in 0..5 {
            append_journal_entry(&mut buf, &dummy_entry(seq)).unwrap();
        }
        // Tear the file mid-way through the final record.
        buf.truncate(buf.len() - 10);
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 4);
        assert!(discarded >= 1);
    }

    #[test]
    fn torn_binary_batch_is_discarded_whole() {
        let mut buf = encode_batch(&[dummy_entry(0), dummy_entry(1)]);
        let good_len = buf.len();
        buf.extend_from_slice(&encode_batch(&[dummy_entry(2), dummy_entry(3)]));
        for cut in [
            good_len + 3,                    // torn batch header
            good_len + BATCH_HEADER_LEN + 4, // torn record mid-batch
            buf.len() - 1,                   // one byte short of complete
        ] {
            let (entries, discarded) = read_journal_bytes(&buf[..cut]);
            assert_eq!(entries.len(), 2, "cut at {cut}: whole torn batch dropped");
            assert!(discarded >= 1);
        }
    }

    #[test]
    fn flipped_crc_byte_stops_replay_at_the_bad_record() {
        let mut good = Vec::new();
        append_journal_entry(&mut good, &dummy_entry(0)).unwrap();
        let record_len = good.len();
        for seq in 1..4 {
            append_journal_entry(&mut good, &dummy_entry(seq)).unwrap();
        }
        // Flip a payload byte of record 1 (past its header).
        let mut bad = good.clone();
        bad[record_len + 30] ^= 0x01;
        let (entries, discarded) = read_journal_bytes(&bad);
        assert_eq!(entries.len(), 1, "replay stops before the corrupt record");
        assert!(discarded >= 1);
    }

    #[test]
    fn flipped_batch_payload_byte_discards_that_batch() {
        let mut buf = encode_batch(&[dummy_entry(0), dummy_entry(1)]);
        let good_len = buf.len();
        buf.extend_from_slice(&encode_batch(&[dummy_entry(2)]));
        buf[good_len + BATCH_HEADER_LEN + 2] ^= 0x40;
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 2, "CRC catches the flip, batch discarded");
        assert!(discarded >= 1);
    }

    #[test]
    fn future_batch_version_stops_replay() {
        let mut buf = encode_batch(&[dummy_entry(0)]);
        let good_len = buf.len();
        buf.extend_from_slice(&encode_batch(&[dummy_entry(1)]));
        buf[good_len + 4] = BATCH_VERSION + 1;
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 1);
        assert!(discarded >= 1);
    }

    #[test]
    fn zero_length_record_is_rejected() {
        let mut buf = Vec::new();
        append_journal_entry(&mut buf, &dummy_entry(0)).unwrap();
        buf.extend_from_slice(format!("J1 {:08x} {:08x} \n", 0, crc32(b"")).as_bytes());
        append_journal_entry(&mut buf, &dummy_entry(1)).unwrap();
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 1);
        assert!(discarded >= 1, "everything after the bad record distrusted");
    }

    #[test]
    fn non_monotonic_sequence_is_rejected() {
        let mut buf = Vec::new();
        append_journal_entry(&mut buf, &dummy_entry(3)).unwrap();
        append_journal_entry(&mut buf, &dummy_entry(3)).unwrap();
        let (entries, _) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 1);
        // And across a format boundary: a binary batch repeating the
        // JSONL tail's sequence is rejected too.
        let mut mixed = Vec::new();
        append_journal_entry(&mut mixed, &dummy_entry(3)).unwrap();
        mixed.extend_from_slice(&encode_batch(&[dummy_entry(3)]));
        let (entries, discarded) = read_journal_bytes(&mixed);
        assert_eq!(entries.len(), 1);
        assert!(discarded >= 1);
    }

    #[test]
    fn torn_snapshot_falls_back_to_previous_checkpoint() {
        let dir = tmp_dir("torn-snap");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(1)));
        let mut state = scope.session_state();
        state.slot = 100;
        store.write_checkpoint(&state).unwrap();
        state.slot = 200;
        store.write_checkpoint(&state).unwrap();
        // Tear the newest snapshot (as an interrupted write would).
        let newest = store.snapshot_slots().last().copied().unwrap();
        assert_eq!(newest, 200);
        let path = dir.join("ckpt-000000000200.snap");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() / 2]).unwrap();
        let (loaded, rejected) = store.load_latest();
        assert_eq!(loaded.unwrap().slot, 100, "fell back to previous");
        assert_eq!(rejected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_json_snapshot_still_loads() {
        let dir = tmp_dir("legacy-snap");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(7)));
        let mut state = scope.session_state();
        state.slot = 300;
        // Write the pre-upgrade JSON format by hand.
        let json = serde_json::to_string(&state).unwrap();
        let header = format!(
            "{SNAP_MAGIC} {} {:08x} {:08x}\n",
            state.schema_version,
            json.len(),
            crc32(json.as_bytes())
        );
        fs::write(
            store.snapshot_path(300),
            [header.as_bytes(), json.as_bytes()].concat(),
        )
        .unwrap();
        let (loaded, rejected) = store.load_latest();
        assert_eq!(loaded.unwrap().slot, 300);
        assert_eq!(rejected, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_with_removed_pool_fields_still_loads() {
        // Checkpoints written while the sniffer still had a slot worker
        // pool carry five more `ScopeStats` fields and the pool's counter,
        // gauge and stage names. The name-keyed readers skip them.
        use crate::metrics::{CounterSnapshot, GaugeSnapshot, StageSnapshot};
        use serde::Content;
        let dir = tmp_dir("pool-era-snap");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(3)));
        let mut state = scope.session_state();
        state.slot = 200;
        state.stats.slots = 200;
        let m = &mut state.metrics;
        for c in m
            .counters
            .iter_mut()
            .filter(|c| c.name == "slots_processed")
        {
            c.value = 200;
        }
        for name in [
            "jobs_shed",
            "jobs_quarantined",
            "worker_panics",
            "priority_sheds",
            "worker_stalls",
        ] {
            m.counters.push(CounterSnapshot {
                name: name.into(),
                value: 1,
            });
        }
        for name in ["queue_depth", "workers_alive"] {
            m.gauges.push(GaugeSnapshot {
                name: name.into(),
                value: 2,
            });
        }
        m.stages.push(StageSnapshot {
            stage: "worker_queue".into(),
            count: 1,
            total_ms: 0.1,
            mean_us: 100.0,
            p50_us: 100.0,
            p99_us: 100.0,
            max_us: 100.0,
        });
        let mut stats = state.stats.serialize_content();
        let Content::Map(entries) = &mut stats else {
            panic!("stats serialise as a map");
        };
        for name in [
            "shed_jobs",
            "worker_panics",
            "worker_stalls",
            "stuck_workers",
            "priority_sheds",
        ] {
            entries.push((name.into(), Content::U64(1)));
        }
        let mut fields = encode_state_fields(&state);
        for (id, bytes) in &mut fields {
            if *id == F_STATS {
                bytes.clear();
                binfmt::put_content(bytes, &stats);
            }
        }
        store
            .write_snapshot_file(200, state.schema_version, SNAP_KIND_FULL, 200, &fields)
            .unwrap();
        let (loaded, rejected) = store.load_latest();
        assert_eq!(rejected, 0);
        let loaded = loaded.expect("pool-era snapshot loads");
        assert_eq!(loaded.slot, 200);
        assert_eq!(loaded.stats.slots, 200);
        let restored = NrScope::from_state(ScopeConfig::default(), &loaded);
        assert_eq!(restored.metrics().counter(Counter::SlotsProcessed), 200);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_snapshot_round_trips_and_keeps_its_base() {
        let dir = tmp_dir("delta-snap");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(5)));
        let mut state = scope.session_state();
        state.slot = 100;
        let base_fields = encode_state_fields(&state);
        store
            .write_snapshot_file(100, state.schema_version, SNAP_KIND_FULL, 100, &base_fields)
            .unwrap();
        // A later state differing in slot + a counter.
        state.slot = 150;
        state.unhealthy_streak = 9;
        let fields = encode_state_fields(&state);
        let delta: SnapFields = fields
            .iter()
            .filter(|(id, bytes)| {
                base_fields
                    .iter()
                    .find(|(bid, _)| bid == id)
                    .is_none_or(|(_, bb)| bb != bytes)
            })
            .cloned()
            .collect();
        assert!(delta.len() < SNAP_FIELDS, "delta smaller than a full image");
        store
            .write_snapshot_file(150, state.schema_version, SNAP_KIND_DELTA, 100, &delta)
            .unwrap();
        let (loaded, rejected) = store.load_latest();
        let loaded = loaded.unwrap();
        assert_eq!(rejected, 0);
        assert_eq!(loaded.slot, 150);
        assert_eq!(loaded.unhealthy_streak, 9);
        // Pruning to 1 keeps the delta AND the full it needs.
        store.prune_checkpoints(1);
        assert_eq!(store.snapshot_slots(), vec![100, 150]);
        // A delta whose base is destroyed is rejected, falling back cleanly.
        fs::remove_file(store.snapshot_path(100)).unwrap();
        let (loaded, rejected) = store.load_latest();
        assert!(loaded.is_none());
        assert_eq!(rejected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_snapshot_is_rejected() {
        let dir = tmp_dir("future-snap");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(1)));
        let mut state = scope.session_state();
        state.slot = 100;
        state.schema_version = crate::SCHEMA_VERSION + 1;
        store.write_checkpoint(&state).unwrap();
        let (loaded, rejected) = store.load_latest();
        assert!(loaded.is_none());
        assert_eq!(rejected, 1);
        // Recovery degrades to a cold start instead of loading it.
        let (recovered, report) = store.recover(ScopeConfig::default(), Some(Pci(1)));
        assert_eq!(recovered.slot_watermark(), 0);
        assert_eq!(report.corrupt_checkpoints_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Untrusted-input regression: every truncated prefix of a valid
    /// binary batch and binary snapshot must parse (to rejection) without
    /// panicking — the raw `try_into().unwrap()` reads these decoders
    /// used to do would abort on exactly these inputs.
    #[test]
    fn truncated_batch_and_snapshot_prefixes_never_panic() {
        let entries: Vec<JournalEntry> = (0..3).map(dummy_entry).collect();
        let batch = encode_batch(&entries);
        for cut in 0..batch.len() {
            let prefix = &batch[..cut];
            let _ = parse_batch(prefix, None);
            let (parsed, _) = read_journal_bytes(prefix);
            assert!(parsed.is_empty(), "prefix of len {cut} yielded entries");
        }

        let dir = tmp_dir("snap-prefix");
        let store = SessionStore::new(&dir).unwrap();
        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(3)));
        let mut state = scope.session_state();
        state.slot = 42;
        store
            .write_snapshot_file(
                42,
                state.schema_version,
                SNAP_KIND_FULL,
                42,
                &encode_state_fields(&state),
            )
            .unwrap();
        let image = fs::read(store.snapshot_path(42)).unwrap();
        assert!(parse_snapshot_bin(&image, 42).is_some(), "image is valid");
        for cut in 0..image.len() {
            assert!(
                parse_snapshot_bin(&image[..cut], 42).is_none(),
                "truncated snapshot (len {cut}) accepted"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The fault layer itself: per-op-class counting, absolute-index
    /// windows, recovery via `clear_faults`, and the fsync-gate lie
    /// (write reports success but the bytes never reach the file).
    #[test]
    fn faulty_backend_windows_count_and_lie_as_specified() {
        let dir = tmp_dir("faulty-unit");
        let backend = FaultyBackend::new(StorageFaultSchedule::new(1));
        backend.create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");

        // Window [1, 2): op 0 passes, op 1 fails, op 2 passes again.
        backend.arm(FaultKind::WriteEio, 1..2);
        let mut f = backend.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        let err = f.write_all(b"bbbb").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5), "EIO");
        f.write_all(b"cccc").unwrap();
        assert_eq!(backend.writes(), 3, "failed writes still count as ops");
        assert_eq!(f.file_len().unwrap(), 8, "only the EIO write was lost");

        // ENOSPC surfaces as the errno the prune path keys on.
        backend.arm(
            FaultKind::WriteEnospc,
            backend.writes()..backend.writes() + 1,
        );
        let err = f.write_all(b"dddd").unwrap_err();
        assert!(is_enospc(&err));

        // Fsync gate: the write *reports* success but drops the bytes —
        // the lie that makes fsync-hole testing possible.
        backend.arm(FaultKind::WriteFsyncGate, backend.writes()..u64::MAX);
        f.write_all(b"eeee").unwrap();
        assert_eq!(f.file_len().unwrap(), 8, "gated write never landed");

        // clear_faults models the disk coming back: everything works.
        backend.clear_faults();
        f.write_all(b"ffff").unwrap();
        f.sync_all().unwrap();
        assert_eq!(f.file_len().unwrap(), 12);
        assert!(backend.fsyncs() >= 1);

        // Open-window faults hit create/open_append alike.
        backend.arm(FaultKind::OpenFail, backend.opens()..u64::MAX);
        assert!(backend.create(&dir.join("no.bin")).is_err());
        assert!(backend.open_append(&path).is_err());
        backend.clear_faults();
        assert!(backend.open_append(&path).is_ok());

        // Clones share one fault state: arming through one arm is seen by
        // the other (the session and the test harness hold clones).
        let twin = backend.clone();
        backend.arm(FaultKind::RenameFail, twin.renames()..u64::MAX);
        let to = dir.join("renamed.bin");
        assert!(twin.rename(&path, &to).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
