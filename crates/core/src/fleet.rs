//! Fault-isolated multi-cell fleet: N per-cell pipelines ("shards") share
//! one worker pool while remaining independent failure domains.
//!
//! The paper monitors a single cell, but its evaluation spans four
//! testbeds and the ROADMAP's north star is a carrier-scale deployment
//! watching hundreds of cells at once. The robustness requirement at that
//! scale is *between* cells: a wedged, panicking, or overloaded cell
//! pipeline must never stall or starve its siblings. This module applies
//! the bulkhead pattern:
//!
//! * **Per-shard everything.** Each shard owns a full [`NrScope`] (or a
//!   durable [`PersistentSession`]) — its own governor, sync-health
//!   machine, tracker, and persistence directory. Nothing decode-related
//!   is shared, so no shard can corrupt another's state.
//! * **Per-shard bounded queues.** A slow shard sheds its *own* oldest
//!   slots ([`FeedOutcome::ShedOldest`]); backpressure never crosses a
//!   bulkhead. Shed and gap-filled slots are processed as
//!   [`Capture::Dropped`], so the shard's governor and sync health see
//!   honest accounting.
//! * **One worker at a time per shard.** Workers `try_lock` a shard's
//!   engine before touching its queue, which guarantees per-shard FIFO
//!   order *and* caps the blast radius of a wedge: a stuck shard can
//!   consume at most one worker, and the supervisor spawns a replacement
//!   so fleet capacity is restored while the stuck thread drains.
//! * **Supervised warm restarts.** Panics are caught per slot
//!   (`catch_unwind`); wedges are detected by a watchdog (busy-timestamp
//!   fencing) and the engine generation is bumped so the stuck worker
//!   discards its fenced engine on wake. Either way the shard's engine is
//!   quarantined and rebuilt — durable shards resume from their own
//!   checkpoint + journal at the exact slot they had journalled (missed
//!   slots are gap-filled as drops, the [`crate::supervise`] watermark
//!   rule, so nothing is double-counted) — with exponential backoff
//!   between consecutive faults and calm-window decay.
//! * **Cross-cell UE continuity.** Shards emit [`UeEvent`]s from the
//!   existing probation/admission machinery; the fleet matches a C-RNTI
//!   that went quiet on cell A against a fresh admission on cell B within
//!   [`FleetConfig::continuity_window_slots`] of the activity edge and
//!   counts the pair as one user handed over, not two.

use crate::config::{FleetConfig, ScopeConfig};
use crate::governor::LoadModel;
use crate::metrics::{Counter, Gauge};
use crate::observe::{Capture, DropReason};
use crate::persist::{
    DurabilityRung, JournalWriter, PersistConfig, PersistentSession, RecoveryReport,
};
use crate::scope::{NrScope, SyncState, UeEvent};
use crate::supervise::{BreakerState, RestartBreaker};
use crate::worker::spawn_background;
use nr_phy::types::{Pci, Rnti};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Entries a worker processes per engine acquisition before releasing the
/// shard — bounds how long one hot shard can monopolise a worker.
const MAX_BATCH: usize = 16;

/// Bound on buffered per-shard latency samples (enqueue → slot done).
const LATENCY_BUF_MAX: usize = 1 << 17;

/// Bound on unmatched continuity edges kept for cross-cell matching.
const CONTINUITY_PENDING_MAX: usize = 1024;

/// One cell pipeline's static description.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Display name (cell preset name, typically).
    pub name: String,
    /// Assumed PCI (message fidelity) — `None` lets IQ cell search run.
    pub pci: Option<Pci>,
    /// The shard's scope configuration.
    pub scope: ScopeConfig,
    /// When set, the shard is durable: journalled per slot and
    /// warm-restarted from its own checkpoint directory.
    pub persist: Option<PersistConfig>,
    /// Deterministic latency model fed to the shard's governor.
    pub load_model: Option<LoadModel>,
}

impl ShardSpec {
    /// An in-memory (volatile) shard: restarts are cold.
    pub fn volatile(name: impl Into<String>, pci: Option<Pci>, scope: ScopeConfig) -> ShardSpec {
        ShardSpec {
            name: name.into(),
            pci,
            scope,
            persist: None,
            load_model: None,
        }
    }

    /// A durable shard: checkpoint + journal under its own directory.
    pub fn durable(
        name: impl Into<String>,
        pci: Option<Pci>,
        scope: ScopeConfig,
        persist: PersistConfig,
    ) -> ShardSpec {
        ShardSpec {
            name: name.into(),
            pci,
            scope,
            persist: Some(persist),
            load_model: None,
        }
    }
}

/// A shard's decode engine: the bulkheaded unit that is quarantined and
/// rebuilt on fault.
enum ShardEngine {
    /// Durable: journalled, checkpointed, warm-restartable.
    Durable(Box<PersistentSession>),
    /// Volatile: plain scope, cold restart.
    Volatile(Box<NrScope>),
}

impl ShardEngine {
    fn build(
        spec: &ShardSpec,
        writer: Option<&JournalWriter>,
    ) -> io::Result<(ShardEngine, Option<RecoveryReport>)> {
        match &spec.persist {
            Some(p) => {
                let (mut session, report) = match writer {
                    // Fleet default: every shard's journal batches flow
                    // through one shared group-commit thread.
                    Some(w) => {
                        PersistentSession::open_with_writer(p.clone(), spec.scope, spec.pci, w)?
                    }
                    None => PersistentSession::open(p.clone(), spec.scope, spec.pci)?,
                };
                session.scope_mut().set_load_model(spec.load_model);
                Ok((ShardEngine::Durable(Box::new(session)), Some(report)))
            }
            None => {
                let mut scope = NrScope::new(spec.scope, spec.pci);
                scope.set_load_model(spec.load_model);
                Ok((ShardEngine::Volatile(Box::new(scope)), None))
            }
        }
    }

    fn scope(&self) -> &NrScope {
        match self {
            ShardEngine::Durable(s) => s.scope(),
            ShardEngine::Volatile(s) => s,
        }
    }

    fn scope_mut(&mut self) -> &mut NrScope {
        match self {
            ShardEngine::Durable(s) => s.scope_mut(),
            ShardEngine::Volatile(s) => s,
        }
    }

    fn process(&mut self, cap: &Capture) {
        match self {
            ShardEngine::Durable(s) => {
                s.process_capture(cap);
            }
            ShardEngine::Volatile(s) => {
                s.process_capture(cap);
            }
        }
    }
}

/// Shard health as the supervisor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardHealth {
    /// Processing normally.
    Healthy,
    /// Engine lost to a panic; restart pending.
    Faulted,
    /// Engine fenced off by the watchdog; restart pending.
    Wedged,
}

impl ShardHealth {
    /// Stable snake_case name for snapshots.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Faulted => "faulted",
            ShardHealth::Wedged => "wedged",
        }
    }
}

/// A scripted fault a test can plant in a shard's next slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// The slot panics.
    Panic,
    /// The slot sleeps this long first (a pathologically slow slot).
    Delay(Duration),
}

/// Chaos hook: what to do to a shard's next slot(s).
#[derive(Debug, Clone, Copy)]
pub enum FaultPlan {
    /// No injected fault.
    None,
    /// Apply once to the next processed slot, then clear.
    OneShot(InjectedFault),
    /// Delay every processed slot by this much (sustained overload).
    EverySlot(Duration),
}

/// Outcome of [`Fleet::feed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// Enqueued within bounds.
    Queued,
    /// The queue was full: this shard's *own* oldest entry was shed to
    /// make room (the bulkhead never pushes back on siblings).
    ShedOldest,
}

/// A queued observation awaiting a worker.
struct QueueEntry {
    seq: u64,
    cap: Capture,
    enqueued: Instant,
}

/// The engine cell: the generation fences a wedged holder's engine.
struct EngineCell {
    gen: u64,
    engine: Option<ShardEngine>,
}

/// Mutable supervisor-side state of one shard.
struct ShardControl {
    health: ShardHealth,
    restart_due: Option<Instant>,
    backoff_exp: u32,
    last_fault_at: Option<Instant>,
    /// Recovery report of the most recent warm restart.
    last_recovery: Option<RecoveryReport>,
}

/// Rollup stats refreshed by whichever worker holds the engine — read by
/// [`Fleet::rollup`] without blocking on a possibly-wedged engine lock.
#[derive(Debug, Clone, Default)]
struct CachedStats {
    slots: u64,
    dcis: u64,
    tracked_ues: u64,
    discovered: u64,
    sync: &'static str,
    load_rung: &'static str,
    watermark: u64,
    durability: &'static str,
    loss_window: Option<u64>,
    clock_lock: &'static str,
    clock_drift_ppb: i64,
    timing_slips: u64,
}

/// One shard's runtime.
struct Shard {
    spec: ShardSpec,
    queue: Mutex<VecDeque<QueueEntry>>,
    engine: Mutex<EngineCell>,
    /// Epoch-relative ns + 1 while a worker is processing; 0 when idle.
    busy_since_ns: AtomicU64,
    /// Fence generation: bumped by the watchdog to invalidate the engine
    /// held by a stuck worker.
    gen: AtomicU64,
    control: Mutex<ShardControl>,
    fault: Mutex<FaultPlan>,
    cache: Mutex<CachedStats>,
    latencies: Mutex<Vec<u64>>,
    highest_fed: AtomicU64,
    sheds: AtomicU64,
    panics: AtomicU64,
    wedges: AtomicU64,
    restarts: AtomicU64,
    /// A durable shard whose disk died and whose engine was replaced by a
    /// volatile fallback (restart can't fix a disk). Cleared if a later
    /// rebuild gets the durable engine back.
    degraded: AtomicBool,
    /// Token-bucket restart budget; exhaustion parks the shard lame-duck
    /// instead of hot-looping rebuilds. Slot clock = `highest_fed`.
    breaker: Mutex<RestartBreaker>,
    /// Parked behind an open breaker on a volatile fallback engine.
    lame_duck: AtomicBool,
}

/// An unmatched continuity edge.
struct PendingDiscovery {
    shard: usize,
    rnti: Rnti,
    seq: u64,
}

struct PendingExpiry {
    shard: usize,
    rnti: Rnti,
    last_active_slot: u64,
}

/// One matched cross-cell handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContinuityMatch {
    /// Shard the UE expired on.
    pub from_shard: usize,
    /// Shard the UE was admitted on.
    pub to_shard: usize,
    /// C-RNTI on the old cell.
    pub expired_rnti: Rnti,
    /// C-RNTI assigned by the new cell.
    pub new_rnti: Rnti,
    /// Last slot the UE was active on the old cell.
    pub last_active_slot: u64,
    /// Slot the UE was admitted on the new cell.
    pub discovered_slot: u64,
}

struct ContinuityState {
    pending_discoveries: VecDeque<PendingDiscovery>,
    pending_expiries: VecDeque<PendingExpiry>,
    continuations: u64,
    matches: Vec<ContinuityMatch>,
}

/// Shared fleet state (workers + supervisor).
struct FleetShared {
    cfg: FleetConfig,
    shards: Vec<Shard>,
    continuity: Mutex<ContinuityState>,
    shutdown: AtomicBool,
    epoch: Instant,
    live_workers: AtomicUsize,
    target_workers: usize,
    /// Shared group-commit journal writer for durable shards (absent when
    /// there are none, or when
    /// [`FleetConfig::per_shard_journal_writers`] opts out). Restarted
    /// shards re-register with the same writer so a rebuild never spawns
    /// a second thread.
    journal_writer: Option<JournalWriter>,
}

/// Point-in-time status of one shard ([`Fleet::shard_status`]).
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Supervisor-visible health.
    pub health: ShardHealth,
    /// Completed warm restarts.
    pub restarts: u64,
    /// Panics caught and quarantined.
    pub panics: u64,
    /// Watchdog fences.
    pub wedges: u64,
    /// Own-queue sheds.
    pub sheds: u64,
    /// Entries currently queued.
    pub queue_len: usize,
    /// Recovery report of the latest warm restart, if any.
    pub last_recovery: Option<RecoveryReport>,
    /// Restart-breaker position.
    pub breaker: BreakerState,
    /// Parked lame-duck behind an open breaker (serving on a volatile
    /// fallback engine, rebuilds withheld until the half-open probe).
    pub lame_duck: bool,
}

/// One cell's rollup row ([`FleetSnapshot::cells`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRollup {
    /// Shard name.
    pub name: String,
    /// PCI, when known.
    pub pci: Option<u16>,
    /// Supervisor health (`healthy` / `faulted` / `wedged`).
    pub health: String,
    /// Sync-health state name.
    pub sync: String,
    /// Governor rung name (the per-shard `load_rung` gauge).
    pub load_rung: String,
    /// Slots processed by the shard's scope.
    pub slots: u64,
    /// DCIs decoded, all classes.
    pub dcis: u64,
    /// C-RNTIs currently tracked.
    pub tracked_ues: u64,
    /// Distinct UEs ever admitted on this cell.
    pub discovered: u64,
    /// Own-queue sheds.
    pub sheds: u64,
    /// Panics quarantined.
    pub panics: u64,
    /// Watchdog fences.
    pub wedges: u64,
    /// Completed warm restarts.
    pub restarts: u64,
    /// Hangs detected on this cell (watchdog fences — every wedge is a
    /// detected hang). Defaulted so pre-liveness rollups parse.
    #[serde(default)]
    pub hangs_detected: u64,
    /// Restart-breaker position name (`closed` / `open` / `half_open`).
    #[serde(default)]
    pub breaker: String,
    /// Times this cell's breaker has opened.
    #[serde(default)]
    pub breaker_openings: u64,
    /// Durability rung name: `durable` / `durable_degraded` /
    /// `non_durable` for durable shards, `volatile` for shards configured
    /// without persistence. Defaulted so pre-storage-fault rollups parse.
    #[serde(default)]
    pub durability: String,
    /// Honest loss window in slots (`None` = unbounded: the shard is
    /// `NonDurable` or volatile).
    #[serde(default)]
    pub loss_window_slots: Option<u64>,
    /// Timing-recovery lock rung name (`locked` / `pulling` / `unlocked`),
    /// or `ideal` when the shard's front end has no oscillator model.
    /// Defaulted so pre-clock rollups parse.
    #[serde(default)]
    pub clock_lock: String,
    /// Signed clock-drift estimate (ppb) from the shard's recovery loop.
    #[serde(default)]
    pub clock_drift_ppb: i64,
    /// Integer sample slips commanded by the shard's recovery loop.
    #[serde(default)]
    pub timing_slips: u64,
}

/// Fleet-wide rollup: per-cell rows plus the aggregate, including the
/// continuity-corrected distinct-user count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-cell rows.
    pub cells: Vec<CellRollup>,
    /// Σ slots across cells.
    pub total_slots: u64,
    /// Σ DCIs across cells.
    pub total_dcis: u64,
    /// Σ per-cell admissions (counts a handed-over UE once per cell).
    pub total_discovered: u64,
    /// Cross-cell handovers matched by the continuity window.
    pub continuations: u64,
    /// Distinct users: `total_discovered − continuations`.
    pub distinct_users: u64,
    /// Cells configured durable that are currently *not* fully durable
    /// (rung below `Durable`, or running on a volatile fallback after
    /// their disk died). Defaulted so pre-storage-fault rollups parse.
    #[serde(default)]
    pub durability_degraded_cells: u64,
    /// Cells whose timing-recovery loop is currently out of `Locked`
    /// (`pulling`/`unlocked`; ideal-clock cells don't count). Defaulted
    /// so pre-clock rollups parse.
    #[serde(default)]
    pub clock_unlocked_cells: u64,
    /// Σ integer sample slips across cells.
    #[serde(default)]
    pub total_timing_slips: u64,
    /// Cells currently parked behind an open restart breaker. Defaulted
    /// so pre-liveness rollups parse.
    #[serde(default)]
    pub breaker_open_cells: u64,
    /// The matched handover pairs.
    pub matches: Vec<ContinuityMatch>,
}

/// The fleet: N shards over one shared worker pool, with bulkhead
/// supervision. Construct with [`Fleet::new`], drive with
/// [`Fleet::feed`] + periodic [`Fleet::supervise`] calls, and tear down
/// with [`Fleet::finish`].
pub struct Fleet {
    shared: Arc<FleetShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Lock that never gives up on poisoning: the protected state is either
/// rebuilt wholesale (engines) or monotonic counters, and a panic inside
/// a worker is already quarantined by `catch_unwind` before any fleet
/// lock unwinds.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn now_ns(epoch: Instant) -> u64 {
    Instant::now().duration_since(epoch).as_nanos() as u64
}

impl Fleet {
    /// Build every shard's engine (durable shards recover from their own
    /// directories) and start the shared worker pool.
    pub fn new(cfg: FleetConfig, specs: Vec<ShardSpec>) -> io::Result<Fleet> {
        let journal_writer =
            if !cfg.per_shard_journal_writers && specs.iter().any(|s| s.persist.is_some()) {
                Some(JournalWriter::spawn())
            } else {
                None
            };
        let mut shards = Vec::with_capacity(specs.len());
        for spec in specs {
            let (engine, recovery) = ShardEngine::build(&spec, journal_writer.as_ref())?;
            let mut cache = CachedStats::default();
            refresh_cache_from(&mut cache, &engine, false);
            shards.push(Shard {
                spec,
                queue: Mutex::new(VecDeque::new()),
                engine: Mutex::new(EngineCell {
                    gen: 0,
                    engine: Some(engine),
                }),
                busy_since_ns: AtomicU64::new(0),
                gen: AtomicU64::new(0),
                control: Mutex::new(ShardControl {
                    health: ShardHealth::Healthy,
                    restart_due: None,
                    backoff_exp: 0,
                    last_fault_at: None,
                    last_recovery: recovery,
                }),
                fault: Mutex::new(FaultPlan::None),
                cache: Mutex::new(cache),
                latencies: Mutex::new(Vec::new()),
                highest_fed: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                wedges: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                degraded: AtomicBool::new(false),
                breaker: Mutex::new(RestartBreaker::new(
                    cfg.restart_budget,
                    cfg.restart_budget_window_slots,
                    cfg.breaker_halfopen_after_slots,
                )),
                lame_duck: AtomicBool::new(false),
            });
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let target_workers = if cfg.workers == 0 {
            cores.min(shards.len()).max(1)
        } else {
            cfg.workers.max(1)
        };
        let shared = Arc::new(FleetShared {
            cfg,
            shards,
            continuity: Mutex::new(ContinuityState {
                pending_discoveries: VecDeque::new(),
                pending_expiries: VecDeque::new(),
                continuations: 0,
                matches: Vec::new(),
            }),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            live_workers: AtomicUsize::new(target_workers),
            target_workers,
            journal_writer,
        });
        let mut workers = Vec::with_capacity(target_workers);
        for w in 0..target_workers {
            let s = Arc::clone(&shared);
            workers.push(spawn_background(&format!("fleet-{w}"), move || {
                worker_loop(&s, w)
            }));
        }
        Ok(Fleet {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shared.shards.len()
    }

    /// Whether the fleet has no shards.
    pub fn is_empty(&self) -> bool {
        self.shared.shards.is_empty()
    }

    /// Enqueue one observation for a shard. `seq` is the shard's absolute
    /// slot index (gap-filled as dropped slots if observations are
    /// skipped). A full queue sheds the shard's own oldest entry.
    pub fn feed(&self, shard: usize, seq: u64, cap: Capture) -> FeedOutcome {
        let s = &self.shared.shards[shard];
        s.highest_fed.fetch_max(seq, Relaxed);
        let mut q = lock_clean(&s.queue);
        let mut out = FeedOutcome::Queued;
        if q.len() >= self.shared.cfg.shard_queue_depth.max(1) {
            q.pop_front();
            s.sheds.fetch_add(1, Relaxed);
            out = FeedOutcome::ShedOldest;
        }
        q.push_back(QueueEntry {
            seq,
            cap,
            enqueued: Instant::now(),
        });
        out
    }

    /// One supervision pass: watchdog wedged shards, run due restarts.
    /// The driver calls this periodically (every few fed slots, or on a
    /// timer); it never blocks on a wedged engine.
    pub fn supervise(&self) {
        let shared = &self.shared;
        let now = Instant::now();
        let tick_ns = now_ns(shared.epoch);
        for shard in &shared.shards {
            // Watchdog: a slot in flight past the deadline means the
            // worker is stuck (infinite loop, pathological slot, hostile
            // input). Fence the engine so the stuck worker discards it on
            // wake, and spawn a replacement worker so fleet capacity is
            // restored immediately.
            let wd_ms = shared.cfg.watchdog_ms;
            if wd_ms > 0 {
                let busy = shard.busy_since_ns.load(SeqCst);
                if busy != 0 && tick_ns.saturating_sub(busy - 1) > wd_ms.saturating_mul(1_000_000) {
                    shard.gen.fetch_add(1, SeqCst);
                    shard.busy_since_ns.store(0, SeqCst);
                    shard.wedges.fetch_add(1, Relaxed);
                    schedule_restart(shared, shard, ShardHealth::Wedged, now);
                    shared.live_workers.fetch_add(1, SeqCst);
                    let s = Arc::clone(shared);
                    let handle = spawn_background("fleet-replacement", move || {
                        worker_loop(&s, 0);
                    });
                    lock_clean(&self.workers).push(handle);
                }
            }
            // Due restarts, metered by the per-shard breaker. `try_lock`:
            // if a stuck worker still holds the engine, postpone without
            // charging the backoff — the fault already paid its delay.
            let due = {
                let c = lock_clean(&shard.control);
                c.restart_due.is_some_and(|d| now >= d)
            };
            if due {
                match shard.engine.try_lock() {
                    Ok(mut cell) => {
                        let now_slot = shard.highest_fed.load(Relaxed);
                        let granted = lock_clean(&shard.breaker).try_acquire(now_slot);
                        if !granted {
                            // Budget exhausted: park lame-duck instead of
                            // hot-looping rebuilds, and keep the due flag
                            // set so the half-open probe fires once the
                            // backoff elapses.
                            park_lame_duck(shared, shard, &mut cell);
                            let mut c = lock_clean(&shard.control);
                            c.restart_due = Some(now + Duration::from_millis(1));
                        } else {
                            let probing =
                                lock_clean(&shard.breaker).state() == BreakerState::HalfOpen;
                            let ok = restart_shard(shared, shard, &mut cell);
                            lock_clean(&shard.breaker).probe_result(ok, now_slot);
                            if ok && (probing || shard.lame_duck.swap(false, Relaxed)) {
                                shard.lame_duck.store(false, Relaxed);
                                if let Some(engine) = cell.engine.as_ref() {
                                    let m = engine.scope().metrics();
                                    m.gauge_set(Gauge::RestartBreakerOpen, 0);
                                    m.note(
                                        "restart_breaker",
                                        "closed: half-open probe rebuild succeeded",
                                    );
                                }
                            }
                        }
                    }
                    Err(_) => {
                        let mut c = lock_clean(&shard.control);
                        c.restart_due = Some(now + Duration::from_millis(1));
                    }
                }
            }
        }
    }

    /// Run `f` against a shard's live scope. `None` while the shard is
    /// between engines (quarantined, restart pending).
    pub fn with_scope<R>(&self, shard: usize, f: impl FnOnce(&NrScope) -> R) -> Option<R> {
        let cell = lock_clean(&self.shared.shards[shard].engine);
        cell.engine.as_ref().map(|e| f(e.scope()))
    }

    /// Inject a fault plan into a shard (chaos testing: kill, wedge, or
    /// overload exactly one bulkhead).
    pub fn inject_fault(&self, shard: usize, plan: FaultPlan) {
        *lock_clean(&self.shared.shards[shard].fault) = plan;
    }

    /// Drain a shard's enqueue→completion latency samples (ns).
    pub fn take_latencies(&self, shard: usize) -> Vec<u64> {
        std::mem::take(&mut *lock_clean(&self.shared.shards[shard].latencies))
    }

    /// Point-in-time status of one shard.
    pub fn shard_status(&self, shard: usize) -> ShardStatus {
        let s = &self.shared.shards[shard];
        let c = lock_clean(&s.control);
        ShardStatus {
            health: c.health,
            restarts: s.restarts.load(Relaxed),
            panics: s.panics.load(Relaxed),
            wedges: s.wedges.load(Relaxed),
            sheds: s.sheds.load(Relaxed),
            queue_len: lock_clean(&s.queue).len(),
            last_recovery: c.last_recovery.clone(),
            breaker: lock_clean(&s.breaker).state(),
            lame_duck: s.lame_duck.load(Relaxed),
        }
    }

    /// Wait until every queue is drained and every worker idle (pumping
    /// supervision while waiting). Returns false on timeout — which a
    /// wedged-and-not-yet-recovered shard will cause by design.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.supervise();
            let busy = self
                .shared
                .shards
                .iter()
                .any(|s| !lock_clean(&s.queue).is_empty() || s.busy_since_ns.load(SeqCst) != 0);
            if !busy {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fleet-wide rollup: per-cell rows + aggregate + continuity-corrected
    /// distinct users. Never blocks on a wedged engine — rows fall back to
    /// the last worker-refreshed cache.
    pub fn rollup(&self) -> FleetSnapshot {
        let mut cells = Vec::with_capacity(self.shared.shards.len());
        for s in &self.shared.shards {
            // Refresh from the live scope when the engine is free.
            if let Ok(cell) = s.engine.try_lock() {
                if let Some(engine) = cell.engine.as_ref() {
                    refresh_cache_from(&mut lock_clean(&s.cache), engine, s.degraded.load(Relaxed));
                }
            }
            let cache = lock_clean(&s.cache).clone();
            let health = lock_clean(&s.control).health;
            let (breaker, breaker_openings) = {
                let b = lock_clean(&s.breaker);
                (b.state().name().to_string(), b.openings())
            };
            cells.push(CellRollup {
                name: s.spec.name.clone(),
                pci: s.spec.pci.map(|p| p.0),
                health: health.name().to_string(),
                sync: cache.sync.to_string(),
                load_rung: cache.load_rung.to_string(),
                slots: cache.slots,
                dcis: cache.dcis,
                tracked_ues: cache.tracked_ues,
                discovered: cache.discovered,
                sheds: s.sheds.load(Relaxed),
                panics: s.panics.load(Relaxed),
                wedges: s.wedges.load(Relaxed),
                restarts: s.restarts.load(Relaxed),
                hangs_detected: s.wedges.load(Relaxed),
                breaker,
                breaker_openings,
                durability: cache.durability.to_string(),
                loss_window_slots: cache.loss_window,
                clock_lock: cache.clock_lock.to_string(),
                clock_drift_ppb: cache.clock_drift_ppb,
                timing_slips: cache.timing_slips,
            });
        }
        let (continuations, matches) = {
            let c = lock_clean(&self.shared.continuity);
            (c.continuations, c.matches.clone())
        };
        let total_discovered: u64 = cells.iter().map(|c| c.discovered).sum();
        let durability_degraded_cells = self
            .shared
            .shards
            .iter()
            .zip(&cells)
            .filter(|(s, c)| {
                s.spec.persist.is_some()
                    && (c.durability == "durable_degraded" || c.durability == "non_durable")
            })
            .count() as u64;
        let clock_unlocked_cells = cells
            .iter()
            .filter(|c| c.clock_lock == "pulling" || c.clock_lock == "unlocked")
            .count() as u64;
        let breaker_open_cells = cells.iter().filter(|c| c.breaker != "closed").count() as u64;
        FleetSnapshot {
            total_slots: cells.iter().map(|c| c.slots).sum(),
            total_dcis: cells.iter().map(|c| c.dcis).sum(),
            total_discovered,
            continuations,
            distinct_users: total_discovered.saturating_sub(continuations),
            durability_degraded_cells,
            clock_unlocked_cells,
            total_timing_slips: cells.iter().map(|c| c.timing_slips).sum(),
            breaker_open_cells,
            matches,
            cells,
        }
    }

    /// Stop the shared workers, finalise durable shards (flush + final
    /// checkpoint), and return the closing rollup.
    pub fn finish(self) -> FleetSnapshot {
        self.shared.shutdown.store(true, SeqCst);
        let deadline = Instant::now() + Duration::from_secs(5);
        let handles = std::mem::take(&mut *lock_clean(&self.workers));
        for h in handles {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if h.is_finished() {
                let _ = h.join();
            }
            // A still-stuck worker is abandoned: shutdown is bounded by
            // the deadline, not by the slowest slot.
        }
        for s in &self.shared.shards {
            if let Ok(mut cell) = s.engine.try_lock() {
                if let Some(engine) = cell.engine.take() {
                    refresh_cache_from(
                        &mut lock_clean(&s.cache),
                        &engine,
                        s.degraded.load(Relaxed),
                    );
                    if let ShardEngine::Durable(session) = engine {
                        let _ = session.finalize();
                    }
                }
            }
        }
        self.rollup()
    }
}

/// Update a shard's cached rollup row from its live scope.
fn refresh_cache_from(cache: &mut CachedStats, engine: &ShardEngine, disk_degraded: bool) {
    let scope = engine.scope();
    let st = &scope.stats;
    cache.slots = st.slots;
    cache.dcis = st.si_dcis + st.ra_dcis + st.tc_dcis + st.dl_dcis + st.ul_dcis;
    cache.tracked_ues = scope.tracked_rntis().len() as u64;
    cache.discovered = scope.total_discovered();
    cache.sync = match scope.sync_state() {
        SyncState::Synced => "synced",
        SyncState::Degraded => "degraded",
        SyncState::Lost => "lost",
        SyncState::Reacquiring => "reacquiring",
    };
    cache.load_rung = scope.governor().rung().name();
    cache.watermark = scope.slot_watermark();
    cache.clock_lock = match scope.clock_lock() {
        None => "ideal",
        Some(crate::ClockLock::Locked) => "locked",
        Some(crate::ClockLock::Pulling) => "pulling",
        Some(crate::ClockLock::Unlocked) => "unlocked",
    };
    cache.clock_drift_ppb = scope.clock_drift_ppb();
    cache.timing_slips = st.timing_slips;
    match engine {
        ShardEngine::Durable(s) => {
            cache.durability = s.durability_rung().name();
            cache.loss_window = s.reported_loss_window();
        }
        ShardEngine::Volatile(_) => {
            // A volatile fallback after a dead disk is `non_durable` —
            // spec said durable, the disk disagreed; an always-volatile
            // shard never promised durability in the first place.
            cache.durability = if disk_degraded {
                "non_durable"
            } else {
                "volatile"
            };
            cache.loss_window = None;
        }
    }
}

/// Schedule a warm restart after the current backoff, growing the backoff
/// for consecutive faults and resetting it after a calm stretch.
fn schedule_restart(shared: &FleetShared, shard: &Shard, health: ShardHealth, now: Instant) {
    let mut c = lock_clean(&shard.control);
    if let Some(last) = c.last_fault_at {
        if now.duration_since(last) >= Duration::from_millis(shared.cfg.backoff_calm_ms) {
            c.backoff_exp = 0;
        }
    }
    let exp = c.backoff_exp.min(shared.cfg.max_restart_backoff_exp);
    let delay = Duration::from_millis(
        shared
            .cfg
            .restart_backoff_ms
            .saturating_mul(1u64 << exp.min(32)),
    );
    c.backoff_exp = (c.backoff_exp + 1).min(shared.cfg.max_restart_backoff_exp);
    c.health = health;
    c.restart_due = Some(now + delay);
    c.last_fault_at = Some(now);
}

/// Park a shard in lame-duck mode behind an open restart breaker: the
/// rebuild budget is exhausted, so instead of hot-looping respawns the
/// shard gets one volatile fallback engine (degraded but still decoding)
/// and real rebuilds wait for the breaker's half-open probe.
fn park_lame_duck(shared: &FleetShared, shard: &Shard, cell: &mut EngineCell) {
    let was_parked = shard.lame_duck.swap(true, Relaxed);
    if was_parked && cell.engine.is_some() {
        return; // already parked and still serving
    }
    let mut scope = NrScope::new(shard.spec.scope, shard.spec.pci);
    scope.set_load_model(shard.spec.load_model);
    let adopt = lock_clean(&shard.queue)
        .front()
        .map(|e| e.seq)
        .unwrap_or_else(|| shard.highest_fed.load(Relaxed).saturating_add(1));
    scope.fast_forward(adopt);
    {
        let m = scope.metrics();
        m.gauge_set(Gauge::RestartBreakerOpen, 1);
        m.note(
            "restart_breaker",
            format!(
                "restart budget exhausted ({} per {} slots): shard parked \
                 lame-duck on a volatile fallback until the half-open probe",
                shared.cfg.restart_budget, shared.cfg.restart_budget_window_slots
            ),
        );
        if shard.spec.persist.is_some() {
            m.gauge_set(Gauge::DurabilityRung, DurabilityRung::NonDurable as u64);
        }
    }
    if shard.spec.persist.is_some() {
        shard.degraded.store(true, Relaxed);
    }
    cell.engine = Some(ShardEngine::Volatile(Box::new(scope)));
    cell.gen = shard.gen.load(SeqCst);
    let mut c = lock_clean(&shard.control);
    c.health = ShardHealth::Healthy;
}

/// Rebuild a shard's engine in place (the caller holds the engine lock).
/// Returns true when an engine was installed (including the volatile
/// fallback after a dead disk), false when the rebuild failed and another
/// attempt was scheduled.
fn restart_shard(shared: &FleetShared, shard: &Shard, cell: &mut EngineCell) -> bool {
    match ShardEngine::build(&shard.spec, shared.journal_writer.as_ref()) {
        Ok((mut engine, recovery)) => {
            if shard.spec.persist.is_none() {
                // Volatile cold restart: adopt the live feed position —
                // resume at the oldest still-queued slot (or just past
                // the newest fed one when the queue is empty).
                let adopt = lock_clean(&shard.queue)
                    .front()
                    .map(|e| e.seq)
                    .unwrap_or_else(|| shard.highest_fed.load(Relaxed).saturating_add(1));
                engine.scope_mut().fast_forward(adopt);
            }
            engine.scope().metrics().inc(Counter::RestartsTotal);
            cell.engine = Some(engine);
            cell.gen = shard.gen.load(SeqCst);
            shard.restarts.fetch_add(1, Relaxed);
            // The durable engine is back — if this shard had fallen to a
            // volatile fallback, it has its disk again.
            if shard.spec.persist.is_some() {
                shard.degraded.store(false, Relaxed);
            }
            let mut c = lock_clean(&shard.control);
            c.health = ShardHealth::Healthy;
            c.restart_due = None;
            if recovery.is_some() {
                c.last_recovery = recovery;
            }
            true
        }
        Err(e) => {
            let backoff_exhausted =
                lock_clean(&shard.control).backoff_exp >= shared.cfg.max_restart_backoff_exp;
            if backoff_exhausted && shard.spec.persist.is_some() {
                // The disk under a durable shard is dead and restart
                // can't fix a disk: stop burning restarts and install a
                // volatile fallback engine instead. The shard keeps
                // decoding, reported durability-degraded (`non_durable`,
                // unbounded loss window) rather than endlessly Faulted.
                let mut scope = NrScope::new(shard.spec.scope, shard.spec.pci);
                scope.set_load_model(shard.spec.load_model);
                let adopt = lock_clean(&shard.queue)
                    .front()
                    .map(|e| e.seq)
                    .unwrap_or_else(|| shard.highest_fed.load(Relaxed).saturating_add(1));
                scope.fast_forward(adopt);
                scope
                    .metrics()
                    .gauge_set(Gauge::DurabilityRung, DurabilityRung::NonDurable as u64);
                scope.metrics().inc(Counter::StorageDemotions);
                scope.metrics().note("storage_demotion", e.to_string());
                shard.degraded.store(true, Relaxed);
                cell.engine = Some(ShardEngine::Volatile(Box::new(scope)));
                cell.gen = shard.gen.load(SeqCst);
                shard.restarts.fetch_add(1, Relaxed);
                let mut c = lock_clean(&shard.control);
                c.health = ShardHealth::Healthy;
                c.restart_due = None;
                true
            } else {
                // Rebuild failed (I/O): treat as another fault — back off
                // and try again rather than spinning.
                schedule_restart(shared, shard, ShardHealth::Faulted, Instant::now());
                false
            }
        }
    }
}

/// Absorb one shard's drained UE events into the continuity matcher.
fn absorb_events(shared: &FleetShared, shard_idx: usize, events: &[UeEvent]) {
    let window = shared.cfg.continuity_window_slots;
    let mut c = lock_clean(&shared.continuity);
    for ev in events {
        match *ev {
            UeEvent::Discovered { rnti, slot } => {
                // A discovery can also close an expiry that arrived first
                // (the old cell's pipeline ran ahead of the new one).
                let hit = c
                    .pending_expiries
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        p.shard != shard_idx
                            && slot >= p.last_active_slot.saturating_sub(window)
                            && slot <= p.last_active_slot.saturating_add(window)
                    })
                    .min_by_key(|(_, p)| (p.rnti != rnti, p.last_active_slot))
                    .map(|(i, _)| i);
                if let Some(i) = hit {
                    if let Some(exp) = c.pending_expiries.remove(i) {
                        c.continuations += 1;
                        c.matches.push(ContinuityMatch {
                            from_shard: exp.shard,
                            to_shard: shard_idx,
                            expired_rnti: exp.rnti,
                            new_rnti: rnti,
                            last_active_slot: exp.last_active_slot,
                            discovered_slot: slot,
                        });
                    }
                    continue;
                }
                if c.pending_discoveries.len() >= CONTINUITY_PENDING_MAX {
                    c.pending_discoveries.pop_front();
                }
                c.pending_discoveries.push_back(PendingDiscovery {
                    shard: shard_idx,
                    rnti,
                    seq: slot,
                });
            }
            UeEvent::Expired {
                rnti,
                slot: _,
                last_active_slot,
            } => {
                // The usual order: the UE was already admitted on the new
                // cell (a RACH takes milliseconds; expiry takes seconds).
                let lo = last_active_slot.saturating_sub(window);
                let hi = last_active_slot.saturating_add(window);
                let hit = c
                    .pending_discoveries
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.shard != shard_idx && p.seq >= lo && p.seq <= hi)
                    .min_by_key(|(_, p)| (p.rnti != rnti, p.seq))
                    .map(|(i, _)| i);
                if let Some(i) = hit {
                    if let Some(disc) = c.pending_discoveries.remove(i) {
                        c.continuations += 1;
                        c.matches.push(ContinuityMatch {
                            from_shard: shard_idx,
                            to_shard: disc.shard,
                            expired_rnti: rnti,
                            new_rnti: disc.rnti,
                            last_active_slot,
                            discovered_slot: disc.seq,
                        });
                    }
                } else {
                    if c.pending_expiries.len() >= CONTINUITY_PENDING_MAX {
                        c.pending_expiries.pop_front();
                    }
                    c.pending_expiries.push_back(PendingExpiry {
                        shard: shard_idx,
                        rnti,
                        last_active_slot,
                    });
                }
            }
        }
    }
}

/// Outcome of one shard-service attempt.
enum Service {
    /// Nothing to do (empty queue, engine busy or absent).
    Idle,
    /// Processed at least one entry.
    Worked,
    /// This worker's engine was fenced mid-slot: the thread should retire
    /// if a replacement was spawned.
    Fenced,
}

/// One worker's attempt to service shard `i`: acquire the engine (one
/// worker per shard at a time), drain up to [`MAX_BATCH`] entries with
/// watermark gap-fill, catch panics, honour injected faults.
fn service_shard(shared: &FleetShared, i: usize) -> Service {
    let shard = &shared.shards[i];
    if lock_clean(&shard.queue).is_empty() {
        return Service::Idle;
    }
    let Ok(mut cell) = shard.engine.try_lock() else {
        return Service::Idle;
    };
    let my_gen = shard.gen.load(SeqCst);
    if cell.gen != my_gen {
        // A previous holder was fenced and discarded the engine; adopt
        // the new generation (the supervisor rebuilds the engine).
        cell.engine = None;
        cell.gen = my_gen;
    }
    if cell.engine.is_none() {
        // Quarantined: leave the queue intact for the restarted engine
        // (bounded — feed sheds this shard's own oldest when full).
        return Service::Idle;
    }
    let mut worked = false;
    for _ in 0..MAX_BATCH {
        let Some(entry) = lock_clean(&shard.queue).pop_front() else {
            break;
        };
        let fault = {
            let mut f = lock_clean(&shard.fault);
            match *f {
                FaultPlan::None => None,
                FaultPlan::OneShot(x) => {
                    *f = FaultPlan::None;
                    Some(x)
                }
                FaultPlan::EverySlot(d) => Some(InjectedFault::Delay(d)),
            }
        };
        shard.busy_since_ns.store(now_ns(shared.epoch) + 1, SeqCst);
        let engine = match cell.engine.as_mut() {
            Some(e) => e,
            None => break,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(InjectedFault::Panic) => panic!("injected shard fault"),
                Some(InjectedFault::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
            let watermark = engine.scope().slot_watermark();
            if entry.seq < watermark {
                // Below the watermark: already folded into the restored
                // state — never reprocess (the supervise-module rule), so
                // nothing is double-counted.
                return false;
            }
            // Gap-fill skipped slots as honest drops, then the real one.
            for _ in watermark..entry.seq {
                engine.process(&Capture::Dropped(DropReason::Stall));
            }
            engine.process(&entry.cap);
            true
        }));
        shard.busy_since_ns.store(0, SeqCst);
        if shard.gen.load(SeqCst) != my_gen {
            // The watchdog fenced this shard while we were inside the
            // slot: our engine is presumed wedged — discard it and let
            // the supervisor's scheduled restart rebuild from disk.
            cell.engine = None;
            cell.gen = shard.gen.load(SeqCst);
            return Service::Fenced;
        }
        match outcome {
            Ok(processed) => {
                worked = true;
                if processed {
                    if let Some(engine) = cell.engine.as_mut() {
                        let events = engine.scope_mut().drain_ue_events();
                        if !events.is_empty() {
                            absorb_events(shared, i, &events);
                        }
                    }
                    let lat = entry.enqueued.elapsed().as_nanos() as u64;
                    let mut buf = lock_clean(&shard.latencies);
                    if buf.len() < LATENCY_BUF_MAX {
                        buf.push(lat);
                    }
                }
            }
            Err(_) => {
                // The shard panicked mid-slot: quarantine its engine (its
                // state is suspect) and warm-restart from its own
                // checkpoint. Siblings never notice.
                cell.engine = None;
                shard.panics.fetch_add(1, Relaxed);
                schedule_restart(shared, shard, ShardHealth::Faulted, Instant::now());
                return Service::Worked;
            }
        }
    }
    if let Some(engine) = cell.engine.as_ref() {
        refresh_cache_from(
            &mut lock_clean(&shard.cache),
            engine,
            shard.degraded.load(Relaxed),
        );
    }
    if worked {
        Service::Worked
    } else {
        Service::Idle
    }
}

/// Retire this worker if the pool is over target (a replacement was
/// spawned for a wedge this thread was stuck in).
fn maybe_retire(shared: &FleetShared) -> bool {
    let mut live = shared.live_workers.load(SeqCst);
    while live > shared.target_workers {
        match shared
            .live_workers
            .compare_exchange(live, live - 1, SeqCst, SeqCst)
        {
            Ok(_) => return true,
            Err(l) => live = l,
        }
    }
    false
}

fn worker_loop(shared: &Arc<FleetShared>, start: usize) {
    let n = shared.shards.len().max(1);
    loop {
        if shared.shutdown.load(Relaxed) {
            break;
        }
        let mut did_work = false;
        let mut fenced = false;
        for k in 0..n {
            match service_shard(shared, (start + k) % n) {
                Service::Worked => did_work = true,
                Service::Fenced => {
                    did_work = true;
                    fenced = true;
                }
                Service::Idle => {}
            }
        }
        if fenced && maybe_retire(shared) {
            return;
        }
        if !did_work {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    shared.live_workers.fetch_sub(1, SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScopeConfig;

    fn spec(name: &str) -> ShardSpec {
        ShardSpec::volatile(name, Some(Pci(1)), ScopeConfig::default())
    }

    fn cfg() -> FleetConfig {
        FleetConfig {
            workers: 2,
            shard_queue_depth: 1024,
            watchdog_ms: 50,
            restart_backoff_ms: 1,
            ..FleetConfig::default()
        }
    }

    fn empty_slot() -> Capture {
        Capture::Slot(crate::observe::ObservedSlot::Message {
            mib_bits: None,
            dcis: vec![],
            pdsch: vec![],
        })
    }

    #[test]
    fn feeds_process_and_rollup_counts_slots() {
        let fleet = Fleet::new(cfg(), vec![spec("a"), spec("b")]).unwrap();
        for s in 0..100u64 {
            fleet.feed(0, s, empty_slot());
            fleet.feed(1, s, empty_slot());
        }
        assert!(fleet.quiesce(Duration::from_secs(5)));
        let snap = fleet.finish();
        assert_eq!(snap.cells.len(), 2);
        assert_eq!(snap.cells[0].slots, 100);
        assert_eq!(snap.cells[1].slots, 100);
        assert_eq!(snap.total_slots, 200);
    }

    #[test]
    fn full_queue_sheds_own_oldest_only() {
        let mut c = cfg();
        c.shard_queue_depth = 4;
        let fleet = Fleet::new(c, vec![spec("a"), spec("b")]).unwrap();
        // Wedge shard 0's engine lock indirectly: inject a long delay so
        // its queue backs up while shard 1 drains freely.
        fleet.inject_fault(0, FaultPlan::EverySlot(Duration::from_millis(20)));
        let mut sheds = 0;
        for s in 0..64u64 {
            if fleet.feed(0, s, empty_slot()) == FeedOutcome::ShedOldest {
                sheds += 1;
            }
            assert_eq!(fleet.feed(1, s, empty_slot()), FeedOutcome::Queued);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sheds > 0, "slow shard shed its own slots");
        let status = fleet.shard_status(1);
        assert_eq!(status.sheds, 0, "sibling never shed");
        fleet.inject_fault(0, FaultPlan::None);
        assert!(fleet.quiesce(Duration::from_secs(10)));
        fleet.finish();
    }

    #[test]
    fn panic_quarantines_one_shard_and_restarts_it() {
        let fleet = Fleet::new(cfg(), vec![spec("a"), spec("b")]).unwrap();
        fleet.inject_fault(0, FaultPlan::OneShot(InjectedFault::Panic));
        for s in 0..200u64 {
            fleet.feed(0, s, empty_slot());
            fleet.feed(1, s, empty_slot());
            if s.is_multiple_of(16) {
                fleet.supervise();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(fleet.quiesce(Duration::from_secs(10)));
        let a = fleet.shard_status(0);
        assert_eq!(a.panics, 1, "panic caught");
        assert!(a.restarts >= 1, "warm-restarted");
        assert_eq!(a.health, ShardHealth::Healthy);
        let snap = fleet.finish();
        assert_eq!(snap.cells[1].slots, 200, "sibling unperturbed");
        assert_eq!(snap.cells[1].panics, 0);
    }

    #[test]
    fn wedge_is_fenced_and_the_shard_recovers() {
        let fleet = Fleet::new(cfg(), vec![spec("a"), spec("b")]).unwrap();
        fleet.inject_fault(
            0,
            FaultPlan::OneShot(InjectedFault::Delay(Duration::from_millis(400))),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut s = 0u64;
        while Instant::now() < deadline {
            fleet.feed(0, s, empty_slot());
            fleet.feed(1, s, empty_slot());
            s += 1;
            fleet.supervise();
            if fleet.shard_status(0).restarts >= 1 && fleet.shard_status(0).wedges >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let a = fleet.shard_status(0);
        assert!(a.wedges >= 1, "watchdog fenced the wedged shard");
        assert!(a.restarts >= 1, "and it was restarted");
        assert_eq!(fleet.shard_status(1).wedges, 0);
        assert!(fleet.quiesce(Duration::from_secs(10)));
        fleet.finish();
    }

    #[test]
    fn finish_is_bounded_while_a_shard_is_stuck() {
        let fleet = Fleet::new(cfg(), vec![spec("a"), spec("b")]).unwrap();
        fleet.inject_fault(
            0,
            FaultPlan::OneShot(InjectedFault::Delay(Duration::from_secs(30))),
        );
        for s in 0..50u64 {
            fleet.feed(0, s, empty_slot());
            fleet.feed(1, s, empty_slot());
        }
        // The sibling drains on the other worker while shard 0 sleeps.
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.rollup().cells[1].slots < 50 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let start = Instant::now();
        let snap = fleet.finish();
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(6),
            "finish took {took:?}: bounded by its 5 s deadline, not the 30 s stall"
        );
        assert_eq!(snap.cells.len(), 2);
        assert_eq!(
            snap.cells[1].slots, 50,
            "closing rollup carries the sibling"
        );
    }

    #[test]
    fn breaker_parks_storming_shard_and_halfopen_probe_recovers() {
        let mut c = cfg();
        c.restart_budget = 2;
        c.restart_budget_window_slots = 1_000_000; // no meaningful refill
        c.breaker_halfopen_after_slots = 50;
        let fleet = Fleet::new(c, vec![spec("storm"), spec("calm")]).unwrap();
        // Keep panicking the shard until the restart budget runs dry and
        // the breaker parks it lame-duck.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut s = 0u64;
        while Instant::now() < deadline {
            fleet.inject_fault(0, FaultPlan::OneShot(InjectedFault::Panic));
            for _ in 0..8 {
                fleet.feed(0, s, empty_slot());
                fleet.feed(1, s, empty_slot());
                s += 1;
            }
            fleet.supervise();
            std::thread::sleep(Duration::from_millis(2));
            if fleet.shard_status(0).lame_duck {
                break;
            }
        }
        let st = fleet.shard_status(0);
        assert!(st.lame_duck, "breaker parked the storming shard");
        assert_ne!(st.breaker, BreakerState::Closed);
        let snap = fleet.rollup();
        assert_eq!(snap.breaker_open_cells, 1);
        assert!(snap.cells[0].breaker_openings >= 1);
        assert_eq!(snap.cells[1].breaker, "closed", "sibling unaffected");
        // Stop injecting and advance the feed past the half-open backoff:
        // the probe rebuild succeeds and the breaker closes.
        fleet.inject_fault(0, FaultPlan::None);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            for _ in 0..16 {
                fleet.feed(0, s, empty_slot());
                s += 1;
            }
            fleet.supervise();
            std::thread::sleep(Duration::from_millis(2));
            let st = fleet.shard_status(0);
            if !st.lame_duck && st.breaker == BreakerState::Closed {
                break;
            }
        }
        let st = fleet.shard_status(0);
        assert_eq!(
            st.breaker,
            BreakerState::Closed,
            "half-open probe closed the breaker"
        );
        assert!(!st.lame_duck);
        assert!(fleet.quiesce(Duration::from_secs(10)));
        fleet.finish();
    }

    #[test]
    fn continuity_matches_one_handover_as_one_user() {
        let shared = FleetShared {
            cfg: FleetConfig::default(),
            shards: Vec::new(),
            continuity: Mutex::new(ContinuityState {
                pending_discoveries: VecDeque::new(),
                pending_expiries: VecDeque::new(),
                continuations: 0,
                matches: Vec::new(),
            }),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            live_workers: AtomicUsize::new(0),
            target_workers: 0,
            journal_writer: None,
        };
        // Cell B admits the UE at slot 5000; cell A expires it later with
        // last activity at slot 4980 — one user.
        absorb_events(
            &shared,
            1,
            &[UeEvent::Discovered {
                rnti: Rnti(0x4700),
                slot: 5000,
            }],
        );
        absorb_events(
            &shared,
            0,
            &[UeEvent::Expired {
                rnti: Rnti(0x4601),
                slot: 24_980,
                last_active_slot: 4980,
            }],
        );
        let c = lock_clean(&shared.continuity);
        assert_eq!(c.continuations, 1);
        assert_eq!(c.matches.len(), 1);
        assert_eq!(c.matches[0].from_shard, 0);
        assert_eq!(c.matches[0].to_shard, 1);
    }

    #[test]
    fn continuity_ignores_out_of_window_and_same_shard_events() {
        let shared = FleetShared {
            cfg: FleetConfig::default(),
            shards: Vec::new(),
            continuity: Mutex::new(ContinuityState {
                pending_discoveries: VecDeque::new(),
                pending_expiries: VecDeque::new(),
                continuations: 0,
                matches: Vec::new(),
            }),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            live_workers: AtomicUsize::new(0),
            target_workers: 0,
            journal_writer: None,
        };
        // Same shard: a re-RACH on the same cell is recovery, not handover.
        absorb_events(
            &shared,
            0,
            &[UeEvent::Discovered {
                rnti: Rnti(100),
                slot: 1000,
            }],
        );
        absorb_events(
            &shared,
            0,
            &[UeEvent::Expired {
                rnti: Rnti(100),
                slot: 21_000,
                last_active_slot: 1000,
            }],
        );
        // Different shard but far outside the window.
        absorb_events(
            &shared,
            1,
            &[UeEvent::Discovered {
                rnti: Rnti(200),
                slot: 90_000,
            }],
        );
        absorb_events(
            &shared,
            0,
            &[UeEvent::Expired {
                rnti: Rnti(201),
                slot: 30_000,
                last_active_slot: 10_000,
            }],
        );
        let c = lock_clean(&shared.continuity);
        assert_eq!(c.continuations, 0, "no false continuity matches");
    }

    #[test]
    fn discovery_first_and_expiry_first_orders_both_match() {
        let shared = FleetShared {
            cfg: FleetConfig::default(),
            shards: Vec::new(),
            continuity: Mutex::new(ContinuityState {
                pending_discoveries: VecDeque::new(),
                pending_expiries: VecDeque::new(),
                continuations: 0,
                matches: Vec::new(),
            }),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            live_workers: AtomicUsize::new(0),
            target_workers: 0,
            journal_writer: None,
        };
        // Expiry report arrives before the discovery (cell A's pipeline
        // ran ahead): the pending expiry is closed by the discovery.
        absorb_events(
            &shared,
            0,
            &[UeEvent::Expired {
                rnti: Rnti(300),
                slot: 25_000,
                last_active_slot: 5000,
            }],
        );
        absorb_events(
            &shared,
            1,
            &[UeEvent::Discovered {
                rnti: Rnti(301),
                slot: 5030,
            }],
        );
        let c = lock_clean(&shared.continuity);
        assert_eq!(c.continuations, 1);
        assert_eq!(c.matches[0].expired_rnti, Rnti(300));
        assert_eq!(c.matches[0].new_rnti, Rnti(301));
    }
}
