//! NR-Scope runtime configuration.

use crate::clock::ClockRecoveryConfig;
use crate::governor::GovernorConfig;
use serde::{Deserialize, Serialize};

/// At what fidelity the sniffer consumes the cell's emissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Typed per-slot messages with a calibrated corruption model —
    /// fast enough for 10-minute × 64-UE runs (Figs 9–11, 14–16).
    Message,
    /// Full IQ: OFDM demodulation, channel estimation, polar decoding —
    /// used where misses must emerge physically (Figs 7, 8, 13).
    Iq,
}

/// Sniffer configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScopeConfig {
    /// Serialisation schema version ([`crate::SCHEMA_VERSION`]); configs
    /// from a future schema are rejected by [`ScopeConfig::from_json`].
    pub schema_version: u32,
    /// Observation fidelity.
    pub fidelity: Fidelity,
    /// Sliding window for bit-rate estimation, in slots (the paper keeps a
    /// sliding window per UE, §3.2.2; 1 s at µ=1 = 2000 slots).
    pub rate_window_slots: u64,
    /// Drop a UE from the tracked list after this many slots without any
    /// DCI (idle-release shadowing; cells release after inactivity).
    pub ue_expiry_slots: u64,
    /// Skip PDSCH decoding of RRC Setup after the first UE (§3.1.2's
    /// optimisation; `false` re-decodes every time — the Fig 12 ablation).
    pub skip_rrc_decode: bool,
    /// Number of DCI worker threads in the Fig 4 pipeline.
    pub dci_threads: usize,
    /// Consecutive unhealthy slots (no DCI decoded while UEs are expected,
    /// or slots dropped outright) before sync is considered degraded.
    pub degraded_after_slots: u64,
    /// Consecutive unhealthy slots before sync is declared lost and the
    /// cell identity is discarded for re-acquisition.
    pub lost_after_slots: u64,
    /// Upper bound (exclusive) of the PCI range scanned while re-acquiring
    /// at message fidelity (IQ fidelity re-detects from PSS/SSS instead).
    pub pci_scan_max: u16,
    /// Whether the pipeline metrics registry records (counters, gauges,
    /// per-stage latency histograms). Near-zero cost either way; disabling
    /// also skips the per-stage clock reads.
    pub metrics_enabled: bool,
    /// Per-UE throughput history retention, in slots (bounds the
    /// estimator's memory; see `throughput::DEFAULT_HISTORY_RETENTION_SLOTS`).
    pub history_retention_slots: u64,
    /// Overload-governor budget and hysteresis knobs (the degradation
    /// ladder). Disabled by default: offline replay has no slot deadline.
    pub governor: GovernorConfig,
    /// Stage-2 RNTI admission control (untrusted-air hardening).
    /// Defaulted so configs written before the hardening still parse.
    #[serde(default)]
    pub admission: AdmissionConfig,
    /// Timing-recovery loop knobs (`clock.*`). The loop itself activates
    /// lazily, on the first clock observable from the front end — a
    /// session that never receives one behaves exactly as before.
    /// Defaulted so configs written before clock hardening still parse.
    #[serde(default)]
    pub clock: ClockRecoveryConfig,
    /// Liveness-supervision knobs (`supervise.*`): heartbeat cadence, hang
    /// deadline, and the restart-storm circuit breaker. Defaulted so
    /// configs written before liveness supervision still parse.
    #[serde(default)]
    pub supervise: SuperviseConfig,
}

/// Liveness-supervision knobs: how the parent decides a child is hung
/// rather than busy, and how the restart-storm circuit breaker meters
/// respawns. Shared across the supervised-child path and (budget/window)
/// the fleet's per-shard breakers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct SuperviseConfig {
    /// Child side: emit a [`ChildMsg::Heartbeat`](crate::supervise::ChildMsg)
    /// if this long has passed since the last line it wrote — keeps a
    /// busy-but-alive child (long gap-fill, slow slot) distinguishable
    /// from a wedged one.
    pub heartbeat_interval_ms: u64,
    /// Parent side: pipe silence longer than this classifies the child as
    /// hung — force-kill and warm-restart, exactly like a crash. Must
    /// comfortably exceed `heartbeat_interval_ms`.
    pub hang_deadline_ms: u64,
    /// Token-bucket restart budget: restarts the breaker grants before it
    /// opens. Tokens refill at `restart_budget` per
    /// `restart_budget_window_slots`.
    pub restart_budget: u32,
    /// Slot window over which the full restart budget refills.
    pub restart_budget_window_slots: u64,
    /// Slots the supervisor waits after a kill before respawning (lets a
    /// transient cause clear instead of restarting into it).
    pub restart_backoff_slots: u64,
    /// Slots an open breaker parks the child in lame-duck mode before
    /// granting a single half-open probe restart.
    pub breaker_halfopen_after_slots: u64,
    /// Bound on waiting for a finishing child to exit before the
    /// supervisor escalates to SIGKILL
    /// ([`ChildHandle::wait_timeout`](crate::supervise::ChildHandle::wait_timeout)).
    pub wait_timeout_ms: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            heartbeat_interval_ms: 200,
            hang_deadline_ms: 2_000,
            restart_budget: 6,
            restart_budget_window_slots: 20_000, // 10 s at µ=1
            restart_backoff_slots: 8,
            breaker_halfopen_after_slots: 4_000, // 2 s at µ=1
            wait_timeout_ms: 5_000,
        }
    }
}

/// Stage-2 admission-control knobs: what a recovery-minted (never
/// RAR-shadowed) C-RNTI must do before it is tracked. RAR + MSG 4
/// discovery is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Corroborating decodes required before admission.
    pub k: usize,
    /// Sliding window (slots) in which the `k` corroborating decodes must
    /// land; a probation candidate whose window lapses is quarantined as
    /// a ghost.
    pub window_slots: u64,
    /// Quarantine-ledger size bound; the oldest entry is evicted
    /// (counted) when a newly failed candidate would exceed it.
    pub quarantine_max: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            k: 3,
            window_slots: 200,
            quarantine_max: 256,
        }
    }
}

/// Storage-fault policy: how the durability ladder responds when the
/// disk under a session starts failing. A transient error is retried off
/// the hot path; a persistent one (or `ENOSPC` that pruning cannot cure)
/// demotes the session to `NonDurable` — the pipeline keeps decoding, the
/// loss window becomes unbounded and is reported honestly — and a
/// background probe re-promotes once the disk recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct StoragePolicy {
    /// Write retries (with exponential backoff, on the writer thread —
    /// never the capture hot path) before a failing batch demotes the
    /// session to `NonDurable`.
    pub storage_retry_max: u32,
    /// Slots between disk re-probe attempts while `NonDurable` (a small
    /// test write + fsync to a probe file). Doubles after each failed
    /// probe — the governor's flap-backoff shape — and resets once the
    /// session has climbed back to `Durable`.
    pub reprobe_interval_slots: u64,
    /// Checkpoints retained by the emergency prune that `ENOSPC`
    /// triggers before the write is retried (journals wholly covered by
    /// the kept checkpoints are pruned too).
    pub emergency_prune_keep: usize,
}

impl Default for StoragePolicy {
    fn default() -> Self {
        StoragePolicy {
            storage_retry_max: 4,
            reprobe_interval_slots: 2048, // ~1 s at µ=1
            emergency_prune_keep: 1,
        }
    }
}

/// Fleet-level knobs: how N per-cell shard pipelines share one worker
/// pool while staying isolated failure domains (bulkheads).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Worker threads shared across all shards. 0 = one per available
    /// core, capped at the shard count (more workers than shards would
    /// only contend, since a shard admits one worker at a time).
    pub workers: usize,
    /// Per-shard bounded queue depth. When a shard's queue is full its
    /// *own* oldest slot is shed — backpressure never crosses a bulkhead.
    pub shard_queue_depth: usize,
    /// A shard whose slot has been in flight longer than this is declared
    /// wedged: its engine is fenced off and warm-restarted. 0 disables
    /// the watchdog.
    pub watchdog_ms: u64,
    /// Base delay before restarting a faulted shard; doubles per
    /// consecutive fault (exponential backoff).
    pub restart_backoff_ms: u64,
    /// Cap on the backoff doubling (`base << exp`).
    pub max_restart_backoff_exp: u32,
    /// A shard healthy this long has its restart backoff reset.
    pub backoff_calm_ms: u64,
    /// Cross-cell continuity window, in slots: a C-RNTI last active on
    /// cell A within this many slots of a discovery on cell B is matched
    /// as one user handed over, not two.
    pub continuity_window_slots: u64,
    /// Give every durable shard its own group-commit journal-writer
    /// thread instead of the default single shared writer. The shared
    /// writer is the right call on ordinary disks (one thread, batched
    /// syscalls for all shards); per-shard writers only pay off when
    /// shard journals live on independent devices. Defaulted off so
    /// configs written before group commit still parse.
    #[serde(default)]
    pub per_shard_journal_writers: bool,
    /// Per-shard restart-storm budget: engine rebuilds the breaker grants
    /// before it opens and the shard is parked in lame-duck mode (a
    /// volatile-degraded engine, no further rebuild attempts until the
    /// half-open probe). Tokens refill at `restart_budget` per
    /// `restart_budget_window_slots` of that shard's feed. 0 disables the
    /// breaker. Defaulted so pre-breaker configs still parse.
    #[serde(default = "default_fleet_restart_budget")]
    pub restart_budget: u32,
    /// Slot window (of the shard's own feed) over which the full restart
    /// budget refills.
    #[serde(default = "default_fleet_restart_budget_window")]
    pub restart_budget_window_slots: u64,
    /// Slots an open shard breaker waits before granting one half-open
    /// probe rebuild.
    #[serde(default = "default_fleet_breaker_halfopen")]
    pub breaker_halfopen_after_slots: u64,
}

fn default_fleet_restart_budget() -> u32 {
    10
}

fn default_fleet_restart_budget_window() -> u64 {
    20_000 // 10 s at µ=1
}

fn default_fleet_breaker_halfopen() -> u64 {
    4_000 // 2 s at µ=1
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 0,
            shard_queue_depth: 64,
            watchdog_ms: 1_000,
            restart_backoff_ms: 5,
            max_restart_backoff_exp: 6,
            backoff_calm_ms: 10_000,
            continuity_window_slots: 2_000, // 1 s at µ=1
            per_shard_journal_writers: false,
            restart_budget: default_fleet_restart_budget(),
            restart_budget_window_slots: default_fleet_restart_budget_window(),
            breaker_halfopen_after_slots: default_fleet_breaker_halfopen(),
        }
    }
}

impl ScopeConfig {
    /// Serialise to JSON (supervisor runners hand the child its config
    /// through a file rather than a brittle argv encoding).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ScopeConfig is always serialisable")
    }

    /// Parse a config written by [`ScopeConfig::to_json`], rejecting
    /// configs stamped with a future schema version.
    pub fn from_json(s: &str) -> Result<ScopeConfig, serde_json::Error> {
        let cfg: ScopeConfig = serde_json::from_str(s)?;
        if cfg.schema_version > crate::SCHEMA_VERSION {
            return Err(serde_json::Error::from(serde::DeError(format!(
                "scope config schema v{} is newer than supported v{}",
                cfg.schema_version,
                crate::SCHEMA_VERSION
            ))));
        }
        Ok(cfg)
    }
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            schema_version: crate::SCHEMA_VERSION,
            fidelity: Fidelity::Message,
            rate_window_slots: 2000,
            ue_expiry_slots: 20_000, // 10 s at µ=1
            skip_rrc_decode: true,
            dci_threads: 4,
            degraded_after_slots: 120,
            lost_after_slots: 400,
            pci_scan_max: 128,
            metrics_enabled: true,
            history_retention_slots: crate::throughput::DEFAULT_HISTORY_RETENTION_SLOTS,
            governor: GovernorConfig::default(),
            admission: AdmissionConfig::default(),
            clock: ClockRecoveryConfig::default(),
            supervise: SuperviseConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = ScopeConfig::default();
        assert_eq!(c.fidelity, Fidelity::Message);
        assert!(c.skip_rrc_decode, "paper §3.1.2 optimisation on by default");
        assert_eq!(c.dci_threads, 4, "paper evaluates with four DCI threads");
        assert!(
            !c.governor.enabled,
            "governor off by default: offline replay has no slot deadline"
        );
        assert!(c.governor.budget_fraction < 1.0, "headroom for capture");
        assert!(c.governor.promote_margin < 1.0, "promotion hysteresis");
        assert!(c.admission.k >= 2, "one chance CRC pass must not admit");
        assert!(c.admission.window_slots > 0);
        assert!(c.admission.quarantine_max > 0);
    }

    #[test]
    fn pre_hardening_config_json_gets_default_admission() {
        let mut json = ScopeConfig::default().to_json();
        // Strip the admission object as a pre-PR5 writer would have.
        let cfg = ScopeConfig::default();
        let adm = serde_json::to_string(&cfg.admission).expect("serialises");
        json = json.replace(&format!(",\"admission\":{adm}"), "");
        assert!(!json.contains("admission"), "field really stripped");
        let back = ScopeConfig::from_json(&json).expect("old config accepted");
        assert_eq!(back.admission, AdmissionConfig::default());
    }

    #[test]
    fn pre_liveness_config_json_gets_default_supervise() {
        let mut json = ScopeConfig::default().to_json();
        let cfg = ScopeConfig::default();
        let sup = serde_json::to_string(&cfg.supervise).expect("serialises");
        json = json.replace(&format!(",\"supervise\":{sup}"), "");
        assert!(!json.contains("supervise"), "field really stripped");
        let back = ScopeConfig::from_json(&json).expect("old config accepted");
        assert_eq!(back.supervise, SuperviseConfig::default());
        assert!(
            back.supervise.hang_deadline_ms > back.supervise.heartbeat_interval_ms,
            "a heartbeat cadence slower than the hang deadline would flag every slot"
        );
    }

    #[test]
    fn pre_clock_config_json_gets_default_clock() {
        let mut json = ScopeConfig::default().to_json();
        let cfg = ScopeConfig::default();
        let clk = serde_json::to_string(&cfg.clock).expect("serialises");
        json = json.replace(&format!(",\"clock\":{clk}"), "");
        assert!(!json.contains("\"clock\""), "field really stripped");
        let back = ScopeConfig::from_json(&json).expect("old config accepted");
        assert_eq!(back.clock, ClockRecoveryConfig::default());
    }
}
