//! Deterministic, seeded impairment scheduling for chaos testing.
//!
//! Real sniffer deployments fail in well-known ways: the USRP overflows
//! and drops (or truncates) slot buffers, a nearby transmitter raises the
//! noise floor for a burst, the AGC mis-steps on a power transient, and
//! the host stalls the receive thread long enough to lose timing. An
//! [`ImpairmentSchedule`] scripts all of these against a slot counter so
//! tests and example binaries can replay the exact same failure sequence
//! from a seed.
//!
//! Probabilistic impairments (random overflow drops, truncations) are
//! derived by hashing `(seed, slot, kind)` rather than by walking an RNG,
//! so a verdict for slot *n* never depends on which other slots were
//! queried first — resumable and order-independent by construction.

use crate::splitmix64;
use std::ops::Range;

/// One scheduled interference burst: an SNR penalty over a slot window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// First slot of the burst (inclusive).
    pub start: u64,
    /// End of the burst (exclusive).
    pub end: u64,
    /// How many dB the burst costs the sniffer.
    pub snr_penalty_db: f64,
}

/// Everything scheduled to go wrong in one slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlotImpairment {
    /// The slot buffer is lost entirely (USRP overflow).
    pub drop: bool,
    /// The slot buffer is cut short; the value is the retained fraction
    /// in `(0, 1)`.
    pub truncate: Option<f64>,
    /// Additional noise (dB) from burst interference.
    pub snr_penalty_db: f64,
    /// A transient mis-set of the AGC gain (dB, applied before the slot).
    pub agc_kick_db: f64,
    /// The observer stalls for this many slots starting here (host
    /// scheduling hiccup); the stalled slots are lost.
    pub stall_slots: u32,
}

impl SlotImpairment {
    /// True when nothing is scheduled for the slot.
    pub fn is_clean(&self) -> bool {
        !self.drop
            && self.truncate.is_none()
            && self.snr_penalty_db == 0.0
            && self.agc_kick_db == 0.0
            && self.stall_slots == 0
    }
}

/// A seeded, fully deterministic schedule of radio/host impairments.
#[derive(Debug, Clone, Default)]
pub struct ImpairmentSchedule {
    seed: u64,
    drop_prob: f64,
    truncate_prob: f64,
    outages: Vec<(u64, u64)>,
    bursts: Vec<Burst>,
    agc_transients: Vec<(u64, f64)>,
    stalls: Vec<(u64, u32)>,
}

impl ImpairmentSchedule {
    /// An empty schedule; every slot is clean until builders add faults.
    pub fn new(seed: u64) -> ImpairmentSchedule {
        ImpairmentSchedule {
            seed,
            ..ImpairmentSchedule::default()
        }
    }

    /// Drop each slot independently with probability `p` (USRP overflow).
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Truncate each surviving slot independently with probability `p`.
    pub fn with_truncate_prob(mut self, p: f64) -> Self {
        self.truncate_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Drop every slot in `slots` (a hard outage window).
    pub fn with_outage(mut self, slots: Range<u64>) -> Self {
        self.outages.push((slots.start, slots.end));
        self
    }

    /// Add `penalty_db` of noise over the `slots` window.
    pub fn with_interference(mut self, slots: Range<u64>, penalty_db: f64) -> Self {
        self.bursts.push(Burst {
            start: slots.start,
            end: slots.end,
            snr_penalty_db: penalty_db,
        });
        self
    }

    /// Kick the AGC gain by `db` just before `slot` is received.
    pub fn with_agc_transient(mut self, slot: u64, db: f64) -> Self {
        self.agc_transients.push((slot, db));
        self
    }

    /// Stall the observer for `n` slots starting at `slot`.
    pub fn with_stall(mut self, slot: u64, n: u32) -> Self {
        self.stalls.push((slot, n));
        self
    }

    /// Uniform draw in `[0, 1)` keyed by `(seed, slot, salt)`.
    fn unit(&self, slot: u64, salt: u64) -> f64 {
        let h = splitmix64(
            self.seed
                ^ slot.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ salt.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        );
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// What happens to `slot`. Pure: repeated queries agree regardless of
    /// order.
    pub fn verdict(&self, slot: u64) -> SlotImpairment {
        let mut v = SlotImpairment::default();
        if self.outages.iter().any(|(s, e)| (*s..*e).contains(&slot)) {
            v.drop = true;
        }
        if self.drop_prob > 0.0 && self.unit(slot, 1) < self.drop_prob {
            v.drop = true;
        }
        if !v.drop && self.truncate_prob > 0.0 && self.unit(slot, 2) < self.truncate_prob {
            // Retained fraction in [0.25, 0.75): enough left to look like
            // a slot, never enough to demodulate.
            v.truncate = Some(0.25 + 0.5 * self.unit(slot, 3));
        }
        v.snr_penalty_db = self
            .bursts
            .iter()
            .filter(|b| (b.start..b.end).contains(&slot))
            .map(|b| b.snr_penalty_db)
            .sum();
        v.agc_kick_db = self
            .agc_transients
            .iter()
            .filter(|(s, _)| *s == slot)
            .map(|(_, db)| *db)
            .sum();
        v.stall_slots = self
            .stalls
            .iter()
            .filter(|(s, _)| *s == slot)
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_order_independent() {
        let sched = ImpairmentSchedule::new(42)
            .with_drop_prob(0.1)
            .with_truncate_prob(0.1);
        let forward: Vec<_> = (0..500).map(|s| sched.verdict(s)).collect();
        let backward: Vec<_> = (0..500).rev().map(|s| sched.verdict(s)).collect();
        for (s, v) in forward.iter().enumerate() {
            assert_eq!(*v, backward[499 - s], "slot {s}");
        }
    }

    #[test]
    fn drop_rate_matches_probability() {
        let sched = ImpairmentSchedule::new(7).with_drop_prob(0.05);
        let dropped = (0..20_000).filter(|s| sched.verdict(*s).drop).count();
        let rate = dropped as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "drop rate {rate}");
    }

    #[test]
    fn outage_windows_drop_every_slot() {
        let sched = ImpairmentSchedule::new(1).with_outage(100..150);
        assert!((100..150).all(|s| sched.verdict(s).drop));
        assert!(!sched.verdict(99).drop);
        assert!(!sched.verdict(150).drop);
    }

    #[test]
    fn bursts_stack_and_transients_hit_one_slot() {
        let sched = ImpairmentSchedule::new(1)
            .with_interference(10..20, 6.0)
            .with_interference(15..30, 4.0)
            .with_agc_transient(12, 18.0)
            .with_stall(40, 5);
        assert_eq!(sched.verdict(10).snr_penalty_db, 6.0);
        assert_eq!(sched.verdict(16).snr_penalty_db, 10.0);
        assert_eq!(sched.verdict(25).snr_penalty_db, 4.0);
        assert_eq!(sched.verdict(12).agc_kick_db, 18.0);
        assert_eq!(sched.verdict(13).agc_kick_db, 0.0);
        assert_eq!(sched.verdict(40).stall_slots, 5);
        assert!(sched.verdict(41).is_clean());
    }

    #[test]
    fn truncation_leaves_a_partial_slot() {
        let sched = ImpairmentSchedule::new(3).with_truncate_prob(1.0);
        let v = sched.verdict(0);
        let f = v.truncate.expect("truncated");
        assert!((0.25..0.75).contains(&f));
        assert!(!v.drop);
    }
}
