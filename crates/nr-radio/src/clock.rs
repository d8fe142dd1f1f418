//! Deterministic sniffer-oscillator model: drift, CFO, steps, and gaps.
//!
//! The paper's deployment tracks a commercial gNB from a USRP whose
//! reference oscillator is *not* the gNB's — the TwinRX stream has to be
//! resampled so "the FFT bins fit onto the subcarriers" (§4), and the fit
//! decays continuously as the clocks wander apart. A [`ClockModel`] scripts
//! that disagreement against the slot counter: a static ppm offset, linear
//! ageing drift, a temperature-style random walk, step discontinuities
//! (reference switch / PLL re-lock), carrier-frequency offset coupled to
//! the *same* oscillator (one crystal feeds both the sample clock and the
//! LO), and USRP-overrun sample gaps.
//!
//! Like [`crate::ImpairmentSchedule`], every queryable quantity is derived
//! by hashing `(seed, epoch/slot, salt)` rather than walking an RNG, so
//! the state at slot *n* never depends on query order — checkpoint/resume
//! replays bit-identically. The integrals that *are* cumulative (random-
//! walk timing, overrun gaps) advance through an internal cursor that
//! recomputes from slot 0 on any backward query, keeping results pure.

use crate::splitmix64;

/// Slots per random-walk epoch: the walk rate changes this often. 64 slots
/// = 32 ms at µ=1, a plausible thermal time constant scale.
const WALK_EPOCH_SLOTS: u64 = 64;

/// The ground-truth clock state for one slot, as the impairment layer
/// applies it to the air the sniffer receives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockSlotState {
    /// Instantaneous fractional frequency error of the sniffer's sample
    /// clock, in parts-per-million (positive = sniffer clock fast).
    pub ppm: f64,
    /// Carrier-frequency offset (Hz) coupled to the same oscillator:
    /// `ppm × 1e-6 × carrier_hz`.
    pub cfo_hz: f64,
    /// Accumulated timing offset of the sniffer's sample grid relative to
    /// the gNB's, in microseconds (the integral of `ppm` over time, plus
    /// steps and overrun gaps).
    pub timing_offset_us: f64,
    /// A USRP overrun swallowed this many microseconds of samples at the
    /// head of this slot (0 = clean). Also folded into
    /// `timing_offset_us` from this slot on.
    pub gap_us: f64,
    /// A step discontinuity of this size (µs) hit at this slot (reference
    /// switch, PLL re-lock). Already included in `timing_offset_us`.
    pub step_us: f64,
}

impl ClockSlotState {
    /// True when an overrun gap opens at this slot.
    pub fn is_overrun(&self) -> bool {
        self.gap_us != 0.0
    }
}

/// Cursor caching the cumulative integrals up to (excluding) `slot`.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// Next slot the cursor will integrate.
    slot: u64,
    /// Random-walk ppm value in effect at `slot`.
    walk_ppm: f64,
    /// Integral of the walk (ppm·s ≡ µs) over slots `< slot`.
    walk_integral_us: f64,
    /// Sum of overrun gaps (µs) at slots `< slot`.
    gap_cum_us: f64,
}

/// A seeded, fully deterministic model of the sniffer's oscillator.
#[derive(Debug, Clone)]
pub struct ClockModel {
    seed: u64,
    carrier_hz: f64,
    slot_s: f64,
    static_ppm: f64,
    drift_ppm_per_s: f64,
    walk_sigma_ppm: f64,
    steps: Vec<(u64, f64)>,
    gaps: Vec<(u64, f64)>,
    gap_prob: f64,
    gap_max_us: f64,
    cursor: Cursor,
}

impl ClockModel {
    /// A perfect clock (every slot clean) at the given carrier and slot
    /// duration; builders add error terms. n41 at µ=1 would be
    /// `ClockModel::new(seed, 2_524.95e6, 5e-4)`.
    pub fn new(seed: u64, carrier_hz: f64, slot_s: f64) -> ClockModel {
        assert!(carrier_hz > 0.0 && slot_s > 0.0);
        ClockModel {
            seed,
            carrier_hz,
            slot_s,
            static_ppm: 0.0,
            drift_ppm_per_s: 0.0,
            walk_sigma_ppm: 0.0,
            steps: Vec::new(),
            gaps: Vec::new(),
            gap_prob: 0.0,
            gap_max_us: 0.0,
            cursor: Cursor::default(),
        }
    }

    /// Constant fractional frequency offset (crystal tolerance).
    pub fn with_static_ppm(mut self, ppm: f64) -> Self {
        self.static_ppm = ppm;
        self
    }

    /// Linear ageing drift: ppm changes by this much per second.
    pub fn with_drift_ppm_per_s(mut self, ppm_per_s: f64) -> Self {
        self.drift_ppm_per_s = ppm_per_s;
        self
    }

    /// Temperature-style random walk: per-epoch ppm increments with this
    /// standard deviation per √second of walk intensity.
    pub fn with_random_walk(mut self, sigma_ppm_per_sqrt_s: f64) -> Self {
        self.walk_sigma_ppm = sigma_ppm_per_sqrt_s.max(0.0);
        self
    }

    /// A timing step of `us` microseconds at `slot` (reference switch,
    /// PLL re-lock). Positive = sniffer grid jumps late.
    pub fn with_step(mut self, slot: u64, us: f64) -> Self {
        self.steps.push((slot, us));
        self
    }

    /// A scheduled USRP-overrun gap of `us` microseconds at `slot`.
    pub fn with_gap(mut self, slot: u64, us: f64) -> Self {
        self.gaps.push((slot, us));
        self
    }

    /// Open an overrun gap at each slot independently with probability
    /// `p`; gap sizes draw uniformly from `(0, max_us]`.
    pub fn with_gap_prob(mut self, p: f64, max_us: f64) -> Self {
        self.gap_prob = p.clamp(0.0, 1.0);
        self.gap_max_us = max_us.max(0.0);
        self
    }

    /// Carrier frequency the CFO couples to.
    pub fn carrier_hz(&self) -> f64 {
        self.carrier_hz
    }

    /// Uniform draw in `[0, 1)` keyed by `(seed, n, salt)`.
    fn unit(&self, n: u64, salt: u64) -> f64 {
        let h = splitmix64(
            self.seed
                ^ n.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ salt.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        );
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Approximately standard-normal draw (Irwin–Hall of four uniforms)
    /// keyed by `(seed, n, salt)`.
    fn gauss(&self, n: u64, salt: u64) -> f64 {
        let s: f64 = (0..4).map(|i| self.unit(n, salt ^ (0x51ED << i))).sum();
        (s - 2.0) * 1.732_050_8
    }

    /// Random-walk ppm increment applied entering epoch `e` (epoch 0 has
    /// no increment: the walk starts at zero).
    fn walk_increment(&self, e: u64) -> f64 {
        if self.walk_sigma_ppm == 0.0 || e == 0 {
            return 0.0;
        }
        let epoch_s = WALK_EPOCH_SLOTS as f64 * self.slot_s;
        self.gauss(e, 0xC10C) * self.walk_sigma_ppm * epoch_s.sqrt()
    }

    /// The overrun gap (µs) opening at `slot`, scheduled or probabilistic.
    fn gap_at(&self, slot: u64) -> f64 {
        let scheduled: f64 = self
            .gaps
            .iter()
            .filter(|(s, _)| *s == slot)
            .map(|(_, us)| *us)
            .sum();
        let drawn = if self.gap_prob > 0.0 && self.unit(slot, 0x6A9) < self.gap_prob {
            self.gap_max_us * self.unit(slot, 0x6AA).max(f64::EPSILON)
        } else {
            0.0
        };
        scheduled + drawn
    }

    /// Advance (or rebuild) the cursor so it covers slots `< slot`.
    fn seek(&mut self, slot: u64) {
        if slot < self.cursor.slot {
            self.cursor = Cursor::default();
        }
        let mut c = self.cursor;
        while c.slot < slot {
            c.walk_integral_us += c.walk_ppm * self.slot_s;
            c.gap_cum_us += self.gap_at(c.slot);
            c.slot += 1;
            if c.slot.is_multiple_of(WALK_EPOCH_SLOTS) {
                c.walk_ppm += self.walk_increment(c.slot / WALK_EPOCH_SLOTS);
            }
        }
        self.cursor = c;
    }

    /// Ground-truth clock state at `slot`. Pure in its results: querying
    /// slots in any order returns identical values (backward queries
    /// rebuild the cumulative terms from slot 0).
    pub fn state_at(&mut self, slot: u64) -> ClockSlotState {
        self.seek(slot);
        let t = slot as f64 * self.slot_s;
        let ppm = self.static_ppm + self.drift_ppm_per_s * t + self.cursor.walk_ppm;
        let step_cum: f64 = self
            .steps
            .iter()
            .filter(|(s, _)| *s <= slot)
            .map(|(_, us)| *us)
            .sum();
        let step_us: f64 = self
            .steps
            .iter()
            .filter(|(s, _)| *s == slot)
            .map(|(_, us)| *us)
            .sum();
        let gap_us = self.gap_at(slot);
        // ppm·s ≡ µs: closed forms for the deterministic terms, the
        // cursor's integral for the walk, cumulative steps and gaps (a
        // gap swallows samples, so it shifts all later timing by itself —
        // including this slot's own head).
        let timing_offset_us = self.static_ppm * t
            + 0.5 * self.drift_ppm_per_s * t * t
            + self.cursor.walk_integral_us
            + step_cum
            + self.cursor.gap_cum_us
            + gap_us;
        ClockSlotState {
            ppm,
            cfo_hz: ppm * 1e-6 * self.carrier_hz,
            timing_offset_us,
            gap_us,
            step_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> ClockModel {
        ClockModel::new(seed, 2_524.95e6, 5e-4)
    }

    #[test]
    fn perfect_clock_is_all_zero() {
        let mut c = model(1);
        for s in [0, 1, 100, 20_480, 100_000] {
            assert_eq!(c.state_at(s), ClockSlotState::default(), "slot {s}");
        }
    }

    #[test]
    fn static_ppm_ramps_timing_linearly_and_couples_cfo() {
        let mut c = model(2).with_static_ppm(10.0);
        let s = c.state_at(2000); // 1 s at µ=1
        assert!((s.ppm - 10.0).abs() < 1e-12);
        // 10 ppm for 1 s = 10 µs of accumulated timing error.
        assert!(
            (s.timing_offset_us - 10.0).abs() < 1e-9,
            "{}",
            s.timing_offset_us
        );
        // CFO = ppm·1e-6·carrier: 10 ppm at n41 ≈ 25.25 kHz.
        assert!((s.cfo_hz - 25_249.5).abs() < 1.0, "{}", s.cfo_hz);
    }

    #[test]
    fn linear_drift_integrates_quadratically() {
        let mut c = model(3).with_drift_ppm_per_s(1.0);
        let at_1s = c.state_at(2000).timing_offset_us;
        let at_2s = c.state_at(4000).timing_offset_us;
        assert!((at_1s - 0.5).abs() < 1e-9);
        assert!((at_2s - 2.0).abs() < 1e-9, "quadratic: {at_2s}");
    }

    #[test]
    fn queries_are_order_independent() {
        let mut fwd = model(7).with_random_walk(0.5).with_gap_prob(0.01, 20.0);
        let mut bwd = fwd.clone();
        let forward: Vec<_> = (0..2000).map(|s| fwd.state_at(s)).collect();
        let backward: Vec<_> = (0..2000).rev().map(|s| bwd.state_at(s)).collect();
        for (s, v) in forward.iter().enumerate() {
            assert_eq!(*v, backward[1999 - s], "slot {s}");
        }
        // And a cold random-access query agrees too.
        let mut cold = model(7).with_random_walk(0.5).with_gap_prob(0.01, 20.0);
        assert_eq!(cold.state_at(1234), forward[1234]);
    }

    #[test]
    fn steps_are_discontinuous_and_permanent() {
        let mut c = model(4).with_step(500, 2.0);
        assert_eq!(c.state_at(499).timing_offset_us, 0.0);
        let at = c.state_at(500);
        assert_eq!(at.step_us, 2.0);
        assert_eq!(at.timing_offset_us, 2.0);
        let later = c.state_at(5000);
        assert_eq!(later.step_us, 0.0);
        assert_eq!(later.timing_offset_us, 2.0);
    }

    #[test]
    fn gaps_accumulate_into_timing() {
        let mut c = model(5).with_gap(100, 30.0).with_gap(200, 12.5);
        assert!(c.state_at(100).is_overrun());
        assert_eq!(c.state_at(100).gap_us, 30.0);
        assert_eq!(c.state_at(150).timing_offset_us, 30.0);
        assert_eq!(c.state_at(250).timing_offset_us, 42.5);
    }

    #[test]
    fn gap_probability_is_roughly_honoured() {
        let mut c = model(6).with_gap_prob(0.05, 10.0);
        let hits = (0..20_000).filter(|s| c.state_at(*s).is_overrun()).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "gap rate {rate}");
    }

    #[test]
    fn random_walk_wanders_but_reproduces() {
        let mut a = model(9).with_random_walk(2.0);
        let mut b = model(9).with_random_walk(2.0);
        let va = a.state_at(50_000);
        let vb = b.state_at(50_000);
        assert_eq!(va, vb, "same seed, same walk");
        // With a different seed the walk differs.
        let mut c = model(10).with_random_walk(2.0);
        assert_ne!(c.state_at(50_000).ppm, va.ppm);
        // The walk actually moves.
        assert!(va.ppm != 0.0);
    }
}
