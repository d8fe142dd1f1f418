//! Rational polyphase resampler.
//!
//! The paper's tool resamples USRP streams so "the FFT bins \[fit\] onto the
//! subcarriers" (§4) when the daughterboard's native rate differs from the
//! OFDM sample rate. This is a windowed-sinc polyphase interpolator for
//! arbitrary L/M rational ratios.
//!
//! The resampler is *streaming*: filter history is carried across
//! [`Resampler::process`] calls, so chunking the input arbitrarily yields
//! bit-identical output to a single one-shot call (pinned by a property
//! test below). A timing-recovery loop can steer it at runtime through
//! [`Resampler::adjust_phase`] (fractional sample shifts, quantised to the
//! polyphase grid) and [`Resampler::slip`] (integer sample slips).

use nr_phy::complex::Cf32;

/// A fixed-ratio L/M streaming resampler with runtime-adjustable phase.
#[derive(Debug, Clone)]
pub struct Resampler {
    /// Interpolation factor.
    l: usize,
    /// Decimation factor.
    m: usize,
    /// Polyphase filter bank: `l` phases × `taps_per_phase` taps.
    phases: Vec<Vec<f32>>,
    /// Carried input history: the most recent `hist.len()` input samples,
    /// oldest first. Pre-filled with zeros so a fresh instance reproduces
    /// the historical zero-padded one-shot behaviour exactly.
    hist: Vec<Cf32>,
    /// Total input samples consumed across all `process` calls.
    consumed: u64,
    /// Total output samples emitted across all `process` calls.
    emitted: u64,
    /// Timing offset in upsampled ticks (1 tick = 1/`l` input samples).
    /// Output n samples the virtual upsampled stream at `n*m + tick_offset`;
    /// positive values delay the sampling instant (skip input), negative
    /// values replay. Adjusted at runtime by the recovery loop.
    tick_offset: i64,
    /// Cumulative integer sample slips commanded via [`Resampler::slip`]
    /// (positive = samples skipped).
    slipped: i64,
}

/// Taps per polyphase branch (filter length = branches × this).
const TAPS_PER_PHASE: usize = 8;

/// Minimum polyphase-bank size. After GCD reduction, `l` and `m` are both
/// scaled by the same integer until the bank has at least this many
/// phases. The rate ratio and output counts are unchanged (the scale
/// cancels), but fractional-phase steering resolves to `1/l` input
/// samples — without this, a unity-ratio resampler would reduce to a
/// single phase and quantise every steering command to whole samples.
const MIN_PHASES: usize = 32;

/// Extra history retained beyond the structural minimum so that bounded
/// negative phase/slip commands can reach slightly older samples without
/// glitching. Per-call commands are clamped to this many input samples.
const SLIP_MARGIN: usize = 8;

impl Resampler {
    /// Build a resampler converting rate by `l/m`. Factors are reduced by
    /// their GCD internally.
    pub fn new(l: usize, m: usize) -> Resampler {
        assert!(l > 0 && m > 0);
        let g = gcd(l, m);
        let (mut l, mut m) = (l / g, m / g);
        // Pad the bank for steering resolution; the scale cancels in the
        // ratio and in every output-count computation.
        let k = MIN_PHASES.div_ceil(l);
        l *= k;
        m *= k;
        // Prototype low-pass at cutoff min(1/L, 1/M), Hamming-windowed sinc.
        let total = l * TAPS_PER_PHASE;
        let cutoff = 1.0 / l.max(m) as f32;
        let centre = (total - 1) as f32 / 2.0;
        let proto: Vec<f32> = (0..total)
            .map(|i| {
                let x = i as f32 - centre;
                let sinc = if x == 0.0 {
                    1.0
                } else {
                    let arg = std::f32::consts::PI * x * cutoff;
                    arg.sin() / arg
                };
                let window =
                    0.54 - 0.46 * (std::f32::consts::TAU * i as f32 / (total - 1) as f32).cos();
                sinc * window * cutoff * l as f32
            })
            .collect();
        let phases: Vec<Vec<f32>> = (0..l)
            .map(|p| (0..TAPS_PER_PHASE).map(|t| proto[p + t * l]).collect())
            .collect();
        // Deepest look-back of any output relative to the newest consumed
        // sample is ~m/l samples (emission lag) plus the filter depth.
        let hist_len = m.div_ceil(l) + TAPS_PER_PHASE + SLIP_MARGIN;
        Resampler {
            l,
            m,
            phases,
            hist: vec![Cf32::ZERO; hist_len],
            consumed: 0,
            emitted: 0,
            tick_offset: 0,
            slipped: 0,
        }
    }

    /// Effective ratio (output rate / input rate).
    pub fn ratio(&self) -> f64 {
        self.l as f64 / self.m as f64
    }

    /// Current fractional-phase command in input samples (the part of the
    /// tick offset the recovery loop has steered, slips excluded).
    pub fn fractional_phase(&self) -> f64 {
        (self.tick_offset - self.slipped * self.l as i64) as f64 / self.l as f64
    }

    /// Cumulative integer sample slips commanded (positive = skipped).
    pub fn slipped(&self) -> i64 {
        self.slipped
    }

    /// Shift the sampling instant by `frac` input samples (positive =
    /// later). Quantised to the polyphase grid (1/`l` sample steps) and
    /// clamped to ±`SLIP_MARGIN`/2 samples per call so the carried
    /// history always covers the request. Returns the shift applied.
    pub fn adjust_phase(&mut self, frac: f64) -> f64 {
        let bound = SLIP_MARGIN as f64 / 2.0;
        let clamped = frac.clamp(-bound, bound);
        let ticks = (clamped * self.l as f64).round() as i64;
        self.tick_offset += ticks;
        ticks as f64 / self.l as f64
    }

    /// Slip the input stream by a whole number of samples (positive =
    /// skip input samples, negative = replay). Clamped like
    /// [`Resampler::adjust_phase`]. Returns the slip applied.
    pub fn slip(&mut self, samples: i64) -> i64 {
        let bound = (SLIP_MARGIN / 2) as i64;
        let clamped = samples.clamp(-bound, bound);
        self.tick_offset += clamped * self.l as i64;
        self.slipped += clamped;
        clamped
    }

    /// Drop carried state (history, counters, phase commands), returning
    /// the instance to its freshly-constructed behaviour.
    pub fn reset(&mut self) {
        self.hist.fill(Cf32::ZERO);
        self.consumed = 0;
        self.emitted = 0;
        self.tick_offset = 0;
        self.slipped = 0;
    }

    /// Resample the next block of the stream. Carries filter history from
    /// previous calls; a fresh instance fed the whole signal in one call
    /// produces the same output as any chunked feeding of the same signal.
    pub fn process(&mut self, input: &[Cf32]) -> Vec<Cf32> {
        let hist_len = self.hist.len();
        let consumed_after = self.consumed + input.len() as u64;
        // Emit up to the floor-rule target: cumulative outputs after
        // consuming C inputs is floor((C*l - tick_offset)/m), matching the
        // historical one-shot `len*l/m` when the phase is unsteered.
        let num = consumed_after as i64 * self.l as i64 - self.tick_offset;
        let target = if num <= 0 {
            self.emitted
        } else {
            ((num as u64) / self.m as u64).max(self.emitted)
        };
        let mut out = Vec::with_capacity((target - self.emitted) as usize);
        // Global input index of the oldest sample we hold.
        let window_start = self.consumed as i64 - hist_len as i64;
        for n in self.emitted..target {
            let up = n as i64 * self.m as i64 + self.tick_offset;
            // Euclidean division so negative phases index phase banks
            // correctly at the stream head.
            let base = up.div_euclid(self.l as i64);
            let phase = up.rem_euclid(self.l as i64) as usize;
            let taps = &self.phases[phase];
            let mut acc = Cf32::ZERO;
            for (t, &h) in taps.iter().enumerate() {
                // Tap t reaches back t input samples from `base`.
                let g = base - t as i64;
                let off = g - window_start;
                let s = if off < 0 {
                    // Before the retained window: zero (stream head, or an
                    // over-aggressive negative command past the margin).
                    Cf32::ZERO
                } else if (off as usize) < hist_len {
                    self.hist[off as usize]
                } else if let Some(s) = input.get(off as usize - hist_len) {
                    *s
                } else {
                    Cf32::ZERO
                };
                acc += s.scale(h);
            }
            out.push(acc);
        }
        self.emitted = target;
        self.consumed = consumed_after;
        // Retain the newest `hist_len` samples of (hist ++ input).
        if input.len() >= hist_len {
            self.hist.copy_from_slice(&input[input.len() - hist_len..]);
        } else {
            self.hist.rotate_left(input.len());
            self.hist[hist_len - input.len()..].copy_from_slice(input);
        }
        out
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, freq_per_sample: f32) -> Vec<Cf32> {
        (0..n)
            .map(|i| Cf32::from_angle(std::f32::consts::TAU * freq_per_sample * i as f32))
            .collect()
    }

    #[test]
    fn unity_ratio_preserves_signal() {
        let mut r = Resampler::new(3, 3);
        assert_eq!(r.ratio(), 1.0);
        let x = tone(256, 0.01);
        let y = r.process(&x);
        assert_eq!(y.len(), 256);
        // Interior samples match the input closely (group delay excluded).
        let err: f32 = (32..224).map(|i| (y[i] - x[i - 3]).abs()).sum::<f32>() / 192.0;
        assert!(err < 0.12, "mean interior error {err}");
    }

    #[test]
    fn output_length_follows_ratio() {
        let mut r = Resampler::new(2, 1);
        assert_eq!(r.process(&tone(100, 0.01)).len(), 200);
        let mut r = Resampler::new(1, 2);
        assert_eq!(r.process(&tone(100, 0.01)).len(), 50);
        let mut r = Resampler::new(3, 4);
        assert_eq!(r.process(&tone(400, 0.01)).len(), 300);
    }

    #[test]
    fn upsampled_tone_keeps_frequency() {
        // A slow tone upsampled 2× should rotate half as fast per sample.
        let mut r = Resampler::new(2, 1);
        let x = tone(512, 0.02);
        let y = r.process(&x);
        // Measure phase increment in the interior.
        let dphi: f32 = (100..400)
            .map(|i| (y[i + 1] * y[i].conj()).arg())
            .sum::<f32>()
            / 300.0;
        let expected = std::f32::consts::TAU * 0.01;
        assert!((dphi - expected).abs() < 0.002, "dphi {dphi} vs {expected}");
    }

    #[test]
    fn amplitude_is_preserved() {
        let mut r = Resampler::new(4, 3);
        let x = tone(600, 0.015);
        let y = r.process(&x);
        let p: f32 = y[100..y.len() - 100]
            .iter()
            .map(|v| v.norm_sqr())
            .sum::<f32>()
            / (y.len() - 200) as f32;
        assert!((p - 1.0).abs() < 0.1, "interior power {p}");
    }

    #[test]
    fn factors_are_reduced() {
        let a = Resampler::new(4, 2);
        let b = Resampler::new(2, 1);
        assert_eq!(a.ratio(), b.ratio());
        assert_eq!(a.phases.len(), b.phases.len());
    }

    /// Deterministic chunk-size stream from a splitmix64-style generator.
    fn chunk_sizes(seed: u64, total: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut left = total;
        let mut z = seed;
        while left > 0 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            let n = ((x % 97) as usize + 1).min(left);
            sizes.push(n);
            left -= n;
        }
        sizes
    }

    /// The block-seam property: streaming a signal through in arbitrary
    /// chunks is bit-identical to one one-shot call. This is the contract
    /// the timing-recovery loop leans on — no glitch energy at slot seams.
    #[test]
    fn streamed_chunks_equal_one_shot() {
        for &(l, m) in &[(1, 1), (2, 1), (1, 2), (3, 4), (4, 3), (7, 5), (160, 147)] {
            let x = tone(1000, 0.013);
            let mut oneshot = Resampler::new(l, m);
            let want = oneshot.process(&x);
            for seed in 0..6u64 {
                let mut streamed = Resampler::new(l, m);
                let mut got = Vec::new();
                let mut at = 0usize;
                for sz in chunk_sizes(seed, x.len()) {
                    got.extend(streamed.process(&x[at..at + sz]));
                    at += sz;
                }
                assert_eq!(
                    got.len(),
                    want.len(),
                    "length mismatch l={l} m={m} seed={seed}"
                );
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (*a - *b).abs() == 0.0,
                        "seam glitch at {i} (l={l} m={m} seed={seed}): {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn phase_adjust_shifts_sampling_instant() {
        // At unity ratio a +0.5-sample... unity l=1 quantises to whole
        // samples; use l=16 so fractional steps are representable.
        let mut r = Resampler::new(16, 16);
        let x = tone(512, 0.02);
        let y0 = r.process(&x[..256]).len();
        let applied = r.adjust_phase(0.25);
        assert!((applied - 0.25).abs() < 1e-9, "applied {applied}");
        let y1 = r.process(&x[256..]);
        assert!(y0 > 0 && !y1.is_empty());
        // A delayed sampling instant advances the tone's phase at the
        // output by ~2π·f·0.25.
        let mut ref_r = Resampler::new(16, 16);
        let y_ref = ref_r.process(&x);
        let k = 300usize; // interior index, past the adjustment point
        let got = y1[k - y0];
        let want = y_ref[k];
        let dphi = (got * want.conj()).arg();
        let expected = std::f32::consts::TAU * 0.02 * 0.25;
        assert!(
            (dphi - expected).abs() < 0.05,
            "phase step {dphi} vs {expected}"
        );
    }

    #[test]
    fn integer_slip_skips_samples() {
        let mut r = Resampler::new(1, 1);
        let x = tone(600, 0.0); // DC: easiest to count against
        let a = r.process(&x[..300]);
        assert_eq!(r.slip(2), 2);
        assert_eq!(r.slipped(), 2);
        let b = r.process(&x[300..]);
        // Two input samples skipped ⇒ two fewer outputs overall.
        assert_eq!(a.len() + b.len(), 600 - 2);
        // Fractional phase excludes integer slips.
        assert!(r.fractional_phase().abs() < 1e-9);
    }

    #[test]
    fn slip_commands_are_clamped() {
        let mut r = Resampler::new(4, 4);
        assert_eq!(r.slip(1_000), (SLIP_MARGIN / 2) as i64);
        assert_eq!(r.slip(-1_000), -((SLIP_MARGIN / 2) as i64));
        let big = r.adjust_phase(99.0);
        assert!(big <= SLIP_MARGIN as f64 / 2.0 + 1e-9);
    }

    #[test]
    fn reset_restores_fresh_behaviour() {
        let x = tone(400, 0.01);
        let mut r = Resampler::new(3, 4);
        let first = r.process(&x);
        r.adjust_phase(1.0);
        r.slip(1);
        r.process(&x);
        r.reset();
        let again = r.process(&x);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            assert!((*a - *b).abs() == 0.0);
        }
    }
}
