//! # nr-radio — the virtual RF front end
//!
//! Substitute for the paper's USRP (X310 / CBX-120 / TwinRX): models the
//! receive path between the gNB's transmit waveform and NR-Scope's signal
//! processing — path loss from sniffer placement, additive noise, automatic
//! gain control, and the fractional resampler the paper needs for TwinRX
//! daughterboards (§4 footnote 5).

pub mod agc;
pub mod clock;
pub mod impairment;
pub mod resampler;
pub mod usrp;

pub use agc::Agc;
pub use clock::{ClockModel, ClockSlotState};
pub use impairment::{Burst, ImpairmentSchedule, SlotImpairment};
pub use resampler::Resampler;
pub use usrp::{RadioStats, RxSlot, VirtualUsrp};

/// The SplitMix64 Weyl increment, 2^64 divided by the golden ratio.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the output for state `z`, i.e. the finaliser of
/// `z + GOLDEN`. Every seeded schedule uses it, either as a stateless hash
/// of a `(seed, slot, salt)` key — so a verdict never depends on query
/// order — or as a stream, by stepping the state after each draw:
/// `let out = splitmix64(*s); *s = s.wrapping_add(GOLDEN);`.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_pinned_in_both_forms() {
        // (seed, hash of the seed, first three stream draws, final state).
        let pinned: [(u64, u64, [u64; 3], u64); 3] = [
            (
                0,
                0xE220_A839_7B1D_CDAF,
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                ],
                0xDAA6_6D2C_7DDF_743F,
            ),
            (
                1,
                0x910A_2DEC_8902_5CC1,
                [
                    0x910A_2DEC_8902_5CC1,
                    0xBEEB_8DA1_658E_EC67,
                    0xF893_A2EE_FB32_555E,
                ],
                0xDAA6_6D2C_7DDF_7440,
            ),
            (
                u64::MAX,
                0xE4D9_7177_1B65_2C20,
                [
                    0xE4D9_7177_1B65_2C20,
                    0xE99F_F867_DBF6_82C9,
                    0x382F_F84C_B272_81E9,
                ],
                0xDAA6_6D2C_7DDF_743E,
            ),
        ];
        for (seed, hash, draws, end) in pinned {
            assert_eq!(splitmix64(seed), hash, "hash of {seed:#x}");
            let mut s = seed;
            for want in draws {
                let out = splitmix64(s);
                s = s.wrapping_add(GOLDEN);
                assert_eq!(out, want, "stream from {seed:#x}");
            }
            assert_eq!(s, end, "state after three draws from {seed:#x}");
        }
    }
}
