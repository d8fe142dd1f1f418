//! Polar coding for the NR control channels (38.212 §5.3.1).
//!
//! The PDCCH (and PBCH) protect their payloads with a CRC-aided polar code.
//! This module provides:
//!
//! * [`construction`] — code construction: reliability ordering via the
//!   β-expansion (polarization-weight) method. 3GPP publishes a fixed
//!   reliability table derived from the same principle; using the
//!   β-expansion directly keeps the implementation self-contained and is
//!   transparent to every consumer because encoder and decoder share it
//!   (documented in `DESIGN.md`). The weight of an index does not depend
//!   on the code length, so the order is nested: one sort for N = 512
//!   serves every smaller N as its subsequence of indices below N.
//! * [`encode`] — the Arikan butterfly transform `x = u·F^{⊗n}`.
//! * [`ratematch`] — mother-code length selection and
//!   puncture/shorten/repeat rate matching (spec §5.3.1/§5.4.1 selection
//!   rule; the sub-block interleaver is replaced by natural-order
//!   puncturing/shortening — see `DESIGN.md`).
//! * [`decode`] — successive-cancellation (SC) and CRC-aided
//!   successive-cancellation list (SCL) decoding over LLRs. SC runs in
//!   one preallocated workspace of N − 1 LLRs, each tree level's child
//!   LLRs stacked, instead of allocating per tree node.
//!
//! The [`PolarCode`] type ties these together for a (K, E) configuration.
//! Every encoder and decoder of the PDCCH and PBCH takes its code from
//! [`PolarCode::shared`]: one process-wide table, built lazily, one entry
//! per (K, E). The table is bounded because `K < E` and E is one of the
//! five aggregation-level budgets or [`PBCH_E_BITS`]. An entry is
//! immutable once built, so every thread reads it without a lock.

pub mod construction;
pub mod decode;
pub mod encode;
pub mod ratematch;

use crate::pdcch::AggregationLevel;
use ratematch::RateMatchKind;
use std::sync::OnceLock;

/// Rate-matched PBCH bit budget `E` (MIB + CRC polar coded onto the two
/// PBCH symbols of an SSB).
pub const PBCH_E_BITS: usize = 864;

/// Row of the shared table serving budget `e`: one per aggregation level,
/// then the PBCH.
fn table_row(e: usize) -> Option<usize> {
    AggregationLevel::all()
        .iter()
        .map(|l| l.bits())
        .chain([PBCH_E_BITS])
        .position(|budget| budget == e)
}

/// One row per supported `E`, one lazily built code per `K < E`.
type CodeRow = Box<[OnceLock<PolarCode>]>;
static CODE_TABLE: [OnceLock<CodeRow>; 6] = [const { OnceLock::new() }; 6];

/// A configured polar code carrying payloads of `k` bits in `e` channel bits.
#[derive(Debug, Clone)]
pub struct PolarCode {
    /// Information length (payload including any CRC bits).
    pub k: usize,
    /// Rate-matched output length (channel bits).
    pub e: usize,
    /// Mother code length `N = 2^n`.
    pub n: usize,
    /// Rate-matching mode chosen by the spec selection rule.
    pub kind: RateMatchKind,
    /// `true` at input positions carrying information bits (length `n`).
    pub info_mask: Vec<bool>,
    /// Information positions in increasing order (length `k`).
    pub info_positions: Vec<usize>,
}

impl PolarCode {
    /// Configure a code for `k` information bits in `e` transmitted bits.
    ///
    /// Panics if the configuration is infeasible (`k` ≥ `e` or `k` = 0).
    pub fn new(k: usize, e: usize) -> PolarCode {
        assert!(k > 0, "polar code needs at least one information bit");
        assert!(k < e, "polar code requires k < e (k={k}, e={e})");
        let n = ratematch::mother_code_length(k, e);
        let kind = ratematch::rate_match_kind(k, e, n);
        let pre_frozen = ratematch::pre_frozen_positions(n, e, kind);
        let info_positions = construction::info_positions(n, k, &pre_frozen);
        let mut info_mask = vec![false; n];
        for &p in &info_positions {
            info_mask[p] = true;
        }
        PolarCode {
            k,
            e,
            n,
            kind,
            info_mask,
            info_positions,
        }
    }

    /// The process-wide code for `k` information bits in `e` channel bits,
    /// built on first use and shared by every caller and thread after it.
    /// A hit is two atomic loads and takes no lock.
    ///
    /// Panics if `e` is neither an aggregation-level budget nor
    /// [`PBCH_E_BITS`], or if the configuration is infeasible (as
    /// [`PolarCode::new`]).
    pub fn shared(k: usize, e: usize) -> &'static PolarCode {
        let Some(row) = table_row(e) else {
            panic!("no shared polar code for e={e}: not a PDCCH or PBCH budget");
        };
        assert!(k > 0, "polar code needs at least one information bit");
        assert!(k < e, "polar code requires k < e (k={k}, e={e})");
        let codes = CODE_TABLE[row].get_or_init(|| (0..e).map(|_| OnceLock::new()).collect());
        codes[k].get_or_init(|| PolarCode::new(k, e))
    }

    /// Encode `payload` (length `k`) to `e` channel bits.
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        assert_eq!(payload.len(), self.k, "payload length must equal k");
        let mut u = vec![0u8; self.n];
        for (bit, &pos) in payload.iter().zip(&self.info_positions) {
            u[pos] = *bit;
        }
        let x = encode::polar_transform(&u);
        ratematch::select(&x, self.e, self.kind)
    }

    /// Decode `e` channel LLRs (convention `LLR > 0 ⇔ bit 0`) with plain
    /// successive cancellation. Returns the `k` payload bits.
    pub fn decode_sc(&self, llrs: &[f32]) -> Vec<u8> {
        assert_eq!(llrs.len(), self.e, "LLR length must equal e");
        let mother = ratematch::deselect(llrs, self.n, self.kind);
        let u = decode::sc_decode(&mother, &self.info_mask);
        self.extract_payload(&u)
    }

    /// CRC-aided list decode: try the `list_size` most likely paths and
    /// return the first whose payload satisfies `crc_ok`. Falls back to the
    /// best path's payload wrapped in `Err` if none passes, so callers can
    /// still inspect it.
    pub fn decode_scl<F>(
        &self,
        llrs: &[f32],
        list_size: usize,
        crc_ok: F,
    ) -> Result<Vec<u8>, Vec<u8>>
    where
        F: Fn(&[u8]) -> bool,
    {
        assert_eq!(llrs.len(), self.e, "LLR length must equal e");
        let mother = ratematch::deselect(llrs, self.n, self.kind);
        let candidates = decode::scl_decode(&mother, &self.info_mask, list_size);
        let mut best: Option<Vec<u8>> = None;
        for u in candidates {
            let payload = self.extract_payload(&u);
            if crc_ok(&payload) {
                return Ok(payload);
            }
            if best.is_none() {
                best = Some(payload);
            }
        }
        match best {
            Some(b) => Err(b),
            // Unreachable by construction (scl_decode yields >= 1 path);
            // an empty candidate set degrades to an empty payload rather
            // than a panic on hostile input.
            None => Err(Vec::new()),
        }
    }

    fn extract_payload(&self, u: &[u8]) -> Vec<u8> {
        self.info_positions.iter().map(|&p| u[p]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bpsk_llrs(bits: &[u8], snr_linear: f32) -> Vec<f32> {
        // Noiseless BPSK mapping to LLRs for decoder tests.
        bits.iter()
            .map(|&b| if b == 0 { snr_linear } else { -snr_linear })
            .collect()
    }

    #[test]
    fn encode_decode_round_trip_noiseless() {
        for (k, e) in [
            (12, 54),
            (40, 108),
            (64, 108),
            (64, 216),
            (30, 432),
            (140, 864),
        ] {
            let code = PolarCode::new(k, e);
            let payload: Vec<u8> = (0..k).map(|i| ((i * 5 + 1) % 2) as u8).collect();
            let tx = code.encode(&payload);
            assert_eq!(tx.len(), e);
            let rx = code.decode_sc(&bpsk_llrs(&tx, 10.0));
            assert_eq!(rx, payload, "k={k} e={e} kind={:?}", code.kind);
        }
    }

    #[test]
    fn all_zero_payload_gives_all_zero_codeword() {
        let code = PolarCode::new(32, 108);
        let tx = code.encode(&[0; 32]);
        assert!(tx.iter().all(|&b| b == 0));
    }

    #[test]
    fn scl_matches_sc_on_clean_channel() {
        let code = PolarCode::new(48, 108);
        let payload: Vec<u8> = (0..48).map(|i| ((i / 3) % 2) as u8).collect();
        let tx = code.encode(&payload);
        let llrs = bpsk_llrs(&tx, 8.0);
        let sc = code.decode_sc(&llrs);
        let scl = code.decode_scl(&llrs, 4, |p| p == payload.as_slice());
        assert_eq!(sc, payload);
        assert_eq!(scl.unwrap(), payload);
    }

    #[test]
    fn list_decoding_recovers_what_sc_loses() {
        // Flip-noise channel at moderate SNR: list+CRC should beat plain SC
        // on at least some realisations. We verify SCL with an oracle CRC
        // recovers the payload in a case where SC fails.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let code = PolarCode::new(56, 108);
        let payload: Vec<u8> = (0..56).map(|i| ((i * 7) % 2) as u8).collect();
        let tx = code.encode(&payload);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen_scl_win = false;
        for _ in 0..200 {
            let llrs: Vec<f32> = tx
                .iter()
                .map(|&b| {
                    let s = if b == 0 { 1.0 } else { -1.0 };
                    s + rng.gen_range(-1.5..1.5)
                })
                .collect();
            let sc = code.decode_sc(&llrs);
            if sc != payload {
                if let Ok(got) = code.decode_scl(&llrs, 8, |p| p == payload.as_slice()) {
                    assert_eq!(got, payload);
                    seen_scl_win = true;
                    break;
                }
            }
        }
        assert!(
            seen_scl_win,
            "expected at least one SCL-over-SC win in 200 trials"
        );
    }

    /// Every budget the shared table serves.
    fn table_budgets() -> Vec<usize> {
        let mut es: Vec<usize> = AggregationLevel::all().iter().map(|l| l.bits()).collect();
        es.push(PBCH_E_BITS);
        es
    }

    #[test]
    fn shared_table_equals_reference_construction_for_every_feasible_code() {
        use construction::reference;
        let orders: Vec<Vec<usize>> = (0..=construction::N_MAX.trailing_zeros())
            .map(|log_n| reference::reliability_order(1 << log_n))
            .collect();
        let mut lengths_seen = std::collections::BTreeSet::new();
        for e in table_budgets() {
            for k in 1..e {
                let n = ratematch::mother_code_length(k, e);
                let kind = ratematch::rate_match_kind(k, e, n);
                let pre_frozen = ratematch::pre_frozen_positions(n, e, kind);
                if n - pre_frozen.len() < k {
                    continue; // infeasible: PolarCode::new panics too
                }
                let order = &orders[n.trailing_zeros() as usize];
                let positions = reference::info_positions_in(order, k, &pre_frozen);
                let mut mask = vec![false; n];
                for &p in &positions {
                    mask[p] = true;
                }
                let code = PolarCode::shared(k, e);
                assert_eq!((code.k, code.e, code.n), (k, e, n));
                assert_eq!(code.kind, kind, "k={k} e={e}");
                assert_eq!(code.info_positions, positions, "k={k} e={e}");
                assert_eq!(code.info_mask, mask, "k={k} e={e}");
                assert!(std::ptr::eq(code, PolarCode::shared(k, e)));
                lengths_seen.insert(n);
            }
        }
        let all: Vec<usize> = (5..=9).map(|log_n| 1 << log_n).collect();
        assert_eq!(lengths_seen.into_iter().collect::<Vec<_>>(), all);
    }

    #[test]
    fn workspace_sc_decodes_exactly_as_the_reference_path() {
        use crate::crc::{dci_attach_crc, dci_check_crc};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5c);
        let mut kinds = std::collections::BTreeSet::new();
        let (mut passes, mut fails) = (0, 0);
        for e in table_budgets() {
            for k in (25..e.min(200)).step_by(9) {
                let code = PolarCode::shared(k, e);
                kinds.insert(format!("{:?}", code.kind));
                for trial in 0..6 {
                    let rnti: u16 = rng.gen();
                    let payload: Vec<u8> = (0..k - 24).map(|_| rng.gen_range(0..2)).collect();
                    let tx = code.encode(&dci_attach_crc(&payload, rnti));
                    let noise = [0.2, 1.0, 3.0][trial % 3];
                    let llrs: Vec<f32> = tx
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| {
                            if trial >= 3 && i % 5 == 0 {
                                return 0.0; // erased, as a punctured head
                            }
                            let s = if b == 0 { 1.0 } else { -1.0 };
                            s + rng.gen_range(-noise..noise)
                        })
                        .collect();
                    let got = code.decode_sc(&llrs);
                    let mother = ratematch::deselect(&llrs, code.n, code.kind);
                    let u = decode::reference::sc_decode(&mother, &code.info_mask);
                    let want = code.extract_payload(&u);
                    assert_eq!(got, want, "k={k} e={e} trial={trial}");
                    let crc = dci_check_crc(&got, rnti);
                    assert_eq!(crc, dci_check_crc(&want, rnti));
                    if crc.is_some() {
                        passes += 1;
                    } else {
                        fails += 1;
                    }
                }
            }
        }
        assert_eq!(kinds.len(), 3, "shorten, puncture and repeat all covered");
        assert!(passes > 0 && fails > 0, "passes={passes} fails={fails}");
    }

    #[test]
    #[should_panic(expected = "no shared polar code")]
    fn shared_table_rejects_an_unserved_budget() {
        PolarCode::shared(40, 100);
    }

    #[test]
    #[should_panic(expected = "k < e")]
    fn rejects_rate_one_or_more() {
        PolarCode::new(108, 108);
    }

    #[test]
    fn repetition_mode_used_when_e_exceeds_mother() {
        // Small K forces a small mother code; large E → repetition.
        let code = PolarCode::new(12, 400);
        assert_eq!(code.kind, RateMatchKind::Repeat);
        let payload = vec![1u8; 12];
        let tx = code.encode(&payload);
        let rx = code.decode_sc(&bpsk_llrs(&tx, 4.0));
        assert_eq!(rx, payload);
    }
}
