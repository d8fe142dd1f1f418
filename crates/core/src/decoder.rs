//! Blind PDCCH decoding: turning an observed slot into decoded DCIs.
//!
//! The sniffer never knows which candidates are occupied. It scans every
//! aligned candidate position at every aggregation level (IQ fidelity) or
//! every captured codeword (message fidelity), and for each one tries, in
//! order (paper §3.1.2, §3.2.1):
//!
//! 1. **common-search-space hypotheses** — SI-RNTI, the RA-RNTIs of recent
//!    PRACH occasions, and any TC-RNTIs learned from RARs (all descrambled
//!    with the cell-scoped sequence), falling back to CRC-XOR RNTI
//!    recovery for MSG 4s whose RAR was missed;
//! 2. **known-UE hypotheses** — each tracked C-RNTI with its UE-specific
//!    descrambling.

use crate::metrics::{Counter, Metrics, Stage};
use crate::observe::ObservedDci;
use nr_phy::crc::{dci_check_crc, dci_recover_rnti};
use nr_phy::dci::{Dci, DciFormat, DciSizing};
use nr_phy::grid::ResourceGrid;
use nr_phy::pdcch::{
    extract_candidate, search_space_cinit, AggregationLevel, Coreset, SearchBudget,
};
use nr_phy::polar::PolarCode;
use nr_phy::sequence::gold_bits_cached;
use nr_phy::types::{Rnti, RntiType};
use std::sync::Arc;
use std::time::Instant;

/// One successfully decoded DCI.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedDci {
    /// The RNTI whose CRC validated (or was recovered).
    pub rnti: Rnti,
    /// Classification implied by which hypothesis matched.
    pub rnti_type: RntiType,
    /// Unpacked fields.
    pub dci: Dci,
    /// Aggregation level of the winning candidate.
    pub level: AggregationLevel,
    /// First CCE of the winning candidate.
    pub cce_start: usize,
}

/// The RNTI hypothesis sets for one slot.
#[derive(Debug, Clone, Default)]
pub struct Hypotheses {
    /// RA-RNTIs of PRACH occasions within the response window.
    pub ra_rntis: Vec<Rnti>,
    /// TC-RNTIs learned from decoded RARs.
    pub tc_rntis: Vec<Rnti>,
    /// Tracked C-RNTIs.
    pub c_rntis: Vec<Rnti>,
    /// Accept CRC-XOR-recovered TC-RNTIs not matching any pending RAR
    /// (the missed-RAR fallback).
    pub allow_recovery: bool,
    /// Skip the common-search-space pass entirely (set on worker shards
    /// other than the SIBs/RACH shard so the common hypotheses run once).
    pub skip_common: bool,
}

/// How much decode work one slot *offered* the pipeline, regardless of how
/// far each attempt got. The counts are deterministic for a given capture,
/// hypothesis set, and [`SearchBudget`] — the overload governor's
/// [`crate::governor::LoadModel`] maps them to a synthetic latency so the
/// ladder's dynamics are seed-reproducible in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeWork {
    /// Candidates (codewords or grid positions) scanned.
    pub candidates: usize,
    /// Candidates admitted into the UE-specific pass.
    pub ue_candidates: usize,
    /// UE-specific RNTI hypotheses offered (admitted candidates × tracked
    /// C-RNTIs).
    pub ue_hypotheses: usize,
    /// Candidates the search budget refused a UE-specific pass.
    pub pruned: usize,
    /// CRC-passing payloads rejected by stage-1 plausibility validation
    /// (see [`nr_phy::dci::DciReject`]) before any state was mutated.
    pub validation_rejects: usize,
}

impl DecodeWork {
    /// Accumulate another shard's work counts.
    pub fn absorb(&mut self, other: &DecodeWork) {
        self.candidates += other.candidates;
        self.ue_candidates += other.ue_candidates;
        self.ue_hypotheses += other.ue_hypotheses;
        self.pruned += other.pruned;
        self.validation_rejects += other.validation_rejects;
    }
}

/// Decoder context shared across a telemetry session.
#[derive(Debug, Clone)]
pub struct DecoderContext {
    /// The cell's CORESET (from the MIB).
    pub coreset: Coreset,
    /// Cell identity driving scrambling and DMRS.
    pub pci: u16,
    /// Common-search-space DCI sizing (initial BWP = CORESET 0).
    pub common_sizing: DciSizing,
    /// UE-specific DCI sizing (carrier BWP, from SIB1); `None` until SIB1
    /// is acquired.
    pub ue_sizing: Option<DciSizing>,
}

impl DecoderContext {
    fn sizes_for_common(&self) -> [usize; 2] {
        [
            self.common_sizing.payload_bits(DciFormat::Dl1_1),
            self.common_sizing.payload_bits(DciFormat::Ul0_1),
        ]
    }

    fn sizes_for_ue(&self) -> Option<[usize; 2]> {
        let s = self.ue_sizing?;
        Some([
            s.payload_bits(DciFormat::Dl1_1),
            s.payload_bits(DciFormat::Ul0_1),
        ])
    }
}

/// Decode all DCIs in a message-fidelity capture.
pub fn decode_message_slot(
    ctx: &DecoderContext,
    observed: &[ObservedDci],
    hyp: &Hypotheses,
) -> Vec<DecodedDci> {
    decode_message_slot_budgeted(ctx, observed, hyp, SearchBudget::unlimited(), None).0
}

/// [`decode_message_slot`] under a [`SearchBudget`], with pipeline
/// instrumentation: the whole-slot codeword scan is the PDCCH search
/// stage; each codeword's hypothesis testing is a DCI-decode observation.
/// The common pass (SI/RA/TC + MSG 4 recovery) always runs in full; the
/// budget gates only the UE-specific pass. Returns the decoded DCIs plus
/// the slot's offered-work counts for the overload governor.
pub fn decode_message_slot_budgeted(
    ctx: &DecoderContext,
    observed: &[ObservedDci],
    hyp: &Hypotheses,
    budget: SearchBudget,
    metrics: Option<&Arc<Metrics>>,
) -> (Vec<DecodedDci>, DecodeWork) {
    // Per-candidate RAII timers cost two clock reads plus an Arc
    // clone/drop each, which dominates the instrumentation overhead at
    // tens of candidates per slot. Chain the readings instead: one
    // `Instant::now()` per candidate boundary serves as the end of one
    // DciDecode observation and the start of the next, and the first/last
    // readings bracket the whole PdcchSearch scan.
    let timing = metrics.filter(|m| m.is_enabled());
    let scan_start = timing.map(|_| Instant::now());
    let mut t_prev: Option<Instant> = None;
    let mut out = Vec::new();
    let mut work = DecodeWork::default();
    for obs in observed {
        if let Some(m) = timing {
            let now = Instant::now();
            if let Some(prev) = t_prev {
                m.observe(Stage::DciDecode, now - prev);
            }
            t_prev = Some(now);
        }
        work.candidates += 1;
        let payload_bits = match obs.scrambled_bits.len().checked_sub(24) {
            Some(p) => p,
            None => continue,
        };
        if let Some(d) =
            decode_codeword_common(ctx, obs, hyp, payload_bits, &mut work.validation_rejects)
        {
            out.push(d);
            continue;
        }
        // Known-UE pass (UE-specific scrambling per hypothesis), gated by
        // the governor's search budget.
        let size_ok = ctx
            .sizes_for_ue()
            .is_some_and(|sizes| sizes.contains(&payload_bits));
        if size_ok && !hyp.c_rntis.is_empty() {
            if !budget.admits_ue(obs.level, work.ue_candidates) {
                work.pruned += 1;
                continue;
            }
            work.ue_candidates += 1;
            work.ue_hypotheses += hyp.c_rntis.len();
            if let Some(d) = decode_codeword_ue(ctx, obs, hyp, &mut work.validation_rejects) {
                out.push(d);
            }
        }
    }
    if let Some(m) = timing {
        let end = Instant::now();
        if let Some(prev) = t_prev {
            m.observe(Stage::DciDecode, end - prev);
        }
        if let Some(start) = scan_start {
            m.observe(Stage::PdcchSearch, end - start);
        }
    }
    if let Some(m) = metrics {
        m.add(Counter::CandidatesScanned, work.candidates as u64);
        m.add(Counter::DcisDecoded, out.len() as u64);
        m.add(Counter::CandidatesPruned, work.pruned as u64);
        m.add(Counter::ValidationRejects, work.validation_rejects as u64);
    }
    (out, work)
}

/// Common-search-space hypotheses against one captured codeword: SI-RNTI,
/// pending RA-/TC-RNTIs, and the missed-RAR CRC-XOR recovery fallback.
/// Never pruned by any search budget.
fn decode_codeword_common(
    ctx: &DecoderContext,
    obs: &ObservedDci,
    hyp: &Hypotheses,
    payload_bits: usize,
    rejects: &mut usize,
) -> Option<DecodedDci> {
    if hyp.skip_common || !ctx.sizes_for_common().contains(&payload_bits) {
        return None;
    }
    let common = descramble(
        &obs.scrambled_bits,
        search_space_cinit(Rnti(0), false, ctx.pci),
    );
    let common_hyps = std::iter::once((Rnti::SI, RntiType::Si))
        .chain(hyp.ra_rntis.iter().map(|r| (*r, RntiType::Ra)))
        .chain(hyp.tc_rntis.iter().map(|r| (*r, RntiType::Tc)));
    for (rnti, rnti_type) in common_hyps {
        if let Some(payload) = dci_check_crc(&common, rnti.0) {
            if let Some(d) = unpack(ctx, &payload, false, rnti, rnti_type, obs, rejects) {
                return Some(d);
            }
        }
    }
    // Missed-RAR fallback: recover an unknown TC-RNTI from the CRC XOR.
    if hyp.allow_recovery {
        if let Some(rnti) = dci_recover_rnti(&common) {
            let r = Rnti(rnti);
            if r.is_c_rnti_range() && !hyp.c_rntis.contains(&r) {
                let payload = common[..payload_bits].to_vec();
                if let Some(d) = unpack(ctx, &payload, false, r, RntiType::Tc, obs, rejects) {
                    return Some(d);
                }
            }
        }
    }
    None
}

/// Known-UE hypotheses against one captured codeword (the caller has
/// already checked sizing and the search budget).
fn decode_codeword_ue(
    ctx: &DecoderContext,
    obs: &ObservedDci,
    hyp: &Hypotheses,
    rejects: &mut usize,
) -> Option<DecodedDci> {
    for &rnti in &hyp.c_rntis {
        let cw = descramble(&obs.scrambled_bits, search_space_cinit(rnti, true, ctx.pci));
        if let Some(payload) = dci_check_crc(&cw, rnti.0) {
            if let Some(d) = unpack(ctx, &payload, true, rnti, RntiType::C, obs, rejects) {
                return Some(d);
            }
        }
    }
    None
}

/// One equalised candidate extracted from a grid (signal-processing
/// product, shareable across DCI threads).
#[derive(Debug, Clone)]
pub struct ExtractedCandidate {
    /// Common-descrambled LLRs.
    pub llrs: Vec<f32>,
    /// Aggregation level.
    pub level: AggregationLevel,
    /// First CCE.
    pub cce_start: usize,
}

/// Signal-processing stage: extract and equalise every energetic candidate
/// of the CORESET (run once per slot; the Fig 4 "one slot data" product
/// handed to the DCI threads).
pub fn extract_all_candidates(
    ctx: &DecoderContext,
    grid: &ResourceGrid,
    slot_in_frame: usize,
) -> Vec<ExtractedCandidate> {
    let mut out = Vec::new();
    let n_cces = ctx.coreset.n_cces();
    let common_cinit = search_space_cinit(Rnti(0), false, ctx.pci);
    for level in AggregationLevel::all() {
        let l = level.cces();
        if l > n_cces {
            break;
        }
        for cce_start in (0..=(n_cces - l)).step_by(l) {
            let soft = extract_candidate(
                grid,
                &ctx.coreset,
                cce_start,
                level,
                ctx.pci,
                common_cinit,
                slot_in_frame,
            );
            // A candidate with no transmission has pilot SNR near the
            // noise floor — pilots exist only where a DCI is mapped, so an
            // energy gate skips silence cheaply.
            if soft.pilot_snr < 1.5 {
                continue;
            }
            out.push(ExtractedCandidate {
                llrs: soft.llrs,
                level,
                cce_start,
            });
        }
    }
    out
}

/// Hypothesis-testing stage over pre-extracted candidates, under a
/// [`SearchBudget`] and with per-candidate DCI-decode instrumentation: the
/// common pass always runs in full; only the UE-specific pass is gated.
pub fn decode_candidates_budgeted(
    ctx: &DecoderContext,
    candidates: &[ExtractedCandidate],
    hyp: &Hypotheses,
    budget: SearchBudget,
    metrics: Option<&Arc<Metrics>>,
) -> (Vec<DecodedDci>, DecodeWork) {
    let common_cinit = search_space_cinit(Rnti(0), false, ctx.pci);
    // Chained per-candidate timing (see decode_message_slot_budgeted):
    // one clock read per candidate boundary instead of an RAII timer each.
    let timing = metrics.filter(|m| m.is_enabled());
    let mut t_prev: Option<Instant> = None;
    let mut out: Vec<DecodedDci> = Vec::new();
    let mut work = DecodeWork::default();
    for cand in candidates {
        if let Some(m) = timing {
            let now = Instant::now();
            if let Some(prev) = t_prev {
                m.observe(Stage::DciDecode, now - prev);
            }
            t_prev = Some(now);
        }
        work.candidates += 1;
        // Skip candidates overlapping an already-decoded DCI (a smaller
        // aggregation level aliasing into a larger one's CCEs).
        if out.iter().any(|d| {
            ranges_overlap(
                d.cce_start,
                d.level.cces(),
                cand.cce_start,
                cand.level.cces(),
            )
        }) {
            continue;
        }
        if let Some(d) = decode_soft_candidate_common(
            ctx,
            &cand.llrs,
            cand.level,
            cand.cce_start,
            hyp,
            &mut work.validation_rejects,
        ) {
            out.push(d);
            continue;
        }
        if ctx.sizes_for_ue().is_some() && !hyp.c_rntis.is_empty() {
            if !budget.admits_ue(cand.level, work.ue_candidates) {
                work.pruned += 1;
                continue;
            }
            work.ue_candidates += 1;
            work.ue_hypotheses += hyp.c_rntis.len();
            if let Some(d) = decode_soft_candidate_ue(
                ctx,
                &cand.llrs,
                cand.level,
                cand.cce_start,
                hyp,
                common_cinit,
                &mut work.validation_rejects,
            ) {
                out.push(d);
            }
        }
    }
    if let (Some(m), Some(prev)) = (timing, t_prev) {
        m.observe(Stage::DciDecode, prev.elapsed());
    }
    if let Some(m) = metrics {
        m.add(Counter::CandidatesScanned, work.candidates as u64);
        m.add(Counter::DcisDecoded, out.len() as u64);
        m.add(Counter::CandidatesPruned, work.pruned as u64);
        m.add(Counter::ValidationRejects, work.validation_rejects as u64);
    }
    (out, work)
}

/// Decode all DCIs from a received IQ-fidelity resource grid, scanning all
/// aligned candidate positions at all aggregation levels. Equivalent to
/// [`extract_all_candidates`] followed by [`decode_candidates_budgeted`]
/// with an unlimited budget.
pub fn decode_grid(
    ctx: &DecoderContext,
    grid: &ResourceGrid,
    slot_in_frame: usize,
    hyp: &Hypotheses,
) -> Vec<DecodedDci> {
    decode_grid_budgeted(
        ctx,
        grid,
        slot_in_frame,
        hyp,
        SearchBudget::unlimited(),
        None,
    )
    .0
}

/// [`decode_grid`] under a [`SearchBudget`], with pipeline
/// instrumentation: candidate extraction and equalisation is the PDCCH
/// search stage; the hypothesis testing records per-candidate DCI-decode
/// observations.
pub fn decode_grid_budgeted(
    ctx: &DecoderContext,
    grid: &ResourceGrid,
    slot_in_frame: usize,
    hyp: &Hypotheses,
    budget: SearchBudget,
    metrics: Option<&Arc<Metrics>>,
) -> (Vec<DecodedDci>, DecodeWork) {
    let candidates = {
        let _t = Metrics::maybe_start(metrics, Stage::PdcchSearch);
        extract_all_candidates(ctx, grid, slot_in_frame)
    };
    decode_candidates_budgeted(ctx, &candidates, hyp, budget, metrics)
}

/// Common-search-space hypotheses against one equalised soft candidate (IQ
/// path): SI/RA/TC plus CRC-XOR recovery. Never pruned by any budget.
fn decode_soft_candidate_common(
    ctx: &DecoderContext,
    llrs_common: &[f32],
    level: AggregationLevel,
    cce_start: usize,
    hyp: &Hypotheses,
    rejects: &mut usize,
) -> Option<DecodedDci> {
    if hyp.skip_common {
        return None;
    }
    for payload_bits in ctx.sizes_for_common() {
        let k = payload_bits + 24;
        if k >= level.bits() {
            continue;
        }
        let code = PolarCode::shared(k, level.bits());
        let cw = code.decode_sc(llrs_common);
        let common_hyps = std::iter::once((Rnti::SI, RntiType::Si))
            .chain(hyp.ra_rntis.iter().map(|r| (*r, RntiType::Ra)))
            .chain(hyp.tc_rntis.iter().map(|r| (*r, RntiType::Tc)));
        for (rnti, rnti_type) in common_hyps {
            if let Some(payload) = dci_check_crc(&cw, rnti.0) {
                if let Some(d) = unpack_at(
                    ctx, &payload, false, rnti, rnti_type, level, cce_start, rejects,
                ) {
                    return Some(d);
                }
            }
        }
        if hyp.allow_recovery {
            if let Some(rnti) = dci_recover_rnti(&cw) {
                let r = Rnti(rnti);
                if r.is_c_rnti_range() && !hyp.c_rntis.contains(&r) {
                    let payload = cw[..payload_bits].to_vec();
                    if let Some(d) = unpack_at(
                        ctx,
                        &payload,
                        false,
                        r,
                        RntiType::Tc,
                        level,
                        cce_start,
                        rejects,
                    ) {
                        return Some(d);
                    }
                }
            }
        }
    }
    None
}

/// Known-UE hypotheses against one equalised soft candidate (the caller
/// has already checked the search budget).
fn decode_soft_candidate_ue(
    ctx: &DecoderContext,
    llrs_common: &[f32],
    level: AggregationLevel,
    cce_start: usize,
    hyp: &Hypotheses,
    common_cinit: u32,
    rejects: &mut usize,
) -> Option<DecodedDci> {
    let sizes = ctx.sizes_for_ue()?;
    let common_seq = gold_bits_cached(common_cinit, llrs_common.len());
    // One descrambled-LLR buffer per candidate, rewritten per RNTI.
    let mut llrs = vec![0.0f32; llrs_common.len()];
    for &rnti in &hyp.c_rntis {
        let ue_seq = gold_bits_cached(search_space_cinit(rnti, true, ctx.pci), llrs_common.len());
        for (out, (l, (a, b))) in llrs
            .iter_mut()
            .zip(llrs_common.iter().zip(common_seq.iter().zip(ue_seq.iter())))
        {
            *out = if a == b { *l } else { -*l };
        }
        for &payload_bits in &sizes {
            let k = payload_bits + 24;
            if k >= level.bits() {
                continue;
            }
            let code = PolarCode::shared(k, level.bits());
            let cw = code.decode_sc(&llrs);
            if let Some(payload) = dci_check_crc(&cw, rnti.0) {
                if let Some(d) = unpack_at(
                    ctx,
                    &payload,
                    true,
                    rnti,
                    RntiType::C,
                    level,
                    cce_start,
                    rejects,
                ) {
                    return Some(d);
                }
            }
        }
    }
    None
}

fn ranges_overlap(a_start: usize, a_len: usize, b_start: usize, b_len: usize) -> bool {
    a_start < b_start + b_len && b_start < a_start + a_len
}

fn descramble(bits: &[u8], c_init: u32) -> Vec<u8> {
    let seq = gold_bits_cached(c_init, bits.len());
    bits.iter().zip(seq.iter()).map(|(b, s)| b ^ s).collect()
}

fn unpack(
    ctx: &DecoderContext,
    payload: &[u8],
    ue_specific: bool,
    rnti: Rnti,
    rnti_type: RntiType,
    obs: &ObservedDci,
    rejects: &mut usize,
) -> Option<DecodedDci> {
    unpack_at(
        ctx,
        payload,
        ue_specific,
        rnti,
        rnti_type,
        obs.level,
        obs.cce_start,
        rejects,
    )
}

/// Stage-1 plausibility gate: every CRC-passing payload, whatever its
/// provenance (hypothesis match or CRC-XOR recovery), is unpacked with
/// [`Dci::unpack_validated`] and rejected — counted, never propagated —
/// when any field contradicts the active cell configuration.
#[allow(clippy::too_many_arguments)]
fn unpack_at(
    ctx: &DecoderContext,
    payload: &[u8],
    ue_specific: bool,
    rnti: Rnti,
    rnti_type: RntiType,
    level: AggregationLevel,
    cce_start: usize,
    rejects: &mut usize,
) -> Option<DecodedDci> {
    let sizing = if ue_specific {
        ctx.ue_sizing?
    } else {
        ctx.common_sizing
    };
    match Dci::unpack_validated(payload, &sizing) {
        Ok(dci) => Some(DecodedDci {
            rnti,
            rnti_type,
            dci,
            level,
            cce_start,
        }),
        Err(_) => {
            *rejects += 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{scrambling_for, Observer};
    use gnb_sim::{CellConfig, Gnb};
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::{MobilityScenario, SimUe};

    fn ctx(cfg: &CellConfig) -> DecoderContext {
        DecoderContext {
            coreset: cfg.coreset,
            pci: cfg.pci.0,
            common_sizing: DciSizing {
                bwp_prbs: cfg.coreset.n_prb,
            },
            ue_sizing: Some(DciSizing {
                bwp_prbs: cfg.carrier_prbs,
            }),
        }
    }

    fn loaded_gnb(seed: u64) -> Gnb {
        let mut g = Gnb::new(CellConfig::srsran_n41(), Box::new(RoundRobin::new()), seed);
        g.ue_arrives(SimUe::new(
            1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 4e6,
                    packet_bytes: 1200,
                },
                1,
            ),
            0.0,
            10.0,
            1,
        ));
        g
    }

    #[test]
    fn message_decode_finds_known_ue_dcis() {
        let mut g = loaded_gnb(1);
        let cfg = g.cfg.clone();
        let c = ctx(&cfg);
        let mut obs = Observer::new(&cfg, 35.0, false, 3);
        // Connect the UE first.
        let mut rnti = None;
        for s in 0..2000 {
            let out = g.step();
            if rnti.is_none() {
                if let Some(r) = g.connected_rntis().first() {
                    rnti = Some(*r);
                }
                continue;
            }
            let truth_c: Vec<_> = out
                .dcis
                .iter()
                .filter(|d| d.rnti_type == RntiType::C)
                .cloned()
                .collect();
            if truth_c.is_empty() {
                continue;
            }
            let Some(known) = rnti else {
                continue;
            };
            let hyp = Hypotheses {
                c_rntis: vec![known],
                ..Hypotheses::default()
            };
            if let crate::observe::ObservedSlot::Message { dcis, .. } =
                obs.observe(&out, s as f64 * 0.0005)
            {
                let decoded = decode_message_slot(&c, &dcis, &hyp);
                let found_c = decoded
                    .iter()
                    .filter(|d| d.rnti_type == RntiType::C)
                    .count();
                assert_eq!(found_c, truth_c.len(), "all C-RNTI DCIs decoded at 35 dB");
                return;
            }
        }
        panic!("never saw a data DCI");
    }

    #[test]
    fn unknown_c_rnti_dcis_are_invisible() {
        // Without the RNTI in the hypothesis set, UE-specific scrambling
        // hides the DCI — the paper's "if we miss a RACH…" property.
        let mut g = loaded_gnb(2);
        let cfg = g.cfg.clone();
        let c = ctx(&cfg);
        let mut obs = Observer::new(&cfg, 35.0, false, 4);
        for s in 0..2000 {
            let out = g.step();
            let has_c = out.dcis.iter().any(|d| d.rnti_type == RntiType::C);
            if !has_c {
                continue;
            }
            let hyp = Hypotheses::default(); // knows nothing
            if let crate::observe::ObservedSlot::Message { dcis, .. } =
                obs.observe(&out, s as f64 * 0.0005)
            {
                let decoded = decode_message_slot(&c, &dcis, &hyp);
                assert!(
                    decoded.iter().all(|d| d.rnti_type != RntiType::C),
                    "C-RNTI DCI decoded without knowing the RNTI"
                );
                return;
            }
        }
        panic!("never saw a data DCI");
    }

    #[test]
    fn msg4_recovery_yields_tc_rnti() {
        let mut g = loaded_gnb(3);
        let cfg = g.cfg.clone();
        let c = ctx(&cfg);
        let mut obs = Observer::new(&cfg, 35.0, false, 5);
        for s in 0..200 {
            let out = g.step();
            let msg4 = out
                .dcis
                .iter()
                .find(|d| d.rnti_type == RntiType::Tc)
                .cloned();
            let observed = obs.observe(&out, s as f64 * 0.0005);
            if let Some(tx) = msg4 {
                let hyp = Hypotheses {
                    allow_recovery: true,
                    ..Hypotheses::default()
                };
                if let crate::observe::ObservedSlot::Message { dcis, .. } = observed {
                    let decoded = decode_message_slot(&c, &dcis, &hyp);
                    // A marginal capture may fail recovery for this slot;
                    // keep watching for the next MSG 4 instead of dying.
                    let Some(rec) = decoded.iter().find(|d| d.rnti_type == RntiType::Tc) else {
                        continue;
                    };
                    assert_eq!(rec.rnti, tx.rnti, "recovered the TC-RNTI via CRC XOR");
                    return;
                }
            }
        }
        panic!("no MSG 4 seen");
    }

    #[test]
    fn iq_decode_matches_message_decode_at_high_snr() {
        let mut g = loaded_gnb(4);
        let cfg = g.cfg.clone();
        let c = ctx(&cfg);
        let renderer = gnb_sim::iq::IqRenderer::new(&cfg);
        let ofdm = renderer.ofdm();
        let mut usrp = nr_radio::VirtualUsrp::new(35.0, 0.0, 6);
        let mut rnti = None;
        for s in 0..2000u64 {
            let out = g.step();
            if rnti.is_none() {
                rnti = g.connected_rntis().first().copied();
                continue;
            }
            let n_truth = out
                .dcis
                .iter()
                .filter(|d| d.rnti_type == RntiType::C)
                .count();
            if n_truth == 0 {
                continue;
            }
            let Some(known) = rnti else {
                continue;
            };
            let tx = renderer.render_iq(&out);
            let rx = usrp.receive(&tx, s as f64 * 0.0005);
            let grid = ofdm.demodulate(&rx.samples, out.slot_in_frame);
            let hyp = Hypotheses {
                c_rntis: vec![known],
                allow_recovery: false,
                ..Hypotheses::default()
            };
            let decoded = decode_grid(&c, &grid, out.slot_in_frame, &hyp);
            let found = decoded
                .iter()
                .filter(|d| d.rnti_type == RntiType::C)
                .count();
            assert_eq!(found, n_truth, "IQ blind decode finds the DCIs");
            return;
        }
        panic!("never saw a data DCI");
    }

    #[test]
    fn search_budget_gates_ue_pass_but_never_broadcast() {
        let mut g = loaded_gnb(6);
        let cfg = g.cfg.clone();
        let c = ctx(&cfg);
        let mut obs = Observer::new(&cfg, 35.0, false, 9);
        let mut rnti = None;
        for s in 0..2000 {
            let out = g.step();
            if rnti.is_none() {
                rnti = g.connected_rntis().first().copied();
                continue;
            }
            let truth_c = out
                .dcis
                .iter()
                .filter(|d| d.rnti_type == RntiType::C)
                .count();
            if truth_c == 0 {
                continue;
            }
            let hyp = Hypotheses {
                c_rntis: vec![rnti.unwrap_or(Rnti(0x4601))],
                ..Hypotheses::default()
            };
            if let crate::observe::ObservedSlot::Message { dcis, .. } =
                obs.observe(&out, s as f64 * 0.0005)
            {
                let (full, work) =
                    decode_message_slot_budgeted(&c, &dcis, &hyp, SearchBudget::unlimited(), None);
                let full_c = full.iter().filter(|d| d.rnti_type == RntiType::C).count();
                assert_eq!(full_c, truth_c, "unlimited budget decodes everything");
                assert_eq!(work.pruned, 0);
                assert!(work.ue_hypotheses >= truth_c);

                let (pruned, work) = decode_message_slot_budgeted(
                    &c,
                    &dcis,
                    &hyp,
                    SearchBudget::broadcast_only(),
                    None,
                );
                assert!(
                    pruned.iter().all(|d| d.rnti_type != RntiType::C),
                    "broadcast-only budget skips UE decodes"
                );
                assert_eq!(work.ue_candidates, 0);
                assert_eq!(work.pruned, truth_c, "every UE candidate counted as pruned");
                return;
            }
        }
        panic!("never saw a data DCI");
    }

    #[test]
    fn msg4_recovery_survives_broadcast_only_budget() {
        // The never-go-dark invariant at the decode layer: even with the
        // harshest budget, a MSG 4 in the common search space is still
        // recovered via the CRC XOR.
        let mut g = loaded_gnb(7);
        let cfg = g.cfg.clone();
        let c = ctx(&cfg);
        let mut obs = Observer::new(&cfg, 35.0, false, 8);
        for s in 0..200 {
            let out = g.step();
            let msg4 = out
                .dcis
                .iter()
                .find(|d| d.rnti_type == RntiType::Tc)
                .cloned();
            let observed = obs.observe(&out, s as f64 * 0.0005);
            if let Some(tx) = msg4 {
                let hyp = Hypotheses {
                    allow_recovery: true,
                    ..Hypotheses::default()
                };
                if let crate::observe::ObservedSlot::Message { dcis, .. } = observed {
                    let (decoded, _) = decode_message_slot_budgeted(
                        &c,
                        &dcis,
                        &hyp,
                        SearchBudget::broadcast_only(),
                        None,
                    );
                    let Some(rec) = decoded.iter().find(|d| d.rnti_type == RntiType::Tc) else {
                        continue;
                    };
                    assert_eq!(rec.rnti, tx.rnti, "MSG 4 recovered under shedding");
                    return;
                }
            }
        }
        panic!("no MSG 4 seen");
    }

    #[test]
    fn scrambling_helpers_agree() {
        // The observer and decoder must use the same c_init mapping.
        let pci = 123;
        assert_eq!(
            scrambling_for(Rnti(0x4601), RntiType::C, pci),
            search_space_cinit(Rnti(0x4601), true, pci)
        );
        assert_eq!(
            scrambling_for(Rnti::SI, RntiType::Si, pci),
            search_space_cinit(Rnti(0), false, pci)
        );
    }
}
