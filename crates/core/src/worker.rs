//! The Fig 4 per-slot work unit: one self-contained slot job in, one slot
//! result out.
//!
//! "The scheduler copies the data and its state (known UE list, cell's
//! configurations) to an idle worker. For each slot data, the worker
//! spawns SIBs thread, RACH thread and DCI threads for SIBs decoding, UE
//! discovery and DCIs extraction, and then put the slot result into the
//! result queue." — paper §4.
//!
//! [`process_slot`] is that worker's body, stateless: the DCI workload
//! shards the known-UE list across `dci_threads` (paper §4: "UE list is
//! sharded among threads, and the final results are gathered from the
//! threads"); the common search space (SIB + RACH hypotheses) runs as its
//! own shard, standing in for the SIBs/RACH threads. The scheduler and
//! its shared workers are the fleet's ([`crate::fleet`]).

use crate::decoder::{
    decode_candidates_budgeted, decode_message_slot_budgeted, extract_all_candidates, DecodeWork,
    DecodedDci, DecoderContext, ExtractedCandidate, Hypotheses,
};
use crate::observe::ObservedSlot;
use nr_phy::ofdm::Ofdm;
use nr_phy::pdcch::SearchBudget;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One slot of work, self-contained (the "copy of data and state").
#[derive(Debug, Clone)]
pub struct SlotJob {
    /// Slot-in-frame for candidate hashing and OFDM timing.
    pub slot_in_frame: usize,
    /// The captured slot.
    pub observed: ObservedSlot,
    /// OFDM layout of the capture, as its producer knows it: the scope's
    /// bootstrapped layout, or a cell preset's. `None` at message
    /// fidelity; an IQ job without one reports a layout mismatch.
    pub ofdm: Option<Ofdm>,
    /// Decoder configuration snapshot.
    pub ctx: DecoderContext,
    /// RNTI hypothesis sets snapshot.
    pub hyp: Hypotheses,
    /// How many DCI threads to shard across.
    pub dci_threads: usize,
    /// PDCCH search budget from the overload governor (gates only the
    /// UE-specific pass; unlimited by default).
    pub budget: SearchBudget,
}

/// A processed slot.
#[derive(Debug)]
pub struct SlotResult {
    /// All DCIs decoded in the slot.
    pub decoded: Vec<DecodedDci>,
    /// Wall-clock processing time (the Fig 12 metric).
    pub processing: Duration,
    /// Offered-work counts (for the governor's load model).
    pub work: DecodeWork,
    /// The IQ buffer did not fit the job's OFDM layout (truncated capture,
    /// a reconfigured cell, or no layout at all) — nothing could be
    /// demodulated.
    pub layout_mismatch: bool,
}

/// Spawn a named long-lived thread. The persist checkpoint and journal
/// writers, the supervise pipe reader and the fleet's workers start here,
/// so each carries an `nrscope-` name.
pub fn spawn_background<F>(name: &str, f: F) -> JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("nrscope-{name}"))
        .spawn(f)
        .expect("spawn background thread")
}

/// Process one slot, sharding the known-UE list across `dci_threads` OS
/// threads (scoped). Returns the decoded DCIs and the processing time.
pub fn process_slot(job: &SlotJob) -> SlotResult {
    let start = Instant::now();
    let threads = job.dci_threads.max(1);
    // Shard the C-RNTI list; the common hypotheses ride with shard 0
    // (the SIBs/RACH thread role).
    let shards: Vec<Hypotheses> = (0..threads)
        .map(|i| {
            let c_rntis: Vec<_> = job
                .hyp
                .c_rntis
                .iter()
                .enumerate()
                .filter(|(j, _)| j % threads == i)
                .map(|(_, r)| *r)
                .collect();
            if i == 0 {
                Hypotheses {
                    ra_rntis: job.hyp.ra_rntis.clone(),
                    tc_rntis: job.hyp.tc_rntis.clone(),
                    c_rntis,
                    allow_recovery: job.hyp.allow_recovery,
                    skip_common: false,
                }
            } else {
                Hypotheses {
                    ra_rntis: Vec::new(),
                    tc_rntis: Vec::new(),
                    c_rntis,
                    allow_recovery: false,
                    skip_common: true,
                }
            }
        })
        .collect();
    // Signal processing (the O(n log n) term of §5.3.2 — OFDM demod plus
    // candidate extraction/equalisation) runs once per slot; only the
    // per-UE DCI hypothesis testing (the O(m) term) is sharded across
    // threads — exactly the Fig 4 division of labour.
    let candidates: Option<Vec<ExtractedCandidate>> = match &job.observed {
        ObservedSlot::Iq { samples, .. } => match &job.ofdm {
            Some(o) if o.samples_per_slot(job.slot_in_frame) == samples.len() => {
                let grid = o.demodulate(samples, job.slot_in_frame);
                Some(extract_all_candidates(&job.ctx, &grid, job.slot_in_frame))
            }
            _ => {
                return SlotResult {
                    decoded: Vec::new(),
                    processing: start.elapsed(),
                    work: DecodeWork::default(),
                    layout_mismatch: true,
                };
            }
        },
        ObservedSlot::Message { .. } => None,
    };
    let mut decoded: Vec<DecodedDci> = Vec::new();
    let mut work = DecodeWork::default();
    if threads == 1 {
        // Single-thread path avoids spawn overhead entirely.
        let (d, w) = run_shard(job, candidates.as_deref(), &shards[0]);
        decoded = d;
        work = w;
    } else {
        std::thread::scope(|scope| {
            let candidates = candidates.as_deref();
            let handles: Vec<_> = shards
                .iter()
                .map(|hyp| scope.spawn(move || run_shard(job, candidates, hyp)))
                .collect();
            for h in handles {
                // Re-raise shard panics on the caller's thread.
                match h.join() {
                    Ok((part, w)) => {
                        decoded.extend(part);
                        work.absorb(&w);
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
    }
    SlotResult {
        decoded,
        processing: start.elapsed(),
        work,
        layout_mismatch: false,
    }
}

/// Run one hypothesis shard against the pre-processed slot under the
/// job's search budget.
fn run_shard(
    job: &SlotJob,
    candidates: Option<&[ExtractedCandidate]>,
    hyp: &Hypotheses,
) -> (Vec<DecodedDci>, DecodeWork) {
    match (&job.observed, candidates) {
        (ObservedSlot::Message { dcis, .. }, _) => {
            decode_message_slot_budgeted(&job.ctx, dcis, hyp, job.budget, None)
        }
        (ObservedSlot::Iq { .. }, Some(c)) => {
            decode_candidates_budgeted(&job.ctx, c, hyp, job.budget, None)
        }
        (ObservedSlot::Iq { .. }, None) => (Vec::new(), DecodeWork::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Observer;
    use gnb_sim::{CellConfig, Gnb};
    use nr_mac::RoundRobin;
    use nr_phy::channel::ChannelProfile;
    use nr_phy::dci::DciSizing;
    use nr_phy::types::RntiType;
    use ue_sim::traffic::{TrafficKind, TrafficSource};
    use ue_sim::{MobilityScenario, SimUe};

    /// The first slot of `cell` carrying at least two C-RNTI DCIs, packaged
    /// as a job with the cell's true layout, plus its C-RNTI DCI count.
    fn make_job_for(cell: &CellConfig, iq: bool, dci_threads: usize) -> (SlotJob, usize) {
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 9);
        for i in 1..=4u64 {
            gnb.ue_arrives(SimUe::new(
                i,
                ChannelProfile::Awgn,
                MobilityScenario::Static,
                TrafficSource::new(
                    TrafficKind::Cbr {
                        rate_bps: 3e6,
                        packet_bytes: 1200,
                    },
                    i,
                ),
                0.0,
                10.0,
                i,
            ));
        }
        let mut obs = Observer::new(cell, 35.0, iq, 2);
        for s in 0..4000u64 {
            let out = gnb.step();
            let n_c = out
                .dcis
                .iter()
                .filter(|d| d.rnti_type == RntiType::C)
                .count();
            let observed = obs.observe(&out, s as f64 * cell.slot_s());
            if n_c >= 2 {
                let ctx = DecoderContext {
                    coreset: cell.coreset,
                    pci: cell.pci.0,
                    common_sizing: DciSizing {
                        bwp_prbs: cell.coreset.n_prb,
                    },
                    ue_sizing: Some(DciSizing {
                        bwp_prbs: cell.carrier_prbs,
                    }),
                };
                let hyp = Hypotheses {
                    c_rntis: gnb.connected_rntis(),
                    allow_recovery: true,
                    ..Hypotheses::default()
                };
                let job = SlotJob {
                    slot_in_frame: out.slot_in_frame,
                    observed,
                    ofdm: iq.then(|| Ofdm::new(cell.numerology, cell.carrier_prbs)),
                    ctx,
                    hyp,
                    dci_threads,
                    budget: SearchBudget::unlimited(),
                };
                return (job, n_c);
            }
        }
        panic!("no multi-DCI slot found");
    }

    fn make_job(dci_threads: usize) -> (SlotJob, usize) {
        make_job_for(&CellConfig::srsran_n41(), false, dci_threads)
    }

    fn c_count(r: &SlotResult) -> usize {
        r.decoded
            .iter()
            .filter(|d| d.rnti_type == RntiType::C)
            .count()
    }

    #[test]
    fn sharded_decode_finds_everything_single_and_multi_thread() {
        let (job1, n_c) = make_job(1);
        let r1 = process_slot(&job1);
        let mut job4 = job1.clone();
        job4.dci_threads = 4;
        let r4 = process_slot(&job4);
        assert_eq!(c_count(&r1), n_c);
        assert_eq!(c_count(&r4), n_c, "sharding must not lose DCIs");
    }

    #[test]
    fn iq_job_decodes_every_c_rnti_dci_with_the_producers_layout() {
        // The µ=0 carrier is the one a sample-count guess got wrong: its
        // 52-PRB slot is as long as a µ=1 51-PRB slot.
        for cell in [CellConfig::amarisoft_n78(), CellConfig::tmobile_n25()] {
            let (job, n_c) = make_job_for(&cell, true, 2);
            let r = process_slot(&job);
            assert!(!r.layout_mismatch, "{}", cell.name);
            assert_eq!(c_count(&r), n_c, "{}", cell.name);
        }
    }

    #[test]
    fn budgeted_job_prunes_ue_decodes_in_every_shard() {
        let (job, n_c) = make_job(2);
        let full = process_slot(&job);
        assert_eq!(c_count(&full), n_c);
        assert_eq!(full.work.pruned, 0);
        let mut capped = job.clone();
        capped.budget = SearchBudget::broadcast_only();
        let r = process_slot(&capped);
        assert_eq!(c_count(&r), 0, "broadcast-only budget reaches the shards");
        assert!(r.work.pruned > 0, "pruned work reported to the governor");
    }

    #[test]
    fn truncated_iq_buffer_reports_layout_mismatch() {
        let (job, _) = make_job_for(&CellConfig::srsran_n41(), true, 1);
        let truncated = SlotJob {
            observed: ObservedSlot::Iq {
                samples: vec![nr_phy::complex::Cf32::ZERO; 1234],
                pdsch: Vec::new(),
            },
            ..job.clone()
        };
        let no_layout = SlotJob { ofdm: None, ..job };
        for j in [truncated, no_layout] {
            let r = process_slot(&j);
            assert!(r.layout_mismatch);
            assert!(r.decoded.is_empty());
        }
    }

    #[test]
    fn processing_time_is_measured() {
        let (job, _) = make_job(1);
        let r = process_slot(&job);
        assert!(r.processing > Duration::ZERO);
    }
}
