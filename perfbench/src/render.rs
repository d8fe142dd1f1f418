//! Capture rendering. Everything here runs before any clock starts: the
//! gNB simulator and the observer synthesise a cell's emissions into
//! memory, together with the gNB's truth for every pooled slot, so the
//! timed loops see only the sniffer.

use crate::oracle::{truth_keys, DciKey};
use gnb_sim::gnb::{PdschContent, SlotOutput};
use gnb_sim::{CellConfig, Gnb};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nr_phy::crc::dci_attach_crc;
use nr_phy::sequence::scramble_in_place;
use nr_phy::types::Pci;
use nrscope::observe::{scrambling_for, ObservedDci, PdschPayload};
use nrscope::{Capture, ObservedSlot, Observer};
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// One cell's pre-rendered input.
pub struct Rendered {
    /// The cell preset.
    pub cell: CellConfig,
    /// Message-fidelity slots that attach every UE (fed before timing).
    pub warm: Vec<Capture>,
    /// The slots fed in the measured loops, cycled in order. Its length is
    /// a multiple of the SSB period, so the MIB-derived frame timing stays
    /// consistent across wraps.
    pub pool: Vec<Capture>,
    /// gNB truth of each pooled slot: the C-RNTI DCIs it transmitted.
    pub truth: Vec<Vec<DciKey>>,
}

impl Rendered {
    /// The cell's PCI (message fidelity is told it out of band).
    pub fn pci(&self) -> Pci {
        self.cell.pci
    }

    /// The capture fed at sequence number `seq` of a run that feeds the
    /// warm-up and then the pool, cycled; with its pool index.
    pub fn fed(&self, seq: u64) -> (Option<usize>, &Capture) {
        match seq.checked_sub(self.warm.len() as u64) {
            None => (None, &self.warm[seq as usize]),
            Some(i) => {
                let (idx, cap) = self.at(i);
                (Some(idx), cap)
            }
        }
    }

    /// Pool index and capture fed at step `i` of a loop over the pool.
    pub fn at(&self, i: u64) -> (usize, &Capture) {
        let idx = (i % self.pool.len() as u64) as usize;
        (idx, &self.pool[idx])
    }
}

/// What a workload renders for one cell.
pub struct CellLoad {
    /// The cell preset.
    pub cell: CellConfig,
    /// UEs attached at start, all constant bit rate.
    pub n_ues: usize,
    /// Each UE's offered rate (bit/s).
    pub rate_bps: f64,
    /// Attach-phase slots.
    pub warm: usize,
    /// Pooled slots (rounded up to a multiple of the SSB period).
    pub pool: usize,
    /// Pool at IQ fidelity (else message fidelity).
    pub iq: bool,
}

/// Sniffer SNR (dB) of the IQ captures: a well-placed sniffer.
const IQ_SNR_DB: f64 = 28.0;
/// Sniffer SNR (dB) of the message captures.
const MSG_SNR_DB: f64 = 30.0;

/// Render the attach phase, then the pool. The attach phase is captured
/// without the observer's corruption model, so every seed ends it with
/// every UE tracked and a workload's per-slot work does not depend on
/// which RACH message a seed happened to corrupt.
pub fn render(load: CellLoad, seed: u64) -> Rendered {
    let cell = load.cell;
    let ssb_slots = cell.ssb_period_frames as usize * cell.numerology.slots_per_frame();
    let pool = load.pool.div_ceil(ssb_slots) * ssb_slots;
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 0..load.n_ues {
        gnb.ue_arrives(SimUe::new(
            i as u64 + 1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: load.rate_bps,
                    packet_bytes: 1200,
                },
                seed.wrapping_mul(1000).wrapping_add(i as u64),
            ),
            -(i as f64 % 5.0),
            1e6,
            seed.wrapping_mul(7777).wrapping_add(i as u64),
        ));
    }
    let warm: Vec<Capture> = (0..load.warm).map(|_| clean_capture(&gnb.step())).collect();
    let slot_s = cell.slot_s();
    let snr = if load.iq { IQ_SNR_DB } else { MSG_SNR_DB };
    let mut observer = Observer::new(&cell, snr, load.iq, seed ^ 0xC0FFEE);
    let mut pool_caps = Vec::with_capacity(pool);
    let mut truth = Vec::with_capacity(pool);
    for t in load.warm..load.warm + pool {
        let out = gnb.step();
        pool_caps.push(observer.capture(&out, t as f64 * slot_s));
        truth.push(truth_keys(&gnb, &out));
    }
    Rendered {
        cell,
        warm,
        pool: pool_caps,
        truth,
    }
}

/// A message-fidelity capture with every codeword intact: CRC attach,
/// RNTI and search-space scrambling, exactly as the air carries them.
fn clean_capture(out: &SlotOutput) -> Capture {
    let dcis = out
        .dcis
        .iter()
        .map(|d| {
            let mut bits = dci_attach_crc(&d.payload_bits, d.rnti.0);
            scramble_in_place(&mut bits, scrambling_for(d.rnti, d.rnti_type, out.pci.0));
            ObservedDci {
                scrambled_bits: bits,
                cce_start: d.cce_start,
                level: d.level,
            }
        })
        .collect();
    let pdsch = out
        .pdsch
        .iter()
        .filter_map(|(rnti, content)| {
            let payload = match content {
                PdschContent::Sib1(bits) => PdschPayload::Sib1(bits.clone()),
                PdschContent::Rar { tc_rnti } => PdschPayload::Rar(*tc_rnti),
                PdschContent::RrcSetup(bits) => PdschPayload::RrcSetup(bits.clone()),
                PdschContent::UserData { .. } => return None,
            };
            Some((*rnti, payload))
        })
        .collect();
    Capture::Slot(ObservedSlot::Message {
        mib_bits: out.mib.as_ref().map(|m| m.encode()),
        dcis,
        pdsch,
    })
}
