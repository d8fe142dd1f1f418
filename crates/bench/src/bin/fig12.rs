//! Fig 12 — slot processing time vs number of UEs, one or four DCI
//! threads, on a 20 MHz (Amarisoft) and a 10 MHz (T-Mobile) carrier.
//!
//! The computation is the paper's §5.3.2 `O(n log n + m)`: per-slot
//! FFT/demodulation plus per-known-UE DCI decoding. Run at IQ fidelity so
//! both terms are real work. Each job carries the cell preset's own OFDM
//! layout, and every series reports how many of the transmitted DCIs it
//! decoded: the binary exits non-zero if any series decodes nothing, so a
//! timing of a decoder that does no work is never plotted.

use gnb_sim::CellConfig;
use nr_phy::dci::DciSizing;
use nr_phy::ofdm::Ofdm;
use nr_phy::pdcch::SearchBudget;
use nr_phy::types::Rnti;
use nrscope::decoder::{DecoderContext, Hypotheses};
use nrscope::observe::{ObservedSlot, Observer};
use nrscope::worker::{process_slot, SlotJob};
use nrscope::Fidelity;
use nrscope_analytics::report;
use nrscope_bench::SessionSpec;
use ue_sim::traffic::TrafficKind;

/// IQ slots (each carrying live DCIs) averaged per plotted point.
const SLOTS_PER_POINT: usize = 64;

/// Capture a handful of IQ slots (with live DCIs) from a loaded cell;
/// returns them with the number of DCIs the gNB transmitted in them.
fn capture(cell: &CellConfig, n_slots: usize, seed: u64) -> (Vec<(ObservedSlot, usize)>, usize) {
    let mut spec = SessionSpec::new(cell.clone());
    spec.n_ues = 4;
    spec.fidelity = Fidelity::Message; // drive the gNB cheaply first
    spec.seconds = 0.5;
    spec.seed = seed;
    spec.traffic = TrafficKind::Cbr {
        rate_bps: 4e6,
        packet_bytes: 1200,
    };
    let mut gnb = spec.run().gnb;
    let mut observer = Observer::new(cell, 28.0, true, seed);
    let mut out = Vec::new();
    let slot_s = cell.slot_s();
    let mut s = 0u64;
    let mut transmitted = 0;
    while out.len() < n_slots {
        let slot = gnb.step();
        let sif = slot.slot_in_frame;
        if slot.dcis.is_empty() {
            s += 1;
            continue;
        }
        transmitted += slot.dcis.len();
        out.push((observer.observe(&slot, s as f64 * slot_s), sif));
        s += 1;
    }
    (out, transmitted)
}

/// Mean processing time of the slots, in µs, and the DCIs decoded in them.
fn mean_processing_us(
    slots: &[(ObservedSlot, usize)],
    ofdm: &Ofdm,
    ctx: &DecoderContext,
    n_ues: usize,
    threads: usize,
) -> (f64, usize) {
    // Hypothesis list of n_ues RNTIs (real ones may be among them; cost is
    // what matters and it is per-hypothesis).
    let c_rntis: Vec<Rnti> = (0..n_ues).map(|i| Rnti(0x4601 + i as u16)).collect();
    let mut total_us = 0.0;
    let mut decoded = 0;
    for (observed, slot_in_frame) in slots {
        let job = SlotJob {
            slot_in_frame: *slot_in_frame,
            observed: observed.clone(),
            ofdm: Some(ofdm.clone()),
            ctx: ctx.clone(),
            hyp: Hypotheses {
                c_rntis: c_rntis.clone(),
                allow_recovery: true,
                ..Hypotheses::default()
            },
            dci_threads: threads,
            budget: SearchBudget::unlimited(),
        };
        let r = process_slot(&job);
        total_us += r.processing.as_secs_f64() * 1e6;
        decoded += r.decoded.len();
    }
    (total_us / slots.len() as f64, decoded)
}

fn main() {
    println!(
        "{}",
        report::figure_header("fig12", "slot processing time vs UE hypotheses")
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host_cores {cores}  (the paper's 4-thread speedup needs >= 4 cores; on fewer, sharding only adds overhead)");
    println!("slots_per_point {SLOTS_PER_POINT}");
    let cases = [
        ("Amarisoft 20MHz", CellConfig::amarisoft_n78(), 1u64),
        ("T-Mobile 10MHz", CellConfig::tmobile_n25(), 2u64),
    ];
    let mut idle_series = Vec::new();
    for (name, cell, seed) in cases {
        let (slots, transmitted) = capture(&cell, SLOTS_PER_POINT, seed);
        let ofdm = Ofdm::new(cell.numerology, cell.carrier_prbs);
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
        for threads in [1usize, 4] {
            let label = format!("{name}, {threads} thread(s) (us)");
            let mut decoded = Vec::new();
            let series: Vec<(f64, f64)> = [1usize, 2, 4, 8, 16, 32, 64, 128]
                .iter()
                .map(|&m| {
                    let (us, n) = mean_processing_us(&slots, &ofdm, &ctx, m, threads);
                    decoded.push(n);
                    (m as f64, us)
                })
                .collect();
            print!("{}", report::series(&label, &series, 8));
            let counts: Vec<String> = decoded.iter().map(|n| n.to_string()).collect();
            println!(
                "  decoded_dcis per point: {} (of {transmitted} transmitted)\n",
                counts.join(" ")
            );
            if decoded.iter().all(|&n| n == 0) {
                idle_series.push(label);
            }
        }
    }
    println!("paper: linear growth with UE count; four threads keep 20 MHz under one TTI up to ~195-285 UEs");
    if !idle_series.is_empty() {
        eprintln!("series decoded no DCI at all: {}", idle_series.join("; "));
        std::process::exit(1);
    }
}
