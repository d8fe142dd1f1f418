//! Criterion benchmarks for the telemetry pipeline: per-slot processing at
//! message and IQ fidelity with varying UE-hypothesis counts and DCI
//! thread counts — the Criterion counterpart of Fig 12 — plus the
//! sliding-window ablation from DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnb_sim::CellConfig;
use nr_phy::dci::DciSizing;
use nr_phy::ofdm::Ofdm;
use nr_phy::pdcch::SearchBudget;
use nr_phy::types::Rnti;
use nrscope::decoder::{DecoderContext, Hypotheses};
use nrscope::observe::{ObservedSlot, Observer};
use nrscope::throughput::RateWindow;
use nrscope::worker::{process_slot, SlotJob};
use nrscope_bench::SessionSpec;
use ue_sim::traffic::TrafficKind;

fn capture_slot(iq: bool) -> (ObservedSlot, usize, Option<Ofdm>, DecoderContext) {
    let cell = CellConfig::amarisoft_n78();
    let mut spec = SessionSpec::new(cell.clone());
    spec.n_ues = 4;
    spec.seconds = 0.5;
    spec.traffic = TrafficKind::Cbr {
        rate_bps: 4e6,
        packet_bytes: 1200,
    };
    let mut gnb = spec.run().gnb;
    let mut obs = Observer::new(&cell, 28.0, iq, 3);
    loop {
        let out = gnb.step();
        if !out.dcis.is_empty() {
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
            let sif = out.slot_in_frame;
            let ofdm = iq.then(|| Ofdm::new(cell.numerology, cell.carrier_prbs));
            return (obs.observe(&out, 0.0), sif, ofdm, ctx);
        }
    }
}

fn job(
    observed: &ObservedSlot,
    sif: usize,
    ofdm: &Option<Ofdm>,
    ctx: &DecoderContext,
    ues: usize,
    threads: usize,
) -> SlotJob {
    SlotJob {
        slot_in_frame: sif,
        observed: observed.clone(),
        ofdm: ofdm.clone(),
        ctx: ctx.clone(),
        hyp: Hypotheses {
            c_rntis: (0..ues).map(|i| Rnti(0x4601 + i as u16)).collect(),
            allow_recovery: true,
            ..Hypotheses::default()
        },
        dci_threads: threads,
        budget: SearchBudget::unlimited(),
    }
}

fn bench_message_slot(c: &mut Criterion) {
    let (observed, sif, ofdm, ctx) = capture_slot(false);
    let mut group = c.benchmark_group("slot_message");
    for ues in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("1thread", ues), &ues, |b, &u| {
            let j = job(&observed, sif, &ofdm, &ctx, u, 1);
            b.iter(|| process_slot(&j))
        });
    }
    group.finish();
}

fn bench_iq_slot(c: &mut Criterion) {
    let (observed, sif, ofdm, ctx) = capture_slot(true);
    let mut group = c.benchmark_group("slot_iq");
    group.sample_size(20);
    for (ues, threads) in [(4usize, 1usize), (64, 1), (64, 4)] {
        group.bench_with_input(
            BenchmarkId::new(format!("{threads}thread"), ues),
            &ues,
            |b, &u| {
                let j = job(&observed, sif, &ofdm, &ctx, u, threads);
                b.iter(|| process_slot(&j))
            },
        );
    }
    group.finish();
}

fn bench_rate_window(c: &mut Criterion) {
    // Sliding-window ablation: push cost at different window lengths.
    let mut group = c.benchmark_group("rate_window");
    for window in [500u64, 2000, 8000] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let mut rw = RateWindow::default();
                for s in 0..10_000u64 {
                    rw.push(s, 1000, w);
                }
                rw.bits()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_message_slot,
    bench_iq_slot,
    bench_rate_window
);
criterion_main!(benches);
