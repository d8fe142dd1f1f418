//! pipeline — end-to-end gnb-sim → scope throughput and per-stage latency.
//!
//! Drives the full sniffer pipeline and freezes the shared metrics
//! registry into `BENCH_pipeline.json`: slots/sec, metrics-disabled
//! baseline (overhead check), DCIs decoded, and per-stage
//! count/mean/p50/p99 for every instrumented stage.
//!
//! Two phases share one registry so a single snapshot covers the whole
//! pipeline:
//!   1. message-fidelity lock-step run (capture, PDCCH search, DCI decode,
//!      classify, tracking, slot envelope) — timed twice, metrics off then
//!      on, for the overhead figure;
//!   2. short IQ run (radio capture, OFDM demod).
//!
//! `--short` (or `NRSCOPE_SECONDS`) shrinks the run for CI smoke tests.
//!
//! Methodology: every overhead figure compares the best (minimum) wall
//! time of N repeats of each variant, after a shared warmup run. A single
//! cold pair used to report *negative* overheads (the second run won on
//! warmed caches, not merit); best-of-N compares steady-state against
//! steady-state, and any residual ratio within the documented
//! [`NOISE_FLOOR_PCT`] is reported as zero rather than as a spurious
//! speedup. The durability gate (`journaled ≥ 0.9 × baseline`) exits
//! non-zero on breach, with the same floor as tolerance.

use gnb_sim::{CellConfig, Gnb};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nrscope::observe::Observer;
use nrscope::{
    Fidelity, LoadRung, Metrics, NrScope, PersistConfig, PersistentSession, ScopeConfig,
};
use nrscope_bench::capture_seconds;
use std::sync::Arc;
use std::time::Instant;
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// Wall-clock noise floor for best-of-N ratio comparisons, in percent.
/// Repeated identical runs differ by about this much (measured as the
/// same-binary spread on a single-core shared host, where scheduler
/// interference lands entirely on the benched thread); overhead deltas
/// inside the floor are measurement noise, not signal.
const NOISE_FLOOR_PCT: f64 = 3.0;

/// Report a best-of-N overhead: a *negative* delta inside the noise floor
/// collapses to zero (a variant cannot be faster for doing strictly more
/// work — that is jitter), while positive deltas and anything beyond the
/// floor are surfaced as measured.
fn clamp_overhead(raw_pct: f64) -> f64 {
    if (-NOISE_FLOOR_PCT..0.0).contains(&raw_pct) {
        0.0
    } else {
        raw_pct
    }
}

fn build_gnb(cell: &CellConfig, n_ues: usize, active_s: f64, seed: u64) -> Gnb {
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 0..n_ues {
        gnb.ue_arrives(SimUe::new(
            i as u64 + 1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 3e6,
                    packet_bytes: 1200,
                },
                seed * 1000 + i as u64,
            ),
            0.0,
            active_s,
            seed * 7777 + i as u64,
        ));
    }
    gnb
}

/// Message-fidelity lock-step run; returns (slots, wall seconds).
fn message_phase(cell: &CellConfig, seconds: f64, seed: u64, metrics: Arc<Metrics>) -> (u64, f64) {
    let slot_s = cell.slot_s();
    let slots = (seconds / slot_s).round() as u64;
    let mut gnb = build_gnb(cell, 4, seconds + 10.0, seed);
    let mut observer = Observer::new(cell, 30.0, false, seed ^ 0xC0FFEE);
    observer.set_metrics(Arc::clone(&metrics));
    let cfg = ScopeConfig {
        fidelity: Fidelity::Message,
        metrics_enabled: metrics.is_enabled(),
        ..ScopeConfig::default()
    };
    let mut scope = NrScope::with_metrics(cfg, Some(cell.pci), metrics);
    let t0 = Instant::now();
    for s in 0..slots {
        let out = gnb.step();
        let observed = observer.observe(&out, s as f64 * slot_s);
        scope.process(&observed);
    }
    (slots, t0.elapsed().as_secs_f64())
}

/// Sustained slots/sec with the degradation ladder pinned at each rung:
/// one loaded session (64 backlogged UEs, so UE-specific search is the
/// dominant term) re-timed per forced rung. The spread between `full` and
/// `broadcast_only` is the headroom each demotion buys the governor.
fn rung_phase(cell: &CellConfig, slots: u64, seed: u64) -> Vec<(&'static str, f64)> {
    let slot_s = cell.slot_s();
    let horizon = (slots * 6) as f64 * slot_s + 10.0;
    let mut gnb = build_gnb(cell, 64, horizon, seed);
    let mut observer = Observer::new(cell, 30.0, false, seed ^ 0xBEEF);
    let mut scope = NrScope::new(
        ScopeConfig {
            fidelity: Fidelity::Message,
            ..ScopeConfig::default()
        },
        Some(cell.pci),
    );
    // Attach the population first so every rung is timed against the same
    // hypothesis load.
    let mut s = 0u64;
    for _ in 0..slots {
        let out = gnb.step();
        scope.process(&observer.observe(&out, s as f64 * slot_s));
        s += 1;
    }
    let mut rates = Vec::new();
    for rung in LoadRung::ALL {
        scope.force_rung(Some(rung));
        let t0 = Instant::now();
        for _ in 0..slots {
            let out = gnb.step();
            scope.process(&observer.observe(&out, s as f64 * slot_s));
            s += 1;
        }
        rates.push((rung.name(), slots as f64 / t0.elapsed().as_secs_f64()));
    }
    scope.force_rung(None);
    rates
}

/// Durability overhead: the same lock-step run three ways — plain scope,
/// journal-only session (per-slot append + OS flush, the unavoidable
/// durability syscall), and the full session with cadence checkpoints
/// streamed from the background writer. Returns each run's
/// (slots/sec, p99 slot µs). The journal-vs-checkpoint split matters:
/// journaling is the per-slot price of losing at most one slot to
/// `kill -9`; checkpoints are asynchronous and skip-if-busy, so their
/// p99 delta over journal-only is the figure that must stay small.
fn persist_phase(cell: &CellConfig, slots: u64, seed: u64, reps: usize) -> [(f64, f64); 3] {
    fn p99_us(mut ns: Vec<u64>) -> f64 {
        ns.sort_unstable();
        ns[(ns.len() - 1) * 99 / 100] as f64 / 1e3
    }
    let slot_s = cell.slot_s();
    let run = |session: &mut dyn FnMut(&nrscope::Capture)| -> (f64, f64) {
        let mut gnb = build_gnb(cell, 4, slots as f64 * slot_s + 10.0, seed);
        let mut observer = Observer::new(cell, 30.0, false, seed ^ 0xD15C);
        let mut lat = Vec::with_capacity(slots as usize);
        let t0 = Instant::now();
        for s in 0..slots {
            let out = gnb.step();
            let cap = observer.capture(&out, s as f64 * slot_s);
            let c0 = Instant::now();
            session(&cap);
            lat.push(c0.elapsed().as_nanos() as u64);
        }
        (slots as f64 / t0.elapsed().as_secs_f64(), p99_us(lat))
    };
    let durable_run = |checkpoint_every_slots: u64| -> (f64, f64) {
        let dir =
            std::env::temp_dir().join(format!("nrscope-bench-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut session, _) = PersistentSession::open(
            PersistConfig {
                checkpoint_every_slots,
                ..PersistConfig::new(&dir)
            },
            ScopeConfig::default(),
            Some(cell.pci),
        )
        .expect("open persistent session");
        let result = run(&mut |cap| {
            session.process_capture(cap);
        });
        session.finalize().expect("finalize persistent session");
        let _ = std::fs::remove_dir_all(&dir);
        result
    };

    // Best-of-N per variant: keep the fastest wall time and the lowest
    // p99 each variant achieved. Interleaving the variants (rather than
    // N× base, then N× journal, …) spreads any machine-wide drift —
    // thermal, background load — evenly across all three.
    let mut best = [(0.0f64, f64::INFINITY); 3];
    for _ in 0..reps.max(1) {
        let mut scope = NrScope::new(ScopeConfig::default(), Some(cell.pci));
        let samples = [
            run(&mut |cap| {
                scope.process_capture(cap);
            }),
            durable_run(u64::MAX),
            durable_run(512),
        ];
        for (b, (sps, p99)) in best.iter_mut().zip(samples) {
            b.0 = b.0.max(sps);
            b.1 = b.1.min(p99);
        }
    }
    best
}

/// Short IQ-fidelity run (populates radio capture and OFDM demod stages).
fn iq_phase(cell: &CellConfig, slots: u64, seed: u64, metrics: Arc<Metrics>) {
    let slot_s = cell.slot_s();
    let mut gnb = build_gnb(cell, 2, slots as f64 * slot_s + 10.0, seed);
    let mut observer = Observer::new(cell, 30.0, true, seed ^ 0xFACE);
    observer.set_metrics(Arc::clone(&metrics));
    let cfg = ScopeConfig {
        fidelity: Fidelity::Iq,
        ..ScopeConfig::default()
    };
    let mut scope = NrScope::with_metrics(cfg, None, metrics);
    for s in 0..slots {
        let out = gnb.step();
        let observed = observer.observe(&out, s as f64 * slot_s);
        scope.process(&observed);
    }
}

fn main() {
    let short = std::env::args().any(|a| a == "--short");
    let seconds = capture_seconds(if short { 2.0 } else { 10.0 });
    let iq_slots: u64 = if short { 100 } else { 400 };
    let cell = CellConfig::srsran_n41();

    let reps: usize = if short { 2 } else { 3 };

    // Warmup (page-in, allocator, branch predictors) so the off/on
    // comparison below measures the registry, not cold-start effects.
    message_phase(&cell, (seconds * 0.25).min(1.0), 7, Metrics::shared(false));

    // Baseline and instrumented runs, interleaved best-of-N: a single
    // cold pair used to report negative overheads because whichever
    // variant ran second won on warmed caches. Each repeat is identical
    // (same seed), so the fastest wall time per variant is its
    // steady-state cost. The *last* instrumented run's registry is kept
    // for the IQ phase.
    let mut wall_off = f64::INFINITY;
    let mut wall_on = f64::INFINITY;
    let mut kept = None;
    for _ in 0..reps {
        let (_, w_off) = message_phase(&cell, seconds, 1, Metrics::shared(false));
        wall_off = wall_off.min(w_off);
        let m = Metrics::shared(true);
        let (slots, w_on) = message_phase(&cell, seconds, 1, Arc::clone(&m));
        wall_on = wall_on.min(w_on);
        kept = Some((slots, m));
    }
    let (slots, metrics) = kept.expect("reps >= 1");
    iq_phase(&cell, iq_slots, 3, Arc::clone(&metrics));
    let rung_slots: u64 = if short { 400 } else { 6000 };
    let rung_rates = rung_phase(&cell, rung_slots, 5);
    let persist_slots: u64 = if short { 1200 } else { 6000 };
    // The durability gate below exits non-zero on breach, so this phase
    // gets three times the best-of repetitions of the others: it is the
    // cheapest phase by far, and the extra repeats keep a scheduling
    // hiccup on a loaded machine from reading as a durability regression.
    let [(base_sps, base_p99), (journal_sps, journal_p99), (persist_sps, persist_p99)] =
        persist_phase(&cell, persist_slots, 11, reps * 3);
    // Checkpoints are asynchronous; their p99 cost over journal-only is
    // the durability-design figure of merit (the group-commit append is
    // the floor any crash-safe design pays).
    let checkpoint_p99_overhead_pct = clamp_overhead((persist_p99 / journal_p99 - 1.0) * 100.0);

    // Durability gate: group commit exists to keep journaled throughput
    // within 10% of the non-durable baseline; tolerate the noise floor on
    // top so a borderline run doesn't flap CI.
    let persist_ratio = journal_sps / base_sps;
    let persist_ratio_min = 0.9 * (1.0 - NOISE_FLOOR_PCT / 100.0);
    let persist_gate_ok = persist_ratio >= persist_ratio_min;

    let snap = metrics.snapshot();
    let slots_per_sec = slots as f64 / wall_on;
    let slots_per_sec_off = slots as f64 / wall_off;
    let overhead_pct = clamp_overhead((wall_on / wall_off - 1.0) * 100.0);
    let dcis = snap.counter("dcis_decoded").unwrap_or(0);
    let rung_json = rung_rates
        .iter()
        .map(|(name, rate)| format!("\"{name}\": {rate:.1}"))
        .collect::<Vec<_>>()
        .join(", ");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pipeline\",\n",
            "  \"short\": {short},\n",
            "  \"seconds_simulated\": {seconds},\n",
            "  \"slots\": {slots},\n",
            "  \"wall_s\": {wall_on:.6},\n",
            "  \"best_of\": {reps},\n",
            "  \"noise_floor_pct\": {floor:.1},\n",
            "  \"slots_per_sec\": {sps:.1},\n",
            "  \"slots_per_sec_metrics_off\": {sps_off:.1},\n",
            "  \"metrics_overhead_pct\": {ovh:.2},\n",
            "  \"dcis_decoded\": {dcis},\n",
            "  \"rung_slots_per_sec\": {{{rungs}}},\n",
            "  \"persist_slots\": {persist_slots},\n",
            "  \"persist_baseline_slots_per_sec\": {base_sps:.1},\n",
            "  \"persist_journal_only_slots_per_sec\": {journal_sps:.1},\n",
            "  \"persist_slots_per_sec\": {persist_sps:.1},\n",
            "  \"persist_baseline_p99_us\": {base_p99:.2},\n",
            "  \"persist_journal_only_p99_us\": {journal_p99:.2},\n",
            "  \"persist_p99_us\": {persist_p99:.2},\n",
            "  \"checkpoint_p99_overhead_pct\": {ckpt_ovh:.2},\n",
            "  \"persist_gate_ratio\": {gate_ratio:.4},\n",
            "  \"persist_gate_min_ratio\": {gate_min:.4},\n",
            "  \"persist_gate_ok\": {gate_ok},\n",
            "  \"metrics\": {snap}\n",
            "}}\n"
        ),
        short = short,
        seconds = seconds,
        reps = reps,
        floor = NOISE_FLOOR_PCT,
        slots = slots,
        wall_on = wall_on,
        sps = slots_per_sec,
        sps_off = slots_per_sec_off,
        ovh = overhead_pct,
        dcis = dcis,
        rungs = rung_json,
        persist_slots = persist_slots,
        base_sps = base_sps,
        journal_sps = journal_sps,
        persist_sps = persist_sps,
        base_p99 = base_p99,
        journal_p99 = journal_p99,
        persist_p99 = persist_p99,
        ckpt_ovh = checkpoint_p99_overhead_pct,
        gate_ratio = persist_ratio,
        gate_min = persist_ratio_min,
        gate_ok = persist_gate_ok,
        snap = snap.to_json(),
    );
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");

    println!("pipeline bench ({} s simulated, short={short})", seconds);
    println!(
        "  slots/sec          {slots_per_sec:>12.1}  (metrics off {slots_per_sec_off:.1}, overhead {overhead_pct:+.2}%)"
    );
    println!("  dcis decoded       {dcis:>12}");
    for (name, rate) in &rung_rates {
        println!("  slots/sec @ {name:<15} {rate:>10.1}");
    }
    println!(
        "  persist p99 slot   {persist_p99:>9.2} µs  (journal-only {journal_p99:.2} µs, baseline {base_p99:.2} µs)"
    );
    println!(
        "  checkpoint cost    {checkpoint_p99_overhead_pct:>+8.2}% p99 over journal-only ({persist_sps:.0} vs {journal_sps:.0} vs {base_sps:.0} slots/s)"
    );
    println!(
        "  durability gate    journaled/baseline {persist_ratio:.3} (min {persist_ratio_min:.3}) -> {}",
        if persist_gate_ok { "ok" } else { "BREACH" }
    );
    println!();
    print!("{}", snap.summary());
    println!();
    println!("wrote BENCH_pipeline.json");
    if !persist_gate_ok {
        eprintln!(
            "durability gate breached: journaled {journal_sps:.0} slots/s is below \
             {persist_ratio_min:.3} x baseline {base_sps:.0} slots/s"
        );
        std::process::exit(1);
    }
}
