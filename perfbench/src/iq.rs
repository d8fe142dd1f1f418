//! `iq_light` and `iq_crowded`: one Amarisoft n78 cell (20 MHz, µ=1) at
//! IQ fidelity, fed to `NrScope::process_capture` one slot at a time by
//! one feeding thread (closed loop).

use crate::layers::{job_for, replay_iq, DecoderCounts};
use crate::oracle::{DigestLog, Tally, Verdict};
use crate::render::{render, CellLoad, Rendered};
use crate::report::Report;
use crate::trace::{rss_mb, Tracer};
use crate::{Args, Setups};
use gnb_sim::CellConfig;
use nr_phy::ofdm::Ofdm;
use nrscope::{LoadRung, NrScope, ScopeConfig, TelemetryRecord};
use std::io;
use std::time::Instant;

/// One IQ workload's shape.
pub struct IqSpec {
    /// UEs attached and tracked before timing.
    pub n_ues: usize,
    /// Message-fidelity warm-up slots (enough for every UE to attach).
    pub warm: usize,
}

/// Four UEs: the fixed per-slot costs dominate.
pub const LIGHT: IqSpec = IqSpec {
    n_ues: 4,
    warm: 400,
};
/// Thirty-two UEs: the per-UE hypothesis pass dominates.
pub const CROWDED: IqSpec = IqSpec {
    n_ues: 32,
    warm: 800,
};

/// Per-UE offered rate: more than the cell carries, so every downlink slot
/// is scheduled full and the work per slot does not depend on the seed.
const UE_RATE_BPS: f64 = 100e6;
/// IQ slots rendered (cycled by the loops); the smoke test's size.
const POOL: usize = 160;
const POOL_TINY: usize = 40;
/// IQ slots processed untimed after set-up (FFT plan, sequence caches).
const WARM_IQ: u64 = 2;
/// Share of a traced run spent in its untraced phase (the reference for
/// `trace.overhead_pct`).
const UNTRACED_SHARE: f64 = 0.4;

/// A scope that has been fed the warm-up and tracks every UE.
fn set_up(r: &Rendered, cfg: ScopeConfig) -> NrScope {
    let mut scope = NrScope::new(cfg, Some(r.pci()));
    for cap in &r.warm {
        scope.process_capture(cap);
    }
    scope
}

/// The closed loop over the pool, with its correctness bookkeeping.
struct Loop<'a> {
    r: &'a Rendered,
    scope: NrScope,
    step: u64,
    fed: u64,
    tally: Tally,
    digests: DigestLog,
    lost: u64,
    below_full: u64,
    setups: Setups,
}

impl Loop<'_> {
    /// Feed the next pooled slot; returns its records and the time the
    /// call took (µs). Nothing but the call is inside the timing.
    fn feed(&mut self, tracer: Option<(&mut Tracer, &'static str)>) -> (Vec<TelemetryRecord>, f64) {
        let (idx, cap) = self.r.at(self.step);
        if self.scope.load_rung() != LoadRung::Full {
            self.below_full += 1;
        }
        let skipped = self.scope.stats.layout_mismatch_slots + self.scope.stats.dropped_slots;
        let scope = &mut self.scope;
        let (recs, us) = match tracer {
            Some((t, name)) => {
                let (recs, span) = t.span(name, self.step, || scope.process_capture(cap));
                let us = t.us(span);
                (recs, us)
            }
            None => {
                let t0 = Instant::now();
                let recs = scope.process_capture(cap);
                (recs, t0.elapsed().as_secs_f64() * 1e6)
            }
        };
        if self.scope.stats.layout_mismatch_slots + self.scope.stats.dropped_slots != skipped {
            self.lost += 1;
        }
        self.tally.check(&self.r.truth[idx], &recs);
        self.digests.note(idx, &recs);
        self.step += 1;
        self.fed += 1;
        (recs, us)
    }

    /// Feed the first pooled IQ slots untimed (FFT plan, sequence caches).
    fn warm_iq(&mut self) {
        for _ in 0..WARM_IQ {
            self.feed(None);
        }
    }

    /// Per-slot latencies (µs) of `seconds` of feeding.
    fn window(&mut self, seconds: f64) -> Vec<f64> {
        let mut lat = Vec::new();
        let mut busy = 0.0;
        while busy < seconds * 1e6 || lat.is_empty() {
            let (_, us) = self.feed(None);
            busy += us;
            lat.push(us);
            if self.setups.due(busy) {
                self.set_up_again();
            }
        }
        while self.setups.owed() {
            self.set_up_again();
        }
        lat
    }

    /// A throwaway repeat of the run's set-up, timed.
    fn set_up_again(&mut self) {
        let r = self.r;
        self.setups.time(|| set_up(r, ScopeConfig::default()));
    }
}

/// Run an IQ workload.
pub fn run(spec: &IqSpec, args: &Args, report: &mut Report) -> io::Result<()> {
    let pool = if args.tiny { POOL_TINY } else { POOL };
    let cell = CellConfig::amarisoft_n78();
    let tti_us = cell.slot_s() * 1e6;
    let load = CellLoad {
        cell,
        n_ues: spec.n_ues,
        rate_bps: UE_RATE_BPS,
        warm: spec.warm,
        pool,
        iq: true,
    };
    let r = render(load, args.seed);
    let rss0 = rss_mb();
    let window_s = args.seconds * if args.trace { UNTRACED_SHARE } else { 1.0 };
    let mut setups = Setups::new(window_s);
    let scope = setups.time(|| set_up(&r, ScopeConfig::default()));
    report.require(scope.tracked_rntis().len() == spec.n_ues, || {
        format!(
            "warm-up tracked {} of {} UEs",
            scope.tracked_rntis().len(),
            spec.n_ues
        )
    });
    let mut lp = Loop {
        r: &r,
        scope,
        step: 0,
        fed: 0,
        tally: Tally::default(),
        digests: args.digests(),
        lost: 0,
        below_full: 0,
        setups,
    };
    lp.warm_iq();
    let lat = lp.window(window_s);
    let mut timed = lat.len() as u64;
    let mem_mb = rss_mb() - rss0;
    if args.trace {
        timed += traced(&mut lp, &lat, args, report);
    }

    report.set_end_to_end(&lat, lp.setups.times());
    report.info("latency_samples", lat.len());
    report.info("setup_samples", lp.setups.times().len());
    report.info("timed_slots", timed);
    report.info("pool_slots", r.pool.len());
    report.info(
        "tti_miss_ratio",
        lat.iter().filter(|us| **us > tti_us).count() as f64 / lat.len() as f64,
    );
    report.info("mem_mb", mem_mb);
    let verdict = Verdict {
        attempted: timed,
        fed: lp.fed,
        lost: lp.lost,
        below_full: lp.below_full,
        tally: lp.tally,
    };
    verdict.conclude(&mut lp.digests, report)
}

/// The traced phase, on a fresh scope that replays the slots the
/// untraced phase `base` timed: the scope's own call inside a span, then
/// the layer functions replayed with the context and hypotheses the scope
/// used, and a registry-off scope fed the same slots. Returns the slots
/// fed.
fn traced(lp: &mut Loop, base: &[f64], args: &Args, report: &mut Report) -> u64 {
    let cell = &lp.r.cell;
    let ofdm = Ofdm::new(cell.numerology, cell.carrier_prbs);
    let mut off = set_up(
        lp.r,
        ScopeConfig {
            metrics_enabled: false,
            ..ScopeConfig::default()
        },
    );
    lp.scope = set_up(lp.r, ScopeConfig::default());
    lp.step = 0;
    lp.warm_iq();
    for i in 0..WARM_IQ {
        off.process_capture(lp.r.at(i).1);
    }
    let mut tracer = Tracer::default();
    let mut counts = DecoderCounts::default();
    let start = Instant::now();
    let budget = args.seconds * (1.0 - UNTRACED_SHARE);
    while start.elapsed().as_secs_f64() < budget || counts.slots == 0 {
        let step = lp.step;
        let cap = lp.r.at(step).1;
        let job = job_for(&lp.scope, cap).expect("the MIB is known after warm-up");
        let (recs, _) = lp.feed(Some((&mut tracer, "scope.process")));
        tracer.span("scope.process_off", step, || off.process_capture(cap));
        counts.tracked += lp.scope.tracked_rntis().len() as u64;
        replay_iq(&mut tracer, step, &ofdm, &job, &recs, &mut counts);
    }
    let per_slot = |name: &str| tracer.total_us(name) / counts.slots as f64;
    let slot_us = per_slot("scope.process");
    let layers = [
        "ofdm.demod",
        "decoder.extract",
        "decoder.common",
        "decoder.ue",
    ];
    let replayed: f64 = layers.iter().map(|l| per_slot(l)).sum();
    report.set("ofdm.demod_us", per_slot("ofdm.demod"));
    report.set("decoder.extract_us", per_slot("decoder.extract"));
    report.set("decoder.common_us", per_slot("decoder.common"));
    report.set("decoder.ue_us", per_slot("decoder.ue"));
    report.set("polar.build_us", tracer.mean_us("polar.build"));
    report.set("polar.sc_us", tracer.mean_us("polar.sc"));
    report.set("scope.self_us", slot_us - replayed);
    report.set("trace.slot_us", slot_us);
    report.set("metrics.cost_us", slot_us - per_slot("scope.process_off"));
    // Same slots, same scope state: the first traced slots against the
    // untraced phase's first slots.
    let traced_us: Vec<f64> = (0..counts.slots)
        .map(|i| tracer.slot_total_us("scope.process", WARM_IQ + i))
        .collect();
    let n = traced_us.len().min(base.len());
    let overhead = traced_us[..n].iter().sum::<f64>() / base[..n].iter().sum::<f64>() - 1.0;
    report.set("trace.overhead_pct", overhead * 100.0);
    counts.report(report);
    report.not_on_path(&["persist.", "fleet.", "supervise."]);
    counts.require_agreement(report);
    report.info("traced_slots", counts.slots);
    report.info("untraced_slots", base.len());
    args.write_trace(&tracer);
    counts.slots
}
