//! `msg_supervised`: one srsRAN n41 cell at message fidelity through
//! `Supervisor`, whose child is this binary re-invoked to run
//! `supervise::run_child`. Each slot is one synchronous JSONL round trip.

use crate::layers::{DecoderCounts, MessageReference};
use crate::oracle::{DigestLog, Tally, Verdict};
use crate::render::{render, CellLoad, Rendered};
use crate::report::Report;
use crate::trace::{mean, rss_mb, Tracer};
use crate::{Args, Setups};
use gnb_sim::CellConfig;
use nr_phy::types::Pci;
use nrscope::supervise::{self, Ack, ChildMsg, SlotOutcome, Supervisor, WireMsg};
use nrscope::{JournalWriter, LoadRung, Metrics, TelemetryRecord};
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// First argument that turns this binary into the supervised child.
pub const CHILD_FLAG: &str = "--supervised-child";

/// UEs in the cell.
const N_UES: usize = 4;
/// Per-UE offered rate: CBR traffic the cell carries with room to spare.
const UE_RATE_BPS: f64 = 4e6;
/// Message warm-up slots (every UE attaches).
const WARM: usize = 400;
/// Pooled slots, cycled by the loops.
const POOL: usize = 4000;
const POOL_TINY: usize = 400;
/// Share of a traced run spent untraced (the overhead reference).
const UNTRACED_SHARE: f64 = 0.4;

/// Child entry point: `--supervised-child <session dir> <pci>`.
pub fn child_main(args: &[String]) -> ExitCode {
    let (Some(dir), Some(Ok(pci))) = (args.first(), args.get(1).map(|p| p.parse::<u16>())) else {
        eprintln!("perfbench: {CHILD_FLAG} takes <session dir> <pci>");
        return ExitCode::from(2);
    };
    match supervise::run_child(Path::new(dir), Some(Pci(pci))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A supervisor whose child is finished, and waited for, when it is
/// dropped on any path out of the run.
struct Owned(Supervisor);

impl Drop for Owned {
    fn drop(&mut self) {
        self.0.finish();
    }
}

fn start(dir: &Path, pci: Pci) -> io::Result<Owned> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(dir)?;
    let args = [
        CHILD_FLAG.to_string(),
        dir.display().to_string(),
        pci.0.to_string(),
    ];
    let mut sup = Owned(Supervisor::new(
        &exe,
        &args,
        &[],
        Default::default(),
        Metrics::shared(true),
    ));
    sup.0.start()?;
    Ok(sup)
}

/// The supervised cell, its child-equivalent reference, and the oracle's
/// running state.
struct Session<'a> {
    r: &'a Rendered,
    sup: Owned,
    reference: MessageReference,
    /// Captures fed to the child but not yet to the reference, with the
    /// child's `Ack.produced` for each.
    behind: Vec<(u64, u64)>,
    seq: u64,
    tally: Tally,
    digests: DigestLog,
    lost: u64,
    count_mismatches: u64,
    acks: Vec<Ack>,
    setups: Setups,
}

impl Session<'_> {
    /// One round trip through the supervisor; returns its time (µs).
    fn feed(&mut self, tracer: Option<&mut Tracer>) -> f64 {
        let seq = self.seq;
        let r = self.r;
        let cap = r.fed(seq).1;
        let sup = &mut self.sup.0;
        let (outcome, us) = match tracer {
            Some(t) => {
                let (o, span) = t.span("supervise.round_trip", seq, || sup.feed_slot(seq, cap));
                (o, t.us(span))
            }
            None => {
                let t0 = Instant::now();
                let o = sup.feed_slot(seq, cap);
                (o, t0.elapsed().as_secs_f64() * 1e6)
            }
        };
        match outcome {
            SlotOutcome::Acked(ack) => {
                self.behind.push((seq, ack.produced));
                self.acks.push(ack);
            }
            SlotOutcome::Lost(_) => {
                self.lost += 1;
                self.behind.push((seq, 0));
            }
        }
        self.seq += 1;
        us
    }

    /// Check the reference's records for `seq` against truth and against
    /// the count the child acknowledged.
    fn check(&mut self, seq: u64, produced: u64, recs: &[TelemetryRecord]) {
        if recs.len() as u64 != produced {
            self.count_mismatches += 1;
        }
        if let (Some(idx), _) = self.r.fed(seq) {
            self.tally.check(&self.r.truth[idx], recs);
            self.digests.note(idx, recs);
        }
    }

    /// Bring the reference up to the child, untimed.
    fn catch_up(&mut self) {
        for (seq, produced) in std::mem::take(&mut self.behind) {
            let r = self.r;
            let recs = self.reference.feed(r.fed(seq).1);
            self.check(seq, produced, &recs);
        }
    }

    /// Round-trip times (µs) of `seconds` of feeding.
    fn window(&mut self, seconds: f64, args: &Args) -> io::Result<Vec<f64>> {
        let mut lat = Vec::new();
        let mut busy = 0.0;
        while busy < seconds * 1e6 || lat.is_empty() {
            let us = self.feed(None);
            busy += us;
            lat.push(us);
            if self.setups.due(busy) {
                self.set_up_again(args)?;
            }
        }
        while self.setups.owed() {
            self.set_up_again(args)?;
        }
        Ok(lat)
    }

    /// A throwaway repeat of the run's set-up (a second supervisor and
    /// child), timed, then finished.
    fn set_up_again(&mut self, args: &Args) -> io::Result<()> {
        let dir = args.run_dir(&format!("child{}", self.setups.times().len()));
        let pci = self.r.pci();
        drop(self.setups.time(|| start(&dir, pci))?);
        Ok(())
    }
}

/// Run `msg_supervised`.
pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    let pool = if args.tiny { POOL_TINY } else { POOL };
    let cell = CellConfig::srsran_n41();
    let tti_us = cell.slot_s() * 1e6;
    let load = CellLoad {
        cell,
        n_ues: N_UES,
        rate_bps: UE_RATE_BPS,
        warm: WARM,
        pool,
        iq: false,
    };
    let r = render(load, args.seed);
    let rss0 = rss_mb();
    let window_s = args.seconds * if args.trace { UNTRACED_SHARE } else { 1.0 };
    let mut setups = Setups::new(window_s);
    let sup = setups.time(|| start(&args.run_dir("child0"), r.pci()))?;
    let writer = JournalWriter::spawn();
    let mut s = Session {
        r: &r,
        sup,
        reference: MessageReference::open(&args.run_dir("reference"), r.pci(), &writer)?,
        behind: Vec::new(),
        seq: 0,
        tally: Tally::default(),
        digests: args.digests(),
        lost: 0,
        count_mismatches: 0,
        acks: Vec::new(),
        setups,
    };
    while s.seq < WARM as u64 {
        s.feed(None);
    }
    s.catch_up();
    let tracked = s.acks.last().map_or(0, |a| a.tracked.len());
    report.require(tracked == N_UES, || {
        format!("warm-up tracked {tracked} of {N_UES} UEs")
    });
    let timed_from = s.seq;
    let lat = s.window(window_s, args)?;
    s.catch_up();
    let mut attempted = lat.len() as u64;
    if args.trace {
        attempted += traced(&mut s, &lat, args, report);
    }
    let mem_mb = rss_mb() - rss0;

    // Per-UE bits over the timed slots and over the whole run, from the
    // child and from the reference.
    let ranges = vec![(timed_from, s.seq), (0, s.seq)];
    let reply = s.sup.0.request_report(ranges.clone());
    let ref_scope = s.reference.durable.scope();
    let expected: Vec<(u16, Vec<u64>)> = ref_scope
        .tracked_rntis()
        .into_iter()
        .map(|rnti| {
            let bits = ranges
                .iter()
                .map(|&(a, b)| ref_scope.estimated_bits(rnti, a..b))
                .collect();
            (rnti.0, bits)
        })
        .collect();
    let got: Option<Vec<(u16, Vec<u64>)>> = reply
        .as_ref()
        .map(|rep| rep.per_ue.iter().map(|(r, b)| (r.0, b.clone())).collect());
    report.require(got.as_ref() == Some(&expected), || {
        format!("child per-UE bits {got:?} differ from the reference's {expected:?}")
    });
    let below_full = ref_scope.stats.slots - ref_scope.stats.slots_at_rung[LoadRung::Full as usize];
    let stats = s.sup.0.stats();
    let finished = s.sup.0.finish();
    report.require(finished.is_some(), || {
        "the child did not finish cleanly".into()
    });
    report.require(stats.hangs_detected + stats.crashes_detected == 0, || {
        format!(
            "{} hangs and {} crashes",
            stats.hangs_detected, stats.crashes_detected
        )
    });
    report.require(s.count_mismatches == 0, || {
        format!(
            "Ack.produced differed from the reference on {} slots",
            s.count_mismatches
        )
    });

    report.set_end_to_end(&lat, s.setups.times());
    report.info("latency_samples", lat.len());
    report.info("setup_samples", s.setups.times().len());
    report.info("timed_slots", attempted);
    report.info("pool_slots", r.pool.len());
    report.info(
        "tti_miss_ratio",
        lat.iter().filter(|us| **us > tti_us).count() as f64 / lat.len() as f64,
    );
    report.info("mem_mb", mem_mb);
    let verdict = Verdict {
        attempted,
        fed: s.seq,
        lost: s.lost,
        below_full,
        tally: s.tally,
    };
    verdict.conclude(&mut s.digests, report)
}

/// The traced phase: each round trip inside a span, then the reference
/// (child-equivalent durable session, bare scope, registry-off scope and
/// decoder replay) on the same capture. Returns the slots fed.
fn traced(s: &mut Session, base: &[f64], args: &Args, report: &mut Report) -> u64 {
    let mut tracer = Tracer::default();
    let mut counts = DecoderCounts::default();
    let mut wire_bytes = 0usize;
    let mut lag = 0u64;
    let acks_from = s.acks.len();
    s.reference.durable.flush_barrier();
    let journal_from = (s.reference.journal_bytes(), s.reference.slots);
    let start = Instant::now();
    let budget = args.seconds * (1.0 - UNTRACED_SHARE);
    while start.elapsed().as_secs_f64() < budget || counts.slots == 0 {
        let seq = s.seq;
        s.feed(Some(&mut tracer));
        let (_, produced) = s.behind.pop().expect("fed above");
        let r = s.r;
        let cap = r.fed(seq).1;
        let recs = s.reference.feed_traced(&mut tracer, seq, cap, &mut counts);
        s.check(seq, produced, &recs);
        let msg = WireMsg::Slot {
            seq,
            capture: cap.clone(),
        };
        wire_bytes += serde_json::to_string(&msg).map_or(0, |j| j.len() + 1);
        if let Some(ack) = s.acks.last() {
            wire_bytes +=
                serde_json::to_string(&ChildMsg::Ack(ack.clone())).map_or(0, |j| j.len() + 1);
        }
    }
    for ack in &s.acks[acks_from..] {
        lag += ack.watermark.saturating_sub(ack.durable);
    }
    s.reference.durable.flush_barrier();
    let slots = counts.slots as f64;
    let per_slot = |name: &str| tracer.total_us(name) / slots;
    let rt = per_slot("supervise.round_trip");
    let persist = per_slot("persist.process");
    let scope = per_slot("scope.process");
    let journal_bytes = s.reference.journal_bytes() - journal_from.0;
    let journal_slots = s.reference.slots - journal_from.1;
    report.set("supervise.round_trip_us", rt);
    report.set("supervise.ipc_us", rt - persist);
    report.set("supervise.wire_bytes_per_slot", wire_bytes as f64 / slots);
    report.set("persist.journal_us", persist - scope);
    report.set(
        "persist.bytes_per_slot",
        journal_bytes as f64 / journal_slots as f64,
    );
    report.set(
        "persist.durable_lag_slots",
        lag as f64 / (s.acks.len() - acks_from) as f64,
    );
    report.set(
        "scope.self_us",
        scope - per_slot("decoder.common") - per_slot("decoder.ue"),
    );
    report.set("decoder.common_us", per_slot("decoder.common"));
    report.set("decoder.ue_us", per_slot("decoder.ue"));
    report.set("metrics.cost_us", scope - per_slot("scope.process_off"));
    report.set("trace.slot_us", rt);
    report.set("trace.overhead_pct", (rt / mean(base) - 1.0) * 100.0);
    counts.report(report);
    report.not_on_path(&["ofdm.", "decoder.extract", "polar.", "fleet."]);
    counts.require_agreement(report);
    report.info("traced_slots", counts.slots);
    report.info("untraced_slots", base.len());
    args.write_trace(&tracer);
    counts.slots
}
