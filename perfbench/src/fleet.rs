//! `msg_fleet`: four durable cells at message fidelity in one `Fleet`,
//! with the default workers and the shared group-commit journal. Each
//! round feeds a fixed backlog per cell and ends at `quiesce`.

use crate::layers::{DecoderCounts, MessageReference};
use crate::oracle::{DigestLog, Tally, Verdict};
use crate::render::{render, CellLoad, Rendered};
use crate::report::Report;
use crate::trace::{rss_mb, Tracer};
use crate::{Args, Setups};
use gnb_sim::CellConfig;
use nrscope::{
    Capture, FeedOutcome, Fleet, FleetConfig, JournalWriter, LoadRung, PersistConfig, ScopeConfig,
    ShardSpec, TelemetryRecord,
};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// UEs per cell.
const N_UES: usize = 4;
/// Per-UE offered rate: CBR traffic the cells carry with room to spare.
const UE_RATE_BPS: f64 = 1e6;
/// Message warm-up slots per cell (every UE attaches).
const WARM: usize = 400;
/// Pooled slots per cell, cycled by the loops.
const POOL: usize = 2000;
const POOL_TINY: usize = 200;
/// Slots fed per cell per round; also the shard queue depth, so nothing
/// is shed.
const ROUND: usize = 256;
/// Share of a traced run spent untraced (the overhead reference).
const UNTRACED_SHARE: f64 = 0.4;
/// Traced runs feed every this many rounds' captures to the single-thread
/// reference sessions; the rest only to the fleet. At 150k+ slots/s, a
/// reference and its spans for every slot would outgrow the run.
const REFERENCE_EVERY: usize = 32;
/// Bound on one `quiesce`; a round that needs longer is a failure.
const QUIESCE: Duration = Duration::from_secs(60);

fn cells() -> [CellConfig; 4] {
    [
        CellConfig::srsran_n41(),
        CellConfig::mosolab_n48(),
        CellConfig::amarisoft_n78(),
        CellConfig::tmobile_n25(),
    ]
}

fn new_fleet(dir: &Path, rendered: &[Rendered]) -> io::Result<Fleet> {
    let specs = rendered
        .iter()
        .enumerate()
        .map(|(i, r)| {
            ShardSpec::durable(
                r.cell.name.clone(),
                Some(r.pci()),
                ScopeConfig::default(),
                PersistConfig::new(dir.join(format!("cell{i}"))),
            )
        })
        .collect();
    let cfg = FleetConfig {
        shard_queue_depth: ROUND,
        ..FleetConfig::default()
    };
    Fleet::new(cfg, specs)
}

/// The fleet under test and the oracle's running state.
struct Run<'a> {
    cells: &'a [Rendered],
    fleet: Fleet,
    /// Next sequence number per cell (identical across cells).
    seq: u64,
    /// Records of each cell already checked.
    checked: Vec<usize>,
    tally: Tally,
    digests: DigestLog,
    sheds: u64,
    feeds_traced: u64,
    queue_max: usize,
    latencies_us: Vec<f64>,
    /// Of those, slots slower than their cell's TTI.
    tti_misses: u64,
}

impl Run<'_> {
    /// Feed `n` slots to every cell, interleaved, then quiesce. Returns
    /// the round's wall time (µs). The captures are copied for `feed`, which
    /// takes them by value, before the clock starts.
    fn round(&mut self, n: usize, mut tracer: Option<&mut Tracer>) -> io::Result<f64> {
        let from = self.seq;
        let backlog: Vec<(usize, u64, Capture)> = (from..from + n as u64)
            .flat_map(|seq| (0..self.cells.len()).map(move |c| (c, seq)))
            .map(|(c, seq)| (c, seq, self.cells[c].fed(seq).1.clone()))
            .collect();
        let t0 = Instant::now();
        let fleet = &self.fleet;
        let feed = || {
            let outcomes = backlog
                .into_iter()
                .map(|(c, seq, cap)| fleet.feed(c, seq, cap));
            outcomes.filter(|o| *o == FeedOutcome::ShedOldest).count() as u64
        };
        self.sheds += match tracer.as_deref_mut() {
            Some(t) => t.span("fleet.feed", from, feed).0,
            None => feed(),
        };
        self.seq += n as u64;
        if tracer.is_some() {
            self.feeds_traced += (n * self.cells.len()) as u64;
            for c in 0..self.cells.len() {
                self.queue_max = self.queue_max.max(self.fleet.shard_status(c).queue_len);
            }
        }
        if !self.fleet.quiesce(QUIESCE) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "fleet did not quiesce",
            ));
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        for c in 0..self.cells.len() {
            let tti_us = self.cells[c].cell.slot_s() * 1e6;
            for ns in self.fleet.take_latencies(c) {
                let us = ns as f64 / 1e3;
                self.tti_misses += u64::from(us > tti_us);
                self.latencies_us.push(us);
            }
        }
        self.check(from)?;
        Ok(us)
    }

    /// Check every cell's records from slot `from` on against truth.
    fn check(&mut self, from: u64) -> io::Result<()> {
        for c in 0..self.cells.len() {
            let done = self.checked[c];
            let recs: Vec<TelemetryRecord> = self
                .fleet
                .with_scope(c, |s| s.records()[done..].to_vec())
                .ok_or_else(|| io::Error::other("a shard lost its engine"))?;
            self.checked[c] += recs.len();
            let mut at = 0;
            for seq in from..self.seq {
                let end = at + recs[at..].iter().take_while(|r| r.slot == seq).count();
                if let (Some(idx), _) = self.cells[c].fed(seq) {
                    let pool = self.cells[c].pool.len();
                    self.tally.check(&self.cells[c].truth[idx], &recs[at..end]);
                    self.digests.note(c * pool + idx, &recs[at..end]);
                }
                at = end;
            }
            if at != recs.len() {
                return Err(io::Error::other("records outside the fed slots"));
            }
        }
        Ok(())
    }

    /// Rounds until `seconds` of round time; returns each round's µs.
    fn window(&mut self, seconds: f64, round: usize) -> io::Result<Vec<f64>> {
        let mut rounds = Vec::new();
        let mut busy = 0.0;
        while busy < seconds * 1e6 || rounds.is_empty() {
            let us = self.round(round, None)?;
            busy += us;
            rounds.push(us);
        }
        Ok(rounds)
    }
}

/// Run `msg_fleet`.
pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    let (pool, round) = if args.tiny {
        (POOL_TINY, ROUND / 4)
    } else {
        (POOL, ROUND)
    };
    let rendered: Vec<Rendered> = cells()
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            let load = CellLoad {
                cell,
                n_ues: N_UES,
                rate_bps: UE_RATE_BPS,
                warm: WARM,
                pool,
                iq: false,
            };
            render(load, args.seed.wrapping_add(i as u64))
        })
        .collect();
    let rss0 = rss_mb();
    // Durable set-up writes to disk: let writes an earlier run left in
    // flight drain first, so they are not timed as this run's set-up.
    let _ = std::process::Command::new("sync").status();
    // The repeats run back to back before any slot: beside a live fleet,
    // even a quiesced one, a repeat contends with its workers and journal
    // writer (spread between rounds, repeats measured about twice as slow
    // and twice as scattered).
    let mut setups = Setups::new(0.0);
    let fleet = setups.time(|| new_fleet(&args.run_dir("fleet0"), &rendered))?;
    while setups.owed() {
        let dir = args.run_dir(&format!("fleet{}", setups.times().len()));
        setups.time(|| new_fleet(&dir, &rendered))?.finish();
        std::fs::remove_dir_all(&dir)?;
    }
    let mut run = Run {
        cells: &rendered,
        fleet,
        seq: 0,
        checked: vec![0; rendered.len()],
        tally: Tally::default(),
        digests: args.digests(),
        sheds: 0,
        feeds_traced: 0,
        queue_max: 0,
        latencies_us: Vec::new(),
        tti_misses: 0,
    };
    let mut warm = WARM;
    while warm > 0 {
        let n = warm.min(round);
        run.round(n, None)?;
        warm -= n;
    }
    run.latencies_us.clear();
    run.tti_misses = 0;
    for c in 0..rendered.len() {
        let tracked = run
            .fleet
            .with_scope(c, |s| s.tracked_rntis().len())
            .unwrap_or(0);
        report.require(tracked == N_UES, || {
            format!("cell {c}: warm-up tracked {tracked} of {N_UES} UEs")
        });
    }
    let share = if args.trace { UNTRACED_SHARE } else { 1.0 };
    let rounds = run.window(args.seconds * share, round)?;
    let lat = std::mem::take(&mut run.latencies_us);
    let tti_misses = run.tti_misses;
    let timed = (rounds.len() * round * rendered.len()) as u64;
    let mut attempted = timed;
    if args.trace {
        attempted += traced(&mut run, &rounds, round, args, report)?;
    }
    let mem_mb = rss_mb() - rss0;
    let mut below_full = 0;
    for c in 0..rendered.len() {
        below_full += run
            .fleet
            .with_scope(c, |s| {
                s.stats.slots - s.stats.slots_at_rung[LoadRung::Full as usize]
            })
            .unwrap_or(u64::MAX / 8);
    }
    let snapshot = run.fleet.finish();
    let faults: u64 = snapshot
        .cells
        .iter()
        .map(|c| c.panics + c.wedges + c.restarts + c.hangs_detected)
        .sum();
    report.require(faults == 0, || format!("{faults} shard faults"));

    report.set_end_to_end(&lat, setups.times());
    // The loop is a drained backlog, not a closed loop: throughput is the
    // slots over the rounds' wall time.
    report.set(
        "slots_per_s",
        timed as f64 / (rounds.iter().sum::<f64>() / 1e6),
    );
    report.info("latency_samples", lat.len());
    report.info("tti_miss_ratio", tti_misses as f64 / lat.len() as f64);
    report.info("setup_samples", setups.times().len());
    report.info("rounds", rounds.len());
    report.info("round_slots", round * rendered.len());
    report.info("timed_slots", attempted);
    report.info("pool_slots", pool * rendered.len());
    report.info("mem_mb", mem_mb);
    let verdict = Verdict {
        attempted,
        fed: run.seq * rendered.len() as u64,
        lost: run.sheds,
        below_full,
        tally: run.tally,
    };
    verdict.conclude(&mut run.digests, report)
}

/// The traced phase: each round's `Fleet::feed` calls inside a span;
/// after every `REFERENCE_EVERY`th round, the same captures through one
/// durable session per cell on this thread (fresh ones, fed the warm-up),
/// plus the bare and registry-off scopes and the decoder replay. Returns
/// the slots fed to the fleet.
fn traced(
    run: &mut Run,
    base: &[f64],
    round: usize,
    args: &Args,
    report: &mut Report,
) -> io::Result<u64> {
    let writer = JournalWriter::spawn();
    let mut refs = Vec::with_capacity(run.cells.len());
    for (c, r) in run.cells.iter().enumerate() {
        let mut m =
            MessageReference::open(&args.run_dir(&format!("reference{c}")), r.pci(), &writer)?;
        for cap in &r.warm {
            m.feed(cap);
        }
        m.durable.flush_barrier();
        refs.push(m);
    }
    let before: Vec<(u64, u64, u64)> = refs
        .iter()
        .map(|m| (m.journal_bytes(), m.lag_sum, m.slots))
        .collect();
    let mut tracer = Tracer::default();
    let mut counts = DecoderCounts::default();
    let (mut fleet_us, mut sampled_us) = (0.0, 0.0);
    let mut rounds = 0usize;
    let start = Instant::now();
    let budget = args.seconds * (1.0 - UNTRACED_SHARE);
    while start.elapsed().as_secs_f64() < budget || rounds == 0 {
        let from = run.seq;
        let us = run.round(round, Some(&mut tracer))?;
        fleet_us += us;
        rounds += 1;
        if !(rounds - 1).is_multiple_of(REFERENCE_EVERY) {
            continue;
        }
        sampled_us += us;
        for (c, m) in refs.iter_mut().enumerate() {
            for seq in from..run.seq {
                let cap = run.cells[c].fed(seq).1;
                m.feed_traced(&mut tracer, seq, cap, &mut counts);
            }
        }
    }
    let slots = counts.slots as f64;
    let per_slot = |name: &str| tracer.total_us(name) / slots;
    let persist = per_slot("persist.process");
    let scope = per_slot("scope.process");
    let (mut bytes, mut lag, mut ref_slots) = (0, 0, 0);
    for (m, b) in refs.iter_mut().zip(&before) {
        m.durable.flush_barrier();
        bytes += m.journal_bytes() - b.0;
        lag += m.lag_sum - b.1;
        ref_slots += m.slots - b.2;
    }
    report.set(
        "fleet.feed_us",
        tracer.total_us("fleet.feed") / run.feeds_traced as f64,
    );
    report.set("fleet.queue_max", run.queue_max as f64);
    report.set(
        "fleet.scaling",
        tracer.total_us("persist.process") / sampled_us,
    );
    report.set("persist.journal_us", persist - scope);
    report.set("persist.bytes_per_slot", bytes as f64 / ref_slots as f64);
    report.set("persist.durable_lag_slots", lag as f64 / ref_slots as f64);
    report.set(
        "scope.self_us",
        scope - per_slot("decoder.common") - per_slot("decoder.ue"),
    );
    report.set("decoder.common_us", per_slot("decoder.common"));
    report.set("decoder.ue_us", per_slot("decoder.ue"));
    report.set("metrics.cost_us", scope - per_slot("scope.process_off"));
    let slot_us = fleet_us / (rounds * round * run.cells.len()) as f64;
    let base_slot_us = base.iter().sum::<f64>() / (base.len() * round * run.cells.len()) as f64;
    report.set("trace.slot_us", slot_us);
    report.set("trace.overhead_pct", (slot_us / base_slot_us - 1.0) * 100.0);
    counts.report(report);
    report.not_on_path(&["ofdm.", "decoder.extract", "polar.", "supervise."]);
    counts.require_agreement(report);
    report.info("traced_rounds", rounds);
    report.info("untraced_rounds", base.len());
    args.write_trace(&tracer);
    Ok((rounds * round * run.cells.len()) as u64)
}
