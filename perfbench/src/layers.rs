//! Layer replay for the traced runs: the public functions of each layer,
//! called with the decoder context and hypotheses the scope itself used
//! for the slot, inside the benchmark's spans.

use crate::oracle::{c_rnti_positions, record_positions};
use crate::report::Report;
use crate::trace::Tracer;
use nr_phy::dci::DciFormat;
use nr_phy::ofdm::Ofdm;
use nr_phy::polar::PolarCode;
use nr_phy::types::Pci;
use nrscope::decoder::{
    decode_candidates_budgeted, decode_message_slot_budgeted, extract_all_candidates, DecodeWork,
    DecodedDci, DecoderContext, Hypotheses,
};
use nrscope::worker::SlotJob;
use nrscope::{
    Capture, JournalWriter, NrScope, ObservedSlot, PersistConfig, PersistentSession, ScopeConfig,
    StorageBackend, StorageFile, TelemetryRecord,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Decoder work seen by the replays of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecoderCounts {
    /// Slots replayed.
    pub slots: u64,
    /// Candidates scanned (the common pass scans every one).
    pub candidates: u64,
    /// UE-specific hypotheses tried.
    pub ue_hypotheses: u64,
    /// DCIs decoded, every RNTI class.
    pub decoded: u64,
    /// CRC-passing payloads rejected by validation.
    pub validation_rejects: u64,
    /// Replayed slots whose C-RNTI DCIs differ from the scope's records.
    mismatched_slots: u64,
    /// Sum of tracked UEs over the replayed slots.
    pub tracked: u64,
}

impl DecoderCounts {
    fn absorb(&mut self, work: &DecodeWork, decoded: usize) {
        self.slots += 1;
        self.candidates += work.candidates as u64;
        self.ue_hypotheses += work.ue_hypotheses as u64;
        self.decoded += decoded as u64;
        self.validation_rejects += work.validation_rejects as u64;
    }

    /// The layer-replay oracle: the replay must decode exactly the C-RNTI
    /// DCIs behind the scope's records for the slot.
    fn agree(&mut self, decoded: &[DecodedDci], records: &[TelemetryRecord]) {
        if c_rnti_positions(decoded) != record_positions(records) {
            self.mismatched_slots += 1;
        }
    }

    /// Fail the run if any replayed slot disagreed.
    pub fn require_agreement(&self, report: &mut Report) {
        report.require(self.mismatched_slots == 0, || {
            format!(
                "layer replay disagreed with the scope on {} slots",
                self.mismatched_slots
            )
        });
    }

    /// DCIs decoded over attempts: one common attempt per scanned
    /// candidate plus one per UE-specific hypothesis.
    fn yield_ratio(&self) -> f64 {
        let attempts = self.candidates + self.ue_hypotheses;
        if attempts == 0 {
            0.0
        } else {
            self.decoded as f64 / attempts as f64
        }
    }

    /// Mean per replayed slot.
    fn per_slot(&self, v: u64) -> f64 {
        v as f64 / self.slots.max(1) as f64
    }

    /// Report the decoder counts and the tracked-UE mean.
    pub fn report(&self, report: &mut Report) {
        report.set("decoder.candidates", self.per_slot(self.candidates));
        report.set("decoder.ue_hypotheses", self.per_slot(self.ue_hypotheses));
        report.set("decoder.yield", self.yield_ratio());
        report.set(
            "decoder.validation_rejects",
            self.per_slot(self.validation_rejects),
        );
        report.set("scope.tracked_ues", self.per_slot(self.tracked));
    }
}

/// The context with the UE-specific sizing removed: the decoder then runs
/// only the common pass, and the CRC-recovery filter still sees the
/// tracked C-RNTIs exactly as in the scope's own call.
fn common_only(ctx: &DecoderContext) -> DecoderContext {
    DecoderContext {
        ue_sizing: None,
        ..ctx.clone()
    }
}

fn ue_only(hyp: &Hypotheses) -> Hypotheses {
    Hypotheses {
        skip_common: true,
        ..hyp.clone()
    }
}

fn overlaps(d: &DecodedDci, cce: usize, cces: usize) -> bool {
    d.cce_start < cce + cces && cce < d.cce_start + d.level.cces()
}

/// Replay an IQ slot layer by layer: demodulation, candidate extraction,
/// then, candidate by candidate in the scope's own order and with its
/// overlap rule, the common pass and (where that decodes nothing) the
/// UE-specific pass. One candidate's polar codes, at the slot's real
/// sizes, are also built and decoded.
pub fn replay_iq(
    tracer: &mut Tracer,
    slot: u64,
    ofdm: &Ofdm,
    job: &SlotJob,
    records: &[TelemetryRecord],
    counts: &mut DecoderCounts,
) {
    let ObservedSlot::Iq { samples, .. } = &job.observed else {
        panic!("IQ replay of a message capture");
    };
    let (grid, _) = tracer.span("ofdm.demod", slot, || {
        ofdm.demodulate(samples, job.slot_in_frame)
    });
    let ctx = &job.ctx;
    let (cands, _) = tracer.span("decoder.extract", slot, || {
        extract_all_candidates(ctx, &grid, job.slot_in_frame)
    });
    let common_ctx = common_only(ctx);
    let ue_hyp = ue_only(&job.hyp);
    let mut decoded: Vec<DecodedDci> = Vec::new();
    let mut work = DecodeWork {
        candidates: cands.len(),
        ..DecodeWork::default()
    };
    for cand in &cands {
        if decoded
            .iter()
            .any(|d| overlaps(d, cand.cce_start, cand.level.cces()))
        {
            continue;
        }
        let one = std::slice::from_ref(cand);
        let ((mut got, wc), _) = tracer.span("decoder.common", slot, || {
            decode_candidates_budgeted(&common_ctx, one, &job.hyp, job.budget, None)
        });
        work.validation_rejects += wc.validation_rejects;
        if got.is_empty() {
            let ((ue, wu), _) = tracer.span("decoder.ue", slot, || {
                decode_candidates_budgeted(ctx, one, &ue_hyp, job.budget, None)
            });
            work.ue_hypotheses += wu.ue_hypotheses;
            work.validation_rejects += wu.validation_rejects;
            got = ue;
        }
        decoded.extend(got);
    }
    if let Some(c) = cands.get(slot as usize % cands.len().max(1)) {
        let formats = [DciFormat::Dl1_1, DciFormat::Ul0_1];
        let common_sizes = formats.map(|f| ctx.common_sizing.payload_bits(f));
        let ue_sizes = ctx.ue_sizing.map(|s| formats.map(|f| s.payload_bits(f)));
        let e = c.level.bits();
        for bits in common_sizes
            .into_iter()
            .chain(ue_sizes.into_iter().flatten())
        {
            let k = bits + 24;
            if k >= e {
                continue;
            }
            let (code, _) = tracer.span("polar.build", slot, || PolarCode::new(k, e));
            tracer.span("polar.sc", slot, || code.decode_sc(&c.llrs));
        }
    }
    counts.absorb(&work, decoded.len());
    counts.agree(&decoded, records);
}

/// Replay a message slot's decoder passes (common, then UE-specific over
/// the codewords the common pass did not claim).
pub fn replay_message(
    tracer: &mut Tracer,
    slot: u64,
    job: &SlotJob,
    records: &[TelemetryRecord],
    counts: &mut DecoderCounts,
) {
    let ObservedSlot::Message { dcis, .. } = &job.observed else {
        panic!("message replay of an IQ capture");
    };
    let common_ctx = common_only(&job.ctx);
    let ((common, wc), _) = tracer.span("decoder.common", slot, || {
        decode_message_slot_budgeted(&common_ctx, dcis, &job.hyp, job.budget, None)
    });
    let rest: Vec<_> = dcis
        .iter()
        .filter(|o| {
            !common
                .iter()
                .any(|d| d.cce_start == o.cce_start && d.level == o.level)
        })
        .cloned()
        .collect();
    let ue_hyp = ue_only(&job.hyp);
    let ((ue, wu), _) = tracer.span("decoder.ue", slot, || {
        decode_message_slot_budgeted(&job.ctx, &rest, &ue_hyp, job.budget, None)
    });
    let work = DecodeWork {
        candidates: wc.candidates,
        ue_hypotheses: wu.ue_hypotheses,
        validation_rejects: wc.validation_rejects + wu.validation_rejects,
        ..DecodeWork::default()
    };
    let mut decoded = common;
    decoded.extend(ue);
    counts.absorb(&work, decoded.len());
    counts.agree(&decoded, records);
}

/// The job a scope would build for `cap` right now (its decoder context
/// and hypotheses), or `None` for a drop marker or before the MIB.
pub fn job_for(scope: &NrScope, cap: &Capture) -> Option<SlotJob> {
    match cap {
        Capture::Slot(obs) => scope.slot_job(obs.clone()),
        Capture::Dropped(_) => None,
    }
}

/// A storage backend that counts the bytes appended to journals.
#[derive(Debug, Default)]
pub struct CountingBackend {
    journal_bytes: Arc<AtomicU64>,
}

impl CountingBackend {
    /// Bytes appended to journal files so far.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes.load(Relaxed)
    }
}

struct CountingFile {
    inner: std::fs::File,
    bytes: Arc<AtomicU64>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.inner, buf)?;
        self.bytes.fetch_add(buf.len() as u64, Relaxed);
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.inner.sync_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.inner.metadata()?.len())
    }
}

impl StorageBackend for CountingBackend {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        nrscope::RealBackend.create_dir_all(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let inner = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(CountingFile {
            inner,
            bytes: Arc::clone(&self.journal_bytes),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        nrscope::RealBackend.create(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        nrscope::RealBackend.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        nrscope::RealBackend.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        nrscope::RealBackend.sync_dir(dir)
    }
}

/// Single-threaded stand-ins for one cell of the system under test, fed
/// the same captures in the same order: the durable session a fleet shard
/// or the supervised child runs, a bare scope with the default registry,
/// and a bare scope with the registry off. Their time differences give
/// the journal and registry costs; the bare scope's replay gives the
/// decoder numbers; the durable session's records are the oracle's
/// reference for executors that report only counts.
pub struct MessageReference {
    /// The durable session (child-equivalent).
    pub durable: PersistentSession,
    backend: Arc<CountingBackend>,
    bare: NrScope,
    bare_off: NrScope,
    /// Slots fed.
    pub slots: u64,
    /// Sum of (watermark − durable watermark) after each slot.
    pub lag_sum: u64,
}

impl MessageReference {
    /// Open under `dir` (fresh), journalling through `writer`.
    pub fn open(dir: &Path, pci: Pci, writer: &JournalWriter) -> io::Result<MessageReference> {
        let backend = Arc::new(CountingBackend::default());
        let cfg = PersistConfig::new(dir).with_backend(backend.clone());
        let (durable, _) =
            PersistentSession::open_with_writer(cfg, ScopeConfig::default(), Some(pci), writer)?;
        let off = ScopeConfig {
            metrics_enabled: false,
            ..ScopeConfig::default()
        };
        Ok(MessageReference {
            durable,
            backend,
            bare: NrScope::new(ScopeConfig::default(), Some(pci)),
            bare_off: NrScope::new(off, Some(pci)),
            slots: 0,
            lag_sum: 0,
        })
    }

    /// Feed one capture untimed; returns the durable session's records.
    pub fn feed(&mut self, cap: &Capture) -> Vec<TelemetryRecord> {
        self.slots += 1;
        self.bare.process_capture(cap);
        self.bare_off.process_capture(cap);
        let recs = self.durable.process_capture(cap);
        self.lag_sum += self.lag();
        recs
    }

    /// Feed one capture inside spans (`persist.process`, `scope.process`,
    /// `scope.process_off`) and replay the bare scope's decoder. Returns
    /// the durable session's records; a replay or a bare scope that
    /// disagrees with them counts as a mismatched slot.
    pub fn feed_traced(
        &mut self,
        tracer: &mut Tracer,
        slot: u64,
        cap: &Capture,
        counts: &mut DecoderCounts,
    ) -> Vec<TelemetryRecord> {
        self.slots += 1;
        let (recs, _) = tracer.span("persist.process", slot, || {
            self.durable.process_capture(cap)
        });
        self.lag_sum += self.lag();
        let job = job_for(&self.bare, cap);
        let (bare_recs, _) = tracer.span("scope.process", slot, || self.bare.process_capture(cap));
        tracer.span("scope.process_off", slot, || {
            self.bare_off.process_capture(cap)
        });
        counts.tracked += self.bare.tracked_rntis().len() as u64;
        match job {
            Some(job) => replay_message(tracer, slot, &job, &bare_recs, counts),
            None => counts.agree(&[], &bare_recs),
        }
        if bare_recs != recs {
            counts.mismatched_slots += 1;
        }
        recs
    }

    fn lag(&self) -> u64 {
        self.durable
            .scope()
            .slot_watermark()
            .saturating_sub(self.durable.durable_watermark())
    }

    /// Journal bytes appended so far.
    pub fn journal_bytes(&self) -> u64 {
        self.backend.journal_bytes()
    }
}
