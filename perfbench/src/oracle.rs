//! Correctness oracles: reported telemetry against the gNB truth of the
//! same slot, and the DCI set of a seed against the one an earlier run of
//! the same seed reported.

use crate::report::Report;
use gnb_sim::{Gnb, SlotOutput};
use nr_phy::dci::{time_alloc, Dci, DciFormat};
use nr_phy::types::RntiType;
use nrscope::decoder::DecodedDci;
use nrscope::TelemetryRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What must agree for a reported DCI to match a transmitted one: slot
/// (implied by the pool index it is compared under), RNTI, first CCE,
/// aggregation level, format and every grant field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DciKey {
    rnti: u16,
    cce: usize,
    level: usize,
    downlink: bool,
    prb_start: usize,
    prb_len: usize,
    symbol_start: usize,
    symbol_len: usize,
    mcs: u8,
    ndi: u8,
    rv: u8,
    harq_id: u8,
}

impl DciKey {
    /// Key of a telemetry record.
    pub fn of_record(r: &TelemetryRecord) -> DciKey {
        DciKey {
            rnti: r.rnti.0,
            cce: r.cce_start,
            level: r.level.cces(),
            downlink: r.format == DciFormat::Dl1_1,
            prb_start: r.prb_start,
            prb_len: r.prb_len,
            symbol_start: r.symbol_start,
            symbol_len: r.symbol_len,
            mcs: r.mcs,
            ndi: r.ndi,
            rv: r.rv,
            harq_id: r.harq_id,
        }
    }

    /// The (RNTI, CCE, level) part, which is all a replayed decoder call
    /// shares with a record before the scope translates the grant.
    pub fn position(&self) -> (u16, usize, usize) {
        (self.rnti, self.cce, self.level)
    }
}

/// (RNTI, CCE, level) of the C-RNTI DCIs among a replayed decoder call's
/// output — the ones the scope turns into telemetry records.
pub fn c_rnti_positions(decoded: &[DecodedDci]) -> Vec<(u16, usize, usize)> {
    let mut out: Vec<_> = decoded
        .iter()
        .filter(|d| d.rnti_type == RntiType::C)
        .map(|d| (d.rnti.0, d.cce_start, d.level.cces()))
        .collect();
    out.sort_unstable();
    out
}

/// (RNTI, CCE, level) of a slot's records, sorted.
pub fn record_positions(records: &[TelemetryRecord]) -> Vec<(u16, usize, usize)> {
    let mut out: Vec<_> = records
        .iter()
        .map(|r| DciKey::of_record(r).position())
        .collect();
    out.sort_unstable();
    out
}

/// The C-RNTI DCIs the gNB logged for the slot just stepped: grant fields
/// from the truth log, joined with the transmitted candidate's CCE and
/// aggregation level. The time-domain allocation is the row the gNB put
/// in the DCI: its truth log records uplink grants from symbol 0, which
/// no row it transmits can express (README.md, "Known truth-log gap").
/// Panics if the log and the air disagree on anything else, which would
/// be a simulator bug rather than a sniffer one.
pub fn truth_keys(gnb: &Gnb, out: &SlotOutput) -> Vec<DciKey> {
    let sizing = gnb.sizing();
    let mut keys: Vec<DciKey> = gnb
        .truth()
        .in_slot(out.slot)
        .filter(|t| t.rnti_type == RntiType::C)
        .map(|t| {
            let tx = out
                .dcis
                .iter()
                .find(|d| d.rnti == t.rnti && d.alloc == t.alloc)
                .expect("every logged grant was transmitted");
            let a = &t.alloc;
            let sent = Dci::unpack(&tx.payload_bits, &sizing).expect("the gNB packs valid DCIs");
            let (symbol_start, symbol_len) = time_alloc(sent.t_alloc);
            DciKey {
                rnti: t.rnti.0,
                cce: tx.cce_start,
                level: tx.level.cces(),
                downlink: a.format == DciFormat::Dl1_1,
                prb_start: a.prb_start,
                prb_len: a.prb_len,
                symbol_start,
                symbol_len,
                mcs: a.mcs,
                ndi: a.ndi,
                rv: a.rv,
                harq_id: a.harq_id,
            }
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Running comparison of reported records against truth.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Truth DCIs of the slots checked.
    pub truth: u64,
    /// Records reported in those slots.
    pub reported: u64,
    /// Records that matched a distinct truth DCI.
    pub matched: u64,
    /// Slots with at least one record matching no truth DCI.
    pub false_slots: u64,
}

impl Tally {
    /// Compare one slot's records with its truth (a multiset match).
    pub fn check(&mut self, truth: &[DciKey], records: &[TelemetryRecord]) {
        let mut left = truth.to_vec();
        let mut unmatched = 0u64;
        for r in records {
            let key = DciKey::of_record(r);
            match left.iter().position(|t| *t == key) {
                Some(i) => {
                    left.swap_remove(i);
                }
                None => unmatched += 1,
            }
        }
        self.truth += truth.len() as u64;
        self.reported += records.len() as u64;
        self.matched += records.len() as u64 - unmatched;
        if unmatched > 0 {
            self.false_slots += 1;
        }
    }

    /// Truth DCIs never reported, over truth DCIs.
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.truth - self.matched, self.truth)
    }

    /// Reported records matching no truth DCI, over reported records.
    pub fn false_ratio(&self) -> f64 {
        ratio(self.reported - self.matched, self.reported)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A run's correctness figures, turned into report lines and checks.
pub struct Verdict {
    /// Slots fed in the measured windows.
    pub attempted: u64,
    /// Slots fed in all, warm-up included.
    pub fed: u64,
    /// Slots fed but not processed (sheds, supervisor losses, layout
    /// mismatches, drops).
    pub lost: u64,
    /// Slots processed below `LoadRung::Full`.
    pub below_full: u64,
    /// Records against truth.
    pub tally: Tally,
}

impl Verdict {
    /// Report the ratios and fail the run on a false DCI, a lost slot, a
    /// slot below full search, or a DCI set that differs from an earlier
    /// run of the same seed.
    pub fn conclude(&self, digests: &mut DigestLog, report: &mut Report) -> std::io::Result<()> {
        let t = &self.tally;
        report.info("slot_loss_ratio", self.lost as f64 / self.fed.max(1) as f64);
        report.info("dci_miss_ratio", t.miss_ratio());
        report.info("dci_false_ratio", t.false_ratio());
        report.info("truth_dcis", t.truth);
        report.info("reported_dcis", t.reported);
        report.attempted = self.attempted;
        report.failed = self.lost + t.false_slots;
        report.require(self.attempted > 0, || "no slot was timed".into());
        report.require(t.false_slots == 0, || {
            format!("{} records match no gNB truth DCI", t.reported - t.matched)
        });
        report.require(self.lost == 0, || format!("{} slots lost", self.lost));
        report.require(self.below_full == 0, || {
            format!("{} slots ran below LoadRung::Full", self.below_full)
        });
        let mismatches = digests.compare_and_store()?;
        report.require(mismatches == 0, || {
            format!("{mismatches} pool slots decoded differently from an earlier run of this seed")
        });
        Ok(())
    }
}

/// The DCI set a run reported on its first pass over the pool, as one
/// hash per pool slot. Kept in the work directory, so a later run of the
/// same workload, size and seed is checked against it.
pub struct DigestLog {
    path: PathBuf,
    digests: BTreeMap<usize, u64>,
}

impl DigestLog {
    /// A log for one (workload, size, seed, build) under `dir`.
    pub fn new(dir: &Path, workload: &str, size: &str, seed: u64, build: u64) -> DigestLog {
        DigestLog {
            path: dir.join(format!("{workload}-{size}-{seed}-{build:016x}.digest")),
            digests: BTreeMap::new(),
        }
    }

    /// Note the records of pool slot `idx`, unless it was already noted.
    pub fn note(&mut self, idx: usize, records: &[TelemetryRecord]) {
        self.digests
            .entry(idx)
            .or_insert_with(|| digest(records.iter().map(DciKey::of_record)));
    }

    /// Compare with the digests an earlier run of the same seed stored,
    /// over the pool slots both runs reached, then store the union.
    /// Returns how many pool slots disagree.
    pub fn compare_and_store(&mut self) -> std::io::Result<u64> {
        let mut mismatches = 0;
        if let Ok(text) = std::fs::read_to_string(&self.path) {
            for line in text.lines() {
                let mut it = line.split_whitespace();
                let (Some(idx), Some(hash)) = (it.next(), it.next()) else {
                    continue;
                };
                let (Ok(idx), Ok(hash)) = (idx.parse::<usize>(), hash.parse::<u64>()) else {
                    continue;
                };
                match self.digests.get(&idx) {
                    Some(h) if *h != hash => mismatches += 1,
                    Some(_) => {}
                    None => {
                        self.digests.insert(idx, hash);
                    }
                }
            }
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let body: String = self
            .digests
            .iter()
            .map(|(i, h)| format!("{i} {h}\n"))
            .collect();
        // One temporary file per process: runs of the same seed that end
        // together must not rename each other's file away.
        let tmp = self
            .path
            .with_extension(format!("{}.tmp", std::process::id()));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(mismatches)
    }
}

/// FNV-1a: stable across runs and toolchains.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash of a slot's sorted keys.
fn digest(keys: impl Iterator<Item = DciKey>) -> u64 {
    let mut keys: Vec<DciKey> = keys.collect();
    keys.sort_unstable();
    let mut words = Vec::with_capacity(keys.len() * 12);
    for k in keys {
        for v in [
            k.rnti as u64,
            k.cce as u64,
            k.level as u64,
            k.downlink as u64,
            k.prb_start as u64,
            k.prb_len as u64,
            k.symbol_start as u64,
            k.symbol_len as u64,
            k.mcs as u64,
            k.ndi as u64,
            k.rv as u64,
            k.harq_id as u64,
        ] {
            words.push(v);
        }
    }
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}
