//! perfbench — the repository benchmark: the sniffer alone, fed captures
//! rendered before any clock starts, timed end to end (untraced runs) and
//! layer by layer (traced runs), with every reported DCI checked against
//! the gNB's truth. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload iq_light --seed 1 --seconds 27 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it holds the run's metadata and correctness figures. The exit code is
//! non-zero when any correctness check fails.

mod fleet;
mod iq;
mod layers;
mod oracle;
mod render;
mod report;
mod supervised;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. A set-up takes 0.5 to
/// 15 ms, and single ones scatter over a factor of several with the host's
/// disk and scheduler, so many are timed.
const SETUPS: usize = 101;

/// Set-up times of one run: the set-up of the system the run measures,
/// then repeats spread over the measured window. The host's speed drifts
/// over seconds (README.md, "Host noise"); spread out, the repeats see the
/// same host as the slots they are reported with.
pub struct Setups {
    times_s: Vec<f64>,
    every_us: f64,
}

impl Setups {
    /// Repeats spaced evenly over `window_s` seconds of measured time.
    pub fn new(window_s: f64) -> Setups {
        Setups {
            times_s: Vec::with_capacity(SETUPS),
            every_us: window_s * 1e6 / SETUPS as f64,
        }
    }

    /// Time one set-up.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = set_up();
        self.times_s.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Whether a repeat is due after `busy_us` of measured time.
    pub fn due(&self, busy_us: f64) -> bool {
        self.times_s.len() < SETUPS && busy_us >= self.times_s.len() as f64 * self.every_us
    }

    /// Whether the run still owes repeats (a window shorter than planned).
    pub fn owed(&self) -> bool {
        self.times_s.len() < SETUPS
    }

    /// The times (s).
    pub fn times(&self) -> &[f64] {
        &self.times_s
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than end-to-end.
    pub trace: bool,
    /// Small inputs for the smoke test.
    pub tiny: bool,
    /// Working directory for journals, digests and traces.
    pub work: PathBuf,
    /// Hash of this executable: stored DCI digests are compared only
    /// between runs of the same build.
    pub build: u64,
}

impl Args {
    /// Size label used in digest file names.
    pub fn size(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else {
            "full"
        }
    }

    /// The DCI digests of this (workload, size, seed, build).
    pub fn digests(&self) -> oracle::DigestLog {
        oracle::DigestLog::new(
            &self.work.join("digests"),
            &self.workload,
            self.size(),
            self.seed,
            self.build,
        )
    }

    /// Keep a traced run's spans next to the build, one JSON line each.
    pub fn write_trace(&self, tracer: &trace::Tracer) {
        let name = format!("{}-{}-{}.jsonl", self.workload, self.size(), self.seed);
        let path = self.work.join("traces").join(name);
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }

    /// A fresh directory under the work dir for this run.
    pub fn run_dir(&self, what: &str) -> PathBuf {
        self.work
            .join("runs")
            .join(std::process::id().to_string())
            .join(what)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let work = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench-work");
    let exe = std::env::current_exe().and_then(std::fs::read);
    let build = oracle::fnv1a(exe.map_err(|e| format!("reading this executable: {e}"))?);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        work,
        build,
    })
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(supervised::CHILD_FLAG) {
        return supervised::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.info("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", args.trace);
    report.info("size", args.size());
    report.info(
        "host_nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.info("host_rustc", rustc_version());
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "iq_light" => iq::run(&iq::LIGHT, &args, &mut report),
        "iq_crowded" => iq::run(&iq::CROWDED, &args, &mut report),
        "msg_fleet" => fleet::run(&args, &mut report),
        "msg_supervised" => supervised::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(args.work.join("runs").join(std::process::id().to_string()));
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    report.info("wall_s", started.elapsed().as_secs_f64());
    let correct = report.print(if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    });
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
