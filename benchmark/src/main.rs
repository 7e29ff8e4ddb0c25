//! The repository benchmark: one command that runs a workload, checks its
//! outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <soak|registry_sweep|differential|tomography> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant and prints the per-layer metrics. Before the result line the
//! command prints one self-describing record per metric and the digest of
//! each repetition's deterministic output. It exits non-zero when a check
//! fails, when repetitions of one seed disagree, or when the traced run
//! does not reproduce the untraced digest. See `benchmark/README.md`.

mod report;
#[cfg(test)]
mod selftest;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::{median, peak_rss_mib, record_line, result_line, Better, Metric, RecordContext};
use workloads::{input_sizes, prepare, Kind, Sizes};

/// The default seed and the held-out seed a gain claim must also hold on.
pub const DEFAULT_SEED: u64 = 2022;
pub const HELD_OUT_SEED: u64 = 7;

/// Set-ups per untraced run: at least `MIN_SETUPS`, then more until the
/// set-up loop has run `SETUP_SECONDS` or `MAX_SETUPS`; `setup_s` is their
/// median, so short set-ups get enough samples to be steady.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_SECONDS: f64 = 3.0;
/// Fewest measured repetitions per run, whatever `--seconds` says: the
/// digest comparison needs more than one.
const MIN_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// The checkout's revision when it is a git work tree, else `unknown`.
/// Git is kept from searching above the working directory, so a checkout
/// nested in some other work tree does not report that tree's revision.
fn revision() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a run (traced or not) hands back for printing.
pub struct RunResult {
    /// The metrics `BENCHMARK.json` declares for this mode: the result
    /// line carries exactly these.
    pub metrics: Vec<Metric>,
    /// Further per-layer figures of this workload, printed as records only.
    pub records: Vec<Metric>,
    pub sizes: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every deterministic-output digest the run saw, labelled.
    pub digests: Vec<(String, report::Digest)>,
    /// Human-readable reasons the run is not correct; empty when it is.
    pub problems: Vec<String>,
}

/// The untraced run: set the workload up several times, then repeat it
/// for `seconds` and report medians.
fn run_untraced(kind: Kind, seed: u64, seconds: f64, sizes: &Sizes) -> RunResult {
    let mut setups: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut prepared = None;
    let setup_started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setup_started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Drop the previous set-up first so peak memory holds one copy.
        drop(prepared.take());
        let (p, setup_s) = prepare(kind, seed, sizes);
        setups.push(setup_s);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");

    // One warm-up repetition (first-touch page faults, allocator growth)
    // is checked like the others but not timed. Peak memory is read right
    // after it: set-ups plus one run are what running the workload costs,
    // while later repetitions in the same process add allocator
    // fragmentation that varies from process to process.
    let warm_up = prepared.run();
    let rss = peak_rss_mib().unwrap_or(f64::NAN);
    let (mut attempted, mut failed) = (warm_up.attempted, warm_up.failed);
    let mut digests = vec![("warm_up".to_string(), warm_up.digest)];
    let started = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let outcome = prepared.run();
        rates.push(outcome.items as f64 / outcome.wall_s.max(1e-9));
        attempted += outcome.attempted;
        failed += outcome.failed;
        digests.push((format!("rep{}", rates.len()), outcome.digest));
    }
    let mut problems = Vec::new();
    if digests.iter().any(|(_, d)| *d != digests[0].1) {
        problems.push("repetitions of one seed produced different outputs".to_string());
    }
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s", Better::Lower, setups.len()),
        Metric::new(
            "items_per_s",
            median(&rates),
            "1/s",
            Better::Higher,
            rates.len(),
        ),
        Metric::new("peak_rss_mb", rss, "MiB", Better::Lower, 1),
    ];
    RunResult {
        metrics,
        records: Vec::new(),
        sizes: input_sizes(kind, sizes),
        attempted,
        failed,
        digests,
        problems,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::full();
    let result = if args.trace {
        trace::run_traced(args.kind, args.seed, args.seconds, &sizes)
    } else {
        run_untraced(args.kind, args.seed, args.seconds, &sizes)
    };

    let rev = revision();
    let ctx = RecordContext {
        workload: args.kind.name(),
        seed: args.seed,
        trace: args.trace,
        rev: &rev,
        nproc: workloads::nproc(),
        sizes: &result.sizes,
    };
    for metric in result.metrics.iter().chain(&result.records) {
        println!("{}", record_line(&ctx, metric));
        if metric.name == "items_per_s" {
            // The same figure under the workload's own name.
            let alias = Metric {
                name: args.kind.throughput_name().to_string(),
                ..metric.clone()
            };
            println!("{}", record_line(&ctx, &alias));
        }
    }
    let failed_frac = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "{}",
        record_line(
            &ctx,
            &Metric::new(
                "failed_frac",
                failed_frac,
                "ratio",
                Better::Lower,
                result.attempted as usize
            )
        )
    );
    for (label, digest) in &result.digests {
        println!(
            "{{\"digest\":\"{digest}\",\"of\":\"{label}\",\"workload\":\"{}\"}}",
            args.kind.name()
        );
    }
    for problem in &result.problems {
        eprintln!("benchmark: {}: {problem}", args.kind.name());
    }
    let correct = result.failed == 0 && result.problems.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            result.attempted.max(1),
            result.failed,
            &result.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
