//! perfbench: the end-to-end and per-layer benchmark of the ODR stack.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-odr30 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. Every run prints the workload's
//! metrics by name with their units, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with tracing off; with `--trace 1` they are the per-layer
//! ones, and the spans recorded around every call into a layer are
//! written to `<target dir>/perfbench/`. The exit code is 1 when an
//! output failed its correctness check and 2 on a usage or build error.
//! `perfbench/README.md` says why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod layers;
mod metrics;
mod procfs;
mod serve;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::Outcome;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["serve-odr30", "serve-int30", "sim-fleet", "cluster-churn"];

/// One invocation's arguments.
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The cargo target directory this binary was run from: where the
/// server binary is built and the span files are written.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench {} seed {} seconds {} trace {} cores {cores}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    let mut tracer = Tracer::new(args.trace);
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "serve-odr30" | "serve-int30" => serve::run(&args, &mut tracer),
        "sim-fleet" => Ok(sim::run_fleet_workload(&args, &mut tracer)),
        _ => Ok(sim::run_cluster_workload(&args, &mut tracer)),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = target_dir()
            .join("perfbench")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans: {} -> {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let layer_calls = tracer.layer_calls();
    let (text, json) = outcome.render(args.trace, &layer_calls);
    print!("{text}");
    println!("{json}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
