//! The simulator workloads: a FullDes fleet and a saturated cluster.
//!
//! Both repeat one deterministic simulation, built from `--seed`, until
//! the run's time is up. Every repeat must render the same report text
//! as the first, so a change that makes the simulator faster by
//! changing what it computes fails the run instead of reading as a gain.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use odr_cluster::{
    assert_conservation, run_cluster, ChurnConfig, ClusterConfig, ClusterReport, PolicyMix,
};
use odr_core::{FpsGoal, RegulationSpec};
use odr_fleet::{run_fleet, FleetConfig};
use odr_runtime::Regulation;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::metrics::{median, Outcome};
use crate::trace::Tracer;
use crate::{layers, procfs, Args};

/// Sessions per simulated fleet: about half a second of wall time on
/// two threads, so one run averages out short bursts of interference.
const FLEET_SESSIONS: u32 = 512;
/// Sessions in the untimed warm-up fleet of a set-up.
const WARMUP_SESSIONS: u32 = 64;
/// Fleet worker threads.
const FLEET_THREADS: usize = 2;
/// Simulated length of each fleet session.
const SESSION_LENGTH: Duration = Duration::from_secs(5);
/// Cluster node pool.
const NODES: u32 = 256;
/// Cluster session arrivals per simulated second: enough to keep the
/// pool saturated, so admissions and sheds both run in the thousands.
const ARRIVAL_RATE: f64 = 40.0;
/// Simulated cluster horizon.
const HORIZON: Duration = Duration::from_secs(600);
/// Horizon of the untimed warm-up cluster run.
const WARMUP_HORIZON: Duration = Duration::from_secs(10);
/// Set-ups timed per run for `setup_s` (median reported).
const SETUP_REPEATS: usize = 5;
/// Arrivals may stray this many standard deviations from rate × horizon.
const POISSON_SIGMAS: f64 = 6.0;
/// Events a pipeline session's DES keeps pending at once: roughly one
/// per stage (app, proxy, sender, network, decoder, display) plus the
/// input and FPS-tick timers.
const SESSION_PENDING_EVENTS: u64 = 8;

fn scenario() -> Scenario {
    Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud)
}

fn fleet_config(seed: u64, sessions: u32, threads: usize) -> FleetConfig {
    FleetConfig::builder(scenario(), RegulationSpec::odr(FpsGoal::Target(60.0)))
        .base(|b| b.duration(SESSION_LENGTH).seed(seed))
        .sessions(sessions)
        .threads(threads)
        .build()
}

fn cluster_config(seed: u64, horizon: Duration) -> ClusterConfig {
    ClusterConfig::builder(
        scenario(),
        ChurnConfig::new(ARRIVAL_RATE, PolicyMix::paper()),
    )
    .nodes(NODES)
    .horizon(horizon)
    .seed(seed)
    .measure(false)
    .build()
}

/// Times `SETUP_REPEATS` set-ups and returns the median seconds and
/// the last configuration built.
fn setup<C>(mut build: impl FnMut() -> C) -> (f64, C) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    loop {
        let start = Instant::now();
        let cfg = build();
        times.push(start.elapsed().as_secs_f64());
        if times.len() == SETUP_REPEATS {
            return (median(&times), cfg);
        }
    }
}

/// What the repeats of one simulation measured.
struct Repeats {
    /// Wall seconds of each repeat.
    walls: Vec<f64>,
    /// CPU seconds this process spent inside the repeats.
    cpu_s: f64,
    /// Peak resident set of each repeat, in MB.
    peak_rss_mb: Vec<f64>,
}

/// Repeats `step` until `seconds` would be exceeded by another repeat
/// (at least twice), passing each result to `check`.
fn repeat<R>(seconds: Duration, mut step: impl FnMut() -> R, mut check: impl FnMut(R)) -> Repeats {
    let start = Instant::now();
    let mut runs = Repeats {
        walls: Vec::new(),
        cpu_s: 0.0,
        peak_rss_mb: Vec::new(),
    };
    loop {
        procfs::reset_peak_rss();
        let cpu0 = procfs::self_cpu_s();
        let t = Instant::now();
        let result = step();
        let wall = t.elapsed().as_secs_f64();
        runs.cpu_s += procfs::self_cpu_s() - cpu0;
        runs.peak_rss_mb
            .push(procfs::peak_rss_mb("self").unwrap_or(0.0));
        runs.walls.push(wall);
        check(result);
        if runs.walls.len() >= 2 && start.elapsed().as_secs_f64() + wall > seconds.as_secs_f64() {
            return runs;
        }
    }
}

/// Runs `sim-fleet`.
pub fn run_fleet_workload(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, cfg) = setup(|| {
        let _ = run_fleet(&fleet_config(args.seed, WARMUP_SESSIONS, FLEET_THREADS));
        fleet_config(args.seed, FLEET_SESSIONS, FLEET_THREADS)
    });

    // Once per invocation: the report must not depend on the pool size.
    let reference = tracer.span("fleet", "run_fleet", 0, 1, || run_fleet(&cfg).to_text());
    let serial = tracer.span("fleet", "run_fleet", 0, 1, || {
        run_fleet(&fleet_config(args.seed, FLEET_SESSIONS, 1)).to_text()
    });
    out.check(serial == reference, || {
        "1-thread and 2-thread fleet reports differ".into()
    });

    if args.trace {
        layers::pipeline_fleet(&mut out, tracer, &cfg, 1);
        layers::slab_queue(&mut out, tracer, SESSION_PENDING_EVENTS, args.seed, 1);
        layers::workload_netsim(&mut out, tracer, &scenario(), args.seed, 1);
        layers::regulator_step(
            &mut out,
            tracer,
            Regulation::Odr {
                target_fps: Some(60.0),
            },
            1,
        );
        return out;
    }

    let runs = repeat(
        args.seconds,
        || run_fleet(&cfg).to_text(),
        |text| {
            out.check(text == reference, || {
                "a repeat's fleet report differs from the first".into()
            });
        },
    );
    let sessions = f64::from(FLEET_SESSIONS);
    out.note(format!(
        "{} fleets of {FLEET_SESSIONS} sessions on {FLEET_THREADS} threads",
        runs.walls.len()
    ));
    out.e2e(
        "throughput_per_s",
        "sim_sessions_per_s",
        sessions / median(&runs.walls),
        "sessions/s",
    );
    out.e2e(
        "cpu_ms_per_op",
        "cpu_ms_per_session",
        runs.cpu_s * 1e3 / (sessions * runs.walls.len() as f64),
        "ms",
    );
    out.e2e(
        "peak_rss_mb",
        "peak_rss_mb",
        median(&runs.peak_rss_mb),
        "MB",
    );
    out.e2e("setup_s", "setup_s", setup_s, "s");
    out
}

/// The cluster correctness gate: no session unaccounted for, and as
/// many arrivals as the Poisson process should generate (a silent cap
/// on generated sessions would otherwise read as a speed-up).
fn check_cluster(out: &mut Outcome, report: &ClusterReport, reference: &mut Option<String>) {
    let expected = ARRIVAL_RATE * HORIZON.as_secs_f64();
    let tolerance = POISSON_SIGMAS * expected.sqrt();
    let arrivals = report.arrivals as f64;
    let conserved = catch_unwind(AssertUnwindSafe(|| assert_conservation(report))).is_ok();
    let text = report.to_text();
    let same = reference.get_or_insert_with(|| text.clone()) == &text;
    out.check(
        conserved && (arrivals - expected).abs() <= tolerance && same,
        || {
            format!(
                "cluster run: {} arrivals (expected {expected:.0} ± {tolerance:.0}), conservation {}, report {}",
                report.arrivals,
                if conserved { "holds" } else { "violated" },
                if same { "as first" } else { "differs from the first" }
            )
        },
    );
}

/// Runs `cluster-churn`.
pub fn run_cluster_workload(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, _) = setup(|| {
        let cfg = cluster_config(args.seed, WARMUP_HORIZON);
        let _ = run_cluster(&cfg);
        cfg
    });
    let cfg = cluster_config(args.seed, HORIZON);
    let mut reference = None;

    if args.trace {
        let report = tracer.span("cluster", "run_cluster", 0, 1, || run_cluster(&cfg).report);
        check_cluster(&mut out, &report, &mut reference);
        let residents: f64 = report.per_node.iter().map(|n| n.mean_sessions).sum();
        let per_node = residents / f64::from(NODES);
        out.note(format!(
            "mean residents {residents:.1} ({per_node:.2} per node); {} arrivals",
            report.arrivals
        ));
        out.layer("cluster.admitted", report.admitted as f64);
        out.layer("cluster.shed", report.shed as f64);
        out.layer("cluster.requeues", report.requeues as f64);
        layers::cluster_solve(&mut out, tracer, &scenario(), per_node.round() as u32, 1);
        // Pending control-plane events: one departure per resident plus
        // the next arrival.
        layers::event_queue(&mut out, tracer, residents.round() as u64 + 1, args.seed, 1);
        return out;
    }

    let mut arrivals = 0u64;
    let mut last = ClusterReport::default();
    let runs = repeat(
        args.seconds,
        || run_cluster(&cfg).report,
        |report| {
            check_cluster(&mut out, &report, &mut reference);
            arrivals += report.arrivals;
            last = report;
        },
    );
    out.note(format!(
        "{} runs: {} arrivals, {} admitted, {} shed, {} requeues each",
        runs.walls.len(),
        last.arrivals,
        last.admitted,
        last.shed,
        last.requeues
    ));
    let per_run = arrivals as f64 / runs.walls.len() as f64;
    out.e2e(
        "throughput_per_s",
        "cluster_arrivals_per_s",
        per_run / median(&runs.walls),
        "arrivals/s",
    );
    out.e2e(
        "cpu_ms_per_op",
        "cpu_ms_per_arrival",
        runs.cpu_s * 1e3 / arrivals.max(1) as f64,
        "ms",
    );
    out.e2e(
        "peak_rss_mb",
        "peak_rss_mb",
        median(&runs.peak_rss_mb),
        "MB",
    );
    out.e2e("setup_s", "setup_s", setup_s, "s");
    out
}
