//! Cluster capacity harness: runs the same node pool under the same
//! arrival process and the same admission SLO twice — once with every
//! session ODR-regulated at 60 FPS, once unregulated — and reports the
//! admitted-session and goodput gap. This is the paper's resource-
//! efficiency claim at cluster scale: removing excessive rendering
//! lets the same hardware serve measurably more sessions.
//!
//! Also sweeps the three placement policies over the paper's policy mix
//! (on a single-policy mix they place identically), re-checks that
//! the ODR run is byte-identical on 1 and 8 worker threads, times the
//! analytic-fidelity replay of the same pool (identical control plane,
//! synthetic measurement), and writes `BENCH_cluster.json` (fidelity
//! mode, wall-clock sessions/s and frames/s for both modes, plus a
//! peak-RSS estimate) for machine consumption by CI trend tooling.
//!
//! ```text
//! cargo run --release -p odr-bench --bin cluster_scaling
//! ```

use std::time::Instant;

use cloud3d_odr::prelude::*;
use cloud3d_odr::workload::{Benchmark, Platform, Resolution, Scenario};
use odr_bench::emit::{peak_rss_bytes, BenchJson};

const NODES: u32 = 4;
const ARRIVAL_RATE: f64 = 1.0;
const HORIZON_SECS: u64 = 120;

fn pool(mix: PolicyMix, placement: PlacementKind, threads: usize) -> ClusterConfig {
    let churn = ChurnConfig::new(ARRIVAL_RATE, mix);
    ClusterConfig::builder(
        Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud),
        churn,
    )
    .nodes(NODES)
    .horizon(Duration::from_secs(HORIZON_SECS))
    .seed(0xC10D_3D)
    .measure(false)
    .placement(placement)
    .threads(threads)
    .build()
}

fn line(r: &ClusterReport) -> String {
    format!(
        "{:<28} admitted={:>4} shed={:>4} goodput_s={:>9.2} admission_rate={:.3}",
        r.label,
        r.admitted,
        r.shed,
        r.goodput_ns as f64 / 1e9,
        r.admission_rate(),
    )
}

fn main() {
    let odr60 = || PolicyMix::uniform(RegulationSpec::odr(FpsGoal::Target(60.0)));

    println!("cluster_scaling: {NODES} nodes, {ARRIVAL_RATE}/s arrivals, {HORIZON_SECS} s");
    println!("-- regulation gap at equal SLO (first-fit) --");
    // The ODR run measures its per-node sub-fleets so the JSON emission
    // below can report real frame counts; `report` is unaffected.
    let start = Instant::now();
    let odr_run = run_cluster(&pool(odr60(), PlacementKind::FirstFit, 1).with_measure(true));
    let odr_wall_s = start.elapsed().as_secs_f64();
    let odr = odr_run.report;
    let noreg = run_cluster(&pool(
        PolicyMix::uniform(RegulationSpec::NoReg),
        PlacementKind::FirstFit,
        1,
    ))
    .report;
    println!("{}", line(&odr));
    println!("{}", line(&noreg));
    assert_eq!(odr.arrivals, noreg.arrivals, "arrival schedules must match");
    let admit_gain = odr.admitted as f64 / noreg.admitted.max(1) as f64;
    let goodput_gain = odr.goodput_ns as f64 / noreg.goodput_ns.max(1) as f64;
    println!("gain: {admit_gain:.2}x admitted, {goodput_gain:.2}x goodput");
    assert!(
        admit_gain >= 1.5 && goodput_gain >= 1.5,
        "expected ODR to serve >= 1.5x more than NoReg at the same SLO, \
         measured {admit_gain:.2}x / {goodput_gain:.2}x"
    );

    println!("-- placement sweep, paper policy mix --");
    for placement in [
        PlacementKind::FirstFit,
        PlacementKind::BestFit,
        PlacementKind::OdrAware,
    ] {
        let r = run_cluster(&pool(PolicyMix::paper(), placement, 1)).report;
        println!("{}", line(&r));
    }

    let serial = run_cluster(&pool(odr60(), PlacementKind::FirstFit, 1)).report;
    let parallel = run_cluster(&pool(odr60(), PlacementKind::FirstFit, 8)).report;
    assert_eq!(
        serial.to_text(),
        parallel.to_text(),
        "cluster report differs between 1 and 8 threads"
    );
    println!("cluster_scaling: reports byte-identical across thread counts");

    // Analytic fidelity: identical control plane (equal admission
    // counts), synthetic measurement — record its wall clock next to the
    // FullDes one so the speedup is visible in the JSON trend.
    println!("-- analytic fidelity --");
    let start = Instant::now();
    let analytic_run = run_cluster(
        &pool(odr60(), PlacementKind::FirstFit, 1)
            .with_measure(true)
            .with_fidelity(FidelityMode::Analytic),
    );
    let analytic_wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        analytic_run.report.admitted, odr.admitted,
        "analytic control plane must admit exactly the FullDes count"
    );
    assert_eq!(
        analytic_run.report.measured_sessions, odr.measured_sessions,
        "analytic mode must measure exactly the FullDes spans"
    );
    println!(
        "analytic: {:.2} s wall vs {:.2} s full ({:.1}x)",
        analytic_wall_s,
        odr_wall_s,
        odr_wall_s / analytic_wall_s.max(1e-9)
    );

    let mut json = BenchJson::default();
    json.str("bench", "cluster_scaling")
        .str("mode", FidelityMode::FullDes.label())
        .int("nodes", u64::from(NODES))
        .int("horizon_secs", HORIZON_SECS)
        .int("arrivals", odr.arrivals)
        .int("admitted", odr.admitted)
        .int("frames_rendered", odr_run.measured.frames_rendered)
        .num("wall_s", odr_wall_s)
        .num("sessions_per_sec", odr.arrivals as f64 / odr_wall_s.max(1e-9))
        .num(
            "frames_per_sec",
            odr_run.measured.frames_rendered as f64 / odr_wall_s.max(1e-9),
        )
        .num("analytic_wall_s", analytic_wall_s)
        .num(
            "analytic_sessions_per_sec",
            analytic_run.report.arrivals as f64 / analytic_wall_s.max(1e-9),
        )
        .num(
            "analytic_frames_per_sec",
            analytic_run.measured.frames_rendered as f64 / analytic_wall_s.max(1e-9),
        )
        .num("admit_gain", admit_gain)
        .num("goodput_gain", goodput_gain);
    match peak_rss_bytes() {
        Some(rss) => {
            json.int("peak_rss_bytes", rss);
        }
        None => {
            json.num("peak_rss_bytes", f64::NAN);
        }
    }
    let path = std::path::Path::new("BENCH_cluster.json");
    match json.write(path) {
        Ok(()) => println!("cluster_scaling: wrote {}", path.display()),
        Err(e) => eprintln!("cluster_scaling: could not write {}: {e}", path.display()),
    }
}
