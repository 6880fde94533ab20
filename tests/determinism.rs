//! Determinism guarantees: a seed fully determines every simulated result
//! (DESIGN.md §6).

use cloud3d_odr::prelude::*;

fn experiment(seed: u64) -> Report {
    let scenario = Scenario::new(
        Benchmark::RedEclipse,
        Resolution::R720p,
        Platform::PrivateCloud,
    );
    run_experiment(
        &ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
            .duration(Duration::from_secs(20))
            .seed(seed)
            .build(),
    )
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let a = experiment(42);
    let b = experiment(42);
    assert_eq!(a.client_fps.to_bits(), b.client_fps.to_bits());
    assert_eq!(a.render_fps.to_bits(), b.render_fps.to_bits());
    assert_eq!(a.mtp_stats.mean.to_bits(), b.mtp_stats.mean.to_bits());
    assert_eq!(a.mtp_stats.p99.to_bits(), b.mtp_stats.p99.to_bits());
    assert_eq!(a.memory.power_w.to_bits(), b.memory.power_w.to_bits());
    assert_eq!(a.frames_rendered, b.frames_rendered);
    assert_eq!(a.frames_dropped, b.frames_dropped);
    assert_eq!(a.inputs, b.inputs);
}

#[test]
fn different_seeds_differ() {
    let a = experiment(1);
    let b = experiment(2);
    // Rates are similar, but the exact event history must differ.
    assert_ne!(
        (a.frames_rendered, a.mtp_stats.mean.to_bits()),
        (b.frames_rendered, b.mtp_stats.mean.to_bits())
    );
}

#[test]
fn suite_runs_are_reproducible() {
    let run = || {
        run_suite(
            &[Benchmark::ZeroAd],
            &[cloud3d_odr::pipeline::suite::Group {
                platform: Platform::Gce,
                resolution: Resolution::R1080p,
            }],
            &[],
            Duration::from_secs(8),
            7,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.runs.len(), b.runs.len());
    for (x, y) in a.runs.iter().zip(b.runs.iter()) {
        assert_eq!(x.report.client_fps.to_bits(), y.report.client_fps.to_bits());
        assert_eq!(
            x.report.fps_gap_avg.to_bits(),
            y.report.fps_gap_avg.to_bits()
        );
    }
}

#[test]
fn local_and_panel_paths_are_reproducible() {
    let scenario = Scenario::new(
        Benchmark::SuperTuxKart,
        Resolution::R1080p,
        Platform::NonCloud,
    );
    let cfg = ExperimentConfig::builder(scenario, RegulationSpec::NoReg)
        .duration(Duration::from_secs(15))
        .build();
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.client_fps.to_bits(), b.client_fps.to_bits());

    let sample = QoeSample {
        client_fps: a.client_fps,
        fps_p1: a.client_fps_stats.p1,
        mtp_mean_ms: a.mtp_stats.mean,
        mtp_p99_ms: a.mtp_stats.p99,
        pacing_cv: a.pacing_cv,
        stutter_rate: a.stutter_rate,
    };
    let panel = Panel::new(30, 3);
    assert_eq!(
        panel.evaluate(&sample).ratings,
        panel.evaluate(&sample).ratings
    );
}

#[test]
fn rasterizer_is_bit_exact_across_runs() {
    use cloud3d_odr::raster::{Framebuffer, Rasterizer, Scene};
    let render = || {
        let scene = Scene::new(9, 5);
        let mut raster = Rasterizer::new();
        let mut fb = Framebuffer::new(200, 112);
        scene.render(&mut raster, &mut fb, 3.21);
        fb.checksum()
    };
    assert_eq!(render(), render());
}

/// The serving scene's frames, converted through a recycled RGBA buffer
/// and encoded with a reused encoder, must produce the same bitstream
/// the allocate-per-frame path produced: the FNV-1a hash below was taken
/// from that path (12 frames at 30 fps, I-frame every 5, 2 bits dropped).
#[test]
fn frame_path_bitstream_matches_golden() {
    use cloud3d_odr::codec::Encoder;
    use cloud3d_odr::raster::{Framebuffer, Rasterizer, Scene};
    let scene = Scene::new(12, 14);
    let mut raster = Rasterizer::new();
    let mut fb = Framebuffer::new(160, 96);
    let mut encoder = Encoder::new(160, 96, 2).with_iframe_interval(5);
    let mut rgba = Vec::new();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..12 {
        scene.render(&mut raster, &mut fb, i as f32 / 30.0);
        fb.write_rgba(&mut rgba);
        assert_eq!(rgba, fb.bytes());
        for b in encoder.encode(&rgba).data {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(hash, 0x4747_8d40_afbd_7038);
}
