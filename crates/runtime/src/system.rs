//! The threaded pipeline.

use std::{
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        mpsc, Arc, Mutex, MutexGuard, PoisonError,
    },
    thread,
    time::{Duration, Instant},
};

use odr_core::{OdrError, QueueObs, SyncQueue};
use odr_metrics::Summary;
use odr_obs::{names, track, Drained, Event as ObsEvent, MonoClock, ObsReport};

use crate::report::RuntimeReport;
use crate::stages::{
    make_recorder, spawn_app_stage, spawn_proxy_stage, AppStage, EncodedFrame, MulBuf1, ProxyStage,
};

/// Locks a metrics mutex, recovering from poison: these mutexes guard
/// plain accumulators that stay consistent even if a peer thread
/// panicked mid-run, and the panic itself is surfaced at join time.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which regulation the runtime applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Regulation {
    /// No regulation: the app renders flat out, excessive frames are
    /// overwritten in the app→proxy buffer.
    NoReg,
    /// Interval pacing in the application loop.
    Interval {
        /// Target frames per second.
        fps: f64,
    },
    /// OnDemand Rendering: blocking multi-buffers, the Algorithm 1
    /// regulator in the proxy, and PriorityFrame.
    Odr {
        /// FPS target; `None` = ODRMax (multi-buffer pacing only).
        target_fps: Option<f64>,
    },
}

/// Configuration for one run.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Regulation under test.
    pub regulation: Regulation,
    /// One-way network latency applied to each frame.
    pub net_latency: Duration,
    /// Network bandwidth in bits per second.
    pub net_bandwidth_bps: f64,
    /// Baseline scene complexity (object count).
    pub base_objects: u32,
    /// Complexity swing (see [`odr_raster::Scene`]).
    pub object_swing: u32,
    /// Codec quantisation (bits dropped per channel).
    pub quant_bits: u8,
    /// Mean user inputs per second (0 disables input injection).
    pub input_rate_hz: f64,
    /// Seed for the input process.
    pub seed: u64,
    /// Capture structured observability events (per-thread ring buffers,
    /// merged into [`RuntimeReport::obs`] at shutdown); off by default.
    pub obs: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            width: 320,
            height: 180,
            duration: Duration::from_secs(3),
            regulation: Regulation::Odr {
                target_fps: Some(60.0),
            },
            net_latency: Duration::from_millis(2),
            net_bandwidth_bps: 100e6,
            base_objects: 12,
            object_swing: 14,
            quant_bits: 2,
            input_rate_hz: 3.6,
            seed: 7,
            obs: false,
        }
    }
}

/// The assembled pipeline. Construct with a config, then [`System::run`].
///
/// # Examples
///
/// ```no_run
/// use odr_runtime::{Regulation, RuntimeConfig, System};
///
/// # fn main() -> Result<(), odr_core::OdrError> {
/// let report = System::new(RuntimeConfig {
///     regulation: Regulation::Odr { target_fps: Some(30.0) },
///     ..RuntimeConfig::default()
/// })
/// .run()?;
/// println!("client fps: {:.1}", report.client_fps());
/// # Ok(())
/// # }
/// ```
pub struct System {
    config: RuntimeConfig,
}

impl System {
    /// Creates a system with the given configuration.
    #[must_use]
    pub fn new(config: RuntimeConfig) -> Self {
        System { config }
    }

    /// Runs the pipeline for the configured duration and reports.
    ///
    /// # Errors
    ///
    /// Returns [`OdrError::Codec`] if the client fails to decode a frame
    /// and [`OdrError::Thread`] if a pipeline thread panics.
    pub fn run(self) -> Result<RuntimeReport, OdrError> {
        let cfg = self.config;
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();

        // One ring per pipeline thread plus one shared by the two
        // multi-buffers (their events fire from both endpoint threads);
        // all are drained and merged after the threads join.
        let clock = MonoClock::start();
        let rec_app = make_recorder(cfg.obs);
        let rec_proxy = make_recorder(cfg.obs);
        let rec_net = make_recorder(cfg.obs);
        let rec_client = make_recorder(cfg.obs);
        let rec_queues = make_recorder(cfg.obs);

        let buf1: MulBuf1<Instant> = MulBuf1::new(
            cfg.regulation,
            QueueObs {
                recorder: Arc::clone(&rec_queues),
                track: track::BUF1,
                clock,
            },
        );
        let buf2: Arc<SyncQueue<EncodedFrame<Instant>>> =
            Arc::new(SyncQueue::new_blocking(1).with_obs(QueueObs {
                recorder: Arc::clone(&rec_queues),
                track: track::BUF2,
                clock,
            }));
        let (to_client, from_net) = mpsc::channel::<(EncodedFrame<Instant>, Instant)>();
        let (input_tx, input_rx) = mpsc::channel::<Instant>();

        let rendered = Arc::new(AtomicU64::new(0));
        let encoded_n = Arc::new(AtomicU64::new(0));
        let displayed = Arc::new(AtomicU64::new(0));
        let priority_n = Arc::new(AtomicU64::new(0));
        let inputs_n = Arc::new(AtomicU64::new(0));
        let bytes_n = Arc::new(AtomicU64::new(0));
        let mtp = Arc::new(Mutex::new(Summary::new()));
        let intervals = Arc::new(Mutex::new(Summary::new()));
        let psnr_sum = Arc::new(Mutex::new((0.0f64, 0u64)));

        // --- Application / render thread -------------------------------
        let app = spawn_app_stage(AppStage {
            width: cfg.width,
            height: cfg.height,
            base_objects: cfg.base_objects,
            object_swing: cfg.object_swing,
            regulation: cfg.regulation,
            start,
            stop: Arc::clone(&stop),
            input_rx,
            out: buf1.clone(),
            rendered: Arc::clone(&rendered),
            priority_frames: Arc::clone(&priority_n),
            recorder: Arc::clone(&rec_app),
            clock,
        });

        // --- Proxy thread: encode + Algorithm 1 ------------------------
        let proxy = spawn_proxy_stage(ProxyStage {
            width: cfg.width,
            height: cfg.height,
            quant_bits: cfg.quant_bits,
            regulation: cfg.regulation,
            keep_source: true,
            input: buf1.clone(),
            output: Arc::clone(&buf2),
            encoded: Arc::clone(&encoded_n),
            recorder: Arc::clone(&rec_proxy),
            clock,
        });

        // --- Network thread: latency + serialisation delay -------------
        let net = {
            let buf2 = Arc::clone(&buf2);
            let bytes_n = Arc::clone(&bytes_n);
            let rec = Arc::clone(&rec_net);
            thread::spawn(move || {
                while let Some(frame) = buf2.pop_blocking() {
                    let tx = Duration::from_secs_f64(
                        frame.data.len() as f64 * 8.0 / cfg.net_bandwidth_bps,
                    );
                    if rec.enabled() {
                        rec.record(ObsEvent::begin(clock.now_ns(), track::NET, names::TRANSMIT));
                    }
                    thread::sleep(tx);
                    if rec.enabled() {
                        rec.record(ObsEvent::end(clock.now_ns(), track::NET, names::TRANSMIT));
                    }
                    bytes_n.fetch_add(frame.data.len() as u64, Ordering::Relaxed);
                    let arrival = Instant::now() + cfg.net_latency;
                    if to_client.send((frame, arrival)).is_err() {
                        break;
                    }
                }
            })
        };

        // --- Client thread: decode + measure ---------------------------
        let client = {
            let displayed = Arc::clone(&displayed);
            let mtp = Arc::clone(&mtp);
            let intervals = Arc::clone(&intervals);
            let psnr_sum = Arc::clone(&psnr_sum);
            let rec = Arc::clone(&rec_client);
            thread::spawn(move || -> Result<(), OdrError> {
                let mut decoder = odr_codec::Decoder::new(cfg.width, cfg.height);
                let mut last_display: Option<Instant> = None;
                while let Ok((frame, arrival)) = from_net.recv() {
                    let now = Instant::now();
                    if arrival > now {
                        thread::sleep(arrival - now);
                    }
                    if rec.enabled() {
                        rec.record(ObsEvent::begin(clock.now_ns(), track::CLIENT, names::DECODE));
                    }
                    let rgba = decoder.decode(&frame.data).map_err(OdrError::codec)?;
                    if rec.enabled() {
                        rec.record(ObsEvent::end(clock.now_ns(), track::CLIENT, names::DECODE));
                    }
                    displayed.fetch_add(1, Ordering::Relaxed);
                    let shown = Instant::now();
                    if rec.enabled() {
                        rec.record(ObsEvent::instant(
                            clock.now_ns(),
                            track::CLIENT,
                            names::PRESENT,
                        ));
                    }
                    if let Some(last) = last_display {
                        lock(&intervals).record((shown - last).as_secs_f64() * 1e3);
                    }
                    last_display = Some(shown);
                    if let Some(created) = frame.tag {
                        lock(&mtp).record(created.elapsed().as_secs_f64() * 1e3);
                    }
                    let p = odr_codec::psnr(&frame.source, &rgba);
                    if p.is_finite() {
                        let mut guard = lock(&psnr_sum);
                        guard.0 += p;
                        guard.1 += 1;
                    }
                }
                Ok(())
            })
        };

        // --- Input injection (Poisson) ----------------------------------
        let mut rng = odr_simtime::Rng::new(cfg.seed);
        let deadline = start + cfg.duration;
        if cfg.input_rate_hz > 0.0 {
            let mut next = start + Duration::from_secs_f64(rng.exponential(cfg.input_rate_hz));
            while Instant::now() < deadline {
                let now = Instant::now();
                if now >= next {
                    inputs_n.fetch_add(1, Ordering::Relaxed);
                    let _ = input_tx.send(now);
                    next = now + Duration::from_secs_f64(rng.exponential(cfg.input_rate_hz));
                } else {
                    thread::sleep((next - now).min(Duration::from_millis(5)));
                }
            }
        } else {
            thread::sleep(cfg.duration);
        }

        // --- Shutdown ----------------------------------------------------
        stop.store(true, Ordering::Relaxed);
        buf1.frames.close();
        for (name, handle) in [("app", app), ("proxy", proxy), ("network", net)] {
            if handle.join().is_err() {
                return Err(OdrError::thread(name, "panicked"));
            }
        }
        drop(input_tx);
        // `to_client` was moved into the network thread and dropped with
        // it, so the client drains and exits.
        match client.join() {
            Ok(outcome) => outcome?,
            Err(_) => return Err(OdrError::thread("client", "panicked")),
        }

        // Merge the per-thread rings into one capture. Runtime traces use
        // wall-clock timestamps, so unlike the simulator's they are not
        // run-to-run reproducible — only internally consistent.
        let mut drained = Drained::default();
        let mut captured = false;
        for rec in [&rec_app, &rec_proxy, &rec_net, &rec_client, &rec_queues] {
            captured |= rec.enabled();
            drained.merge(rec.drain());
        }
        let obs = if captured {
            ObsReport::from_drained(drained)
        } else {
            ObsReport::disabled()
        };

        let elapsed = start.elapsed().as_secs_f64();
        let (psnr_total, psnr_count) = *lock(&psnr_sum);
        Ok(RuntimeReport {
            elapsed_secs: elapsed,
            frames_rendered: rendered.load(Ordering::Relaxed),
            frames_encoded: encoded_n.load(Ordering::Relaxed),
            frames_displayed: displayed.load(Ordering::Relaxed),
            frames_dropped: buf1.frames.drops() + buf2.drops(),
            priority_frames: priority_n.load(Ordering::Relaxed),
            inputs: inputs_n.load(Ordering::Relaxed),
            mtp_ms: Arc::try_unwrap(mtp)
                .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
                .unwrap_or_default(),
            display_intervals_ms: Arc::try_unwrap(intervals)
                .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
                .unwrap_or_default(),
            bytes_sent: bytes_n.load(Ordering::Relaxed),
            mean_psnr_db: if psnr_count == 0 {
                f64::INFINITY
            } else {
                psnr_total / psnr_count as f64
            },
            obs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(regulation: Regulation) -> RuntimeConfig {
        RuntimeConfig {
            width: 160,
            height: 96,
            duration: Duration::from_millis(1200),
            regulation,
            base_objects: 4,
            object_swing: 4,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn noreg_overrenders_and_drops() {
        // Constrain the network so the proxy is reliably the slower stage:
        // under NoReg the renderer then overwrites frames in Mul-Buf1
        // regardless of host speed.
        let mut cfg = small(Regulation::NoReg);
        cfg.net_bandwidth_bps = 8e6;
        let r = System::new(cfg).run().expect("pipeline run");
        assert!(r.frames_rendered > r.frames_displayed, "{r:?}");
        assert!(r.frames_dropped > 0, "no drops under NoReg: {r:?}");
        assert!(r.frames_displayed > 10);
    }

    #[test]
    fn odrmax_render_tracks_display() {
        let r = System::new(small(Regulation::Odr { target_fps: None })).run().expect("pipeline run");
        // Multi-buffering: rendering outpaces display only by the frames
        // in flight plus priority flushes.
        let inflight = 4 + r.priority_frames;
        assert!(
            r.frames_rendered <= r.frames_displayed + inflight,
            "rendered {} vs displayed {} (+{inflight})",
            r.frames_rendered,
            r.frames_displayed
        );
        assert!(r.frames_displayed > 10);
    }

    #[test]
    fn odr_target_paces_to_target() {
        let mut cfg = small(Regulation::Odr {
            target_fps: Some(20.0),
        });
        cfg.input_rate_hz = 0.0;
        cfg.duration = Duration::from_millis(1500);
        let r = System::new(cfg).run().expect("pipeline run");
        let fps = r.client_fps();
        assert!((15.0..=24.0).contains(&fps), "client fps {fps}");
    }

    #[test]
    fn interval_regulation_paces_the_app_loop() {
        let mut cfg = small(Regulation::Interval { fps: 20.0 });
        cfg.input_rate_hz = 0.0;
        cfg.duration = Duration::from_millis(1500);
        let r = System::new(cfg).run().expect("pipeline run");
        let fps = r.render_fps();
        assert!((14.0..=24.0).contains(&fps), "render fps {fps}");
    }

    #[test]
    fn inputs_are_answered_with_latency_samples() {
        let mut cfg = small(Regulation::Odr {
            target_fps: Some(30.0),
        });
        cfg.input_rate_hz = 8.0;
        let r = System::new(cfg).run().expect("pipeline run");
        assert!(r.inputs > 0);
        assert!(r.mtp_ms.count() > 0, "no MtP samples: {r:?}");
        assert!(r.mtp_mean_ms() < 1000.0);
    }

    #[test]
    fn paced_run_reports_pacing_statistics() {
        let mut cfg = small(Regulation::Odr {
            target_fps: Some(30.0),
        });
        cfg.input_rate_hz = 0.0;
        let r = System::new(cfg).run().expect("pipeline run");
        assert!(r.display_intervals_ms.count() > 10);
        let mean = r.display_intervals_ms.mean();
        assert!((20.0..=50.0).contains(&mean), "mean interval {mean} ms");
        assert!(r.pacing_cv() < 1.5, "cv {}", r.pacing_cv());
    }

    #[test]
    fn obs_capture_merges_every_thread() {
        let mut cfg = small(Regulation::Odr {
            target_fps: Some(30.0),
        });
        cfg.obs = true;
        let r = System::new(cfg).run().expect("pipeline run");
        assert!(r.obs.enabled);
        assert!(!r.obs.events.is_empty());
        for stage in [
            odr_obs::names::RENDER,
            odr_obs::names::ENCODE,
            odr_obs::names::TRANSMIT,
            odr_obs::names::DECODE,
            odr_obs::names::PRESENT,
        ] {
            let c = r.obs.counters.get(stage).copied().unwrap_or_default();
            assert!(c.begun > 0, "no {stage} events captured");
        }
    }

    #[test]
    fn obs_off_report_is_disabled() {
        let r = System::new(small(Regulation::NoReg))
            .run()
            .expect("pipeline run");
        assert!(!r.obs.enabled);
        assert!(r.obs.events.is_empty());
    }

    #[test]
    fn video_stream_decodes_with_quality() {
        let mut cfg = small(Regulation::Odr { target_fps: None });
        cfg.quant_bits = 0;
        cfg.input_rate_hz = 0.0;
        let r = System::new(cfg).run().expect("pipeline run");
        assert_eq!(r.mean_psnr_db, f64::INFINITY, "lossless must be exact");
        assert!(r.bytes_sent > 0);
    }
}
