//! Reusable pipeline stage loops.
//!
//! [`System`] used to own its four thread bodies outright; promoting the
//! pipeline to a multi-session serving surface means the *server-side*
//! stages (application render loop, proxy encode/regulate loop) must run
//! unchanged whether the frames then cross an in-process channel (the
//! single-session [`System`]) or a TCP socket (`odr-serve`). This module
//! is that extraction: the two stage loops, generic over the input-tag
//! type `T` that rides each frame from input arrival to presentation.
//!
//! * the in-process runtime uses `T = Instant` and measures MtP with
//!   `created.elapsed()` on the client thread;
//! * the serving surface uses a wire-provided stamp (input id + the
//!   client's own send timestamp) so MtP is measured on the client's
//!   clock and no cross-host clock sync is needed.
//!
//! Everything regulation-related is unchanged: blocking multi-buffers,
//! the Algorithm 1 regulator in the proxy, `PriorityFrame` flushes, and
//! the drop accounting on the queues.
//!
//! Pixel buffers circulate: the app stage converts each frame into a
//! buffer the proxy handed back through [`MulBuf1::spare`], and
//! allocates only when none is waiting.
//!
//! [`System`]: crate::System

use std::{
    sync::{
        atomic::{AtomicBool, AtomicU64, Ordering},
        mpsc, Arc,
    },
    thread::{self, JoinHandle},
    time::{Duration, Instant},
};

use odr_core::{FpsRegulator, PriorityGate, QueueObs, SyncQueue};
use odr_obs::{names, track, Event as ObsEvent, MonoClock, NullRecorder, Recorder, RingRecorder};
use odr_raster::{Framebuffer, Rasterizer, Scene};

use crate::system::Regulation;

/// A fresh ring recorder when capture is requested, the no-op recorder
/// otherwise.
#[must_use]
pub fn make_recorder(enabled: bool) -> Arc<dyn Recorder> {
    if enabled {
        Arc::new(RingRecorder::default())
    } else {
        Arc::new(NullRecorder)
    }
}

/// A rendered frame travelling from the application to the proxy stage,
/// tagged with the oldest input it answers (if any).
pub struct RawFrame<T> {
    /// Render sequence number.
    pub seq: u64,
    /// Tag of the oldest input applied to this frame.
    pub tag: Option<T>,
    /// Raw RGBA pixels.
    pub rgba: Vec<u8>,
}

/// Mul-Buf1, the app→proxy multi-buffer, with the return path that
/// carries each consumed frame's pixel buffer back to the app stage.
pub struct MulBuf1<T> {
    /// Rendered frames: Block policy under ODR, Overwrite otherwise.
    pub frames: Arc<SyncQueue<RawFrame<T>>>,
    /// Pixel buffers the proxy has encoded, waiting for the app stage to
    /// fill them again. It holds one; a second return replaces it, so the
    /// pool never outgrows the frames in flight.
    pub spare: Arc<SyncQueue<Vec<u8>>>,
}

impl<T> MulBuf1<T> {
    /// Creates the queue pair for `regulation`, observed through `obs`.
    #[must_use]
    pub fn new(regulation: Regulation, obs: QueueObs) -> Self {
        let frames = if matches!(regulation, Regulation::Odr { .. }) {
            SyncQueue::new_blocking(1)
        } else {
            SyncQueue::new_overwriting(1)
        };
        MulBuf1 {
            frames: Arc::new(frames.with_obs(obs)),
            spare: Arc::new(SyncQueue::new_overwriting(1)),
        }
    }
}

impl<T> Clone for MulBuf1<T> {
    fn clone(&self) -> Self {
        MulBuf1 {
            frames: Arc::clone(&self.frames),
            spare: Arc::clone(&self.spare),
        }
    }
}

/// An encoded frame leaving the proxy stage, bound for a transport
/// (in-process channel or socket).
pub struct EncodedFrame<T> {
    /// Render sequence number, carried through from [`RawFrame::seq`].
    pub seq: u64,
    /// Tag of the oldest input this frame answers.
    pub tag: Option<T>,
    /// Whether the frame was flushed as a PriorityFrame.
    pub priority: bool,
    /// Encoded payload bytes.
    pub data: Vec<u8>,
    /// The encoder's reconstruction of the frame, kept for PSNR
    /// accounting when the transport asked for it
    /// ([`ProxyStage::keep_source`]); empty otherwise.
    pub source: Vec<u8>,
}

/// Everything the application/render stage needs to run.
pub struct AppStage<T> {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Baseline scene complexity (object count).
    pub base_objects: u32,
    /// Complexity swing (see [`odr_raster::Scene`]).
    pub object_swing: u32,
    /// Regulation under test (interval pacing runs in this loop).
    pub regulation: Regulation,
    /// The run's start instant (interval pacing phase reference).
    pub start: Instant,
    /// Cooperative stop flag; the loop also exits when `out` closes.
    pub stop: Arc<AtomicBool>,
    /// Pending user inputs; the first tag received in a frame's batch
    /// rides the frame (senders stamp in arrival order, so the first is
    /// the oldest).
    pub input_rx: mpsc::Receiver<T>,
    /// The app→proxy multi-buffer (Mul-Buf1) and its buffer return.
    pub out: MulBuf1<T>,
    /// Incremented once per rendered frame.
    pub rendered: Arc<AtomicU64>,
    /// Incremented once per PriorityFrame flush.
    pub priority_frames: Arc<AtomicU64>,
    /// Observability sink for render spans.
    pub recorder: Arc<dyn Recorder>,
    /// Shared wall-clock origin for event timestamps.
    pub clock: MonoClock,
}

/// Spawns the application/render loop on its own thread.
///
/// The loop renders the procedural scene, applies pending inputs (routing
/// them through the [`PriorityGate`] under ODR), and publishes each frame
/// into `out` — blocking, overwriting, or priority-flushing exactly as
/// the queue's policy and the gate dictate. It exits when `stop` is set
/// or the queue closes.
pub fn spawn_app_stage<T: Send + 'static>(stage: AppStage<T>) -> JoinHandle<()> {
    thread::spawn(move || {
        let AppStage {
            width,
            height,
            base_objects,
            object_swing,
            regulation,
            start,
            stop,
            input_rx,
            out,
            rendered,
            priority_frames,
            recorder,
            clock,
        } = stage;
        let odr = matches!(regulation, Regulation::Odr { .. });
        let mut scene = Scene::new(base_objects, object_swing);
        let mut raster = Rasterizer::new();
        let mut fb = Framebuffer::new(width, height);
        let mut gate = PriorityGate::new();
        let mut seq = 0u64;
        let mut input_id = 0u64;
        while !stop.load(Ordering::Relaxed) {
            // Interval pacing happens here, in the app main loop.
            if let Regulation::Interval { fps } = regulation {
                let interval = Duration::from_secs_f64(1.0 / fps);
                let elapsed = start.elapsed();
                let next = interval
                    * u32::try_from(elapsed.as_nanos() / interval.as_nanos() + 1)
                        .unwrap_or(u32::MAX);
                thread::sleep(next.saturating_sub(elapsed));
            }

            // Apply pending inputs; the oldest tag rides the frame.
            let mut oldest: Option<T> = None;
            while let Ok(tag) = input_rx.try_recv() {
                scene.apply_input(0.12);
                input_id += 1;
                gate.input_arrived(input_id, odr_simtime::SimTime::ZERO);
                if oldest.is_none() {
                    oldest = Some(tag);
                }
            }
            let is_priority = odr && gate.begin_frame().is_some();

            if recorder.enabled() {
                recorder.record(
                    ObsEvent::begin(clock.now_ns(), track::APP, names::RENDER).with_id(seq),
                );
            }
            let t = start.elapsed().as_secs_f32();
            scene.render(&mut raster, &mut fb, t);
            if recorder.enabled() {
                recorder
                    .record(ObsEvent::end(clock.now_ns(), track::APP, names::RENDER).with_id(seq));
            }
            let mut rgba = out.spare.try_pop().unwrap_or_default();
            fb.write_rgba(&mut rgba);
            let frame = RawFrame {
                seq,
                tag: oldest,
                rgba,
            };
            seq += 1;
            rendered.fetch_add(1, Ordering::Relaxed);

            let alive = if is_priority {
                priority_frames.fetch_add(1, Ordering::Relaxed);
                out.frames.publish_priority(frame).is_some()
            } else {
                out.frames.publish_blocking(frame)
            };
            if !alive {
                break;
            }
        }
    })
}

/// Everything the proxy (encode + Algorithm 1) stage needs to run.
pub struct ProxyStage<T> {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Codec quantisation (bits dropped per channel).
    pub quant_bits: u8,
    /// Regulation under test (the Algorithm 1 regulator runs here).
    pub regulation: Regulation,
    /// Keep the encoder's reconstruction alongside the payload so the
    /// consumer can compute PSNR. The in-process client wants it; a
    /// socket transport does not (the bytes never cross the wire), so
    /// turning it off skips a full-frame copy per encode.
    pub keep_source: bool,
    /// The app→proxy multi-buffer (Mul-Buf1); each encoded frame's
    /// pixel buffer goes back through its spare queue.
    pub input: MulBuf1<T>,
    /// The proxy→transport multi-buffer (Mul-Buf2); closed when the
    /// stage exits.
    pub output: Arc<SyncQueue<EncodedFrame<T>>>,
    /// Incremented once per encoded frame.
    pub encoded: Arc<AtomicU64>,
    /// Observability sink for encode spans and regulator decisions.
    pub recorder: Arc<dyn Recorder>,
    /// Shared wall-clock origin for event timestamps.
    pub clock: MonoClock,
}

/// Spawns the proxy loop — encode, then Algorithm 1 — on its own thread.
///
/// Frames tagged with an input are flushed as PriorityFrames under ODR
/// (their pending regulator sleep is cancelled with the balance
/// preserved); everything else flows through the blocking swap, so
/// transport backpressure on `output` stalls this loop and, through
/// Mul-Buf1's policy, regulates or overwrites the renderer.
pub fn spawn_proxy_stage<T: Send + 'static>(stage: ProxyStage<T>) -> JoinHandle<()> {
    thread::spawn(move || {
        let ProxyStage {
            width,
            height,
            quant_bits,
            regulation,
            keep_source,
            input,
            output,
            encoded,
            recorder,
            clock,
        } = stage;
        let odr = matches!(regulation, Regulation::Odr { .. });
        let mut encoder = odr_codec::Encoder::new(width, height, quant_bits);
        let mut regulator = match regulation {
            Regulation::Odr {
                target_fps: Some(fps),
            } => FpsRegulator::new(fps).with_max_debt(30.0),
            _ => FpsRegulator::unlimited(),
        };
        while let Some(raw) = input.frames.pop_blocking() {
            let cycle_start = Instant::now();
            if recorder.enabled() {
                recorder.record(
                    ObsEvent::begin(clock.now_ns(), track::PROXY, names::ENCODE).with_id(raw.seq),
                );
            }
            let out = encoder.encode(&raw.rgba);
            if recorder.enabled() {
                recorder.record(
                    ObsEvent::end(clock.now_ns(), track::PROXY, names::ENCODE).with_id(raw.seq),
                );
            }
            encoded.fetch_add(1, Ordering::Relaxed);
            // The app stage fills this buffer again for a later frame.
            let _ = input.spare.try_publish(raw.rgba);
            let source = match encoder.reference() {
                Some(reconstructed) if keep_source => reconstructed.to_vec(),
                _ => Vec::new(),
            };
            let priority = raw.tag.is_some();
            let wire = EncodedFrame {
                seq: raw.seq,
                tag: raw.tag,
                priority,
                data: out.data,
                source,
            };
            let delivered = if odr && priority {
                output.publish_priority(wire).is_some()
            } else {
                output.publish_blocking(wire)
            };
            if !delivered {
                break;
            }
            // Algorithm 1: delay or accelerate. A priority frame's
            // pending sleep is skipped (latency first), with the
            // balance preserved.
            let sleep = regulator.on_frame_processed_recorded(
                cycle_start.elapsed(),
                clock.now_ns(),
                recorder.as_ref(),
            );
            if sleep > Duration::ZERO {
                if priority {
                    regulator.cancel_pending_sleep_recorded(sleep, clock.now_ns(), recorder.as_ref());
                } else {
                    thread::sleep(sleep);
                }
            }
        }
        output.close();
    })
}
