//! The discrete-event simulation engine for cloud deployments.
//!
//! One `Sim` instance models the five logical threads of the paper's
//! Figure 2 system — 3D application (+GPU), server proxy (copy + encode),
//! network sender, client decoder, and the input/feedback paths — as state
//! machines driven by a totally ordered event queue. All regulation
//! behaviour comes from `odr-core`:
//!
//! * **NoReg / Int / RVS**: the app publishes into an *overwriting*
//!   Mul-Buf1 (excessive frames are dropped there) and the proxy writes
//!   straight to the downlink socket, blocking only when the socket buffer
//!   fills. Int paces the app on a fixed grid, IntMax on the adaptive
//!   ratchet, RVS on the vblank grid plus the feedback-scaled delay.
//! * **ODR**: Mul-Buf1 and Mul-Buf2 are *blocking* queues; the app only
//!   renders when a back buffer is free, the proxy runs Algorithm 1 around
//!   encoding, and the network sender transmits one frame at a time
//!   (pausing the proxy, and transitively the app, when the wire is the
//!   slowest stage). PriorityFrame cancels app waits and proxy sleeps and
//!   flushes obsolete frames.

use odr_core::{
    queue::FullPolicy, AdaptiveIntervalPacer, FpsGoal, FpsRegulator, FrameQueue, IntervalPacer,
    OdrOptions, PriorityGate, Publish, RegulationSpec, RvsRegulator,
};
use odr_memsim::{MemClient, MemoryModel};
use odr_metrics::{FpsGap, Summary, WindowedRate};
use odr_obs::{names, track, Event as ObsEvent, NullRecorder, ObsReport, Recorder, RingRecorder};
use odr_netsim::Link;
use odr_simtime::{Duration, Rng, SimTime};
use odr_workload::{FrameModel, InputModel, Platform, Scenario};

use crate::{
    config::{ClientDisplay, ExperimentConfig},
    frame::FrameTrace,
    local,
    report::Report,
    scratch::{FrameRef, SessionScratch},
};

/// Runs one experiment to completion and returns its report.
///
/// Deterministic: the same config (including seed) yields an identical
/// report.
///
/// # Examples
///
/// ```
/// use odr_core::{FpsGoal, RegulationSpec};
/// use odr_pipeline::{run_experiment, ExperimentConfig};
/// use odr_simtime::Duration;
/// use odr_workload::{Benchmark, Platform, Resolution, Scenario};
///
/// let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
/// let cfg = ExperimentConfig::new(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
///     .with_duration(Duration::from_secs(20));
/// let report = run_experiment(&cfg);
/// assert!((report.client_fps - 60.0).abs() < 3.0);
/// ```
#[must_use]
pub fn run_experiment(cfg: &ExperimentConfig) -> Report {
    run_experiment_with(cfg, &mut SessionScratch::new())
}

/// Runs one experiment reusing caller-owned scratch buffers.
///
/// Identical to [`run_experiment`] in every observable way — `scratch`
/// is reset on entry, and a recycled scratch produces a bit-identical
/// report — but steady-state fleet workers avoid re-allocating the event
/// queue, frame lanes and metric buffers for every session.
#[must_use]
pub fn run_experiment_with(cfg: &ExperimentConfig, scratch: &mut SessionScratch) -> Report {
    if cfg.scenario.platform == Platform::NonCloud {
        return local::run_local(cfg);
    }
    scratch.reset();
    Sim::new(cfg, scratch).run()
}

#[derive(Debug)]
pub(crate) enum Event {
    /// The app may evaluate pacing and start its next cycle.
    AppWake,
    /// The app's pacing delay elapsed: begin rendering.
    AppStartRender,
    /// A rendering job may have completed (guarded by its generation).
    RenderDone {
        gen: u64,
    },
    /// The proxy resumes (regulator sleep over, or socket write accepted).
    ProxyWake {
        gen: u64,
    },
    /// The proxy's current copy/encode job may have completed.
    ProxyStageDone {
        gen: u64,
    },
    /// The ODR network sender finished serialising a frame.
    SenderWake,
    FrameArrived {
        frame: FrameRef,
    },
    DecodeDone {
        frame: FrameRef,
    },
    InputCreated,
    InputAtServer {
        id: u64,
    },
    RvsFeedback {
        diff: Duration,
        lag: Duration,
    },
    IntMaxFeedback {
        fps: f64,
    },
    /// Client-side 500 ms FPS measurement tick (IntMax feedback source).
    ClientFpsTick,
    /// A scheduled client presentation (VSync vblank or FreeSync pacing).
    Present,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AppState {
    /// Waiting for a pacing delay to elapse.
    WaitingDelay,
    /// Waiting for a free back buffer (ODR only).
    BlockedOnBuffer,
    Rendering,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProxyState {
    WaitingFrame,
    Copying,
    Encoding,
    /// Waiting for space in Mul-Buf2 (ODR only); the encoded frame is
    /// parked in `Sim::parked_frame`.
    BlockedOnBuffer,
    /// Blocked in the socket write (baselines only).
    BlockedOnSocket,
    Sleeping {
        until: SimTime,
    },
}

/// Which proxy stage a [`Job`] is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProxyPhase {
    Copy,
    Encode,
}

/// An in-flight, contention-sensitive stage execution.
///
/// `remaining` is measured in *base work seconds* (the sampled duration at
/// slowdown 1.0); the wall-clock completion is re-planned every time the
/// DRAM contention level changes, so a stage that overlaps more concurrent
/// activity genuinely takes longer — Section 4.3's mechanism.
#[derive(Clone, Copy, Debug)]
struct Job {
    frame: FrameRef,
    /// Base work left, in seconds.
    remaining: f64,
    /// Slowdown in effect since `last`.
    rate: f64,
    last: SimTime,
    started: SimTime,
    gen: u64,
}

struct Policy {
    /// Mul-Buf1 full policy (Block for ODR, Overwrite otherwise).
    buf1_policy: FullPolicy,
    buf1_capacity: usize,
    /// Whether Mul-Buf2 + the paced sender exist (ODR only).
    use_buf2: bool,
    buf2_capacity: usize,
    priority: bool,
    fixed_pacer: Option<IntervalPacer>,
    adaptive_pacer: Option<AdaptiveIntervalPacer>,
    rvs: Option<RvsRegulator>,
    target_fps: Option<f64>,
}

impl Policy {
    fn from_spec(spec: RegulationSpec, frame_model: &FrameModel) -> (Policy, FpsRegulator) {
        match spec {
            RegulationSpec::NoReg => (
                Policy {
                    buf1_policy: FullPolicy::Overwrite,
                    buf1_capacity: 1,
                    use_buf2: false,
                    buf2_capacity: 1,
                    priority: false,
                    fixed_pacer: None,
                    adaptive_pacer: None,
                    rvs: None,
                    target_fps: None,
                },
                FpsRegulator::unlimited(),
            ),
            RegulationSpec::Interval(goal) => {
                let (fixed, adaptive, target) = match goal {
                    FpsGoal::Target(fps) => (Some(IntervalPacer::new(fps)), None, Some(fps)),
                    FpsGoal::Max => {
                        // IntMax starts at the cloud's rendering capability.
                        let cap = frame_model.render.mean_rate_hz();
                        (None, Some(AdaptiveIntervalPacer::new(cap)), None)
                    }
                };
                (
                    Policy {
                        buf1_policy: FullPolicy::Overwrite,
                        buf1_capacity: 1,
                        use_buf2: false,
                        buf2_capacity: 1,
                        priority: false,
                        fixed_pacer: fixed,
                        adaptive_pacer: adaptive,
                        rvs: None,
                        target_fps: target,
                    },
                    FpsRegulator::unlimited(),
                )
            }
            RegulationSpec::Rvs { goal, cc } => {
                let refresh = RegulationSpec::rvs_refresh_hz(goal);
                (
                    Policy {
                        buf1_policy: FullPolicy::Overwrite,
                        buf1_capacity: 1,
                        use_buf2: false,
                        buf2_capacity: 1,
                        priority: false,
                        fixed_pacer: None,
                        adaptive_pacer: None,
                        rvs: Some(RvsRegulator::new(refresh, cc)),
                        target_fps: goal.target(),
                    },
                    FpsRegulator::unlimited(),
                )
            }
            RegulationSpec::Odr { goal, options } => {
                let OdrOptions {
                    priority_frames,
                    buffer_depth,
                    accelerate,
                    blocking_buffers,
                } = options;
                let mut regulator = match goal {
                    FpsGoal::Max => FpsRegulator::unlimited(),
                    FpsGoal::Target(fps) => FpsRegulator::new(fps).with_max_debt(30.0),
                };
                if !accelerate {
                    regulator = regulator.delay_only();
                }
                (
                    Policy {
                        buf1_policy: if blocking_buffers {
                            FullPolicy::Block
                        } else {
                            FullPolicy::Overwrite
                        },
                        buf1_capacity: buffer_depth,
                        use_buf2: true,
                        buf2_capacity: buffer_depth,
                        priority: priority_frames,
                        fixed_pacer: None,
                        adaptive_pacer: None,
                        rvs: None,
                        target_fps: goal.target(),
                    },
                    regulator,
                )
            }
        }
    }
}

struct Sim<'a> {
    cfg: ExperimentConfig,
    frame_model: FrameModel,
    input_model: InputModel,
    policy: Policy,
    regulator: FpsRegulator,

    /// Worker-owned pooled state: event slab, frame lanes, decode queue,
    /// input log, display intervals and trace rows.
    scratch: &'a mut SessionScratch,

    now: SimTime,
    end: SimTime,
    warmup: SimTime,

    rng_render: Rng,
    rng_copy: Rng,
    rng_encode: Rng,
    rng_decode: Rng,
    rng_size: Rng,
    rng_input: Rng,

    // Application.
    app_state: AppState,
    gate: PriorityGate,
    last_input_at_app: Option<u64>,
    mul_buf1: FrameQueue<FrameRef>,

    // In-flight contention-coupled stage executions.
    render_job: Option<Job>,
    proxy_job: Option<(ProxyPhase, Job)>,
    job_gen: u64,

    // Proxy.
    proxy_state: ProxyState,
    proxy_gen: u64,
    proxy_cycle_start: SimTime,
    parked_frame: Option<FrameRef>,
    mul_buf2: FrameQueue<FrameRef>,

    // Network.
    downlink: Link,
    uplink: Link,
    sender_busy: bool,

    // Client.
    decoding: bool,
    window_decodes: u64,
    last_display: Option<SimTime>,
    /// Frame awaiting its presentation slot (VSync/FreeSync only).
    pending_present: Option<FrameRef>,
    present_scheduled: bool,
    /// Vblank grid for `ClientDisplay::VSync`, built once at session
    /// setup so the per-frame present path never re-validates the rate.
    vsync_clock: Option<odr_core::rvs::VblankClock>,
    display_drops: u64,

    // Inputs.
    next_input_id: u64,
    answered_upto: u64,

    // Measurement.
    mem: MemoryModel,
    render_rate: WindowedRate,
    encode_rate: WindowedRate,
    gap: FpsGap,
    satisfaction: WindowedRate,
    mtp_ms: Summary,
    frames_rendered: u64,
    frames_displayed: u64,

    /// Observability sink: a ring recorder when `cfg.obs` is set, the
    /// no-op recorder otherwise (every emission site checks `enabled()`
    /// first, so the disabled path never constructs an event).
    recorder: Box<dyn Recorder>,
}

impl<'a> Sim<'a> {
    fn new(cfg: &ExperimentConfig, scratch: &'a mut SessionScratch) -> Self {
        let scenario: Scenario = cfg.scenario;
        let frame_model = scenario.frame_model();
        let input_model = scenario.input_model();
        let (mut policy, regulator) = Policy::from_spec(cfg.spec, &frame_model);

        let root = Rng::new(cfg.seed).fork(scenario.stream_id());
        // The paper tuned RVS's low-pass parameters per configuration
        // (Section 5.4); mirror that with a per-platform feedback weight —
        // the WAN path needs a smaller weight or the stale-feedback delay
        // overwhelms the pacing entirely.
        if let Some(rvs) = policy.rvs.take() {
            let weight = match scenario.platform {
                Platform::Gce => 0.12,
                _ => 0.35,
            };
            policy.rvs = Some(rvs.with_feedback_weight(weight));
        }
        let mem = MemoryModel::new(
            scenario.memory_params(),
            scenario.power_params(),
            SimTime::ZERO,
        );

        let window = Duration::from_secs(1);
        Sim {
            frame_model,
            input_model,
            regulator,
            scratch,
            now: SimTime::ZERO,
            end: SimTime::ZERO + cfg.total_time(),
            warmup: SimTime::ZERO + cfg.warmup,
            rng_render: root.fork(1),
            rng_copy: root.fork(2),
            rng_encode: root.fork(3),
            rng_decode: root.fork(4),
            rng_size: root.fork(5),
            rng_input: root.fork(6),
            app_state: AppState::WaitingDelay,
            render_job: None,
            proxy_job: None,
            job_gen: 0,
            gate: PriorityGate::new(),
            last_input_at_app: None,
            mul_buf1: FrameQueue::new(policy.buf1_capacity, policy.buf1_policy),
            proxy_state: ProxyState::WaitingFrame,
            proxy_gen: 0,
            proxy_cycle_start: SimTime::ZERO,
            parked_frame: None,
            mul_buf2: FrameQueue::new(policy.buf2_capacity, FullPolicy::Block),
            downlink: Link::new(cfg.downlink(), root.fork(7)),
            uplink: Link::new(scenario.uplink(), root.fork(8)),
            sender_busy: false,
            decoding: false,
            window_decodes: 0,
            last_display: None,
            pending_present: None,
            present_scheduled: false,
            vsync_clock: match cfg.display {
                ClientDisplay::VSync { refresh_hz } => {
                    Some(odr_core::rvs::VblankClock::new(refresh_hz))
                }
                _ => None,
            },
            display_drops: 0,
            next_input_id: 0,
            answered_upto: 0,
            mem,
            render_rate: WindowedRate::new(window),
            encode_rate: WindowedRate::new(window),
            gap: FpsGap::new(window),
            satisfaction: WindowedRate::new(Duration::from_millis(200)),
            mtp_ms: Summary::new(),
            frames_rendered: 0,
            frames_displayed: 0,
            recorder: if cfg.obs {
                Box::new(RingRecorder::default())
            } else {
                Box::new(NullRecorder)
            },
            policy,
            cfg: *cfg,
        }
    }

    /// Records one observability event; no-op when capture is off.
    fn obs(&self, event: ObsEvent) {
        if self.recorder.enabled() {
            self.recorder.record(event);
        }
    }

    /// The current sim time as the observability timestamp.
    fn obs_now(&self) -> u64 {
        self.now.as_nanos()
    }

    fn run(mut self) -> Report {
        self.scratch.events.push(SimTime::ZERO, Event::AppWake);
        let first_input = self
            .input_model
            .next_after(SimTime::ZERO, &mut self.rng_input);
        self.scratch.events.push(first_input, Event::InputCreated);
        if self.policy.adaptive_pacer.is_some() {
            self.scratch.events.push(
                SimTime::ZERO + Duration::from_millis(500),
                Event::ClientFpsTick,
            );
        }

        while let Some((t, event)) = self.scratch.events.pop() {
            if t > self.end {
                break;
            }
            self.now = t;
            self.dispatch(event);
        }
        self.now = self.end;
        self.finalize()
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::AppWake => self.app_cycle(),
            Event::AppStartRender => self.app_render_begin(),
            Event::RenderDone { gen } => self.on_render_done(gen),
            Event::ProxyWake { gen } => self.on_proxy_wake(gen),
            Event::ProxyStageDone { gen } => self.on_proxy_stage_done(gen),
            Event::SenderWake => self.on_sender_wake(),
            Event::FrameArrived { frame } => self.on_frame_arrived(frame),
            Event::DecodeDone { frame } => self.on_decode_done(frame),
            Event::InputCreated => self.on_input_created(),
            Event::InputAtServer { id } => self.on_input_at_server(id),
            Event::RvsFeedback { diff, lag } => {
                if let Some(rvs) = self.policy.rvs.as_mut() {
                    rvs.on_feedback(diff, lag);
                }
            }
            Event::IntMaxFeedback { fps } => {
                if let Some(a) = self.policy.adaptive_pacer.as_mut() {
                    a.on_client_feedback(fps);
                }
            }
            Event::ClientFpsTick => self.on_client_fps_tick(),
            Event::Present => self.on_scheduled_present(),
        }
    }

    // ------------------------------------------------------------------
    // Application side.
    // ------------------------------------------------------------------

    /// Starts one app main-loop iteration: checks buffer space (ODR) and
    /// pacing delays, then either blocks, waits, or begins rendering.
    fn app_cycle(&mut self) {
        // ODR: a frame may only be rendered into a free back buffer.
        if self.policy.buf1_policy == FullPolicy::Block && !self.mul_buf1.has_space() {
            self.app_state = AppState::BlockedOnBuffer;
            return;
        }
        let start = self.pacing_start();
        if start > self.now {
            self.app_state = AppState::WaitingDelay;
            self.scratch.events.push(start, Event::AppStartRender);
        } else {
            self.app_render_begin();
        }
    }

    /// When the frame that is ready `now` may start rendering, per the
    /// active baseline pacing (ODR/NoReg: immediately).
    fn pacing_start(&mut self) -> SimTime {
        if let Some(p) = self.policy.fixed_pacer.as_mut() {
            return p.frame_start(self.now);
        }
        if let Some(a) = self.policy.adaptive_pacer.as_mut() {
            return a.frame_start(self.now);
        }
        if let Some(rvs) = self.policy.rvs.as_ref() {
            // RVS: wait out the feedback-scaled delay, then lock to the
            // client display's vblank grid.
            let delayed = self.now + rvs.render_delay();
            return rvs.clock().next_vblank(delayed);
        }
        self.now
    }

    fn app_render_begin(&mut self) {
        let priority_input = if self.policy.priority {
            self.gate.begin_frame()
        } else {
            None
        };
        let frame = self
            .scratch
            .lanes
            .alloc(priority_input, self.last_input_at_app);
        self.app_state = AppState::Rendering;
        if self.cfg.trace {
            let priority = self.scratch.lanes.is_priority(frame);
            self.scratch.traces.push(FrameTrace {
                id: frame.id(),
                priority,
                ..FrameTrace::default()
            });
        }
        self.obs(ObsEvent::begin(self.obs_now(), track::APP, names::RENDER).with_id(frame.id()));
        let base = self.frame_model.render.sample(&mut self.rng_render);
        self.set_mem(MemClient::AppLogic, true);
        self.set_mem(MemClient::Render, true);
        let job = self.new_job(frame, base);
        self.scratch
            .events
            .push(self.job_deadline(&job), Event::RenderDone { gen: job.gen });
        self.render_job = Some(job);
    }

    /// Creates a job for `base` seconds of work at the current contention
    /// level.
    fn new_job(&mut self, frame: FrameRef, base: Duration) -> Job {
        self.job_gen += 1;
        Job {
            frame,
            remaining: base.as_secs_f64(),
            rate: self.mem.slowdown(),
            last: self.now,
            started: self.now,
            gen: self.job_gen,
        }
    }

    fn job_deadline(&self, job: &Job) -> SimTime {
        self.now + odr_simtime::time::secs_f64(job.remaining * job.rate)
    }

    /// Flips a memory client and re-plans every in-flight job at the new
    /// contention level (Section 4.3's feedback loop).
    fn set_mem(&mut self, client: MemClient, active: bool) {
        self.mem.set_active(self.now, client, active);
        let slowdown = self.mem.slowdown();
        let now = self.now;
        let mut pending = Vec::new();
        if let Some(job) = self.render_job.as_mut() {
            if let Some(fire) = replan(job, now, slowdown, &mut self.job_gen) {
                pending.push((fire, Event::RenderDone { gen: job.gen }));
            }
        }
        if let Some((_, job)) = self.proxy_job.as_mut() {
            if let Some(fire) = replan(job, now, slowdown, &mut self.job_gen) {
                pending.push((fire, Event::ProxyStageDone { gen: job.gen }));
            }
        }
        for (fire, event) in pending {
            self.scratch.events.push(fire, event);
        }
    }

    fn on_render_done(&mut self, gen: u64) {
        let Some(job) = self.render_job.take_if(|j| j.gen == gen) else {
            return; // Stale completion from before a re-plan.
        };
        let frame = job.frame;
        self.scratch.lanes.set_render_end(frame, self.now);
        let started = job.started;
        self.obs(ObsEvent::end(self.obs_now(), track::APP, names::RENDER).with_id(frame.id()));
        self.trace_update(frame.id(), |t, now| t.render = Some((started, now)));
        self.set_mem(MemClient::AppLogic, false);
        self.set_mem(MemClient::Render, false);
        if self.now >= self.warmup {
            self.frames_rendered += 1;
            let t = self.metric_time();
            self.render_rate.record(t);
            self.gap.producer.record(t);
        }

        // Publish into Mul-Buf1.
        let is_priority = self.scratch.lanes.is_priority(frame);
        if is_priority {
            // PriorityFrame: unsent frames rendered earlier are obsolete.
            self.flush_buf1_obsolete();
            let stored = matches!(self.mul_buf1.publish(frame), Publish::Stored);
            debug_assert!(stored, "flush must have made room");
        } else {
            match self.mul_buf1.publish(frame) {
                Publish::Stored => {}
                Publish::ReplacedNewest => self.mark_dropped_newest_before(frame.id()),
                Publish::WouldBlock(_) => {
                    // Space was checked before rendering began and the app
                    // is the only producer, so this cannot fire; if the
                    // invariant ever broke, dropping the frame beats
                    // unwinding the pipeline mid-step.
                    debug_assert!(false, "Mul-Buf1 filled while the app held the back buffer");
                }
            }
        }

        // Wake the proxy if it is waiting for a frame, or cancel its
        // regulator sleep for a priority frame.
        match self.proxy_state {
            ProxyState::WaitingFrame => self.proxy_take_next(),
            ProxyState::Sleeping { until } if is_priority => {
                self.regulator.cancel_pending_sleep_recorded(
                    until.saturating_since(self.now),
                    self.now.as_nanos(),
                    self.recorder.as_ref(),
                );
                self.proxy_gen += 1;
                self.proxy_cycle_start = self.now;
                self.proxy_take_next();
            }
            _ => {}
        }

        // Continue the app loop.
        self.app_cycle();
    }

    /// Marks the overwritten (newest pending before `new_id`) frame's trace
    /// as dropped. The overwriting publish already accounted the drop.
    fn mark_dropped_newest_before(&mut self, new_id: u64) {
        self.obs(ObsEvent::instant(
            self.obs_now(),
            track::BUF1,
            names::RENDER_DROP,
        ));
        if self.cfg.trace {
            // The replaced frame is the one with the largest id below
            // `new_id` that never reached the proxy.
            if let Some(t) = self
                .scratch
                .traces
                .iter_mut()
                .rev()
                .find(|t| t.id < new_id && t.copy.is_none())
            {
                t.dropped = true;
            }
        }
    }

    fn flush_buf1_obsolete(&mut self) {
        if self.cfg.trace {
            let ids: Vec<u64> = {
                let mut q = self.mul_buf1.clone();
                core::iter::from_fn(move || q.pop()).map(|f| f.id()).collect()
            };
            for id in ids {
                if let Some(t) = self.scratch.traces.iter_mut().find(|t| t.id == id) {
                    t.dropped = true;
                }
            }
        }
        let flushed = self.mul_buf1.flush_obsolete();
        if flushed > 0 {
            self.obs(
                ObsEvent::instant(self.obs_now(), track::BUF1, names::RENDER_FLUSH)
                    .with_value(flushed as f64),
            );
        }
    }

    // ------------------------------------------------------------------
    // Proxy side.
    // ------------------------------------------------------------------

    fn proxy_take_next(&mut self) {
        match self.mul_buf1.pop() {
            Some(frame) => {
                // Popping freed a back buffer: unblock the app.
                if self.app_state == AppState::BlockedOnBuffer {
                    self.app_cycle();
                }
                self.obs(
                    ObsEvent::begin(self.obs_now(), track::PROXY, names::COPY).with_id(frame.id()),
                );
                let base = self.frame_model.copy.sample(&mut self.rng_copy);
                self.set_mem(MemClient::Copy, true);
                let job = self.new_job(frame, base);
                self.scratch.events.push(
                    self.job_deadline(&job),
                    Event::ProxyStageDone { gen: job.gen },
                );
                self.proxy_job = Some((ProxyPhase::Copy, job));
                self.proxy_state = ProxyState::Copying;
            }
            None => self.proxy_state = ProxyState::WaitingFrame,
        }
    }

    fn on_proxy_stage_done(&mut self, gen: u64) {
        let Some((phase, job)) = self.proxy_job.take_if(|(_, j)| j.gen == gen) else {
            return; // Stale completion from before a re-plan.
        };
        let frame = job.frame;
        let started = job.started;
        match phase {
            ProxyPhase::Copy => {
                self.obs(
                    ObsEvent::end(self.obs_now(), track::PROXY, names::COPY).with_id(frame.id()),
                );
                self.obs(
                    ObsEvent::begin(self.obs_now(), track::PROXY, names::ENCODE)
                        .with_id(frame.id()),
                );
                self.trace_update(frame.id(), |t, now| t.copy = Some((started, now)));
                self.set_mem(MemClient::Copy, false);
                let base = self.frame_model.encode.sample(&mut self.rng_encode);
                self.set_mem(MemClient::Encode, true);
                let job = self.new_job(frame, base);
                self.scratch.events.push(
                    self.job_deadline(&job),
                    Event::ProxyStageDone { gen: job.gen },
                );
                self.proxy_job = Some((ProxyPhase::Encode, job));
                self.proxy_state = ProxyState::Encoding;
            }
            ProxyPhase::Encode => {
                self.obs(
                    ObsEvent::end(self.obs_now(), track::PROXY, names::ENCODE).with_id(frame.id()),
                );
                self.trace_update(frame.id(), |t, now| t.encode = Some((started, now)));
                self.on_encode_done(frame);
            }
        }
    }

    fn on_encode_done(&mut self, frame: FrameRef) {
        self.set_mem(MemClient::Encode, false);
        let size = self.frame_model.size.sample(&mut self.rng_size, frame.id());
        self.scratch.lanes.set_size(frame, size);
        self.trace_size(frame.id(), size);
        if self.now >= self.warmup {
            let t = self.metric_time();
            self.encode_rate.record(t);
        }

        if self.policy.use_buf2 {
            let is_priority = self.scratch.lanes.is_priority(frame);
            if is_priority {
                // Unsent frames in Mul-Buf2 are obsolete too.
                self.flush_buf2_obsolete();
            }
            match self.mul_buf2.publish(frame) {
                Publish::Stored => {
                    self.sender_take();
                    self.proxy_finish_cycle(is_priority);
                }
                Publish::WouldBlock(f) => {
                    self.parked_frame = Some(f);
                    self.proxy_state = ProxyState::BlockedOnBuffer;
                }
                Publish::ReplacedNewest => {
                    // Mul-Buf2 is a blocking queue, so a publish never
                    // replaces; if that invariant ever broke, continuing
                    // the proxy cycle beats unwinding mid-step.
                    debug_assert!(false, "Mul-Buf2 is a blocking queue");
                    self.sender_take();
                    self.proxy_finish_cycle(is_priority);
                }
            }
        } else {
            // Baselines: blocking write straight into the downlink socket.
            let delivery = self.downlink.send(self.now, size);
            self.obs(
                ObsEvent::begin(self.obs_now(), track::NET, names::TRANSMIT).with_id(frame.id()),
            );
            self.trace_update(frame.id(), |t, now| {
                t.transmit = Some((now, delivery.arrival));
            });
            self.scratch
                .events
                .push(delivery.arrival, Event::FrameArrived { frame });
            if delivery.accepted > self.now {
                self.proxy_state = ProxyState::BlockedOnSocket;
                self.proxy_gen += 1;
                let gen = self.proxy_gen;
                self.scratch
                    .events
                    .push(delivery.accepted, Event::ProxyWake { gen });
            } else {
                self.proxy_finish_cycle(false);
            }
        }
    }

    fn flush_buf2_obsolete(&mut self) {
        if self.cfg.trace {
            let ids: Vec<u64> = {
                let mut q = self.mul_buf2.clone();
                core::iter::from_fn(move || q.pop()).map(|f| f.id()).collect()
            };
            for id in ids {
                if let Some(t) = self.scratch.traces.iter_mut().find(|t| t.id == id) {
                    t.dropped = true;
                }
            }
        }
        let flushed = self.mul_buf2.flush_obsolete();
        if flushed > 0 {
            self.obs(
                ObsEvent::instant(self.obs_now(), track::BUF2, names::ENCODE_FLUSH)
                    .with_value(flushed as f64),
            );
        }
    }

    /// Algorithm 1's tail: account the iteration's wall time (frame wait +
    /// copy + encode + Mul-Buf2 wait) against the target interval and sleep
    /// (or not) before swapping in the next frame.
    ///
    /// Measuring the whole iteration — not just the encode — is what makes
    /// the accelerate half of Algorithm 1 effective against *rendering*
    /// spikes too: a late frame eats the balance, so the following frames
    /// run back-to-back until the target window is repaid (Figure 5d).
    fn proxy_finish_cycle(&mut self, was_priority: bool) {
        let _ = was_priority;
        let processing = self.now.saturating_since(self.proxy_cycle_start);
        let sleep = self.regulator.on_frame_processed_recorded(
            processing,
            self.now.as_nanos(),
            self.recorder.as_ref(),
        );
        if sleep > Duration::ZERO {
            // A waiting priority frame must not be delayed: skip the sleep
            // but keep the balance.
            if self.policy.priority && self.buf1_head_priority() {
                self.regulator.cancel_pending_sleep_recorded(
                    sleep,
                    self.now.as_nanos(),
                    self.recorder.as_ref(),
                );
            } else {
                let until = self.now + sleep;
                self.proxy_state = ProxyState::Sleeping { until };
                self.proxy_gen += 1;
                let gen = self.proxy_gen;
                self.scratch.events.push(until, Event::ProxyWake { gen });
                return;
            }
        }
        self.proxy_cycle_start = self.now;
        self.proxy_take_next();
    }

    fn buf1_head_priority(&self) -> bool {
        self.mul_buf1
            .peek()
            .map(|f| self.scratch.lanes.is_priority(*f))
            .unwrap_or(false)
    }

    fn on_proxy_wake(&mut self, gen: u64) {
        if gen != self.proxy_gen {
            return; // Cancelled sleep.
        }
        match self.proxy_state {
            ProxyState::BlockedOnSocket => self.proxy_finish_cycle(false),
            ProxyState::Sleeping { .. } => {
                self.proxy_cycle_start = self.now;
                self.proxy_take_next();
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // ODR network sender.
    // ------------------------------------------------------------------

    fn sender_take(&mut self) {
        if self.sender_busy {
            return;
        }
        if let Some(frame) = self.mul_buf2.pop() {
            // Popping freed Mul-Buf2 space: resume a blocked proxy.
            if self.proxy_state == ProxyState::BlockedOnBuffer {
                if let Some(parked) = self.parked_frame.take() {
                    let was_priority = self.scratch.lanes.is_priority(parked);
                    let stored = matches!(self.mul_buf2.publish(parked), Publish::Stored);
                    debug_assert!(stored);
                    self.proxy_finish_cycle(was_priority);
                }
            }
            let delivery = self.downlink.send(self.now, self.scratch.lanes.size(frame));
            self.obs(
                ObsEvent::begin(self.obs_now(), track::NET, names::TRANSMIT).with_id(frame.id()),
            );
            self.trace_update(frame.id(), |t, now| {
                t.transmit = Some((now, delivery.arrival));
            });
            self.scratch
                .events
                .push(delivery.arrival, Event::FrameArrived { frame });
            self.sender_busy = true;
            // The sender thread paces at wire speed: it hands the next
            // frame to the NIC only when this one has fully serialised.
            self.scratch.events.push(delivery.tx_end, Event::SenderWake);
        }
    }

    fn on_sender_wake(&mut self) {
        self.sender_busy = false;
        self.sender_take();
    }

    // ------------------------------------------------------------------
    // Client side.
    // ------------------------------------------------------------------

    fn on_frame_arrived(&mut self, frame: FrameRef) {
        self.obs(ObsEvent::end(self.obs_now(), track::NET, names::TRANSMIT).with_id(frame.id()));
        self.scratch.decode_queue.push_back(frame);
        if !self.decoding {
            self.start_decode();
        }
    }

    fn start_decode(&mut self) {
        if let Some(frame) = self.scratch.decode_queue.pop_front() {
            self.decoding = true;
            self.obs(
                ObsEvent::begin(self.obs_now(), track::CLIENT, names::DECODE).with_id(frame.id()),
            );
            let dur = self.frame_model.decode.sample(&mut self.rng_decode);
            self.trace_update(frame.id(), |t, now| t.decode = Some((now, now + dur)));
            self.scratch
                .events
                .push(self.now + dur, Event::DecodeDone { frame });
        }
    }

    fn on_decode_done(&mut self, frame: FrameRef) {
        self.obs(ObsEvent::end(self.obs_now(), track::CLIENT, names::DECODE).with_id(frame.id()));
        self.decoding = false;
        self.window_decodes += 1;

        // RVS feedback: decode-to-vblank difference, sent upstream.
        if let Some(rvs) = self.policy.rvs.as_ref() {
            let diff = rvs.clock().time_to_vblank(self.now);
            let delivery = self.uplink.send(self.now, 64);
            let lag = delivery
                .arrival
                .saturating_since(self.scratch.lanes.render_end(frame));
            self.scratch
                .events
                .push(delivery.arrival, Event::RvsFeedback { diff, lag });
        }

        self.client_present(frame);

        if !self.scratch.decode_queue.is_empty() {
            self.start_decode();
        }
    }

    /// Routes a decoded frame to the configured presentation model.
    fn client_present(&mut self, frame: FrameRef) {
        match self.cfg.display {
            ClientDisplay::Immediate => self.present_now(frame),
            ClientDisplay::VSync { .. } => {
                // Coalesce: a newer decode before the vblank replaces the
                // pending frame, which is then never shown.
                if self.pending_present.replace(frame).is_some() {
                    self.display_drops += 1;
                    self.obs(ObsEvent::instant(
                        self.obs_now(),
                        track::CLIENT,
                        names::PRESENT_DROP,
                    ));
                }
                if !self.present_scheduled {
                    // The clock exists whenever the display is VSync (built
                    // in `Sim::new` from the same config).
                    let Some(clock) = self.vsync_clock else {
                        return;
                    };
                    let vblank = clock.next_vblank(self.now + Duration::from_nanos(1));
                    self.scratch.events.push(vblank, Event::Present);
                    self.present_scheduled = true;
                }
            }
            ClientDisplay::FreeSync { max_hz } => {
                let min_gap = odr_simtime::time::secs_f64(1.0 / max_hz);
                let earliest = self
                    .last_display
                    .map_or(self.now, |t| (t + min_gap).max(self.now));
                if earliest > self.now {
                    if self.pending_present.replace(frame).is_some() {
                        self.display_drops += 1;
                        self.obs(ObsEvent::instant(
                            self.obs_now(),
                            track::CLIENT,
                            names::PRESENT_DROP,
                        ));
                    }
                    if !self.present_scheduled {
                        self.scratch.events.push(earliest, Event::Present);
                        self.present_scheduled = true;
                    }
                } else {
                    self.present_now(frame);
                }
            }
        }
    }

    fn on_scheduled_present(&mut self) {
        self.present_scheduled = false;
        if let Some(frame) = self.pending_present.take() {
            self.present_now(frame);
        }
    }

    /// The frame reaches the user's eyes: record display metrics and
    /// answer inputs (motion-to-*photon* ends here).
    fn present_now(&mut self, frame: FrameRef) {
        self.obs(
            ObsEvent::instant(self.obs_now(), track::CLIENT, names::PRESENT).with_id(frame.id()),
        );
        if self.now >= self.warmup {
            self.frames_displayed += 1;
            let t = self.metric_time();
            self.gap.consumer.record(t);
            self.satisfaction.record(t);
            if let Some(last) = self.last_display {
                self.scratch
                    .display_intervals_ms
                    .push(self.now.saturating_since(last).as_secs_f64() * 1e3);
            }
        }
        self.last_display = Some(self.now);

        // Motion-to-photon: this frame answers every input applied to the
        // app state before it was simulated.
        if let Some(upto) = self.scratch.lanes.answers_upto(frame) {
            while self.answered_upto <= upto {
                let Ok(idx) = usize::try_from(self.answered_upto) else {
                    break; // unreachable on 64-bit targets
                };
                // Every answered id was pushed by `on_input_created`
                // before the frame that answers it was simulated.
                let Some(&created) = self.scratch.input_created.get(idx) else {
                    break;
                };
                if created >= self.warmup {
                    self.mtp_ms
                        .record(self.now.saturating_since(created).as_secs_f64() * 1e3);
                }
                self.answered_upto += 1;
            }
        }
    }

    fn on_client_fps_tick(&mut self) {
        let fps = self.window_decodes as f64 * 2.0; // 500 ms window
        self.window_decodes = 0;
        let delivery = self.uplink.send(self.now, 64);
        self.scratch
            .events
            .push(delivery.arrival, Event::IntMaxFeedback { fps });
        self.scratch
            .events
            .push(self.now + Duration::from_millis(500), Event::ClientFpsTick);
    }

    // ------------------------------------------------------------------
    // Inputs.
    // ------------------------------------------------------------------

    fn on_input_created(&mut self) {
        let id = self.next_input_id;
        self.next_input_id += 1;
        self.scratch.input_created.push(self.now);
        let delivery = self.uplink.send(self.now, 128);
        self.scratch
            .events
            .push(delivery.arrival, Event::InputAtServer { id });
        let next = self.input_model.next_after(self.now, &mut self.rng_input);
        self.scratch.events.push(next, Event::InputCreated);
    }

    fn on_input_at_server(&mut self, id: u64) {
        self.last_input_at_app = Some(id);
        if !self.policy.priority {
            return;
        }
        self.gate.input_arrived(id, self.now);
        // ODR app-side hook: cancel the buffer-swap wait so the
        // input-triggered frame renders immediately.
        if self.app_state == AppState::BlockedOnBuffer {
            self.flush_buf1_obsolete();
            self.app_cycle();
        }
    }

    // ------------------------------------------------------------------
    // Helpers and finalisation.
    // ------------------------------------------------------------------

    /// Metric timestamps are shifted so the measurement span starts at
    /// window zero.
    fn metric_time(&self) -> SimTime {
        SimTime::from_nanos(self.now.as_nanos() - self.warmup.as_nanos())
    }

    fn trace_update(&mut self, id: u64, f: impl FnOnce(&mut FrameTrace, SimTime)) {
        if self.cfg.trace {
            let now = self.now;
            if let Some(t) = self.scratch.traces.iter_mut().rev().find(|t| t.id == id) {
                f(t, now);
            }
        }
    }

    fn trace_size(&mut self, id: u64, size: u64) {
        self.trace_update(id, |t, _| t.size = size);
    }

    fn finalize(mut self) -> Report {
        let measured_end = self.metric_time();
        let gap_stats = self.gap.stats(measured_end);
        let mut client_summary = self.gap.consumer.summary(measured_end);
        let target_satisfaction = match self.policy.target_fps {
            Some(t) => self.satisfaction.fraction_meeting(measured_end, t),
            None => 1.0,
        };
        let memory = self.mem.report(self.now);
        let mut mtp = self.mtp_ms.clone();
        let mtp_stats = mtp.box_stats();
        let (pacing_cv, stutter_rate) =
            crate::report::pacing_stats(&self.scratch.display_intervals_ms);
        let obs = ObsReport::from_recorder(self.recorder.as_ref());
        Report {
            label: self.cfg.label(),
            render_fps: self.render_rate.mean_rate(measured_end),
            encode_fps: self.encode_rate.mean_rate(measured_end),
            client_fps: self.gap.consumer.mean_rate(measured_end),
            client_fps_stats: client_summary.box_stats(),
            client_fps_windows: self.gap.consumer.rates(measured_end),
            fps_gap_avg: gap_stats.avg,
            fps_gap_max: gap_stats.max,
            mtp_ms: self.mtp_ms,
            mtp_stats,
            target_satisfaction,
            pacing_cv,
            stutter_rate,
            memory,
            net_goodput_mbps: self.downlink.goodput_mbps(self.now),
            net_queue_delay_ms: self.downlink.mean_queue_delay_ms(),
            frames_rendered: self.frames_rendered,
            frames_displayed: self.frames_displayed,
            frames_dropped: self.mul_buf1.drops() + self.mul_buf2.drops(),
            display_drops: self.display_drops,
            priority_frames: self.gate.priority_frames(),
            inputs: self.next_input_id,
            traces: std::mem::take(&mut self.scratch.traces),
            obs,
        }
    }
}

/// Advances a job's progress to `now` and, if the contention level
/// changed, re-rates it and returns the new completion deadline (the old
/// completion event becomes stale via the bumped generation).
fn replan(job: &mut Job, now: SimTime, slowdown: f64, job_gen: &mut u64) -> Option<SimTime> {
    if (job.rate - slowdown).abs() < 1e-12 {
        return None;
    }
    let elapsed = now.saturating_since(job.last).as_secs_f64();
    job.remaining = (job.remaining - elapsed / job.rate).max(0.0);
    job.last = now;
    job.rate = slowdown;
    *job_gen += 1;
    job.gen = *job_gen;
    Some(now + odr_simtime::time::secs_f64(job.remaining * slowdown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_workload::{Benchmark, Resolution};

    fn cfg(spec: RegulationSpec) -> ExperimentConfig {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        ExperimentConfig::new(scenario, spec).with_duration(Duration::from_secs(30))
    }

    #[test]
    fn noreg_has_large_gap() {
        let r = run_experiment(&cfg(RegulationSpec::NoReg));
        assert!(r.render_fps > 150.0, "render {}", r.render_fps);
        assert!(
            r.client_fps > 80.0 && r.client_fps < 115.0,
            "client {}",
            r.client_fps
        );
        assert!(r.fps_gap_avg > 60.0, "gap {}", r.fps_gap_avg);
        assert!(r.frames_dropped > 1000, "drops {}", r.frames_dropped);
    }

    #[test]
    fn odr_max_removes_gap() {
        let r = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Max)));
        assert!(r.fps_gap_avg < 6.0, "gap {}", r.fps_gap_avg);
        assert!(r.client_fps > 85.0, "client {}", r.client_fps);
    }

    #[test]
    fn odr60_meets_target() {
        let r = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Target(60.0))));
        assert!(r.client_fps >= 59.5, "client {}", r.client_fps);
        assert!(r.client_fps <= 66.0, "client {}", r.client_fps);
        assert!(r.fps_gap_avg < 6.0, "gap {}", r.fps_gap_avg);
        // Deep spike windows are repaid in the following window; the
        // overwhelming majority of 200 ms windows meet the target.
        assert!(
            r.target_satisfaction > 0.90,
            "satisfaction {}",
            r.target_satisfaction
        );
    }

    #[test]
    fn int60_misses_target() {
        let r = run_experiment(&cfg(RegulationSpec::interval(60.0)));
        assert!(r.client_fps < 59.0, "client {}", r.client_fps);
        assert!(r.render_fps < 60.5, "render {}", r.render_fps);
    }

    #[test]
    fn vsync_display_caps_rate_and_adds_latency() {
        let base = cfg(RegulationSpec::odr(FpsGoal::Max));
        let immediate = run_experiment(&base);
        let vsync =
            run_experiment(&base.with_display(crate::ClientDisplay::VSync { refresh_hz: 60.0 }));
        assert!(
            immediate.client_fps > 80.0,
            "immediate {}",
            immediate.client_fps
        );
        assert!(vsync.client_fps <= 60.5, "vsync {}", vsync.client_fps);
        assert!(vsync.display_drops > 0, "coalescing must drop frames");
        assert!(
            vsync.mtp_stats.mean > immediate.mtp_stats.mean,
            "vsync {} vs immediate {}",
            vsync.mtp_stats.mean,
            immediate.mtp_stats.mean
        );
        assert_eq!(immediate.display_drops, 0);
    }

    #[test]
    fn freesync_display_tracks_arrival_up_to_its_cap() {
        let base = cfg(RegulationSpec::odr(FpsGoal::Max));
        let fast_panel =
            run_experiment(&base.with_display(crate::ClientDisplay::FreeSync { max_hz: 144.0 }));
        let slow_panel =
            run_experiment(&base.with_display(crate::ClientDisplay::FreeSync { max_hz: 48.0 }));
        // A 144 Hz panel never paces a <100 FPS stream...
        assert!(fast_panel.client_fps > 80.0, "{}", fast_panel.client_fps);
        // ...while a 48 Hz cap does.
        assert!(slow_panel.client_fps <= 48.5, "{}", slow_panel.client_fps);
        // And the variable-refresh panel presents with less added latency
        // than fixed 60 Hz VSync.
        let vsync =
            run_experiment(&base.with_display(crate::ClientDisplay::VSync { refresh_hz: 144.0 }));
        assert!(fast_panel.mtp_stats.mean <= vsync.mtp_stats.mean + 0.5);
    }

    #[test]
    fn priority_frames_render_immediately_after_input() {
        // With PriorityFrame, the frame answering an input must begin
        // rendering almost immediately after the input reaches the app
        // (the buffer-swap wait is cancelled), and reach the client faster
        // than the pipeline's average inter-frame pace.
        let base = cfg(RegulationSpec::odr(FpsGoal::Target(60.0))).with_trace();
        let r = run_experiment(&base);
        let priority: Vec<_> = r.traces.iter().filter(|t| t.priority).collect();
        assert!(!priority.is_empty(), "no priority frames traced");
        // Every decoded priority frame crossed render->decode within a
        // pipeline traversal, with no regulator sleeps in between: bound
        // it by a generous per-stage budget.
        let mut checked = 0;
        for t in &priority {
            let (Some((rs, _)), Some((_, de))) = (t.render, t.decode) else {
                continue;
            };
            let transit_ms = (de - rs).as_secs_f64() * 1e3;
            assert!(transit_ms < 80.0, "priority frame took {transit_ms} ms");
            checked += 1;
        }
        assert!(checked > 5, "too few decoded priority frames: {checked}");
    }

    #[test]
    fn obs_disabled_report_is_empty_and_unchanged() {
        let base = cfg(RegulationSpec::odr(FpsGoal::Target(60.0)));
        let plain = run_experiment(&base);
        let observed = run_experiment(&base.with_obs());
        assert!(!plain.obs.enabled);
        assert!(plain.obs.events.is_empty());
        // Scalar metrics must not move when capture is on.
        assert_eq!(plain.client_fps.to_bits(), observed.client_fps.to_bits());
        assert_eq!(plain.frames_rendered, observed.frames_rendered);
        assert_eq!(plain.frames_dropped, observed.frames_dropped);
        assert_eq!(plain.one_line(), observed.one_line());
    }

    #[test]
    fn obs_capture_covers_every_stage() {
        use odr_obs::names;
        let r = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Target(60.0))).with_obs());
        assert!(r.obs.enabled);
        assert!(!r.obs.events.is_empty());
        for stage in [
            names::RENDER,
            names::COPY,
            names::ENCODE,
            names::TRANSMIT,
            names::DECODE,
            names::PRESENT,
        ] {
            let c = r.obs.counters.get(stage).copied().unwrap_or_default();
            assert!(c.begun > 0, "no {stage} events captured");
        }
        // ODR60 on this workload delays most cycles: the regulator track
        // must show its decisions.
        let delays = r
            .obs
            .counters
            .get(names::REG_DELAY)
            .copied()
            .unwrap_or_default();
        assert!(delays.begun > 0, "no regulator delays captured");
    }

    #[test]
    fn obs_capture_is_deterministic() {
        let base = cfg(RegulationSpec::odr(FpsGoal::Max)).with_obs();
        let a = run_experiment(&base);
        let b = run_experiment(&base);
        assert_eq!(odr_obs::to_jsonl(&a.obs), odr_obs::to_jsonl(&b.obs));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Max)));
        let b = run_experiment(&cfg(RegulationSpec::odr(FpsGoal::Max)));
        assert_eq!(a.client_fps.to_bits(), b.client_fps.to_bits());
        assert_eq!(a.mtp_stats.mean.to_bits(), b.mtp_stats.mean.to_bits());
        assert_eq!(a.frames_rendered, b.frames_rendered);
    }
}
