//! ODR's FPS regulator — Algorithm 1 of the paper.

use odr_obs::{names, track, Event, Recorder};
use odr_simtime::{time::secs_f64, Duration};

use crate::error::{OdrError, OdrResult};

/// The accumulated-delay pacing loop the server proxy runs around frame
/// encoding (Algorithm 1).
///
/// After each frame, the regulator accumulates
/// `acc_delay += interval − processing_time`. A positive balance means the
/// proxy is running ahead of the FPS target and must sleep for the balance;
/// a negative balance means it is behind and must *accelerate*: keep
/// processing back-to-back, with no sleep, until the debt is repaid. This
/// accelerate-and-delay symmetry is what distinguishes ODR from
/// delay-only regulators and lets it meet the target over every small
/// window despite processing-time spikes (Section 5.2).
///
/// # Examples
///
/// ```
/// use core::time::Duration;
/// use odr_core::FpsRegulator;
///
/// let mut reg = FpsRegulator::new(60.0); // 16.67 ms interval
///
/// // A fast frame: sleep the remainder of the interval.
/// let sleep = reg.on_frame_processed(Duration::from_millis(10));
/// assert!(sleep > Duration::from_millis(6) && sleep < Duration::from_millis(7));
///
/// // A 30 ms spike puts us ~13 ms in debt...
/// assert_eq!(reg.on_frame_processed(Duration::from_millis(30)), Duration::ZERO);
/// // ...so the next fast frame is NOT delayed (acceleration).
/// assert_eq!(reg.on_frame_processed(Duration::from_millis(10)), Duration::ZERO);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FpsRegulator {
    /// Expected per-frame interval; `None` disables pacing (ODRMax).
    interval: Option<Duration>,
    /// Accumulated delay in seconds. Positive: ahead of target (sleep).
    /// Negative: behind target (accelerate).
    acc_delay: f64,
    /// Floor on `acc_delay`; `f64::NEG_INFINITY` reproduces Algorithm 1
    /// exactly. See [`FpsRegulator::with_max_debt`].
    debt_floor: f64,
    /// When `false`, negative balances are clamped to zero — the delay-only
    /// ablation, which degenerates to interval-style pacing.
    accelerate: bool,
    frames: u64,
    slept: f64,
}

impl FpsRegulator {
    /// Creates a regulator for `target_fps` frames per second.
    ///
    /// # Panics
    ///
    /// Panics if `target_fps` is not strictly positive.
    #[must_use]
    pub fn new(target_fps: f64) -> Self {
        assert!(target_fps > 0.0, "target FPS must be positive");
        FpsRegulator {
            interval: Some(secs_f64(1.0 / target_fps)),
            acc_delay: 0.0,
            debt_floor: f64::NEG_INFINITY,
            accelerate: true,
            frames: 0,
            slept: 0.0,
        }
    }

    /// Fallible form of [`FpsRegulator::new`]: rejects a non-positive
    /// target instead of panicking.
    pub fn try_new(target_fps: f64) -> OdrResult<Self> {
        if target_fps > 0.0 {
            Ok(Self::new(target_fps))
        } else {
            Err(OdrError::invalid_config(
                "target_fps",
                format!("must be strictly positive (got {target_fps})"),
            ))
        }
    }

    /// Creates a no-op regulator: never sleeps. Used for the ODRMax goal,
    /// where the multi-buffers alone pace the pipeline to the slowest
    /// stage.
    #[must_use]
    pub fn unlimited() -> Self {
        FpsRegulator {
            interval: None,
            acc_delay: 0.0,
            debt_floor: f64::NEG_INFINITY,
            accelerate: true,
            frames: 0,
            slept: 0.0,
        }
    }

    /// Bounds how much acceleration debt may accumulate, as a number of
    /// intervals. Algorithm 1 is unbounded; a bound prevents a pathological
    /// multi-second stall (e.g. a network outage) from turning into an
    /// equally long full-speed sprint.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is not strictly positive.
    #[must_use]
    pub fn with_max_debt(mut self, intervals: f64) -> Self {
        assert!(intervals > 0.0, "debt bound must be positive");
        if let Some(iv) = self.interval {
            self.debt_floor = -(iv.as_secs_f64() * intervals);
        }
        self
    }

    /// Disables acceleration: a negative balance is forgotten instead of
    /// repaid. This is the delay-only ablation that reproduces the failure
    /// mode of interval-based regulation (Section 4.1).
    #[must_use]
    pub fn delay_only(mut self) -> Self {
        self.accelerate = false;
        self
    }

    /// Reports that one frame took `processing` to handle and returns how
    /// long the proxy must now sleep (possibly zero).
    pub fn on_frame_processed(&mut self, processing: Duration) -> Duration {
        self.frames += 1;
        let Some(interval) = self.interval else {
            return Duration::ZERO;
        };
        let time_diff = interval.as_secs_f64() - processing.as_secs_f64();
        self.acc_delay += time_diff;
        if !self.accelerate {
            self.acc_delay = self.acc_delay.max(0.0);
        }
        self.acc_delay = self.acc_delay.max(self.debt_floor);
        if self.acc_delay > 0.0 {
            let sleep = self.acc_delay;
            self.acc_delay = 0.0;
            self.slept += sleep;
            secs_f64(sleep)
        } else {
            Duration::ZERO
        }
    }

    /// [`FpsRegulator::on_frame_processed`] plus an observability record:
    /// emits the post-frame `acc_delay` balance as a counter sample and a
    /// delay/accelerate instant describing the decision, stamped `now_ns`
    /// on the regulator track. The regulation arithmetic is exactly the
    /// unrecorded method's — recording never changes a decision.
    pub fn on_frame_processed_recorded(
        &mut self,
        processing: Duration,
        now_ns: u64,
        recorder: &dyn Recorder,
    ) -> Duration {
        let sleep = self.on_frame_processed(processing);
        if recorder.enabled() {
            recorder.record(Event::counter(
                now_ns,
                track::REGULATOR,
                names::REG_ACC_DELAY,
                self.acc_delay,
            ));
            if sleep > Duration::ZERO {
                recorder.record(
                    Event::instant(now_ns, track::REGULATOR, names::REG_DELAY)
                        .with_value(sleep.as_secs_f64()),
                );
            } else if self.acc_delay < 0.0 {
                recorder.record(
                    Event::instant(now_ns, track::REGULATOR, names::REG_ACCELERATE)
                        .with_value(-self.acc_delay),
                );
            }
        }
        sleep
    }

    /// PriorityFrame hook: the regulator sleep for the current frame is
    /// cancelled; the skipped delay is *not* forgotten, it stays in the
    /// balance so the long-run FPS target is unaffected.
    pub fn cancel_pending_sleep(&mut self, remaining: Duration) {
        self.acc_delay += remaining.as_secs_f64();
        self.slept -= remaining.as_secs_f64();
    }

    /// [`FpsRegulator::cancel_pending_sleep`] plus an observability record
    /// of the cancellation and the balance it restored.
    pub fn cancel_pending_sleep_recorded(
        &mut self,
        remaining: Duration,
        now_ns: u64,
        recorder: &dyn Recorder,
    ) {
        self.cancel_pending_sleep(remaining);
        if recorder.enabled() {
            recorder.record(
                Event::instant(now_ns, track::REGULATOR, names::REG_CANCEL)
                    .with_value(remaining.as_secs_f64()),
            );
            recorder.record(Event::counter(
                now_ns,
                track::REGULATOR,
                names::REG_ACC_DELAY,
                self.acc_delay,
            ));
        }
    }

    /// The configured interval, if any.
    #[must_use]
    pub fn interval(&self) -> Option<Duration> {
        self.interval
    }

    /// Current accumulated balance in seconds (positive = ahead).
    #[must_use]
    pub fn balance_secs(&self) -> f64 {
        self.acc_delay
    }

    /// Number of frames reported.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Total time spent sleeping, in seconds.
    #[must_use]
    pub fn total_slept_secs(&self) -> f64 {
        self.slept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn ms(n: u64) -> Duration {
        MS * u32::try_from(n).expect("small")
    }

    #[test]
    fn fast_frames_sleep_remainder() {
        let mut r = FpsRegulator::new(100.0); // 10 ms interval
        let sleep = r.on_frame_processed(ms(4));
        assert_eq!(sleep, ms(6));
        assert_eq!(r.balance_secs(), 0.0);
    }

    #[test]
    fn exact_interval_never_sleeps() {
        let mut r = FpsRegulator::new(100.0);
        for _ in 0..100 {
            assert_eq!(r.on_frame_processed(ms(10)), Duration::ZERO);
        }
    }

    #[test]
    fn spike_is_repaid_by_acceleration() {
        let mut r = FpsRegulator::new(100.0);
        // 30 ms spike: 20 ms debt.
        assert_eq!(r.on_frame_processed(ms(30)), Duration::ZERO);
        // Two 4 ms frames repay 6 ms each: still in debt, no sleep.
        assert_eq!(r.on_frame_processed(ms(4)), Duration::ZERO);
        assert_eq!(r.on_frame_processed(ms(4)), Duration::ZERO);
        // Debt is now 20 − 12 = 8 ms; a 4 ms frame clears 6 more...
        assert_eq!(r.on_frame_processed(ms(4)), Duration::ZERO);
        // ...leaving 2 ms; the next 4 ms frame flips the balance positive
        // by 4 ms and sleeps it.
        assert_eq!(r.on_frame_processed(ms(4)), ms(4));
    }

    #[test]
    fn long_run_rate_meets_target_under_spikes() {
        // Alternating 2 ms and 22 ms frames (mean 12 ms < 16.6 ms): the
        // regulator must average exactly 60 fps.
        let mut r = FpsRegulator::new(60.0);
        let mut elapsed = 0.0;
        let n = 10_000;
        for i in 0..n {
            let work = if i % 2 == 0 { ms(2) } else { ms(22) };
            elapsed += work.as_secs_f64();
            elapsed += r.on_frame_processed(work).as_secs_f64();
        }
        let fps = f64::from(n) / elapsed;
        assert!((fps - 60.0).abs() < 0.1, "fps {fps}");
    }

    #[test]
    fn delay_only_misses_target_under_spikes() {
        // Same workload, delay-only: every spike's overrun is lost, so the
        // achieved FPS falls below 60 (the Int60 failure mode).
        let mut r = FpsRegulator::new(60.0).delay_only();
        let mut elapsed = 0.0;
        let n = 10_000;
        for i in 0..n {
            let work = if i % 2 == 0 { ms(2) } else { ms(22) };
            elapsed += work.as_secs_f64();
            elapsed += r.on_frame_processed(work).as_secs_f64();
        }
        let fps = f64::from(n) / elapsed;
        assert!(fps < 58.0, "fps {fps}");
    }

    #[test]
    fn unlimited_never_sleeps() {
        let mut r = FpsRegulator::unlimited();
        assert_eq!(r.on_frame_processed(ms(1)), Duration::ZERO);
        assert_eq!(r.on_frame_processed(ms(100)), Duration::ZERO);
        assert_eq!(r.interval(), None);
    }

    #[test]
    fn debt_floor_caps_sprint() {
        let mut r = FpsRegulator::new(100.0).with_max_debt(2.0); // floor −20 ms
                                                                 // A 500 ms stall would be 490 ms of debt unbounded.
        assert_eq!(r.on_frame_processed(ms(500)), Duration::ZERO);
        assert!((r.balance_secs() + 0.020).abs() < 1e-12);
        // Repaying 20 ms takes two 0 ms frames at 10 ms credit each.
        assert_eq!(r.on_frame_processed(Duration::ZERO), Duration::ZERO);
        assert_eq!(r.on_frame_processed(Duration::ZERO), Duration::ZERO);
        // Now balanced: next instant frame sleeps a full interval.
        assert_eq!(r.on_frame_processed(Duration::ZERO), ms(10));
    }

    #[test]
    fn cancel_pending_sleep_preserves_balance() {
        let mut r = FpsRegulator::new(100.0);
        let sleep = r.on_frame_processed(ms(2)); // 8 ms sleep granted
        assert_eq!(sleep, ms(8));
        // A priority frame arrives 3 ms into the sleep: 5 ms remain.
        r.cancel_pending_sleep(ms(5));
        assert!((r.balance_secs() - 0.005).abs() < 1e-12);
        // The balance is paid back on the next frame.
        let next = r.on_frame_processed(ms(10));
        assert_eq!(next, ms(5));
    }

    #[test]
    fn counters_track_activity() {
        let mut r = FpsRegulator::new(50.0);
        r.on_frame_processed(ms(10));
        r.on_frame_processed(ms(10));
        assert_eq!(r.frames(), 2);
        assert!((r.total_slept_secs() - 0.020).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target FPS must be positive")]
    fn zero_fps_panics() {
        let _ = FpsRegulator::new(0.0);
    }

    #[test]
    fn try_new_rejects_non_positive_targets() {
        assert!(FpsRegulator::try_new(60.0).is_ok());
        let err = FpsRegulator::try_new(0.0).expect_err("zero fps");
        assert!(err.to_string().contains("target_fps"), "{err}");
        assert!(FpsRegulator::try_new(-1.0).is_err());
    }

    #[test]
    fn recorded_variant_matches_unrecorded_and_emits_events() {
        use odr_obs::{names, Kind, Recorder, RingRecorder};

        let ring = RingRecorder::default();
        let mut plain = FpsRegulator::new(100.0);
        let mut recorded = FpsRegulator::new(100.0);
        for work in [ms(4), ms(30), ms(4)] {
            let a = plain.on_frame_processed(work);
            let b = recorded.on_frame_processed_recorded(work, 0, &ring);
            assert_eq!(a, b, "recording must not change decisions");
        }
        assert_eq!(plain.balance_secs(), recorded.balance_secs());

        let events = ring.drain().events;
        // Every frame samples acc_delay; decisions add delay/accelerate.
        let samples = events
            .iter()
            .filter(|e| e.kind == Kind::Counter && e.name == names::REG_ACC_DELAY)
            .count();
        assert_eq!(samples, 3);
        assert!(events.iter().any(|e| e.name == names::REG_DELAY));
        assert!(events.iter().any(|e| e.name == names::REG_ACCELERATE));
    }

    #[test]
    fn recorded_cancel_emits_priority_cancel() {
        use odr_obs::{names, Recorder, RingRecorder};

        let ring = RingRecorder::default();
        let mut r = FpsRegulator::new(100.0);
        let _ = r.on_frame_processed(ms(2));
        r.cancel_pending_sleep_recorded(ms(5), 10, &ring);
        assert!((r.balance_secs() - 0.005).abs() < 1e-12);
        let events = ring.drain().events;
        assert!(events.iter().any(|e| e.name == names::REG_CANCEL));
    }
}
