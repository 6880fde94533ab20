//! OnDemand Rendering (ODR): the paper's core mechanisms, plus the baseline
//! FPS regulators it is evaluated against.
//!
//! ODR (EuroSys'24) regulates the frame rate of a cloud 3D pipeline with
//! three cooperating mechanisms:
//!
//! 1. **Multi-buffering** ([`FrameQueue`], [`SyncQueue`]) — bounded
//!    front/back frame buffers between the 3D application and the server
//!    proxy (Mul-Buf1) and between the proxy and the network (Mul-Buf2).
//!    Producers *block* on a full buffer instead of overwriting, so every
//!    stage naturally paces itself to the slowest stage without collecting
//!    any timing feedback.
//! 2. **FPS regulation** ([`FpsRegulator`], the paper's Algorithm 1) — an
//!    accumulated-delay pacing loop in the proxy that sleeps when encoding
//!    runs ahead of the target interval and — unlike prior regulators —
//!    *accelerates* (runs back-to-back) when behind, so the target is met
//!    over every small window despite processing-time spikes.
//! 3. **PriorityFrame** ([`PriorityGate`]) — frames triggered by user
//!    inputs cancel the rendering delay, flush obsolete buffered frames,
//!    and skip the regulator sleep, keeping motion-to-photon latency low.
//!
//! The baselines the paper compares against live here too, so that the
//! simulator and the real-time runtime share one implementation:
//! interval-based regulation ([`IntervalPacer`]), its FPS-maximising
//! adaptive variant ([`AdaptiveIntervalPacer`]), and Remote VSync
//! ([`RvsRegulator`]).
//!
//! Everything in this crate is expressed over [`odr_simtime::SimTime`] and
//! plain state machines, so the same code drives both the discrete-event
//! simulator (`odr-pipeline`) and the real-thread runtime (`odr-runtime`,
//! via [`SyncQueue`]).
//!
//! The threaded multi-buffer has one engine for both full-buffer
//! policies: [`SyncQueue`] wraps the lock-free [`AtomicSwap`], whose
//! step machines are the ones the `odr-check` atomics-aware model
//! checker explores. The DES drives the pure [`FrameQueue`] directly.

/// Arena-pooled event storage: the slab-indexed event queue the fleet
/// engine reuses across sessions instead of allocating per event.
pub mod arena;
/// The multi-buffer swap engine: generation-counted lock-free slot
/// exchange, step machines shared with the `odr-check` atomics model.
pub mod atomic_swap;
/// The unified [`error::OdrError`] every fallible crate boundary returns.
pub mod error;
/// Shared simulation entry-point options: [`options::FidelityMode`] and
/// [`options::SimOptions`], embedded by every engine config.
pub mod options;
/// Interval-based frame pacers: the paper's fixed-interval baseline and
/// its FPS-maximising adaptive variant.
pub mod pacer;
/// The PriorityFrame gate: marks input-answering frames that must bypass
/// regulation.
pub mod priority;
/// The bounded multi-buffer [`queue::FrameQueue`] with the paper's
/// block/overwrite full-buffer policies.
pub mod queue;
/// The ODR frame-rate regulator that caps rendering at the display's
/// consumption rate.
pub mod regulator;
/// Remote VSync baseline: client-driven render triggering.
pub mod rvs;
/// Display/refresh specifications shared by simulator and runtime.
pub mod spec;
/// The thread-safe multi-buffer: [`atomic_swap::AtomicSwap`] plus
/// observability.
pub mod sync_queue;

pub use arena::{EventArena, SlabEventQueue};
pub use atomic_swap::{AtomicSwap, TryPop, TryPublish};
pub use error::{OdrError, OdrResult};
pub use options::{FidelityMode, SimOptions};
pub use pacer::{AdaptiveIntervalPacer, IntervalPacer};
pub use priority::PriorityGate;
pub use queue::{FrameQueue, Publish};
pub use regulator::FpsRegulator;
pub use rvs::RvsRegulator;
pub use spec::{FpsGoal, OdrOptions, RegulationSpec};
pub use sync_queue::{QueueObs, SyncQueue};
