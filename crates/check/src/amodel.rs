//! Atomics-aware model checker for the multi-buffer swap engine.
//!
//! A deterministic, loom-style explorer of bounded thread interleavings
//! over *virtual atomics with memory-ordering semantics*, run against
//! the real [`odr_core::atomic_swap`] transition machines — the code
//! production executes behind every `SyncQueue`, not a
//! re-implementation. Every execution checks the paper's swap
//! semantics (DESIGN.md §1): FIFO delivery with no torn or stale pops,
//! bounded occupancy, blocking (never dropping) producers in ODR mode,
//! replace-newest in NoReg mode, priority publishes flushing every
//! obsolete frame, conservation of frames, and termination of every
//! thread.
//!
//! # Memory model
//!
//! Shared memory is a per-location *message history* (every store
//! appends a message) plus per-thread *views* (the oldest message index
//! a thread may still observe per location), in the release/acquire
//! view-propagation style of TraceForge/GenMC-like checkers:
//!
//! * a `Release`-or-stronger store attaches the storing thread's view
//!   to its message; an `Acquire`-or-stronger load joins that view into
//!   the loading thread's;
//! * a `Relaxed` store attaches **no** view — readers learn the value
//!   but not what it was supposed to publish;
//! * atomic control-word loads read the latest message (coherence-
//!   latest: these words are CAS-claimed, so stale control reads would
//!   only add retry noise); the *payload* cells are where staleness
//!   bites, and a payload read may return **any** message at or after
//!   the reader's view — so a frame published with a `Relaxed` seq
//!   store lets the consumer read a stale or uninitialised
//!   ([`SENTINEL`]) payload. That is exactly the seeded
//!   `relaxed_publish` bug, and the checker observes it as a torn pop.
//!
//! # Scheduling
//!
//! One machine step (at most one observable shared-memory operation)
//! per scheduler decision, drawn by a [`Chooser`]: exhaustive DFS with
//! an execution budget, seeded-random exploration, or exact replay of
//! a recorded failing trace. `Busy` outcomes park the thread until
//! *any* other thread writes (a GenMC-style await), turning production
//! spin-loops into scheduler blocks so the DFS stays finite. A spin that
//! reloads state without reporting `Busy` never parks, so an unfair
//! schedule runs it into the step limit: the checker reports it as a
//! livelock. `MustWait` outcomes park
//! on a virtual gate woken by the corresponding signal edges, with a
//! spurious-wakeup budget. The eventcount internals of the production
//! gate (its Dekker-fenced prepare/recheck/park handshake) are std-level
//! mutex/condvar code outside this model's scope; the threaded tests in
//! `odr-core` exercise them.

use std::collections::VecDeque;

use odr_core::atomic_swap::{
    Effect, OrderingProfile, PopM, PopOut, PriorityM, PriorityOut, Protocol, PublishM, PublishOut,
    SlotLayout, Step, SwapMem,
};
use odr_core::queue::FullPolicy;

/// The value a payload cell holds before any frame was written to it.
/// Popping it means the consumer observed a slot before its payload.
pub const SENTINEL: u64 = u64::MAX;

/// First token of the priority-publish stream.
const PRIORITY_BASE: u64 = 1000;
/// First token of the pre-fill stream (frames enqueued before the
/// exploration starts).
const PREFILL_BASE: u64 = 5000;

/// Why an execution violated the protocol contract.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub message: String,
    /// The decision trace that reproduces it (see [`replay`]).
    pub trace: Vec<u32>,
}

/// Outcome of exploring one scenario.
#[derive(Debug, Default)]
pub struct Explored {
    /// Complete interleavings executed.
    pub executions: u64,
    /// Deepest decision stack seen.
    pub max_depth: usize,
    /// `true` if DFS exhausted the space within budget (random mode
    /// never sets this).
    pub complete: bool,
    /// First contract violation found, if any.
    pub failure: Option<Failure>,
}

/// How the next scheduling/nondeterminism decision is drawn: DFS
/// backtracking, seeded-random draws, or exact trace replay.
pub enum Chooser<'a> {
    /// Follow/extend the DFS schedule prefix.
    Dfs {
        /// The decision prefix being explored (mutated by backtracking).
        schedule: &'a mut Vec<u32>,
        /// Option count observed at each decision point.
        options: &'a mut Vec<u32>,
        /// Next decision index.
        pos: usize,
    },
    /// Seeded pseudo-random draws, recording the trace.
    Random {
        /// splitmix64 state.
        state: u64,
        /// Decisions drawn so far (the replayable trace).
        trace: &'a mut Vec<u32>,
    },
    /// Replay a fixed trace exactly (clamps politely past the end).
    Replay {
        /// The recorded decision trace.
        trace: &'a [u32],
        /// Next decision index.
        pos: usize,
    },
}

impl Chooser<'_> {
    /// Draws the next decision in `0..n`.
    pub fn choose(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0);
        match self {
            Chooser::Dfs {
                schedule,
                options,
                pos,
            } => {
                if *pos == schedule.len() {
                    schedule.push(0);
                    options.push(n);
                }
                options[*pos] = n;
                let c = schedule[*pos];
                *pos += 1;
                c.min(n - 1)
            }
            Chooser::Random { state, trace } => {
                // splitmix64: deterministic for a given seed.
                *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let c = ((u128::from(z) * u128::from(n)) >> 64) as u32;
                trace.push(c);
                c
            }
            Chooser::Replay { trace, pos } => {
                let c = trace.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                c.min(n - 1)
            }
        }
    }
}

/// A bounded scenario for the atomic swap protocol.
#[derive(Clone, Debug)]
pub struct AScenario {
    /// Display name (also used by the regression corpus).
    pub name: &'static str,
    /// Queue capacity.
    pub capacity: usize,
    /// Full-buffer policy under test.
    pub policy: FullPolicy,
    /// Frames the producer publishes during exploration.
    pub frames: u32,
    /// Frames published deterministically before exploration starts
    /// (cheap way to start from a full buffer).
    pub prefill: u32,
    /// Every n-th producer publish is a priority publish (0 = never).
    pub priority_every: u32,
    /// Producer closes after its last frame; otherwise a racing closer
    /// thread closes at an arbitrary point.
    pub producer_closes: bool,
    /// Spurious gate wakeups the scheduler may inject.
    pub spurious_budget: u32,
    /// Ordering profile (shipped, or a seeded bug).
    pub profile: OrderingProfile,
}

impl AScenario {
    /// A scenario with the shipped orderings and no prefill/priority.
    #[must_use]
    pub fn lockfree(
        name: &'static str,
        policy: FullPolicy,
        capacity: usize,
        frames: u32,
        producer_closes: bool,
    ) -> Self {
        AScenario {
            name,
            capacity,
            policy,
            frames,
            prefill: 0,
            priority_every: 0,
            producer_closes,
            spurious_budget: 1,
            profile: OrderingProfile::shipped(),
        }
    }

    /// Same scenario under a different ordering profile.
    #[must_use]
    pub fn with_profile(mut self, profile: OrderingProfile) -> Self {
        self.profile = profile;
        self
    }
}

/// One store in a location's history: the value, and the storing
/// thread's view when the store was `Release` or stronger.
struct Msg {
    val: u64,
    view: Option<Vec<u32>>,
}

/// Virtual shared memory: message histories for the control words and
/// the payload cells, plus the SeqCst-accumulated view and a global
/// store counter (the wake condition for `Busy`-parked threads).
struct VMem {
    lay: SlotLayout,
    ctrl: Vec<Vec<Msg>>,
    pay: Vec<Vec<Msg>>,
    sc: Vec<u32>,
    stores: u64,
}

impl VMem {
    fn new(lay: SlotLayout) -> Self {
        let ctrl = (0..lay.words())
            .map(|loc| {
                vec![Msg {
                    val: lay.initial(loc),
                    view: None,
                }]
            })
            .collect();
        let pay = (0..lay.capacity())
            .map(|_| {
                vec![Msg {
                    val: SENTINEL,
                    view: None,
                }]
            })
            .collect();
        VMem {
            lay,
            ctrl,
            pay,
            sc: vec![0; lay.words() + lay.capacity()],
            stores: 0,
        }
    }

    /// View-index of a payload cell (control words come first).
    fn pay_loc(&self, slot: usize) -> usize {
        self.lay.words() + slot
    }

    fn latest_ctrl(&self, loc: usize) -> u64 {
        match self.ctrl[loc].last() {
            Some(m) => m.val,
            None => 0,
        }
    }
}

fn join(dst: &mut [u32], src: &[u32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn is_acquire(ord: MemOrdLike) -> bool {
    matches!(
        ord,
        MemOrdLike::Acquire | MemOrdLike::AcqRel | MemOrdLike::SeqCst
    )
}

fn is_release(ord: MemOrdLike) -> bool {
    matches!(
        ord,
        MemOrdLike::Release | MemOrdLike::AcqRel | MemOrdLike::SeqCst
    )
}

use odr_core::atomic_swap::MemOrd as MemOrdLike;

/// [`SwapMem`] over the virtual memory: one thread's lens. Borrows the
/// shared memory, the thread's view, and the scheduler's chooser (for
/// stale payload reads).
struct Vm<'x, 'a> {
    mem: &'x mut VMem,
    view: &'x mut Vec<u32>,
    chooser: &'x mut Chooser<'a>,
}

impl SwapMem for Vm<'_, '_> {
    fn load(&mut self, loc: usize, ord: MemOrdLike) -> u64 {
        let hist = &self.mem.ctrl[loc];
        let last = hist.len() - 1;
        self.view[loc] = self.view[loc].max(last as u32);
        let msg = &hist[last];
        if is_acquire(ord) {
            if let Some(v) = &msg.view {
                let v = v.clone();
                join(self.view, &v);
            }
            if ord == MemOrdLike::SeqCst {
                let sc = self.mem.sc.clone();
                join(self.view, &sc);
            }
        }
        msg.val
    }

    fn store(&mut self, loc: usize, val: u64, ord: MemOrdLike) {
        let idx = self.mem.ctrl[loc].len() as u32;
        self.view[loc] = idx;
        let view = if is_release(ord) {
            Some(self.view.clone())
        } else {
            None
        };
        if ord == MemOrdLike::SeqCst {
            join(&mut self.mem.sc, self.view);
        }
        self.mem.ctrl[loc].push(Msg { val, view });
        self.mem.stores += 1;
    }

    fn compare_exchange(
        &mut self,
        loc: usize,
        current: u64,
        new: u64,
        success: MemOrdLike,
        failure: MemOrdLike,
    ) -> Result<u64, u64> {
        // RMWs are atomic: they always read (and extend) the latest
        // message in coherence order.
        let last = self.mem.ctrl[loc].len() - 1;
        let read = self.mem.ctrl[loc][last].val;
        self.view[loc] = self.view[loc].max(last as u32);
        if read != current {
            if is_acquire(failure) {
                if let Some(v) = &self.mem.ctrl[loc][last].view {
                    let v = v.clone();
                    join(self.view, &v);
                }
            }
            return Err(read);
        }
        if is_acquire(success) {
            if let Some(v) = &self.mem.ctrl[loc][last].view {
                let v = v.clone();
                join(self.view, &v);
            }
            if success == MemOrdLike::SeqCst {
                let sc = self.mem.sc.clone();
                join(self.view, &sc);
            }
        }
        let idx = self.mem.ctrl[loc].len() as u32;
        self.view[loc] = idx;
        let view = if is_release(success) {
            Some(self.view.clone())
        } else {
            None
        };
        if success == MemOrdLike::SeqCst {
            join(&mut self.mem.sc, self.view);
        }
        self.mem.ctrl[loc].push(Msg { val: new, view });
        self.mem.stores += 1;
        Ok(read)
    }

    fn fetch_add(&mut self, loc: usize, add: u64, ord: MemOrdLike) -> u64 {
        let last = self.mem.ctrl[loc].len() - 1;
        let read = self.mem.ctrl[loc][last].val;
        self.view[loc] = self.view[loc].max(last as u32);
        if is_acquire(ord) {
            if let Some(v) = &self.mem.ctrl[loc][last].view {
                let v = v.clone();
                join(self.view, &v);
            }
        }
        let idx = self.mem.ctrl[loc].len() as u32;
        self.view[loc] = idx;
        let view = if is_release(ord) {
            Some(self.view.clone())
        } else {
            None
        };
        self.mem.ctrl[loc].push(Msg {
            val: read.wrapping_add(add),
            view,
        });
        self.mem.stores += 1;
        read
    }

    fn payload_write(&mut self, slot: usize, token: u64) {
        // Payload cells are plain data: the message carries no view —
        // ONLY a release edge on the seq word makes it visible in
        // order.
        let ploc = self.mem.pay_loc(slot);
        let idx = self.mem.pay[slot].len() as u32;
        self.view[ploc] = idx;
        self.mem.pay[slot].push(Msg {
            val: token,
            view: None,
        });
        self.mem.stores += 1;
    }

    fn payload_read(&mut self, slot: usize) -> u64 {
        // The reader may observe any message at or after its view:
        // this is where an under-ordered publication becomes a torn
        // (stale) read.
        let ploc = self.mem.pay_loc(slot);
        let hist = &self.mem.pay[slot];
        let lo = (self.view[ploc] as usize).min(hist.len() - 1);
        let hi = hist.len() - 1;
        let pick = if lo == hi {
            hi
        } else {
            lo + self.chooser.choose((hi - lo + 1) as u32) as usize
        };
        self.view[ploc] = pick as u32;
        hist[pick].val
    }

    fn payload_discard(&mut self, _slot: usize) {
        // Dropping a frame has no shared-memory effect in the model.
    }
}

const GATE_SPACE: usize = 0;
const GATE_DATA: usize = 1;

/// Why a virtual thread is not runnable.
enum Park {
    /// Parked on a gate (blocking-mode MustWait edge); woken by the
    /// matching signal, close, or a spurious wakeup.
    Gate(usize),
    /// Spin converted to a block: runnable again after any store
    /// (`VMem::stores` moved past the snapshot).
    Progress(u64),
}

/// The machine a thread is currently driving.
enum Task {
    Publish(PublishM),
    Pop(PopM),
    Priority(PriorityM),
    Close,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Producer,
    Consumer,
    Closer,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Producer => "producer",
            Role::Consumer => "consumer",
            Role::Closer => "closer",
        }
    }
}

struct AThread {
    role: Role,
    task: Option<Task>,
    /// Frames the producer has successfully published.
    sent: u32,
    /// Ghost token the consumer's in-flight pop claimed.
    expected: Option<u64>,
    park: Option<Park>,
    done: bool,
}

impl AThread {
    fn new(role: Role) -> Self {
        AThread {
            role,
            task: None,
            sent: 0,
            expected: None,
            park: None,
            done: false,
        }
    }
}

struct World<'s> {
    s: &'s AScenario,
    proto: Protocol,
    mem: VMem,
    views: Vec<Vec<u32>>,
    threads: Vec<AThread>,
    /// Ghost FIFO of published tokens, updated at linearization points.
    ghost: VecDeque<u64>,
    received: Vec<u64>,
    accepted: u64,
    dropped: u64,
    spurious_left: u32,
    violation: Option<String>,
}

impl<'s> World<'s> {
    fn new(s: &'s AScenario) -> Self {
        let proto = Protocol::with_profile(s.capacity, s.policy, s.profile);
        let lay = proto.layout();
        let mut threads = vec![AThread::new(Role::Producer), AThread::new(Role::Consumer)];
        if !s.producer_closes {
            threads.push(AThread::new(Role::Closer));
        }
        let views = threads
            .iter()
            .map(|_| vec![0u32; lay.words() + lay.capacity()])
            .collect();
        World {
            s,
            proto,
            mem: VMem::new(lay),
            views,
            threads,
            ghost: VecDeque::new(),
            received: Vec::new(),
            accepted: 0,
            dropped: 0,
            spurious_left: s.spurious_budget,
            violation: None,
        }
    }

    /// Publishes `prefill` frames to completion before exploration
    /// starts, on the producer's view (the producer thread "did" them).
    /// Publishing makes no nondeterministic choices, so a replay
    /// chooser is safe here.
    fn prefill(&mut self) {
        debug_assert!(self.s.prefill as usize <= self.s.capacity);
        for i in 0..self.s.prefill {
            let mut m = self.proto.publish(PREFILL_BASE + u64::from(i));
            let mut fixed = Chooser::Replay {
                trace: &[],
                pos: 0,
            };
            loop {
                let step = {
                    let mut vm = Vm {
                        mem: &mut self.mem,
                        view: &mut self.views[0],
                        chooser: &mut fixed,
                    };
                    m.step(&mut vm)
                };
                if let Some(e) = m.take_effect() {
                    self.apply_effect(0, e);
                }
                if let Step::Done(out) = step {
                    debug_assert!(matches!(out, PublishOut::Accepted { .. }));
                    break;
                }
            }
        }
    }

    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
    }

    fn apply_effect(&mut self, tid: usize, effect: Effect) {
        match effect {
            Effect::Published(tok) => {
                if (PRIORITY_BASE..PREFILL_BASE).contains(&tok) && !self.ghost.is_empty() {
                    self.fail(format!(
                        "priority token {tok} published behind {} unflushed obsolete frame(s)",
                        self.ghost.len()
                    ));
                    return;
                }
                if self.ghost.len() >= self.s.capacity {
                    self.fail(format!(
                        "occupancy exceeded: token {tok} published into a full ghost queue \
                         (capacity {})",
                        self.s.capacity
                    ));
                    return;
                }
                self.ghost.push_back(tok);
                self.accepted += 1;
            }
            Effect::DroppedNewest => match self.ghost.pop_back() {
                Some(_) => self.dropped += 1,
                None => self.fail(
                    "overwrite reclaimed a frame the ghost queue does not have".to_string(),
                ),
            },
            Effect::FlushedOldest => match self.ghost.pop_front() {
                Some(_) => self.dropped += 1,
                None => {
                    self.fail("priority flush claimed a frame the ghost queue does not have"
                        .to_string());
                }
            },
            Effect::PopClaimed => match self.ghost.pop_front() {
                Some(tok) => self.threads[tid].expected = Some(tok),
                None => self.fail(
                    "pop claimed a frame the ghost queue does not have (double consume)"
                        .to_string(),
                ),
            },
        }
    }

    /// Wakes every thread parked on gate `g`.
    fn signal_gate(&mut self, g: usize) {
        for t in &mut self.threads {
            if matches!(t.park, Some(Park::Gate(parked)) if parked == g) {
                t.park = None;
            }
        }
    }

    /// Installs the thread's next task per its role script; returns
    /// `false` when the role's script is exhausted (thread done).
    fn schedule(&mut self, tid: usize) -> bool {
        let role = self.threads[tid].role;
        match role {
            Role::Producer => {
                let sent = self.threads[tid].sent;
                if sent < self.s.frames {
                    let task = if self.s.priority_every > 0
                        && (sent + 1) % self.s.priority_every == 0
                    {
                        Task::Priority(self.proto.publish_priority(PRIORITY_BASE + u64::from(sent)))
                    } else {
                        Task::Publish(self.proto.publish(u64::from(sent)))
                    };
                    self.threads[tid].task = Some(task);
                    true
                } else if self.s.producer_closes {
                    self.threads[tid].task = Some(Task::Close);
                    true
                } else {
                    self.threads[tid].done = true;
                    false
                }
            }
            Role::Consumer => {
                self.threads[tid].task = Some(Task::Pop(self.proto.pop()));
                true
            }
            Role::Closer => {
                self.threads[tid].task = Some(Task::Close);
                true
            }
        }
    }

    /// Runs one step of thread `tid`'s current machine.
    fn step_thread(&mut self, tid: usize, chooser: &mut Chooser<'_>) {
        if self.threads[tid].task.is_none() && !self.schedule(tid) {
            return;
        }
        let mut task = match self.threads[tid].task.take() {
            Some(t) => t,
            None => return,
        };
        match &mut task {
            Task::Close => {
                {
                    let mut vm = Vm {
                        mem: &mut self.mem,
                        view: &mut self.views[tid],
                        chooser,
                    };
                    self.proto.close(&mut vm);
                }
                self.signal_gate(GATE_SPACE);
                self.signal_gate(GATE_DATA);
                self.threads[tid].done = true;
            }
            Task::Publish(m) => {
                let step = {
                    let mut vm = Vm {
                        mem: &mut self.mem,
                        view: &mut self.views[tid],
                        chooser,
                    };
                    m.step(&mut vm)
                };
                if let Some(e) = m.take_effect() {
                    self.apply_effect(tid, e);
                }
                match step {
                    Step::Pending => self.threads[tid].task = Some(task),
                    Step::Done(PublishOut::Accepted { .. }) => {
                        self.threads[tid].sent += 1;
                        self.signal_gate(GATE_DATA);
                    }
                    Step::Done(PublishOut::Closed) => self.threads[tid].done = true,
                    Step::Done(PublishOut::MustWait) => {
                        if self.s.policy == FullPolicy::Overwrite {
                            self.fail("overwrite-mode publish must never block".to_string());
                        }
                        // Fresh machine after wakeup (`sent` unchanged).
                        self.threads[tid].park = Some(Park::Gate(GATE_SPACE));
                    }
                    Step::Done(PublishOut::Busy) => {
                        self.threads[tid].park = Some(Park::Progress(self.mem.stores));
                    }
                }
            }
            Task::Pop(m) => {
                let step = {
                    let mut vm = Vm {
                        mem: &mut self.mem,
                        view: &mut self.views[tid],
                        chooser,
                    };
                    m.step(&mut vm)
                };
                if let Some(e) = m.take_effect() {
                    self.apply_effect(tid, e);
                }
                match step {
                    Step::Pending => self.threads[tid].task = Some(task),
                    Step::Done(PopOut::Frame(tok)) => {
                        match self.threads[tid].expected.take() {
                            None => self.fail(format!(
                                "pop delivered token {tok} without having claimed a frame"
                            )),
                            Some(exp) if exp != tok => self.fail(format!(
                                "torn/stale pop: delivered token {tok}, the claimed frame was \
                                 {exp}{}",
                                if tok == SENTINEL {
                                    " (uninitialised payload)"
                                } else {
                                    ""
                                }
                            )),
                            Some(_) => self.received.push(tok),
                        }
                        self.signal_gate(GATE_SPACE);
                    }
                    Step::Done(PopOut::Drained) => self.threads[tid].done = true,
                    Step::Done(PopOut::MustWait) => {
                        self.threads[tid].park = Some(Park::Gate(GATE_DATA));
                    }
                    Step::Done(PopOut::Busy) => {
                        self.threads[tid].park = Some(Park::Progress(self.mem.stores));
                    }
                }
            }
            Task::Priority(m) => {
                let step = {
                    let mut vm = Vm {
                        mem: &mut self.mem,
                        view: &mut self.views[tid],
                        chooser,
                    };
                    m.step(&mut vm)
                };
                if let Some(e) = m.take_effect() {
                    self.apply_effect(tid, e);
                }
                match step {
                    Step::Pending => self.threads[tid].task = Some(task),
                    Step::Done(PriorityOut::Accepted { .. }) => {
                        self.threads[tid].sent += 1;
                        self.signal_gate(GATE_DATA);
                        self.signal_gate(GATE_SPACE);
                    }
                    Step::Done(PriorityOut::Closed) => self.threads[tid].done = true,
                    Step::Done(PriorityOut::Busy) => {
                        // Flush progress already reached the ghost via
                        // effects; a fresh machine resumes cleanly.
                        self.threads[tid].park = Some(Park::Progress(self.mem.stores));
                    }
                }
            }
        }
    }

    fn final_checks(&self) -> Option<String> {
        let received = self.received.len() as u64;
        let remaining = self.ghost.len() as u64;
        if received + self.dropped + remaining != self.accepted {
            return Some(format!(
                "conservation violated: received {received} + dropped {} + remaining \
                 {remaining} != accepted {}",
                self.dropped, self.accepted
            ));
        }
        let counter = self.mem.latest_ctrl(SlotLayout::DROPS);
        if counter != self.dropped {
            return Some(format!(
                "drop counter ({counter}) disagrees with ghost drops ({})",
                self.dropped
            ));
        }
        if self.s.policy == FullPolicy::Block && self.s.priority_every == 0 && self.dropped != 0 {
            return Some(format!(
                "blocking mode without priority publishes dropped {} frame(s)",
                self.dropped
            ));
        }
        // Per-stream monotonicity: normal (< PRIORITY_BASE), priority
        // ([PRIORITY_BASE, PREFILL_BASE)), prefill (>= PREFILL_BASE)
        // tokens must each arrive in publish order.
        for w in self.received.windows(2) {
            let stream = |t: u64| {
                if t >= PREFILL_BASE {
                    2
                } else if t >= PRIORITY_BASE {
                    1
                } else {
                    0
                }
            };
            if stream(w[0]) == stream(w[1]) && w[0] >= w[1] {
                return Some(format!(
                    "reordered delivery: token {} before token {}",
                    w[0], w[1]
                ));
            }
        }
        // With the producer closing its own queue, blocking mode and no
        // flushes, delivery must be exact: every prefill token then
        // every produced token.
        if self.s.producer_closes
            && self.s.policy == FullPolicy::Block
            && self.s.priority_every == 0
        {
            let expected: Vec<u64> = (0..self.s.prefill)
                .map(|i| PREFILL_BASE + u64::from(i))
                .chain((0..self.s.frames).map(u64::from))
                .collect();
            if self.received != expected {
                return Some(format!(
                    "exact delivery violated: got {:?}, want {expected:?}",
                    self.received
                ));
            }
        }
        None
    }
}

/// Executes one interleaving of `s`, decisions drawn from `chooser`.
/// `None` means every invariant held.
#[must_use]
pub fn execute(s: &AScenario, chooser: &mut Chooser<'_>) -> Option<String> {
    let mut w = World::new(s);
    w.prefill();
    if let Some(v) = w.violation.take() {
        return Some(v);
    }
    let step_limit =
        200 + 80 * (s.frames as usize + s.prefill as usize + 2) * w.threads.len();
    for _ in 0..step_limit {
        // Busy-parked threads wake as soon as anyone has written.
        let stores = w.mem.stores;
        for t in &mut w.threads {
            if matches!(t.park, Some(Park::Progress(seen)) if stores > seen) {
                t.park = None;
            }
        }
        let runnable: Vec<usize> = w
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.done && t.park.is_none())
            .map(|(i, _)| i)
            .collect();
        let spurious: Vec<usize> = if w.spurious_left > 0 {
            w.threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.done && matches!(t.park, Some(Park::Gate(_))))
                .map(|(i, _)| i)
                .collect()
        } else {
            Vec::new()
        };
        if runnable.is_empty() && spurious.is_empty() {
            if w.threads.iter().all(|t| t.done) {
                return w.final_checks();
            }
            let stuck: Vec<&str> = w
                .threads
                .iter()
                .filter(|t| !t.done)
                .map(|t| t.role.name())
                .collect();
            return Some(format!(
                "deadlock / lost wakeup: no runnable thread, stuck: {}",
                stuck.join(", ")
            ));
        }
        let n = (runnable.len() + spurious.len()) as u32;
        let c = if n == 1 { 0 } else { chooser.choose(n) } as usize;
        if c < runnable.len() {
            w.step_thread(runnable[c], chooser);
        } else {
            w.spurious_left -= 1;
            w.threads[spurious[c - runnable.len()]].park = None;
        }
        if let Some(v) = w.violation.take() {
            return Some(v);
        }
        if w.threads.iter().all(|t| t.done) {
            return w.final_checks();
        }
    }
    Some("step limit exceeded: livelock in the atomic model or scenario too large".to_string())
}

/// Exhaustive DFS over every schedule of `s`, up to `max_executions`.
#[must_use]
pub fn explore_dfs(s: &AScenario, max_executions: u64) -> Explored {
    let mut result = Explored::default();
    let mut schedule: Vec<u32> = Vec::new();
    let mut options: Vec<u32> = Vec::new();
    loop {
        let violation = {
            let mut chooser = Chooser::Dfs {
                schedule: &mut schedule,
                options: &mut options,
                pos: 0,
            };
            execute(s, &mut chooser)
        };
        result.executions += 1;
        result.max_depth = result.max_depth.max(schedule.len());
        if let Some(message) = violation {
            result.failure = Some(Failure {
                message,
                trace: schedule.clone(),
            });
            return result;
        }
        if result.executions >= max_executions {
            return result; // budget exhausted; complete stays false
        }
        // Backtrack: bump the deepest choice that still has siblings.
        let mut depth = schedule.len();
        loop {
            if depth == 0 {
                result.complete = true;
                return result;
            }
            depth -= 1;
            if schedule[depth] + 1 < options[depth] {
                schedule[depth] += 1;
                schedule.truncate(depth + 1);
                options.truncate(depth + 1);
                break;
            }
        }
    }
}

/// Seeded pseudo-random exploration: `n` executions, deterministic for
/// a given `seed`.
#[must_use]
pub fn explore_random(s: &AScenario, n: u64, seed: u64) -> Explored {
    let mut result = Explored::default();
    for i in 0..n {
        let mut trace = Vec::new();
        let violation = {
            let mut chooser = Chooser::Random {
                state: seed ^ (i.wrapping_mul(0x2545_f491_4f6c_dd1d)),
                trace: &mut trace,
            };
            execute(s, &mut chooser)
        };
        result.executions += 1;
        result.max_depth = result.max_depth.max(trace.len());
        if let Some(message) = violation {
            result.failure = Some(Failure {
                message,
                trace,
            });
            return result;
        }
    }
    result
}

/// Replays a recorded decision trace exactly. `None` means the trace no
/// longer reproduces a violation.
#[must_use]
pub fn replay(s: &AScenario, trace: &[u32]) -> Option<String> {
    let mut chooser = Chooser::Replay { trace, pos: 0 };
    execute(s, &mut chooser)
}

/// The checked-in suite: every scenario must hold under exhaustive DFS
/// (within budget) and seeded-random exploration.
#[must_use]
pub fn atomic_suite() -> Vec<AScenario> {
    vec![
        AScenario::lockfree("lockfree/block-cap1-handoff", FullPolicy::Block, 1, 1, false),
        {
            let mut s =
                AScenario::lockfree("lockfree/block-cap1-backpressure", FullPolicy::Block, 1, 1, true);
            s.prefill = 1;
            s
        },
        {
            let mut s = AScenario::lockfree(
                "lockfree/overwrite-cap1-replace",
                FullPolicy::Overwrite,
                1,
                1,
                true,
            );
            s.prefill = 1;
            s
        },
        AScenario::lockfree(
            "lockfree/overwrite-cap1-close-race",
            FullPolicy::Overwrite,
            1,
            1,
            false,
        ),
        {
            let mut s =
                AScenario::lockfree("lockfree/priority-flush-race", FullPolicy::Block, 1, 1, true);
            s.prefill = 1;
            s.priority_every = 1;
            s
        },
        AScenario::lockfree("lockfree/block-cap2-pipeline", FullPolicy::Block, 2, 2, true),
        AScenario::lockfree("odr/cap2-racing-closer", FullPolicy::Block, 2, 3, false),
        {
            // Two obsolete frames: the flush must drain both while the
            // consumer races it for each slot. No spurious wakeups, so
            // the DFS budget goes to the claim races.
            let mut s =
                AScenario::lockfree("odr/cap2-priority-flush", FullPolicy::Block, 2, 1, true);
            s.prefill = 2;
            s.priority_every = 1;
            s.spurious_budget = 0;
            s
        },
        AScenario::lockfree(
            "noreg/cap2-racing-closer",
            FullPolicy::Overwrite,
            2,
            3,
            false,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean_exhaustive(s: &AScenario, budget: u64) {
        let r = explore_dfs(s, budget);
        assert!(
            r.failure.is_none(),
            "{}: {:?}",
            s.name,
            r.failure.map(|f| (f.message, f.trace))
        );
        assert!(r.complete, "{}: budget too small ({})", s.name, budget);
    }

    #[test]
    fn handoff_scenario_is_clean_and_exhaustive() {
        assert_clean_exhaustive(
            &AScenario::lockfree("t/handoff", FullPolicy::Block, 1, 1, false),
            200_000,
        );
    }

    #[test]
    fn overwrite_replace_scenario_is_clean_and_exhaustive() {
        // Start full so the single publish exercises the
        // drop-newest-and-republish path.
        let mut s = AScenario::lockfree("t/replace", FullPolicy::Overwrite, 1, 1, true);
        s.prefill = 1;
        s.spurious_budget = 0; // keep the space exhaustible in-test
        assert_clean_exhaustive(&s, 2_000_000);
    }

    #[test]
    fn backpressure_scenario_is_clean_and_exhaustive() {
        let mut s = AScenario::lockfree("t/backpressure", FullPolicy::Block, 1, 1, true);
        s.prefill = 1;
        assert_clean_exhaustive(&s, 800_000);
    }

    #[test]
    fn deeper_scenarios_hold_within_budget() {
        for mut s in atomic_suite() {
            s.spurious_budget = 0; // keep the debug-build test fast
            let r = explore_dfs(&s, 30_000);
            assert!(
                r.failure.is_none(),
                "{}: {:?}",
                s.name,
                r.failure.map(|f| (f.message, f.trace))
            );
        }
    }

    #[test]
    fn random_exploration_is_deterministic_and_clean() {
        for s in atomic_suite() {
            let a = explore_random(&s, 300, 7);
            let b = explore_random(&s, 300, 7);
            assert!(a.failure.is_none(), "{}", s.name);
            assert_eq!(a.max_depth, b.max_depth, "{}", s.name);
        }
    }

    #[test]
    fn relaxed_publish_bug_is_found() {
        let s = AScenario::lockfree("t/relaxed-publish", FullPolicy::Block, 1, 1, false)
            .with_profile(OrderingProfile::relaxed_publish());
        let r = explore_dfs(&s, 500_000);
        let f = r.failure.expect("relaxed publish must be caught");
        assert!(
            f.message.contains("torn/stale pop"),
            "unexpected failure: {}",
            f.message
        );
        // The trace must replay to the same class of violation.
        let replayed = replay(&s, &f.trace).expect("trace must replay");
        assert!(replayed.contains("torn/stale pop"), "{replayed}");
    }

    #[test]
    fn skip_claim_cas_bug_is_found() {
        // Overwrite mode: the producer's reclaim CAS and the consumer's
        // claim race for the same slot. A blind claim store (no CAS, no
        // generation check) double-consumes the frame.
        let mut s = AScenario::lockfree("t/skip-claim-cas", FullPolicy::Overwrite, 1, 1, true)
            .with_profile(OrderingProfile::skip_claim_cas());
        s.prefill = 1;
        let r = explore_dfs(&s, 500_000);
        let f = r.failure.expect("blind pop claim must be caught");
        let replayed = replay(&s, &f.trace).expect("trace must replay");
        assert_eq!(replayed, f.message);
    }

    #[test]
    fn shipped_profile_survives_the_bug_scenarios() {
        // The exact scenarios that catch the seeded bugs must be clean
        // under the shipped orderings — no false positives.
        let s1 = AScenario::lockfree("t/clean1", FullPolicy::Block, 1, 1, false);
        assert!(explore_dfs(&s1, 500_000).failure.is_none());
        let mut s2 = AScenario::lockfree("t/clean2", FullPolicy::Block, 1, 1, true);
        s2.prefill = 1;
        s2.priority_every = 1;
        let r2 = explore_dfs(&s2, 2_000_000);
        assert!(
            r2.failure.is_none(),
            "{:?}",
            r2.failure.map(|f| (f.message, f.trace))
        );
    }
}
