//! Differential property test: the lock-free `SyncQueue` must be
//! observably identical to a sequential reference — the pure
//! `FrameQueue` the DES drives, plus a `closed` flag — for any
//! single-threaded schedule of publish/pop/priority/close operations,
//! in both full-buffer policies.
//!
//! Driven sequentially there is no contention, so every operation is
//! deterministic and the comparison is exact: same outcome enum, same
//! popped values, same drop counter, same occupancy after every step.
//! Concurrent behaviour is covered by the atomics-aware model checker
//! in `odr-check` (`amodel`); this test nails the sequential semantics
//! the threaded queue shares with the simulator's.

use odr_core::queue::{FrameQueue, FullPolicy, Publish};
use odr_core::{SyncQueue, TryPop, TryPublish};
use proptest::prelude::*;

/// The sequential reference: the paper's swap contract written directly
/// over the pure queue.
struct Reference {
    queue: FrameQueue<u64>,
    closed: bool,
}

impl Reference {
    fn new(capacity: usize, policy: FullPolicy) -> Self {
        Reference {
            queue: FrameQueue::new(capacity, policy),
            closed: false,
        }
    }

    fn try_publish(&mut self, frame: u64) -> TryPublish<u64> {
        if self.closed {
            return TryPublish::Closed;
        }
        match self.queue.publish(frame) {
            Publish::Stored | Publish::ReplacedNewest => TryPublish::Accepted,
            Publish::WouldBlock(returned) => TryPublish::MustWait(returned),
        }
    }

    fn try_pop(&mut self) -> TryPop<u64> {
        match self.queue.pop() {
            Some(frame) => TryPop::Frame(frame),
            None if self.closed => TryPop::Drained,
            None => TryPop::MustWait,
        }
    }

    fn publish_priority(&mut self, frame: u64) -> Option<usize> {
        if self.closed {
            return None;
        }
        let flushed = self.queue.flush_obsolete();
        let stored = self.queue.publish(frame);
        assert!(matches!(stored, Publish::Stored), "flush leaves room");
        Some(flushed)
    }
}

/// One operation of an arbitrary schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    TryPublish,
    TryPop,
    Priority,
    Close,
}

fn op_from(code: u8) -> Op {
    match code % 8 {
        // Bias toward publish/pop so schedules exercise full and empty
        // buffers; close is rare (it is absorbing for publishes).
        0..=2 => Op::TryPublish,
        3..=5 => Op::TryPop,
        6 => Op::Priority,
        _ => Op::Close,
    }
}

/// Applies `ops` to the queue and the reference in lockstep, asserting
/// every observable matches at every step.
fn run_differential(
    policy: FullPolicy,
    capacity: usize,
    codes: &[u8],
) -> Result<(), TestCaseError> {
    let mut reference = Reference::new(capacity, policy);
    let queue: SyncQueue<u64> = match policy {
        FullPolicy::Block => SyncQueue::new_blocking(capacity),
        FullPolicy::Overwrite => SyncQueue::new_overwriting(capacity),
    };

    let mut token: u64 = 0;
    for (i, &code) in codes.iter().enumerate() {
        match op_from(code) {
            Op::TryPublish => {
                token += 1;
                let a = reference.try_publish(token);
                let b = queue.try_publish(token);
                prop_assert_eq!(&a, &b, "step {}: try_publish({}) diverged", i, token);
            }
            Op::TryPop => {
                let a = reference.try_pop();
                let b = queue.try_pop_outcome();
                prop_assert_eq!(&a, &b, "step {}: try_pop diverged", i);
            }
            Op::Priority => {
                token += 1;
                let a = reference.publish_priority(token);
                let b = queue.publish_priority(token);
                prop_assert_eq!(a, b, "step {}: publish_priority({}) diverged", i, token);
            }
            Op::Close => {
                reference.closed = true;
                queue.close();
            }
        }
        prop_assert_eq!(
            reference.closed,
            queue.is_closed(),
            "step {}: is_closed diverged",
            i
        );
        prop_assert_eq!(
            reference.queue.drops(),
            queue.drops(),
            "step {}: drops diverged",
            i
        );
        prop_assert_eq!(
            reference.queue.len(),
            queue.len(),
            "step {}: len diverged",
            i
        );
        prop_assert_eq!(
            reference.queue.is_empty(),
            queue.is_empty(),
            "step {}: is_empty diverged",
            i
        );
    }

    // Drain both to the end: the tails must agree too.
    loop {
        let a = reference.try_pop();
        let b = queue.try_pop_outcome();
        prop_assert_eq!(&a, &b, "drain diverged");
        match a {
            TryPop::Frame(_) => {}
            TryPop::Drained | TryPop::MustWait => break,
        }
    }
    Ok(())
}

proptest! {
    /// Overwrite mode: arbitrary schedules, capacities 1-4.
    #[test]
    fn queue_matches_reference_in_overwrite_mode(
        codes in prop::collection::vec(any::<u8>(), 0..96),
        cap in 1usize..5,
    ) {
        run_differential(FullPolicy::Overwrite, cap, &codes)?;
    }

    /// Blocking mode: arbitrary schedules, capacities 1-4. `try_*`
    /// surfaces the would-block edges as `MustWait`, so full/empty
    /// boundary behaviour is compared without any actual blocking.
    #[test]
    fn queue_matches_reference_in_block_mode(
        codes in prop::collection::vec(any::<u8>(), 0..96),
        cap in 1usize..5,
    ) {
        run_differential(FullPolicy::Block, cap, &codes)?;
    }
}
