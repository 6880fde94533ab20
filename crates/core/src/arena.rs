//! Arena-pooled event storage for the per-session DES.
//!
//! The fleet engine runs millions of short sessions; allocating a fresh
//! `BinaryHeap` per session (and growing it per event) dominated the
//! profile. This module replaces that with two pieces:
//!
//! * [`EventArena`] — a slab that owns every in-flight event payload and
//!   recycles slots through a free list, so steady-state operation does
//!   not touch the allocator at all;
//! * [`SlabEventQueue`] — a binary min-heap of `(time, seq, slot)`
//!   triples over the arena. Heap entries are 24 bytes and `Copy`, so
//!   sift operations move indices, never payloads.
//!
//! The queue's ordering contract is **identical** to
//! [`odr_simtime::EventQueue`]: events pop in ascending `(time, seq)`
//! order where `seq` is the insertion sequence number, i.e. same-time
//! events pop FIFO. Because `seq` is unique per push, the pop order is a
//! total order independent of the heap's internal layout — swapping one
//! queue implementation for the other cannot change a simulation by a
//! single byte.
//!
//! [`SlabEventQueue::reset`] returns the queue to its freshly-constructed
//! state while keeping every allocation, which is what lets a fleet
//! worker reuse one queue across its whole session batch.

use odr_simtime::SimTime;

/// The free-list terminator. Doubles as the "no slot" sentinel returned
/// by [`EventArena::insert`] in the unreachable 2³²-live-events case.
const NIL: u32 = u32::MAX;

/// One arena cell: an event payload, or a link in the intrusive free
/// list threaded through the vacated cells.
#[derive(Debug)]
enum Slot<E> {
    Occupied(E),
    Vacant { next: u32 },
}

/// A slab allocator for event payloads: stable `u32` slots, recycled
/// through a free list threaded *through the vacant cells themselves*.
///
/// `insert` returns the slot index; `take` vacates it and links the cell
/// into the free list for the next insert. Slots are reused LIFO, which
/// keeps the hot working set small and cache-resident. Because the free
/// list is intrusive there is exactly one backing allocation, and the
/// steady state (recycled inserts, takes) touches neither the allocator
/// nor any panicking index — growth is confined to one `#[cold]` slow
/// path, which is what lets the effect pass prove the DES hot loop
/// allocation-free (DESIGN.md §15).
#[derive(Debug)]
pub struct EventArena<E> {
    slots: Vec<Slot<E>>,
    /// Head of the vacant-cell list, [`NIL`] when none are free.
    free_head: u32,
    /// Occupied-cell count.
    live: usize,
}

impl<E> EventArena<E> {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    /// Stores `event` and returns its slot index.
    ///
    /// More than `u32::MAX - 1` simultaneously live events saturates: the
    /// event is dropped and [`NIL`] (`u32::MAX`) comes back, which a
    /// debug build catches. No real session approaches that bound.
    pub fn insert(&mut self, event: E) -> u32 {
        let slot = self.free_head;
        let Some(Slot::Vacant { next }) = self.slots.get(slot as usize) else {
            return self.insert_grow(event);
        };
        self.free_head = *next;
        if let Some(cell) = self.slots.get_mut(slot as usize) {
            *cell = Slot::Occupied(event);
        }
        self.live += 1;
        slot
    }

    /// Growth slow path: no recycled slot available. Out of line so the
    /// steady state stays allocation-free.
    #[cold]
    fn insert_grow(&mut self, event: E) -> u32 {
        debug_assert_eq!(self.free_head, NIL, "free list corrupt");
        let slot = u32::try_from(self.slots.len()).unwrap_or(NIL);
        if slot == NIL {
            debug_assert!(false, "event arena overflow");
            return NIL;
        }
        self.slots.push(Slot::Occupied(event));
        self.live += 1;
        slot
    }

    /// Removes and returns the event at `slot`, recycling the slot.
    ///
    /// A vacant or out-of-range `slot` (a double-take is always a logic
    /// bug) returns `None` in release builds and trips a debug
    /// assertion.
    pub fn take(&mut self, slot: u32) -> Option<E> {
        let Some(cell) = self.slots.get_mut(slot as usize) else {
            debug_assert!(false, "event arena slot out of range");
            return None;
        };
        if matches!(cell, Slot::Vacant { .. }) {
            debug_assert!(false, "event arena slot taken twice");
            return None;
        }
        let prev = core::mem::replace(
            cell,
            Slot::Vacant {
                next: self.free_head,
            },
        );
        self.free_head = slot;
        self.live = self.live.saturating_sub(1);
        match prev {
            Slot::Occupied(event) => Some(event),
            Slot::Vacant { .. } => None,
        }
    }

    /// Number of live (occupied) slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Vacates every slot while keeping the backing allocation.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free_head = NIL;
        self.live = 0;
    }
}

impl<E> Default for EventArena<E> {
    fn default() -> Self {
        EventArena::new()
    }
}

/// A heap entry: fire time, tie-breaking sequence number, arena slot.
///
/// Ordering key is `(time, seq)` ascending — seq is unique, so the key is
/// too, and pop order is a total order.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A discrete-event queue with the exact pop order of
/// [`odr_simtime::EventQueue`] — ascending `(time, insertion seq)` — but
/// backed by an [`EventArena`] and an index min-heap instead of a
/// `BinaryHeap` of payload-carrying entries.
///
/// # Examples
///
/// ```
/// use odr_core::SlabEventQueue;
/// use odr_simtime::SimTime;
///
/// let mut q = SlabEventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct SlabEventQueue<E> {
    arena: EventArena<E>,
    /// Heap storage. The live heap is the prefix `heap[..heap_len]`;
    /// entries past it are retained spare capacity (stale `Copy` data),
    /// so a steady-state push writes into already-initialized storage
    /// instead of growing the vector.
    heap: Vec<HeapEntry>,
    heap_len: usize,
    next_seq: u64,
}

impl<E> SlabEventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        SlabEventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events, so
    /// a caller that schedules a known batch up front allocates the heap
    /// and the arena once instead of growing both by doubling.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SlabEventQueue {
            arena: EventArena {
                slots: Vec::with_capacity(capacity),
                free_head: NIL,
                live: 0,
            },
            heap: Vec::with_capacity(capacity),
            heap_len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let slot = self.arena.insert(event);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = HeapEntry { time, seq, slot };
        if let Some(cell) = self.heap.get_mut(self.heap_len) {
            *cell = entry;
            self.heap_len += 1;
        } else {
            self.heap_grow(entry);
        }
        self.sift_up(self.heap_len - 1);
    }

    /// Heap growth slow path, out of line like [`EventArena::insert_grow`].
    #[cold]
    fn heap_grow(&mut self, entry: HeapEntry) {
        debug_assert_eq!(self.heap_len, self.heap.len());
        self.heap.push(entry);
        self.heap_len += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap_len == 0 {
            return None;
        }
        self.heap.swap(0, self.heap_len - 1);
        self.heap_len -= 1;
        let entry = self.heap.get(self.heap_len).copied()?;
        if self.heap_len > 0 {
            self.sift_down(0);
        }
        let event = self.arena.take(entry.slot)?;
        Some((entry.time, event))
    }

    /// Returns the fire time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.heap_len == 0 {
            return None;
        }
        self.heap.first().map(|e| e.time)
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap_len
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap_len == 0
    }

    /// Returns the queue to its freshly-constructed state — empty, seq
    /// counter at zero — while keeping the heap and arena allocations.
    ///
    /// This is the session-reuse hook: after `reset` the queue is
    /// indistinguishable from `SlabEventQueue::new()` to any caller, so a
    /// simulation run on a recycled queue produces bit-identical results.
    pub fn reset(&mut self) {
        self.heap_len = 0;
        self.arena.reset();
        self.next_seq = 0;
    }

    /// The ordering key of live entry `i`, `None` past the live prefix.
    fn key_at(&self, i: usize) -> Option<(SimTime, u64)> {
        if i >= self.heap_len {
            return None;
        }
        self.heap.get(i).map(HeapEntry::key)
    }

    fn sift_up(&mut self, mut child: usize) {
        while child > 0 {
            let parent = (child - 1) / 2;
            let (Some(c), Some(p)) = (self.key_at(child), self.key_at(parent)) else {
                break;
            };
            if c < p {
                self.heap.swap(child, parent);
                child = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut parent: usize) {
        loop {
            let left = 2 * parent + 1;
            let (Some(pk), Some(lk)) = (self.key_at(parent), self.key_at(left)) else {
                break;
            };
            let (child, ck) = match self.key_at(left + 1) {
                Some(rk) if rk < lk => (left + 1, rk),
                _ => (left, lk),
            };
            if ck < pk {
                self.heap.swap(parent, child);
                parent = child;
            } else {
                break;
            }
        }
    }
}

impl<E> Default for SlabEventQueue<E> {
    fn default() -> Self {
        SlabEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::EventQueue;

    #[test]
    fn pops_in_time_order() {
        let mut q = SlabEventQueue::new();
        q.push(SimTime::from_nanos(5), 5);
        q.push(SimTime::from_nanos(1), 1);
        q.push(SimTime::from_nanos(3), 3);
        let order: Vec<u64> = core::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = SlabEventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = SlabEventQueue::new();
        q.push(SimTime::from_nanos(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reset_restores_fresh_state_and_keeps_capacity() {
        let mut q = SlabEventQueue::new();
        for i in 0..64 {
            q.push(SimTime::from_nanos(i), i);
        }
        for _ in 0..32 {
            q.pop();
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // After reset the observable behaviour matches a fresh queue.
        q.push(SimTime::from_nanos(7), 1u64);
        q.push(SimTime::from_nanos(7), 2u64);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 2)));
    }

    #[test]
    fn arena_recycles_slots() {
        let mut a = EventArena::new();
        let s0 = a.insert("a");
        let s1 = a.insert("b");
        assert_eq!(a.len(), 2);
        assert_eq!(a.take(s0), Some("a"));
        // LIFO recycling: the vacated slot is handed right back.
        let s2 = a.insert("c");
        assert_eq!(s2, s0);
        assert_eq!(a.take(s1), Some("b"));
        assert_eq!(a.take(s2), Some("c"));
        assert!(a.is_empty());
    }

    #[test]
    fn free_list_threads_through_vacated_cells() {
        let mut a = EventArena::new();
        let slots: Vec<u32> = (0..4).map(|i| a.insert(i)).collect();
        // Vacate in order; reuse must come back LIFO (3, 2, 1, 0).
        for s in &slots {
            assert!(a.take(*s).is_some());
        }
        assert!(a.is_empty());
        for expect in [3, 2, 1, 0] {
            assert_eq!(a.insert(99), expect);
        }
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = SlabEventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(30), "c");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
    }

    /// Pseudo-random interleavings of pushes and pops must match the
    /// reference `EventQueue` exactly — this is the contract the DES
    /// relies on for byte-determinism. A presized queue (here smaller
    /// than the peak, so it also grows) must match too.
    #[test]
    fn differential_against_reference_event_queue() {
        for mut slab in [SlabEventQueue::new(), SlabEventQueue::with_capacity(64)] {
            let mut rng = odr_simtime::Rng::new(0xA13E_57AB);
            let mut reference = EventQueue::new();
            let mut payload = 0u64;
            for round in 0..4 {
                for _ in 0..500 {
                    if rng.next_f64() < 0.6 {
                        let t = SimTime::from_nanos(rng.next_u64() % 1000);
                        slab.push(t, payload);
                        reference.push(t, payload);
                        payload += 1;
                    } else {
                        assert_eq!(slab.pop(), reference.pop());
                    }
                }
                while let Some(got) = slab.pop() {
                    assert_eq!(Some(got), reference.pop());
                }
                assert_eq!(reference.pop(), None);
                // Round-robin reuse: a reset queue must stay equivalent to
                // a fresh reference queue.
                slab.reset();
                reference = EventQueue::new();
                let _ = round;
            }
        }
    }
}
