//! A deterministic virtual-time discrete-event queue.
//!
//! A bench rig that gives each client an OS thread caps every scale claim
//! at what the OS scheduler tolerates.  This module is the substrate that
//! removes the cap: tens of thousands of simulated clients are tiny state
//! machines whose next wake-up is an entry in one binary heap, popped in
//! virtual-time order by a single real thread.  The
//! `ArmSim` twin of PR 5 proved the pattern (same decision core as the
//! threaded `SchedDisk`, deterministic virtual-time driver); the event
//! queue generalizes it to arbitrary client populations.
//!
//! # The heap-scheduling invariant
//!
//! [`EventQueue`] maintains exactly one ordering guarantee, and everything
//! downstream (byte-identical replay of 10k-client ablations) rests on it:
//!
//! * **Monotone**: `pop` returns events in nondecreasing virtual time, and
//!   `now()` never moves backwards.
//! * **FIFO among ties**: two events scheduled for the same instant pop in
//!   the order they were scheduled (a strictly increasing sequence number
//!   breaks ties, so the heap order is total and no comparison ever
//!   consults the payload).
//! * **No scheduling into the past**: `schedule` panics if asked for a
//!   time before `now()` — a state machine that wants "immediately" says
//!   `now()`, and the bug where a cost underflows to an earlier instant
//!   is caught at the source instead of silently reordering the timeline.
//!
//! Together these make a simulation driven off the queue a *pure function
//! of its schedule calls*: replaying the same decisions yields the same
//! timeline, byte for byte, independent of host thread scheduling.
//!
//! # Example
//!
//! ```
//! use amoeba_sim::{EventQueue, Nanos};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Nanos::from_us(30), "b");
//! q.schedule(Nanos::from_us(10), "a");
//! q.schedule(Nanos::from_us(30), "c"); // same instant as "b": FIFO
//! assert_eq!(q.pop(), Some((Nanos::from_us(10), "a")));
//! assert_eq!(q.pop(), Some((Nanos::from_us(30), "b")));
//! assert_eq!(q.pop(), Some((Nanos::from_us(30), "c")));
//! assert_eq!(q.pop(), None);
//! assert_eq!(q.now(), Nanos::from_us(30));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::Nanos;

/// One scheduled entry: ordered by `(at, seq)` only, so the payload never
/// needs (and never gets) a chance to influence the timeline.
struct Slot<T> {
    at: Nanos,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Slot<T> {}

impl<T> PartialOrd for Slot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Slot<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event queue on virtual time.
///
/// See the [module docs](self) for the heap-scheduling invariant.  The
/// payload type `T` is whatever the driver needs to resume a state
/// machine — typically a client index.
#[derive(Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Slot<T>>>,
    seq: u64,
    now: Nanos,
    scheduled: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue at virtual time zero.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Nanos::ZERO,
            scheduled: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event
    /// (zero before the first pop).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (an evsim run's `events`).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Schedules `payload` to pop at virtual time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies before [`now`](EventQueue::now) — scheduling
    /// into the past would silently reorder the timeline.
    pub fn schedule(&mut self, at: Nanos, payload: T) {
        assert!(
            at >= self.now,
            "event scheduled into the past: at {} < now {}",
            at.as_ns(),
            self.now.as_ns()
        );
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        self.heap.push(Reverse(Slot { at, seq, payload }));
    }

    /// Schedules `payload` at `now() + delay`.
    pub fn schedule_in(&mut self, delay: Nanos, payload: T) {
        self.schedule(self.now + delay, payload);
    }

    /// Pops the earliest event (FIFO among equal timestamps), advancing
    /// virtual time to it.  `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        let Reverse(slot) = self.heap.pop()?;
        debug_assert!(slot.at >= self.now, "heap order is monotone");
        self.now = slot.at;
        Some((slot.at, slot.payload))
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("now", &self.now)
            .field("scheduled", &self.scheduled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &us in &[50u64, 10, 40, 20, 30] {
            q.schedule(Nanos::from_us(us), us);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Nanos::from_ms(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_is_monotone_across_interleaved_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_us(5), 'a');
        q.schedule(Nanos::from_us(9), 'b');
        let (t, p) = q.pop().unwrap();
        assert_eq!((t, p), (Nanos::from_us(5), 'a'));
        // New work may land between pending events…
        q.schedule(Nanos::from_us(7), 'c');
        q.schedule_in(Nanos::from_us(1), 'd'); // now + 1 µs = 6 µs
        let order: Vec<(u64, char)> = std::iter::from_fn(|| q.pop())
            .map(|(t, p)| (t.as_us(), p))
            .collect();
        assert_eq!(order, vec![(6, 'd'), (7, 'c'), (9, 'b')]);
        assert_eq!(q.now(), Nanos::from_us(9));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_ms(2), ());
        q.pop();
        q.schedule(Nanos::from_ms(1), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_ms(3), 1);
        q.pop();
        q.schedule(Nanos::from_ms(3), 2); // "immediately"
        assert_eq!(q.pop(), Some((Nanos::from_ms(3), 2)));
    }

    #[test]
    fn deterministic_under_identical_schedules() {
        let run = || {
            let mut q = EventQueue::new();
            let mut rng = crate::DetRng::new(77);
            let mut log = Vec::new();
            for i in 0..1_000u64 {
                q.schedule(q.now() + Nanos::from_us(rng.next_below(50)), i);
                if rng.next_below(3) == 0 {
                    if let Some((t, p)) = q.pop() {
                        log.push((t.as_ns(), p));
                    }
                }
            }
            while let Some((t, p)) = q.pop() {
                log.push((t.as_ns(), p));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_track_scheduled_and_pending() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos::ZERO, ());
        q.schedule(Nanos::ZERO, ());
        assert_eq!((q.len(), q.scheduled()), (2, 2));
        q.pop();
        assert_eq!((q.len(), q.scheduled()), (1, 2));
    }
}
