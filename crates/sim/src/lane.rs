//! Per-thread lanes: one copy of a hot word per lane, so that threads on
//! different lanes never write the same cache line.
//!
//! A thread draws its lane once, on first use, from a global counter
//! modulo `LANES`.  Writers touch only their own lane's copy; a reader
//! that needs the whole value folds every lane (marble keeps its
//! per-worker statistics the same way and sums them only when asked).
//! Threads beyond `LANES` share lanes round-robin, which costs contention,
//! never accuracy.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Lanes per structure.  Two hot clients drawn one after the other always
/// land on different lanes; more lanes would only cost memory.
pub(crate) const LANES: usize = 8;

/// One lane's copy, alone on its cache lines: 128 bytes, because x86's
/// adjacent-line prefetcher fetches 64-byte lines in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// The next lane a thread will draw.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's lane, `usize::MAX` until drawn.
    static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's lane, drawn on its first call.
fn lane() -> usize {
    LANE.with(|lane| {
        let mut i = lane.get();
        if i == usize::MAX {
            i = NEXT_LANE.fetch_add(1, Relaxed) % LANES;
            lane.set(i);
        }
        i
    })
}

/// One `T` per lane.  [`mine`](Self::mine) is the calling thread's copy;
/// a value split across lanes is whatever [`iter`](Self::iter) folds.
#[derive(Debug)]
pub struct Lanes<T> {
    lanes: [Padded<T>; LANES],
}

impl<T: Default> Default for Lanes<T> {
    fn default() -> Lanes<T> {
        Lanes {
            lanes: std::array::from_fn(|_| Padded::default()),
        }
    }
}

impl<T> Lanes<T> {
    /// The calling thread's copy.
    pub fn mine(&self) -> &T {
        &self.lanes[lane()].0
    }

    /// Lane 0's copy, for a value that cannot be split (a high-water
    /// mark is the maximum of its updates, not their sum).
    pub fn first(&self) -> &T {
        &self.lanes[0].0
    }

    /// Every lane's copy, in lane order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> {
        self.lanes.iter().map(|padded| &padded.0)
    }
}

/// A monotone count split into lanes: [`add`](Self::add) writes only the
/// caller's lane and [`get`](Self::get) sums them all.  The orderings are
/// `Relaxed` because a count publishes no other data.
#[derive(Debug, Default)]
pub struct LaneCounter {
    lanes: Lanes<AtomicU64>,
}

impl LaneCounter {
    /// Adds `n` on the calling thread's lane.
    pub fn add(&self, n: u64) {
        self.lanes.mine().fetch_add(n, Relaxed);
    }

    /// The sum over every lane.
    pub fn get(&self) -> u64 {
        self.lanes
            .iter()
            .fold(0, |sum, lane| sum.wrapping_add(lane.load(Relaxed)))
    }

    /// Zeroes every lane.  An `add` racing the reset survives or not per
    /// lane, as it would against a single word.
    pub fn reset(&self) {
        for lane in self.lanes.iter() {
            lane.store(0, Relaxed);
        }
    }

    /// The calling thread's lane alone (tests check where a charge lands).
    #[cfg(test)]
    pub(crate) fn on_this_lane(&self) -> u64 {
        self.lanes.mine().load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_copies_sit_on_separate_cache_lines() {
        let lanes: Lanes<AtomicU64> = Lanes::default();
        let addr: Vec<usize> = lanes.iter().map(|l| l as *const _ as usize).collect();
        assert_eq!(addr.len(), LANES);
        for pair in addr.windows(2) {
            assert!(pair[1] - pair[0] >= 128);
        }
    }

    #[test]
    fn lane_counter_sums_every_thread_exactly_when_threads_share_lanes() {
        const THREADS: usize = 2 * LANES + 1;
        const PER_THREAD: u64 = 10_000;
        let c = LaneCounter::default();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        c.reset();
        assert_eq!(c.get(), 0);
        assert!(c.lanes.iter().all(|l| l.load(Relaxed) == 0));
    }
}
