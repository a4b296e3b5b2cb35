//! Simulated time: durations, the shared clock, and charge capture.
//!
//! [`capture`] lets a caller run work on this thread while *deferring* its
//! simulated-time charges into a [`ChargeLog`] instead of the shared
//! clocks.  Logs from several lanes of logically-parallel work can then be
//! settled with [`commit_max`], which advances each clock by the maximum
//! any one lane charged it — the elapsed time of parallel execution —
//! rather than the sum that sequential replay would produce.

use std::cell::RefCell;
use std::sync::Arc;

use crate::lane::LaneCounter;

/// A simulated duration / instant in nanoseconds.
///
/// One type serves both roles (an instant is a duration since simulation
/// start), mirroring how the harness uses it: subtract two clock readings
/// to get the simulated latency of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// From whole nanoseconds.
    pub fn from_ns(ns: u64) -> Nanos {
        Nanos(ns)
    }

    /// From whole microseconds.
    pub fn from_us(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// From whole milliseconds.
    pub fn from_ms(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// From whole seconds.
    pub fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// From fractional microseconds (rounded to the nearest nanosecond);
    /// cost models produce these when multiplying per-byte rates.
    pub fn from_us_f64(us: f64) -> Nanos {
        Nanos((us * 1_000.0).round().max(0.0) as u64)
    }

    /// Raw nanoseconds.
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds as a float, the unit of the paper's delay tables.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for Nanos {
    type Output = Nanos;

    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Nanos {
    type Output = Nanos;

    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for Nanos {
    type Output = Nanos;

    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl std::iter::Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Nanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// The shared simulated clock all substrates charge their work to.
///
/// Cloning is cheap and clones share the same underlying time (the struct
/// wraps an `Arc`), so a server, its disks, and the network all advance one
/// clock.  The clock is thread-safe, and time is the sum of every lane's
/// charges: a charge adds to the calling thread's [`LaneCounter`] lane and
/// [`now`](Self::now) sums the lanes, so two threads charging at once
/// never write the same word and the total is what one shared counter
/// would hold — the work of the paper's single-CPU file-server machine.
///
/// # Example
///
/// ```
/// use amoeba_sim::{Nanos, SimClock};
///
/// let clock = SimClock::new();
/// let disk_view = clock.clone();
/// disk_view.advance(Nanos::from_ms(20)); // a seek
/// assert_eq!(clock.now(), Nanos::from_ms(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    ns: Arc<LaneCounter>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current simulated time.  Inside a [`capture`] this includes the
    /// charges this thread has deferred against this clock, so latency
    /// measurements (`now` deltas) work unchanged under capture.
    pub fn now(&self) -> Nanos {
        Nanos(self.ns.get() + pending_on_this_thread(&self.ns))
    }

    /// Charges `d` of simulated work to the calling thread's lane.  Inside
    /// a [`capture`] the charge is deferred into the innermost frame
    /// instead.  Reads no other lane: call [`now`](Self::now) for the
    /// time.
    pub fn advance(&self, d: Nanos) {
        let deferred = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            match frames.last_mut() {
                Some(frame) => {
                    frame.add(self, d.0);
                    true
                }
                None => false,
            }
        });
        if !deferred {
            self.ns.add(d.0);
        }
    }

    /// True if `a` and `b` are clones sharing the same underlying time.
    pub fn ptr_eq(a: &SimClock, b: &SimClock) -> bool {
        Arc::ptr_eq(&a.ns, &b.ns)
    }

    /// Resets to time zero, every lane (between benchmark runs).
    pub fn reset(&self) {
        self.ns.reset();
    }

    /// Runs `f` and returns `(result, simulated elapsed time)`.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Nanos) {
        let start = self.now();
        let out = f();
        (out, self.now().saturating_sub(start))
    }
}

/// Simulated-time charges deferred by one [`capture`] call.
///
/// Each entry pairs a clock with the total nanoseconds the captured work
/// charged it; sequential charges within the capture are summed.
#[derive(Debug, Default)]
pub struct ChargeLog {
    entries: Vec<(SimClock, u64)>,
}

impl ChargeLog {
    fn add(&mut self, clock: &SimClock, ns: u64) {
        for (c, total) in &mut self.entries {
            if Arc::ptr_eq(&c.ns, &clock.ns) {
                *total += ns;
                return;
            }
        }
        self.entries.push((clock.clone(), ns));
    }

    fn pending_on(&self, ns: &Arc<LaneCounter>) -> u64 {
        self.entries
            .iter()
            .find(|(c, _)| Arc::ptr_eq(&c.ns, ns))
            .map_or(0, |(_, total)| *total)
    }

    /// Time deferred against one specific clock (zero if the captured
    /// work never charged it).  Lets a harness split an operation's cost
    /// into per-resource components, e.g. CPU clock vs disk clock.
    pub fn charged_to(&self, clock: &SimClock) -> Nanos {
        Nanos(self.pending_on(&clock.ns))
    }

    /// Total deferred time summed over every clock.
    pub fn total(&self) -> Nanos {
        Nanos(self.entries.iter().map(|(_, total)| total).sum())
    }

    /// True if the captured work charged no simulated time at all.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|(_, total)| *total == 0)
    }

    /// Applies the log sequentially: every charge is replayed onto its
    /// clock (or onto an enclosing capture, if one is active).
    pub fn commit(self) {
        for (clock, total) in self.entries {
            clock.advance(Nanos(total));
        }
    }

    /// Consumes the log, yielding each charged clock with its deferred
    /// total.  The building block for custom settlement strategies (the
    /// [`crate::pipeline`] overlap model uses it to re-apportion captured
    /// stage costs).
    pub fn into_entries(self) -> impl Iterator<Item = (SimClock, Nanos)> {
        self.entries.into_iter().map(|(c, total)| (c, Nanos(total)))
    }
}

thread_local! {
    static FRAMES: RefCell<Vec<ChargeLog>> = const { RefCell::new(Vec::new()) };
}

fn pending_on_this_thread(ns: &Arc<LaneCounter>) -> u64 {
    FRAMES.with(|frames| {
        frames
            .borrow()
            .iter()
            .map(|frame| frame.pending_on(ns))
            .sum()
    })
}

/// Pops the capture frame even if the captured closure panics, so a panic
/// inside captured work cannot corrupt later captures on this thread.
struct FrameGuard;

impl Drop for FrameGuard {
    fn drop(&mut self) {
        FRAMES.with(|frames| frames.borrow_mut().pop());
    }
}

/// Runs `f` with its simulated-time charges deferred, returning the result
/// and the [`ChargeLog`] of what it would have advanced.
///
/// Captures nest: an inner capture absorbs charges first, and committing
/// its log while the outer capture is still active folds them outward.
/// The capture is per-thread — work `f` spawns onto other threads charges
/// clocks directly unless those threads capture too.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, ChargeLog) {
    FRAMES.with(|frames| frames.borrow_mut().push(ChargeLog::default()));
    let guard = FrameGuard;
    let out = f();
    let log = FRAMES.with(|frames| {
        frames
            .borrow_mut()
            .pop()
            .expect("capture frame pushed above")
    });
    std::mem::forget(guard);
    (out, log)
}

/// Settles logs from logically-parallel lanes of work: each clock advances
/// by the *maximum* any single lane charged it, modelling lanes that ran
/// concurrently, then waited for the slowest.  Returns the largest
/// single-lane total (the makespan of the parallel section).
pub fn commit_max<I: IntoIterator<Item = ChargeLog>>(logs: I) -> Nanos {
    let mut per_clock: Vec<(SimClock, u64)> = Vec::new();
    let mut makespan = 0u64;
    for log in logs {
        makespan = makespan.max(log.total().as_ns());
        for (clock, total) in log.entries {
            match per_clock
                .iter_mut()
                .find(|(c, _)| Arc::ptr_eq(&c.ns, &clock.ns))
            {
                Some((_, max_total)) => *max_total = (*max_total).max(total),
                None => per_clock.push((clock, total)),
            }
        }
    }
    for (clock, total) in per_clock {
        clock.advance(Nanos(total));
    }
    Nanos(makespan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(Nanos::from_us(5).as_ns(), 5_000);
        assert_eq!(Nanos::from_secs(1).as_ms_f64(), 1000.0);
        assert_eq!(Nanos::from_us_f64(1.5).as_ns(), 1_500);
        assert_eq!(Nanos::from_us_f64(-3.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_us(10);
        let b = Nanos::from_us(4);
        assert_eq!(a + b, Nanos::from_us(14));
        assert_eq!(a - b, Nanos::from_us(6));
        assert_eq!(b * 3, Nanos::from_us(12));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        let total: Nanos = [a, b, b].into_iter().sum();
        assert_eq!(total, Nanos::from_us(18));
    }

    #[test]
    fn display_scales_unit() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos::from_us(2).to_string(), "2.000us");
        assert_eq!(Nanos::from_ms(3).to_string(), "3.000ms");
        assert_eq!(Nanos::from_secs(4).to_string(), "4.000s");
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let d = c.clone();
        d.advance(Nanos::from_ms(7));
        assert_eq!(c.now(), Nanos::from_ms(7));
        c.reset();
        assert_eq!(d.now(), Nanos::ZERO);
    }

    #[test]
    fn time_measures_elapsed() {
        let c = SimClock::new();
        let (v, dt) = c.time(|| {
            c.advance(Nanos::from_us(123));
            "done"
        });
        assert_eq!(v, "done");
        assert_eq!(dt, Nanos::from_us(123));
    }

    #[test]
    fn advances_add_up_in_now() {
        let c = SimClock::new();
        c.advance(Nanos::from_us(3));
        assert_eq!(c.now(), Nanos::from_us(3));
        c.advance(Nanos::from_us(4));
        assert_eq!(c.now(), Nanos::from_us(7));
    }

    #[test]
    fn capture_defers_charges() {
        let c = SimClock::new();
        c.advance(Nanos(100));
        let ((), log) = capture(|| {
            c.advance(Nanos(40));
            // now() sees the deferred charge mid-capture...
            assert_eq!(c.now(), Nanos(140));
        });
        // ...but the shared clock does not, until the log is committed.
        assert_eq!(c.now(), Nanos(100));
        assert_eq!(log.total(), Nanos(40));
        log.commit();
        assert_eq!(c.now(), Nanos(140));
    }

    #[test]
    fn commit_max_charges_slowest_lane() {
        let c = SimClock::new();
        let lanes: Vec<ChargeLog> = [10u64, 30, 20]
            .iter()
            .map(|&d| capture(|| c.advance(Nanos(d))).1)
            .collect();
        let makespan = commit_max(lanes);
        assert_eq!(makespan, Nanos(30));
        assert_eq!(c.now(), Nanos(30));
    }

    #[test]
    fn commit_max_takes_per_clock_maxima() {
        let a = SimClock::new();
        let b = SimClock::new();
        let lane1 = capture(|| {
            a.advance(Nanos(5));
            b.advance(Nanos(50));
        })
        .1;
        let lane2 = capture(|| {
            a.advance(Nanos(25));
        })
        .1;
        assert_eq!(commit_max([lane1, lane2]), Nanos(55));
        assert_eq!(a.now(), Nanos(25));
        assert_eq!(b.now(), Nanos(50));
    }

    #[test]
    fn captures_nest_and_fold_outward() {
        let c = SimClock::new();
        let ((), outer) = capture(|| {
            c.advance(Nanos(1));
            let ((), inner) = capture(|| {
                c.advance(Nanos(2));
            });
            assert_eq!(inner.total(), Nanos(2));
            inner.commit(); // folds into the outer capture, not the clock
            assert_eq!(c.now(), Nanos(3));
        });
        assert_eq!(c.now(), Nanos::ZERO);
        assert_eq!(outer.total(), Nanos(3));
    }

    #[test]
    fn panicking_capture_unwinds_cleanly() {
        let c = SimClock::new();
        let result = std::panic::catch_unwind(|| {
            capture(|| {
                c.advance(Nanos(9));
                panic!("mid-capture");
            })
        });
        assert!(result.is_err());
        // The frame was popped: charges work normally again.
        c.advance(Nanos(1));
        assert_eq!(c.now(), Nanos(1));
        assert!(capture(|| ()).1.is_empty());
    }

    #[test]
    fn concurrent_charges_accumulate() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance(Nanos(1));
                    }
                });
            }
        });
        assert_eq!(c.now(), Nanos(4000));
    }

    /// More threads than lanes, so lanes are shared.
    const LANE_THREADS: usize = 2 * crate::lane::LANES + 1;

    #[test]
    fn charges_from_threads_sharing_lanes_sum_exactly() {
        const PER_THREAD: u64 = 20_000;
        let c = SimClock::new();
        let start = std::sync::Barrier::new(LANE_THREADS);
        std::thread::scope(|s| {
            for t in 0..LANE_THREADS as u64 {
                let (c, start) = (c.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        c.advance(Nanos(t + 1));
                    }
                });
            }
        });
        let n = LANE_THREADS as u64;
        assert_eq!(c.now(), Nanos(PER_THREAD * n * (n + 1) / 2));
    }

    #[test]
    fn a_capture_defers_per_thread_and_commits_on_the_committing_lane() {
        let c = SimClock::new();
        let (in_capture, captured) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let ((), log) = capture(|| {
                    c.advance(Nanos(40));
                    in_capture.wait();
                    // The other thread's direct charge lands while this
                    // one's stays deferred: this thread sees both.
                    captured.wait();
                    assert_eq!(c.now(), Nanos(47));
                });
                assert_eq!(c.ns.get(), 7, "nothing deferred landed before commit");
                let before = c.ns.on_this_lane();
                log.commit();
                assert_eq!(
                    c.ns.on_this_lane() - before,
                    40,
                    "the commit is this lane's"
                );
            });
            in_capture.wait();
            c.advance(Nanos(7));
            assert_eq!(c.now(), Nanos(7), "another thread's deferral is not time");
            captured.wait();
        });
        assert_eq!(c.now(), Nanos(47));
    }

    #[test]
    fn reset_zeroes_every_lane_and_clones_share_lanes() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..LANE_THREADS {
                let d = c.clone();
                s.spawn(move || d.advance(Nanos(3)));
            }
        });
        let d = c.clone();
        assert_eq!(d.now(), Nanos(3 * LANE_THREADS as u64));
        assert!(SimClock::ptr_eq(&c, &d));
        d.reset();
        assert_eq!(c.ns.get(), 0);
        assert_eq!(c.now(), Nanos::ZERO);
        c.advance(Nanos(5));
        assert_eq!(d.now(), Nanos(5));
    }
}
