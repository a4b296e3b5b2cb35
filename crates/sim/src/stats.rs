//! Lightweight named counters and latency histograms.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use crate::clock::Nanos;
use crate::lane::Lanes;

/// Slots per table; a power of two, so the hash's top bits index it.
const SLOTS: usize = 128;
/// Slots a name may occupy in one table, counted from its hash.  A name
/// whose window is full of other names goes to the next table.
const WINDOW: usize = 8;

/// [`Slot::kind`]: not touched since the last [`Stats::reset`].
const IDLE: u8 = 0;
/// [`Slot::kind`]: a counter, split across lanes and summed.
const COUNTER: u8 = 1;
/// [`Slot::kind`]: a high-water mark, kept whole in lane 0.
const GAUGE: u8 = 2;

/// One counter's name.  `name` is written once and never cleared, so a
/// name keeps its slot for the life of the table; `kind` says whether the
/// name has been touched since the last [`Stats::reset`], and as what.
#[derive(Debug, Default)]
struct Slot {
    name: OnceLock<&'static str>,
    kind: AtomicU8,
}

/// One lane's values, indexed like [`Table::slots`].
#[derive(Debug)]
struct Values([AtomicU64; SLOTS]);

impl Default for Values {
    fn default() -> Values {
        Values(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// A fixed open-addressed table of counters, chained to a further table
/// by the first name that finds its probe window full.  Slot `i`'s value
/// is word `i` of every lane's row.
#[derive(Debug)]
struct Table {
    slots: [Slot; SLOTS],
    values: Lanes<Values>,
    next: OnceLock<Box<Table>>,
}

impl Default for Table {
    fn default() -> Table {
        Table {
            slots: std::array::from_fn(|_| Slot::default()),
            values: Lanes::default(),
            next: OnceLock::new(),
        }
    }
}

/// Where `name`'s probe window starts.  Only the length and the first and
/// last eight bytes are mixed: hashing every byte of a name cost more than
/// the lock this table replaced, and two names that agree on all three
/// merely share a window.
fn window_start(name: &str) -> usize {
    let b = name.as_bytes();
    let n = b.len();
    let (head, tail) = if n >= 8 {
        let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"));
        (word(0), word(n - 8))
    } else {
        let mut short = [0u8; 8];
        short[..n].copy_from_slice(b);
        (u64::from_le_bytes(short), 0)
    };
    let mixed = head ^ tail.rotate_left(29) ^ n as u64;
    (mixed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOTS.trailing_zeros())) as usize
}

/// Whether two names are the same counter.  Counters are keyed by text:
/// a constant and a caller's own literal of the same spelling are
/// different addresses and must still be one counter, so the pointer
/// comparison is only the fast path.
fn same_name(a: &str, b: &str) -> bool {
    (std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()) || a == b
}

/// Slot `i` of `table`: its name and kind, and its word in every lane.
#[derive(Clone, Copy)]
struct Entry<'a> {
    table: &'a Table,
    i: usize,
}

impl Entry<'_> {
    fn slot(&self) -> &Slot {
        &self.table.slots[self.i]
    }

    /// The value: a counter's lanes summed, or a gauge's one word (the
    /// other lanes of a gauge stay zero).
    fn value(&self) -> u64 {
        self.table.values.iter().fold(0, |sum, lane| {
            sum.wrapping_add(lane.0[self.i].load(Relaxed))
        })
    }
}

impl Table {
    /// The slot holding `name`, if the name has ever been counted.
    ///
    /// Slots only ever go from empty to named, and every lookup of a name
    /// walks the same slots in the same order, so the first empty slot on
    /// that walk proves the name is absent.
    fn find(&self, name: &str) -> Option<Entry<'_>> {
        let start = window_start(name);
        let mut table = self;
        loop {
            for i in (start..start + WINDOW).map(|i| i % SLOTS) {
                match table.slots[i].name.get() {
                    Some(held) if same_name(held, name) => return Some(Entry { table, i }),
                    Some(_) => {}
                    None => return None,
                }
            }
            table = table.next.get()?;
        }
    }

    /// The slot holding `name`, claiming the first empty one on the
    /// name's walk if there is none.  Two threads racing to intern one
    /// name meet at the same empty slot, and `OnceLock` lets exactly one
    /// of them name it.
    fn intern(&self, name: &'static str) -> Entry<'_> {
        let start = window_start(name);
        let mut table = self;
        loop {
            for i in (start..start + WINDOW).map(|i| i % SLOTS) {
                if same_name(table.slots[i].name.get_or_init(|| name), name) {
                    return Entry { table, i };
                }
            }
            table = table.next.get_or_init(Box::default);
        }
    }

    fn entries(&self) -> impl Iterator<Item = Entry<'_>> {
        std::iter::successors(Some(self), |t| t.next.get().map(|b| &**b))
            .flat_map(|table| (0..SLOTS).map(move |i| Entry { table, i }))
    }
}

/// A set of named monotonically increasing counters.
///
/// Every substrate (disk, cache, network, servers) exposes a `Stats` so
/// benchmarks and tests can assert on behaviour ("this read hit the cache",
/// "that create wrote two disks") instead of guessing from timing.
///
/// Cloning shares the underlying counters.  Updating a counter takes no
/// lock and writes no word another thread's lane writes: a name interns to
/// a slot on first use (see `Table`), the slot has one atomic word per
/// [`Lanes`] lane, and every later update is one `fetch_add` on the
/// caller's word.  [`get`](Self::get) and [`snapshot`](Self::snapshot) sum
/// the lanes.  A high-water mark ([`set_max`](Self::set_max)) cannot be
/// summed, so it stays in one word, and a name is either one or the other.
/// The orderings are `Relaxed` because a counter publishes no other data.
///
/// # Example
///
/// ```
/// use amoeba_sim::Stats;
///
/// let stats = Stats::new();
/// stats.add("cache_hit", 1);
/// stats.add("cache_hit", 1);
/// assert_eq!(stats.get("cache_hit"), 2);
/// assert_eq!(stats.get("cache_miss"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    table: Arc<Table>,
}

impl Stats {
    /// Creates an empty counter set.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// The slot for `name`, marked as touched as `kind` since the last
    /// reset.
    ///
    /// # Panics
    ///
    /// In debug builds, if `name` was touched as the other kind since the
    /// last reset: lanes can sum a counter but not a high-water mark.
    fn touch(&self, name: &'static str, kind: u8) -> Entry<'_> {
        let entry = self.table.intern(name);
        let held = entry.slot().kind.load(Relaxed);
        if held != kind {
            debug_assert_eq!(
                held, IDLE,
                "`{name}` is used both as a counter (add/incr) and as a high-water mark (set_max)"
            );
            entry.slot().kind.store(kind, Relaxed);
        }
        entry
    }

    /// Adds `n` to the counter `name` (creating it at zero first).
    pub fn add(&self, name: &'static str, n: u64) {
        let Entry { table, i } = self.touch(name, COUNTER);
        table.values.mine().0[i].fetch_add(n, Relaxed);
    }

    /// Increments `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Raises `name` to `n` if `n` exceeds the current value — a
    /// high-water-mark gauge (queue depths, peak occupancy) stored in the
    /// same table as the monotone counters.  A gauge's name must never be
    /// [`add`](Self::add)ed (debug builds panic).
    pub fn set_max(&self, name: &'static str, n: u64) {
        let Entry { table, i } = self.touch(name, GAUGE);
        table.values.first().0[i].fetch_max(n, Relaxed);
    }

    /// Reads a counter; missing counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.table.find(name).map_or(0, |e| e.value())
    }

    /// Snapshot of all counters touched since the last
    /// [`reset`](Self::reset), sorted by name.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let mut snap: Vec<(&'static str, u64)> = self
            .table
            .entries()
            .filter(|e| e.slot().kind.load(Relaxed) != IDLE)
            .filter_map(|e| Some((*e.slot().name.get()?, e.value())))
            .collect();
        snap.sort_unstable_by_key(|&(name, _)| name);
        snap
    }

    /// Resets every counter to zero, in every lane.  An update racing a
    /// reset lands on one side of it or the other per word: it may be
    /// listed at zero.
    pub fn reset(&self) {
        for e in self.table.entries() {
            e.slot().kind.store(IDLE, Relaxed);
            for lane in e.table.values.iter() {
                lane.0[e.i].store(0, Relaxed);
            }
        }
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        if snap.is_empty() {
            return write!(f, "(no counters)");
        }
        for (i, (k, v)) in snap.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// A power-of-two latency histogram for simulated durations.
///
/// Buckets are `[2^k, 2^(k+1))` microseconds; the harness uses it to report
/// latency distributions for mixed workloads.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<Mutex<HistInner>>,
}

#[derive(Debug)]
struct HistInner {
    buckets: [u64; 40],
    count: u64,
    total_ns: u128,
    max_ns: u64,
}

impl Default for HistInner {
    fn default() -> Self {
        HistInner {
            buckets: [0; 40],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one duration.
    pub fn record(&self, d: Nanos) {
        let mut h = self.inner.lock();
        let us = d.as_us();
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(39);
        h.buckets[bucket] += 1;
        h.count += 1;
        h.total_ns += d.as_ns() as u128;
        h.max_ns = h.max_ns.max(d.as_ns());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Mean of the recorded durations.
    pub fn mean(&self) -> Nanos {
        let h = self.inner.lock();
        if h.count == 0 {
            Nanos::ZERO
        } else {
            Nanos((h.total_ns / h.count as u128) as u64)
        }
    }

    /// Maximum recorded duration.
    pub fn max(&self) -> Nanos {
        Nanos(self.inner.lock().max_ns)
    }

    /// Approximate quantile `q` in `[0, 1]` (upper bound of the bucket the
    /// quantile falls in).
    pub fn quantile(&self, q: f64) -> Nanos {
        let h = self.inner.lock();
        if h.count == 0 {
            return Nanos::ZERO;
        }
        let target = (q.clamp(0.0, 1.0) * h.count as f64).ceil() as u64;
        let mut seen = 0;
        for (k, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                // Bucket upper bound, clamped so a quantile never exceeds
                // the observed maximum.
                return Nanos::from_us(1u64 << (k + 1)).min(Nanos(h.max_ns));
            }
        }
        Nanos(h.max_ns)
    }
}

/// The workspace's one exact-quantile rule: nearest-rank over a sorted
/// sample set with the `(len - 1) * pct / 100` index (so `pct = 0` is the
/// minimum, `pct = 100` the maximum, and a single sample pins every
/// quantile).  Every harness that holds raw samples — the scheduler
/// bench, the group-commit storm, the SLO watchdog's windowed checks —
/// shares this function instead of growing its own off-by-one variant;
/// [`Histogram::quantile`] remains the bucketed estimate for cases where
/// only the histogram survives.
///
/// Returns `None` on an empty slice. `pct` above 100 clamps to 100.
pub fn exact_quantile<T: Copy>(sorted: &[T], pct: usize) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[(sorted.len() - 1) * pct.min(100) / 100])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantile_of_empty_is_none() {
        assert_eq!(exact_quantile::<u64>(&[], 50), None);
        assert_eq!(exact_quantile::<u64>(&[], 0), None);
        assert_eq!(exact_quantile::<u64>(&[], 100), None);
    }

    #[test]
    fn exact_quantile_single_sample_pins_every_percentile() {
        for pct in [0, 1, 50, 99, 100, 250] {
            assert_eq!(exact_quantile(&[42u64], pct), Some(42));
        }
    }

    #[test]
    fn exact_quantile_all_equal_is_that_value() {
        let v = [7u64; 64];
        for pct in [0, 50, 99, 100] {
            assert_eq!(exact_quantile(&v, pct), Some(7));
        }
    }

    #[test]
    fn exact_quantile_uses_the_nearest_rank_index() {
        let v: Vec<u64> = (0..100).collect();
        // (len - 1) * pct / 100: p0 = min, p100 = max, p99 = index 98.
        assert_eq!(exact_quantile(&v, 0), Some(0));
        assert_eq!(exact_quantile(&v, 50), Some(49));
        assert_eq!(exact_quantile(&v, 99), Some(98));
        assert_eq!(exact_quantile(&v, 100), Some(99));
        // Out-of-range percentiles clamp to the maximum.
        assert_eq!(exact_quantile(&v, 400), Some(99));
    }

    #[test]
    fn exact_quantile_is_monotone_in_pct() {
        let v: Vec<u64> = (0..37).map(|i| i * 13 % 101).collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let mut last = 0;
        for pct in 0..=100 {
            let q = exact_quantile(&sorted, pct).unwrap();
            assert!(q >= last, "quantiles must not decrease");
            last = q;
        }
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let s = Stats::new();
        s.incr("a");
        s.add("a", 4);
        s.add("b", 2);
        assert_eq!(s.get("a"), 5);
        assert_eq!(s.get("b"), 2);
        assert_eq!(s.get("c"), 0);
        assert_eq!(s.snapshot(), vec![("a", 5), ("b", 2)]);
        s.reset();
        assert_eq!(s.get("a"), 0);
    }

    #[test]
    fn clones_share_counters() {
        let s = Stats::new();
        let t = s.clone();
        t.incr("x");
        assert_eq!(s.get("x"), 1);
    }

    #[test]
    fn set_max_is_a_high_water_mark() {
        let s = Stats::new();
        s.set_max("depth", 3);
        s.set_max("depth", 1);
        assert_eq!(s.get("depth"), 3);
        s.set_max("depth", 7);
        assert_eq!(s.get("depth"), 7);
    }

    #[test]
    fn display_nonempty() {
        let s = Stats::new();
        assert_eq!(s.to_string(), "(no counters)");
        s.add("io", 3);
        assert_eq!(s.to_string(), "io=3");
    }

    const NAMES: [&str; 8] = [
        "reads",
        "cache_hits",
        "net_bytes",
        "net_messages",
        "net_packets",
        "lock_table_read",
        "lock_cache_read",
        "lock_contended_table_read",
    ];
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 100_000;

    /// Runs `work(thread)` on `THREADS` threads released together.
    fn contend(work: impl Fn(u64) + Sync) {
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (start, work) = (&start, &work);
                s.spawn(move || {
                    start.wait();
                    work(t);
                });
            }
        });
    }

    #[test]
    fn contended_incrs_are_exact_and_one_spelling_is_one_counter() {
        let s = Stats::new();
        // The same text at another address: must be the same counter.
        let copy: &'static str = String::from(NAMES[0]).leak();
        assert!(!std::ptr::eq(copy.as_ptr(), NAMES[0].as_ptr()));
        contend(|t| {
            for i in 0..PER_THREAD {
                let k = ((i + t) % 8) as usize;
                s.incr(if k == 0 && i % 2 == 0 { copy } else { NAMES[k] });
            }
        });
        let snap = s.snapshot();
        let mut sorted: Vec<&str> = NAMES.to_vec();
        sorted.sort_unstable();
        assert_eq!(snap.iter().map(|&(n, _)| n).collect::<Vec<_>>(), sorted);
        for (name, total) in snap {
            assert_eq!(total, THREADS * PER_THREAD / 8, "{name}");
            assert_eq!(s.get(name), total);
        }
    }

    #[test]
    fn contended_set_max_ends_at_the_true_maximum() {
        // Each thread's values rise and fall; no thread ends on the peak.
        let value = |t: u64, i: u64| (i * 7919 + t * 31) % 1_000_003;
        let s = Stats::new();
        contend(|t| {
            for i in 0..PER_THREAD {
                s.set_max("depth", value(t, i));
            }
        });
        let peak = (0..THREADS)
            .flat_map(|t| (0..PER_THREAD).map(move |i| value(t, i)))
            .max()
            .unwrap();
        assert_eq!(s.snapshot(), vec![("depth", peak)]);
    }

    #[test]
    fn counts_stay_exact_when_threads_share_lanes() {
        // Twice as many threads as lanes, so lanes have writers from two
        // or more threads at once.
        const OPS: u64 = PER_THREAD / 4;
        let s = Stats::new();
        let threads = 2 * s.table.values.iter().len();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..OPS {
                        s.incr(NAMES[(i as usize + t) % 8]);
                        s.add("bytes", 3);
                    }
                    s.set_max("depth", t as u64);
                });
            }
        });
        for name in NAMES {
            assert_eq!(s.get(name), threads as u64 * OPS / 8, "{name}");
        }
        assert_eq!(s.get("bytes"), 3 * threads as u64 * OPS);
        assert_eq!(s.get("depth"), threads as u64 - 1);
    }

    #[test]
    fn reset_zeroes_every_lane() {
        let s = Stats::new();
        let lanes = s.table.values.iter().len();
        // Threads draw lanes round-robin, so these spread over the lanes.
        std::thread::scope(|scope| {
            for _ in 0..2 * lanes {
                scope.spawn(|| s.add("io", 5));
            }
        });
        s.set_max("depth", 9);
        assert_eq!(s.get("io"), 10 * lanes as u64);
        s.reset();
        let Some(Entry { table, i }) = s.table.find("io") else {
            panic!("a reset keeps the name's slot");
        };
        assert!(table.values.iter().all(|lane| lane.0[i].load(Relaxed) == 0));
        assert_eq!((s.get("io"), s.get("depth")), (0, 0));
        assert_eq!(s.snapshot(), vec![]);
        s.incr("io");
        assert_eq!(s.snapshot(), vec![("io", 1)]);
    }

    #[test]
    fn snapshot_lists_what_exited_threads_counted_on_their_lanes() {
        let s = Stats::new();
        for t in 0..5u64 {
            let s = s.clone();
            std::thread::spawn(move || {
                s.add("reads", t + 1);
                s.set_max("depth", t);
            })
            .join()
            .expect("counting thread");
        }
        // Every writer has exited; its lane words are the table's, not
        // the thread's.
        assert_eq!(s.snapshot(), vec![("depth", 4), ("reads", 15)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "both as a counter")]
    fn a_high_water_mark_is_never_summed_across_lanes() {
        let s = Stats::new();
        s.set_max("disk_queue_depth_max", 3);
        s.add("disk_queue_depth_max", 1);
    }

    #[test]
    fn names_beyond_one_table_are_all_counted_and_listed() {
        let s = Stats::new();
        let names: Vec<&'static str> = (0..300)
            .map(|i| &*format!("counter_{i:03}").leak())
            .collect();
        assert!(names.len() > SLOTS * 2);
        for (i, name) in names.iter().enumerate() {
            s.add(name, i as u64 + 1);
        }
        s.incr(names[299]);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 300);
        for (i, name) in names.iter().enumerate() {
            let want = i as u64 + 1 + (i == 299) as u64;
            assert_eq!(snap[i], (*name, want));
            assert_eq!(s.get(name), want);
        }
        assert_eq!(s.get("counter_300"), 0);
    }

    #[test]
    fn a_name_is_listed_exactly_when_touched_since_the_last_reset() {
        let s = Stats::new();
        s.add("idle", 0);
        s.set_max("depth", 0);
        s.add("io", 3);
        assert_eq!(s.snapshot(), vec![("depth", 0), ("idle", 0), ("io", 3)]);
        s.reset();
        assert_eq!(s.snapshot(), vec![]);
        assert_eq!(s.to_string(), "(no counters)");
        assert_eq!(s.get("io"), 0);
        s.incr("io");
        assert_eq!(s.snapshot(), vec![("io", 1)]);
    }

    #[test]
    fn histogram_mean_and_max() {
        let h = Histogram::new();
        h.record(Nanos::from_us(100));
        h.record(Nanos::from_us(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Nanos::from_us(200));
        assert_eq!(h.max(), Nanos::from_us(300));
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Nanos::from_us(i));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p50 >= Nanos::from_us(256)); // 500 falls in [512,1024) bucket upper bound 1024; lower bound sanity
    }

    #[test]
    fn quantiles_never_exceed_the_maximum() {
        let h = Histogram::new();
        h.record(Nanos::from_us(19_400)); // lands in the [16384, 32768) bucket
        h.record(Nanos::from_us(100));
        assert!(h.quantile(0.99) <= h.max());
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.max(), Nanos::ZERO);
        // Every quantile of an empty histogram is zero, extremes included.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Nanos::ZERO);
        }
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let h = Histogram::new();
        h.record(Nanos::from_us(700));
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Nanos::from_us(700));
        assert_eq!(h.max(), Nanos::from_us(700));
        // One sample: every quantile is that sample (the bucket upper
        // bound 1024 us clamps to the observed maximum).
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Nanos::from_us(700));
        }
    }

    #[test]
    fn bucket_boundaries_land_in_the_right_bucket() {
        // 2^k us is the *lower* edge of bucket k: a sample exactly on the
        // boundary reports a quantile of 2^(k+1) us (its bucket's upper
        // bound), while one just below reports 2^k us.
        let h = Histogram::new();
        h.record(Nanos::from_us(1024)); // bucket [1024, 2048)
        assert_eq!(h.quantile(0.5), Nanos::from_us(1024)); // clamped to max
        let lo = Histogram::new();
        lo.record(Nanos::from_us(1023)); // bucket [512, 1024)
        lo.record(Nanos::from_us(2000)); // keeps max above the bound
        assert_eq!(lo.quantile(0.5), Nanos::from_us(1024));
        let hi = Histogram::new();
        hi.record(Nanos::from_us(1024));
        hi.record(Nanos::from_us(5000));
        assert_eq!(hi.quantile(0.5), Nanos::from_us(2048));
    }

    #[test]
    fn sub_microsecond_and_zero_samples_use_the_first_bucket() {
        let h = Histogram::new();
        h.record(Nanos::ZERO);
        h.record(Nanos(999)); // < 1 us truncates to 0 us
        assert_eq!(h.count(), 2);
        // Both land in bucket 0 ([1, 2) us); the quantile clamps to the
        // observed maximum, which is below a microsecond.
        assert_eq!(h.quantile(1.0), Nanos(999));
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let h = Histogram::new();
        h.record(Nanos::from_us(5));
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_walks_bucket_counts() {
        // 90 samples at ~10 us, 10 at ~1000 us: p50 sits in the small
        // bucket, p95+ in the large one.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(Nanos::from_us(10)); // bucket [8, 16)
        }
        for _ in 0..10 {
            h.record(Nanos::from_us(1000)); // bucket [512, 1024)
        }
        assert_eq!(h.quantile(0.5), Nanos::from_us(16));
        assert_eq!(h.quantile(0.9), Nanos::from_us(16));
        assert_eq!(h.quantile(0.95), Nanos::from_us(1000)); // clamped to max
        assert_eq!(h.quantile(1.0), Nanos::from_us(1000));
    }
}
