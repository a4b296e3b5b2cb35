//! The RAM file cache: rnodes, LRU aging, and memory compaction.
//!
//! "A separate table in RAM maintains the administration of the cached
//! files … called rnodes.  An rnode contains: 1) the inode table index of
//! the corresponding file; 2) a pointer to the file in RAM cache; 3) an
//! age field to implement an LRU cache strategy." (§3)
//!
//! Files are cached *contiguously*: the cache arena is a single simulated
//! address space managed by the same first-fit extent allocator as the
//! disk, so cache memory suffers real external fragmentation and supports
//! the paper's remedy ("compacting part or all of the RAM cache from time
//! to time").
//!
//! # Replacement policies
//!
//! The paper's server keeps plain LRU; the alternatives exist for the
//! ablations that justify (or indict) that choice under scale:
//!
//! * [`EvictionPolicy::SegmentedLru`] — scan-resistant segmented LRU.
//!   New files enter a *probation* segment; a second reference promotes
//!   them to a *protected* segment capped at [`PROTECTED_NUM`]/
//!   [`PROTECTED_DEN`] of the cache bytes (overflow demotes the
//!   protected LRU back to probation).  Victims come from probation
//!   first, so a one-pass sequential scan can only churn the probation
//!   fraction of the cache — the working set in protected survives.
//! * [`EvictionPolicy::TwoQ`] — the 2Q algorithm (Johnson & Shasha):
//!   first references enter a FIFO *A1in* queue (hits there do **not**
//!   refresh recency); only a re-reference *after* eviction from A1in —
//!   detected through a bounded ghost list of recently evicted inode
//!   indices — admits a file to the LRU *Am* main queue.  While A1in
//!   holds more than [`A1IN_NUM`]/[`A1IN_DEN`] of the cache bytes it
//!   supplies the victims, so scans flush only A1in.
//!
//! # Victim selection is O(log n)
//!
//! Eviction used to scan every rnode for the minimum age — fine at 8
//! threaded clients, ruinous for the 10k-client event-engine ablations
//! where every miss evicts.  Victims now come from per-segment lazy
//! binary heaps keyed by an age snapshot: hits keep refreshing the
//! atomic age field without touching the heap (they hold only a read
//! lock in the server), and eviction pops entries, discards the stale
//! ones (freed slot, superseded snapshot, refreshed age, flipped
//! segment) and re-pushes the current truth until the top is exact.
//! Each hit costs at most one deferred re-push, so eviction is amortized
//! O(log slots) and chooses *exactly* the victim the full scan would
//! have chosen (ages are unique, so the minimum is unambiguous).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use bytes::Bytes;

use amoeba_sim::{DetRng, Stats, Tracer};

use crate::counters;
use crate::freelist::ExtentAllocator;
use crate::BulletError;

/// Which cached file is sacrificed when room is needed.
///
/// The paper's server uses LRU ("an age field to implement an LRU cache
/// strategy"); the alternatives exist for the eviction ablations (ABL9 at
/// thread scale, ABL16 at event-engine scale) that justify that choice.
/// Policy variants are plain data — the victim RNG seed lives in the
/// cache constructor ([`FileCache::with_policy_seeded`]), not the enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Least recently used (the paper's policy).
    #[default]
    Lru,
    /// First in, first out: insertion order, ignoring later accesses.
    Fifo,
    /// A uniformly random victim (deterministic via the constructor seed).
    Random,
    /// Scan-resistant segmented LRU: probation + protected segments.
    SegmentedLru,
    /// The 2Q algorithm: FIFO A1in + ghost A1out + LRU Am.
    TwoQ,
}

impl EvictionPolicy {
    /// Stable lowercase label for tables and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Fifo => "fifo",
            EvictionPolicy::Random => "random",
            EvictionPolicy::SegmentedLru => "slru",
            EvictionPolicy::TwoQ => "2q",
        }
    }
}

/// Protected-segment byte cap, as a fraction of cache capacity
/// (`PROTECTED_NUM / PROTECTED_DEN`): SegmentedLru lets the protected
/// segment grow to ¾ of the cache, leaving ¼ as the probation churn zone
/// a scan is confined to.
pub const PROTECTED_NUM: u64 = 3;
/// See [`PROTECTED_NUM`].
pub const PROTECTED_DEN: u64 = 4;

/// A1in byte threshold as a fraction of cache capacity
/// (`A1IN_NUM / A1IN_DEN`): while first-reference bytes exceed ¼ of the
/// cache, TwoQ evicts from A1in (the classic Kin ≈ 25 %).
pub const A1IN_NUM: u64 = 1;
/// See [`A1IN_NUM`].
pub const A1IN_DEN: u64 = 4;

/// Segment tag values stored in [`Rnode::seg`].
const SEG_PROBATION: u8 = 0; // SegmentedLru probation / TwoQ A1in
const SEG_PROTECTED: u8 = 1; // SegmentedLru protected / TwoQ Am

/// One cache entry.
#[derive(Debug)]
struct Rnode {
    /// The inode-table index of the cached file.
    inode_index: u32,
    /// Byte offset of the file in the cache arena (the "pointer").
    offset: u64,
    /// The cached contents (length is the file size).
    data: Bytes,
    /// LRU age: larger is more recent.  Atomic so that concurrent
    /// cache-hit lookups can refresh it through a shared reference —
    /// the server serves hits under a read lock.
    age: AtomicU64,
    /// Segment tag ([`SEG_PROBATION`]/[`SEG_PROTECTED`]); atomic because
    /// SegmentedLru promotes on a shared-reference hit.
    seg: AtomicU8,
    /// The age snapshot of this slot's *live* heap entry.  Only read and
    /// written under `&mut self` (insert/evict), so a plain field: heap
    /// entries whose snapshot no longer matches are stale duplicates and
    /// are discarded on pop.
    heap_stamp: u64,
}

impl Rnode {
    /// Arena bytes this entry occupies (zero-length files hold one byte).
    fn arena_len(&self) -> u64 {
        (self.data.len() as u64).max(1)
    }
}

/// Outcome of a successful [`FileCache::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Inode indices of files evicted to make room.
    pub evicted: Vec<u32>,
    /// Bytes moved by an internal memory compaction (0 if none was
    /// needed); the server charges memcpy time for them.
    pub compaction_bytes: u64,
}

/// The Bullet server's RAM file cache.
#[derive(Debug)]
pub struct FileCache {
    capacity: u64,
    arena: ExtentAllocator,
    rnodes: Vec<Option<Rnode>>,
    free_slots: Vec<u16>,
    by_inode: HashMap<u32, u16>,
    age_counter: AtomicU64,
    policy: EvictionPolicy,
    rng: DetRng,
    /// Lazy victim heaps: min-(age snapshot, slot).  `heap[0]` orders the
    /// probation/A1in segment, `heap[1]` the protected/Am segment; the
    /// single-segment policies (LRU/FIFO) use `heap[0]` for everything.
    heaps: [BinaryHeap<Reverse<(u64, u16)>>; 2],
    /// Bytes currently tagged [`SEG_PROTECTED`].  Atomic because
    /// SegmentedLru hit-promotions add to it under a shared reference.
    protected_bytes: AtomicU64,
    /// TwoQ ghost list (A1out): inode indices recently evicted from A1in,
    /// FIFO-bounded to half the slot count.  A re-reference found here is
    /// the 2Q admission signal for the Am segment.
    ghost: VecDeque<u32>,
    ghost_set: HashSet<u32>,
    stats: Stats,
    tracer: Tracer,
}

impl FileCache {
    /// Maximum number of rnode slots: the bound the paper's 2-byte inode
    /// index field sets (0 meaning "not cached"), which a `u16` slot
    /// number holds.  Entries are found by inode index, not by slot.
    pub const MAX_SLOTS: usize = u16::MAX as usize - 1;

    /// Creates a cache of `capacity` bytes with at most `slots` rnodes.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is 0 or exceeds [`FileCache::MAX_SLOTS`].
    pub fn new(capacity: u64, slots: usize) -> FileCache {
        FileCache::with_policy(capacity, slots, EvictionPolicy::Lru)
    }

    /// Creates a cache with an explicit eviction policy and the default
    /// victim-RNG seed (0) — the old constructor behavior.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is 0 or exceeds [`FileCache::MAX_SLOTS`].
    pub fn with_policy(capacity: u64, slots: usize, policy: EvictionPolicy) -> FileCache {
        FileCache::with_policy_seeded(capacity, slots, policy, 0)
    }

    /// Creates a cache with an explicit eviction policy and victim-RNG
    /// seed (only [`EvictionPolicy::Random`] consumes the seed).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is 0 or exceeds [`FileCache::MAX_SLOTS`].
    pub fn with_policy_seeded(
        capacity: u64,
        slots: usize,
        policy: EvictionPolicy,
        seed: u64,
    ) -> FileCache {
        assert!(
            slots > 0 && slots <= Self::MAX_SLOTS,
            "bad rnode slot count"
        );
        FileCache {
            capacity,
            arena: ExtentAllocator::new(0, capacity),
            rnodes: (0..slots).map(|_| None).collect(),
            free_slots: (0..slots as u16).rev().collect(),
            by_inode: HashMap::new(),
            age_counter: AtomicU64::new(0),
            policy,
            rng: DetRng::new(seed),
            heaps: [BinaryHeap::new(), BinaryHeap::new()],
            protected_bytes: AtomicU64::new(0),
            ghost: VecDeque::new(),
            ghost_set: HashSet::new(),
            stats: Stats::new(),
            tracer: Tracer::off(),
        }
    }

    /// Installs the span tracer recording `cache.lookup` / `cache.insert`
    /// events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Cache statistics: `cache_hits`, `cache_misses`, `cache_evictions`,
    /// `cache_compactions`, `cache_inserts`, plus the policy-specific
    /// `cache_scan_promotions`, `cache_probation_evictions`,
    /// `cache_protected_demotions`, `cache_ghost_hits`.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.capacity - self.arena.free_units()
    }

    /// Bytes currently in the protected (SegmentedLru) / Am (TwoQ)
    /// segment; 0 under the single-segment policies.
    pub fn protected_bytes(&self) -> u64 {
        self.protected_bytes.load(Ordering::Relaxed)
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.by_inode.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.by_inode.is_empty()
    }

    /// Entries on the TwoQ A1out ghost list (0 for other policies).
    pub fn ghost_len(&self) -> usize {
        self.ghost.len()
    }

    /// Maximum ghost-list entries (TwoQ A1out): half the slot count.
    fn ghost_cap(&self) -> usize {
        (self.rnodes.len() / 2).max(1)
    }

    /// Looks up a file, refreshing its age.  Counts a hit or miss.
    ///
    /// Takes `&self`: age refresh, segment promotion, and the hit counter
    /// all go through atomics, so concurrent cache-hit reads need no
    /// exclusive lock — the heart of the server's concurrent read path.
    pub fn get(&self, inode_index: u32) -> Option<Bytes> {
        let outcome = self.lookup(inode_index);
        self.tracer.instant(
            "cache.lookup",
            &[
                ("inode", inode_index.into()),
                ("hit", outcome.is_some().into()),
            ],
        );
        let counter = match outcome {
            Some(_) => counters::CACHE_HITS,
            None => counters::CACHE_MISSES,
        };
        self.stats.incr(counter);
        outcome
    }

    /// Re-probe after a counted miss: counts a hit if another request
    /// filled the cache meanwhile, but never double-counts the miss.  The
    /// server's miss path uses this after taking the per-inode in-flight
    /// guard.
    pub fn recheck(&self, inode_index: u32) -> Option<Bytes> {
        let data = self.lookup(inode_index)?;
        self.stats.incr(counters::CACHE_HITS);
        Some(data)
    }

    fn lookup(&self, inode_index: u32) -> Option<Bytes> {
        let &slot = self.by_inode.get(&inode_index)?;
        let r = self.rnodes[slot as usize]
            .as_ref()
            .expect("by_inode points at a live rnode");
        match self.policy {
            EvictionPolicy::Lru => {
                r.age.store(self.next_age(), Ordering::Relaxed);
            }
            EvictionPolicy::SegmentedLru => {
                // Any re-reference refreshes recency; the first one also
                // promotes probation → protected (the scan filter: a file
                // touched once and never again stays in probation).
                r.age.store(self.next_age(), Ordering::Relaxed);
                if r.seg.swap(SEG_PROTECTED, Ordering::Relaxed) == SEG_PROBATION {
                    self.protected_bytes
                        .fetch_add(r.arena_len(), Ordering::Relaxed);
                    self.stats.incr(counters::CACHE_SCAN_PROMOTIONS);
                }
            }
            EvictionPolicy::TwoQ => {
                // Hits in A1in deliberately do NOT refresh the age: A1in
                // is a FIFO, so correlated references within a scan gain
                // a file nothing.  Only Am entries earn recency.
                if r.seg.load(Ordering::Relaxed) == SEG_PROTECTED {
                    r.age.store(self.next_age(), Ordering::Relaxed);
                }
            }
            EvictionPolicy::Fifo | EvictionPolicy::Random => {}
        }
        Some(r.data.clone())
    }

    fn next_age(&self) -> u64 {
        self.age_counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up without touching age or counters (for inspection).
    pub fn peek(&self, inode_index: u32) -> Option<Bytes> {
        self.by_inode.get(&inode_index).map(|&slot| {
            self.rnodes[slot as usize]
                .as_ref()
                .expect("live")
                .data
                .clone()
        })
    }

    /// Inserts a file, evicting policy-chosen victims (and compacting the
    /// arena if eviction alone cannot produce a contiguous hole).
    /// Zero-length files occupy one byte of arena so that every cached
    /// file has a distinct extent.
    ///
    /// # Errors
    ///
    /// [`BulletError::TooLarge`] if the file exceeds the whole cache — the
    /// architectural limit of §2 ("processors can only operate on files
    /// that fit in their physical memory").
    pub fn insert(&mut self, inode_index: u32, data: Bytes) -> Result<InsertOutcome, BulletError> {
        let need = (data.len() as u64).max(1);
        if need > self.capacity {
            return Err(BulletError::TooLarge {
                size: data.len() as u64,
                cache_capacity: self.capacity,
            });
        }
        // TwoQ admission: a re-reference caught by the ghost list goes
        // straight to Am; everything else starts in A1in/probation.
        // Checked before the replace-remove below, which purges ghosts.
        let mut seg = SEG_PROBATION;
        if self.policy == EvictionPolicy::TwoQ && self.ghost_set.remove(&inode_index) {
            self.ghost.retain(|&i| i != inode_index);
            seg = SEG_PROTECTED;
            self.stats.incr(counters::CACHE_GHOST_HITS);
            self.stats.incr(counters::CACHE_SCAN_PROMOTIONS);
        }

        // Re-inserting replaces the old copy.
        self.remove(inode_index);

        let mut evicted = Vec::new();
        let mut compaction_bytes = 0;

        // Evict until the allocation can succeed; if the free bytes
        // suffice but no hole is contiguous enough, compact.
        let offset = loop {
            // A slot must exist too.
            if self.free_slots.is_empty() {
                evicted.push(
                    self.evict_victim()
                        .expect("no slots free implies entries exist"),
                );
                continue;
            }
            if let Some(off) = self.arena.alloc(need) {
                break off;
            }
            if self.arena.free_units() >= need {
                compaction_bytes += self.compact();
                self.stats.incr(counters::CACHE_COMPACTIONS);
                continue;
            }
            evicted.push(
                self.evict_victim()
                    .expect("free < need implies entries exist"),
            );
        };

        let slot = self.free_slots.pop().expect("slot reserved above");
        let age = self.next_age();
        let bytes = data.len();
        self.rnodes[slot as usize] = Some(Rnode {
            inode_index,
            offset,
            data,
            age: AtomicU64::new(age),
            seg: AtomicU8::new(seg),
            heap_stamp: age,
        });
        if seg == SEG_PROTECTED {
            self.protected_bytes.fetch_add(need, Ordering::Relaxed);
        }
        self.heaps[self.heap_of(seg)].push(Reverse((age, slot)));
        self.by_inode.insert(inode_index, slot);
        self.stats.incr(counters::CACHE_INSERTS);
        self.tracer.instant(
            "cache.insert",
            &[
                ("inode", inode_index.into()),
                ("bytes", bytes.into()),
                ("evicted", evicted.len().into()),
                ("compaction_bytes", compaction_bytes.into()),
            ],
        );
        Ok(InsertOutcome {
            evicted,
            compaction_bytes,
        })
    }

    /// Removes a file from the cache (file deletion, §3).  Returns the
    /// freed slot if the file was cached.  Stale heap entries for the
    /// slot are discarded lazily at the next eviction.
    pub fn remove(&mut self, inode_index: u32) -> Option<u16> {
        // A deleted file must not get a ghost-boosted readmission if the
        // inode index is later reused for a different file — purged even
        // when the file itself is no longer cached (only its ghost is).
        if self.ghost_set.remove(&inode_index) {
            self.ghost.retain(|&i| i != inode_index);
        }
        let slot = self.by_inode.remove(&inode_index)?;
        let r = self.rnodes[slot as usize].take().expect("live rnode");
        if r.seg.load(Ordering::Relaxed) == SEG_PROTECTED {
            self.protected_bytes
                .fetch_sub(r.arena_len(), Ordering::Relaxed);
        }
        self.arena
            .free(r.offset, r.arena_len())
            .expect("rnode extent is valid");
        self.free_slots.push(slot);
        Some(slot)
    }

    /// Drops everything (server crash: RAM contents are lost).
    pub fn clear(&mut self) {
        let slots = self.rnodes.len();
        self.arena = ExtentAllocator::new(0, self.capacity);
        self.rnodes = (0..slots).map(|_| None).collect();
        self.free_slots = (0..slots as u16).rev().collect();
        self.by_inode.clear();
        self.heaps = [BinaryHeap::new(), BinaryHeap::new()];
        self.protected_bytes.store(0, Ordering::Relaxed);
        self.ghost.clear();
        self.ghost_set.clear();
    }

    /// Compacts the arena, packing all entries leftward.  Returns the
    /// number of bytes moved.
    pub fn compact(&mut self) -> u64 {
        let mut live: Vec<u16> = self.by_inode.values().copied().collect();
        live.sort_unstable_by_key(|&s| self.rnodes[s as usize].as_ref().expect("live").offset);
        let mut cursor = 0u64;
        let mut moved = 0u64;
        for slot in live {
            let r = self.rnodes[slot as usize].as_mut().expect("live");
            let len = (r.data.len() as u64).max(1);
            if r.offset != cursor {
                moved += len;
                r.offset = cursor;
            }
            cursor += len;
        }
        self.arena.rebuild_after_compaction(cursor);
        moved
    }

    /// The arena fragmentation snapshot.
    pub fn frag_report(&self) -> crate::FragReport {
        self.arena.report()
    }

    /// Which lazy heap a segment's entries live in: the single-segment
    /// policies funnel everything through heap 0.
    fn heap_of(&self, seg: u8) -> usize {
        match self.policy {
            EvictionPolicy::SegmentedLru | EvictionPolicy::TwoQ => seg as usize,
            _ => 0,
        }
    }

    /// Pops the exact minimum-age live entry of `heap_idx`, lazily
    /// discarding stale entries (freed slot, superseded snapshot) and
    /// re-pushing refreshed or segment-flipped ones.  Returns the slot,
    /// or `None` when the segment is empty.
    fn pop_exact_min(&mut self, heap_idx: usize) -> Option<u16> {
        while let Some(Reverse((stamp, slot))) = self.heaps[heap_idx].pop() {
            let Some(r) = self.rnodes[slot as usize].as_ref() else {
                continue; // slot freed since this entry was pushed
            };
            if r.heap_stamp != stamp {
                continue; // superseded: a newer entry carries the truth
            }
            let current = r.age.load(Ordering::Relaxed);
            let seg_now = self.heap_of(r.seg.load(Ordering::Relaxed));
            if current != stamp || seg_now != heap_idx {
                // Refreshed by hits and/or promoted to another segment
                // since the push: re-push the current truth and retry.
                let r = self.rnodes[slot as usize].as_mut().expect("checked live");
                r.heap_stamp = current;
                self.heaps[seg_now].push(Reverse((current, slot)));
                continue;
            }
            return Some(slot);
        }
        None
    }

    /// Migrates lookup-promoted strays out of the probation heap.
    ///
    /// SegmentedLru promotes under `&self`, so a promoted entry's heap
    /// entry lingers in the probation heap until some pop validates it.
    /// When the protected heap must be consulted directly (demotion) it
    /// can be empty while promoted entries are stranded on the other
    /// side; draining the probation heap through the validation loop
    /// pushes every stray home.  O(n log n), but only runs when the
    /// protected heap underflows — rare by construction.
    fn flush_probation_strays(&mut self) {
        let mut keep = Vec::new();
        while let Some(slot) = self.pop_exact_min(SEG_PROBATION as usize) {
            keep.push(slot);
        }
        for slot in keep {
            let r = self.rnodes[slot as usize].as_mut().expect("live");
            let age = r.age.load(Ordering::Relaxed);
            r.heap_stamp = age;
            self.heaps[SEG_PROBATION as usize].push(Reverse((age, slot)));
        }
    }

    /// SegmentedLru rebalance: while the protected segment exceeds its
    /// byte cap, demote its LRU entry back to probation as that
    /// segment's most-recent entry (a fresh age), the classic SLRU move.
    fn rebalance_protected(&mut self) {
        let cap = self.capacity * PROTECTED_NUM / PROTECTED_DEN;
        while self.protected_bytes.load(Ordering::Relaxed) > cap {
            let slot = match self.pop_exact_min(SEG_PROTECTED as usize) {
                Some(slot) => slot,
                None => {
                    self.flush_probation_strays();
                    match self.pop_exact_min(SEG_PROTECTED as usize) {
                        Some(slot) => slot,
                        None => break,
                    }
                }
            };
            let fresh = self.next_age();
            let r = self.rnodes[slot as usize].as_mut().expect("live");
            r.seg.store(SEG_PROBATION, Ordering::Relaxed);
            r.age.store(fresh, Ordering::Relaxed);
            r.heap_stamp = fresh;
            let len = r.arena_len();
            self.heaps[SEG_PROBATION as usize].push(Reverse((fresh, slot)));
            self.protected_bytes.fetch_sub(len, Ordering::Relaxed);
            self.stats.incr(counters::CACHE_PROTECTED_DEMOTIONS);
        }
    }

    /// The inode index of the live rnode in `slot`.
    fn inode_in(&self, slot: u16) -> u32 {
        self.rnodes[slot as usize]
            .as_ref()
            .expect("validated live")
            .inode_index
    }

    fn evict_victim(&mut self) -> Option<u32> {
        let mut ghost_victim = false;
        let (victim, from_probation) = match self.policy {
            // "The least recently accessed file is … found by checking the
            // age fields in the rnodes." (§3).  FIFO reuses the same field
            // because get() never refreshes it under that policy.
            EvictionPolicy::Lru | EvictionPolicy::Fifo => {
                let slot = self.pop_exact_min(0)?;
                (self.inode_in(slot), false)
            }
            EvictionPolicy::Random => {
                let live: Vec<u32> = self
                    .rnodes
                    .iter()
                    .flatten()
                    .map(|r| r.inode_index)
                    .collect();
                if live.is_empty() {
                    return None;
                }
                (live[self.rng.next_below(live.len() as u64) as usize], false)
            }
            EvictionPolicy::SegmentedLru => {
                self.rebalance_protected();
                // Probation first; only an all-protected cache sacrifices
                // a protected entry.
                match self.pop_exact_min(SEG_PROBATION as usize) {
                    Some(slot) => (self.inode_in(slot), true),
                    None => {
                        let slot = self.pop_exact_min(SEG_PROTECTED as usize)?;
                        (self.inode_in(slot), false)
                    }
                }
            }
            EvictionPolicy::TwoQ => {
                let threshold = self.capacity * A1IN_NUM / A1IN_DEN;
                let a1in_bytes = self
                    .used_bytes()
                    .saturating_sub(self.protected_bytes.load(Ordering::Relaxed));
                if a1in_bytes > threshold {
                    // A1in over its share: evict its FIFO head and
                    // remember it in the ghost list — re-referencing it
                    // soon is the admission signal for Am.  (The push
                    // happens after `remove`, which purges ghosts as a
                    // delete would.)
                    match self.pop_exact_min(SEG_PROBATION as usize) {
                        Some(slot) => {
                            ghost_victim = true;
                            (self.inode_in(slot), true)
                        }
                        None => {
                            let slot = self.pop_exact_min(SEG_PROTECTED as usize)?;
                            (self.inode_in(slot), false)
                        }
                    }
                } else {
                    // Am supplies the victim (no ghost entry: Am evictees
                    // already proved themselves once; 2Q readmits them
                    // through A1in like anything else).
                    match self.pop_exact_min(SEG_PROTECTED as usize) {
                        Some(slot) => (self.inode_in(slot), false),
                        None => {
                            let slot = self.pop_exact_min(SEG_PROBATION as usize)?;
                            (self.inode_in(slot), true)
                        }
                    }
                }
            }
        };
        self.remove(victim);
        if ghost_victim {
            self.ghost.push_back(victim);
            self.ghost_set.insert(victim);
            while self.ghost.len() > self.ghost_cap() {
                if let Some(old) = self.ghost.pop_front() {
                    self.ghost_set.remove(&old);
                }
            }
        }
        self.stats.incr(counters::CACHE_EVICTIONS);
        if from_probation {
            self.stats.incr(counters::CACHE_PROBATION_EVICTIONS);
        }
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn insert_get_remove() {
        let mut c = FileCache::new(1000, 16);
        let out = c.insert(5, bytes(100, 1)).unwrap();
        assert!(out.evicted.is_empty());
        assert_eq!(c.get(5).unwrap(), bytes(100, 1));
        assert_eq!(c.stats().get("cache_hits"), 1);
        assert!(c.remove(5).is_some());
        assert!(c.get(5).is_none());
        assert_eq!(c.stats().get("cache_misses"), 1);
        assert_eq!(c.remove(5), None);
    }

    #[test]
    fn lru_evicts_oldest_untouched() {
        let mut c = FileCache::new(300, 16);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.insert(3, bytes(100, 3)).unwrap();
        // Touch 1 so 2 becomes the LRU.
        c.get(1);
        let out = c.insert(4, bytes(100, 4)).unwrap();
        assert_eq!(out.evicted, vec![2]);
        assert!(c.peek(2).is_none());
        assert!(c.peek(1).is_some());
        assert_eq!(c.stats().get("cache_evictions"), 1);
    }

    #[test]
    fn eviction_cascades_until_fit() {
        let mut c = FileCache::new(300, 16);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.insert(3, bytes(100, 3)).unwrap();
        let out = c.insert(4, bytes(250, 4)).unwrap();
        assert_eq!(out.evicted, vec![1, 2, 3]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn too_large_rejected() {
        let mut c = FileCache::new(100, 4);
        assert!(matches!(
            c.insert(1, bytes(101, 0)),
            Err(BulletError::TooLarge { size: 101, .. })
        ));
        // Exactly capacity fits.
        assert!(c.insert(1, bytes(100, 0)).is_ok());
    }

    #[test]
    fn fragmentation_triggers_compaction_not_eviction() {
        let mut c = FileCache::new(300, 16);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.insert(3, bytes(100, 3)).unwrap();
        // Free the two outer extents: 200 bytes free but shattered.
        c.remove(1);
        c.remove(3);
        let out = c.insert(4, bytes(150, 4)).unwrap();
        assert!(out.evicted.is_empty(), "150 bytes fit after compaction");
        assert!(out.compaction_bytes > 0);
        assert_eq!(c.stats().get("cache_compactions"), 1);
        assert_eq!(c.peek(2).unwrap(), bytes(100, 2));
    }

    #[test]
    fn reinsert_replaces() {
        let mut c = FileCache::new(1000, 16);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(1, bytes(50, 9)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1).unwrap(), bytes(50, 9));
        assert_eq!(c.used_bytes(), 50);
    }

    #[test]
    fn slot_exhaustion_evicts() {
        let mut c = FileCache::new(10_000, 2);
        c.insert(1, bytes(10, 1)).unwrap();
        c.insert(2, bytes(10, 2)).unwrap();
        let out = c.insert(3, bytes(10, 3)).unwrap();
        assert_eq!(out.evicted, vec![1]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_length_files_cacheable() {
        let mut c = FileCache::new(100, 4);
        c.insert(1, Bytes::new()).unwrap();
        assert_eq!(c.get(1).unwrap(), Bytes::new());
        assert_eq!(c.used_bytes(), 1); // occupies one arena byte
        assert!(c.remove(1).is_some());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = FileCache::new(1000, 8);
        c.insert(1, bytes(10, 1)).unwrap();
        c.insert(2, bytes(10, 2)).unwrap();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert!(c.peek(1).is_none());
        // Usable again after clear.
        c.insert(3, bytes(10, 3)).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fifo_ignores_later_touches() {
        let mut c = FileCache::with_policy(300, 16, EvictionPolicy::Fifo);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.insert(3, bytes(100, 3)).unwrap();
        // Touch 1 — under FIFO this must NOT save it.
        c.get(1);
        let out = c.insert(4, bytes(100, 4)).unwrap();
        assert_eq!(out.evicted, vec![1], "FIFO evicts the oldest insert");
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = FileCache::with_policy_seeded(300, 16, EvictionPolicy::Random, seed);
            for i in 1..=3 {
                c.insert(i, bytes(100, i as u8)).unwrap();
            }
            c.insert(4, bytes(100, 4)).unwrap().evicted
        };
        assert_eq!(run(7), run(7));
        // Victims are among the live entries.
        assert!(run(7).iter().all(|&v| (1..=3).contains(&v)));
    }

    #[test]
    fn default_seed_constructor_matches_seed_zero() {
        let run = |c: &mut FileCache| {
            for i in 1..=3 {
                c.insert(i, bytes(100, i as u8)).unwrap();
            }
            c.insert(4, bytes(100, 4)).unwrap().evicted
        };
        let mut a = FileCache::with_policy(300, 16, EvictionPolicy::Random);
        let mut b = FileCache::with_policy_seeded(300, 16, EvictionPolicy::Random, 0);
        assert_eq!(run(&mut a), run(&mut b));
    }

    #[test]
    fn explicit_compact_packs_arena() {
        let mut c = FileCache::new(300, 16);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.remove(1);
        let moved = c.compact();
        assert_eq!(moved, 100);
        let r = c.frag_report();
        assert_eq!(r.hole_count, 1);
        assert_eq!(r.largest_hole, 200);
        // Data is intact after the move.
        assert_eq!(c.peek(2).unwrap(), bytes(100, 2));
    }

    #[test]
    fn lazy_heap_matches_full_scan_under_churn() {
        // The heap-backed victim choice must equal the old full scan
        // (minimum current age) through a long deterministic mix of
        // inserts, touches, removes, and evictions.
        let mut c = FileCache::with_policy(1000, 8, EvictionPolicy::Lru);
        let mut rng = DetRng::new(42);
        let mut next_inode = 0u32;
        for _ in 0..2_000 {
            match rng.next_below(10) {
                0..=4 => {
                    next_inode += 1;
                    let expected = min_age_scan(&c);
                    let out = c.insert(next_inode, bytes(150, 1)).unwrap();
                    if let Some(first) = out.evicted.first() {
                        assert_eq!(*first, expected.unwrap(), "victim diverged from scan");
                    }
                }
                5..=7 => {
                    if next_inode > 0 {
                        let probe = 1 + (rng.next_below(next_inode as u64) as u32);
                        c.get(probe);
                    }
                }
                _ => {
                    if next_inode > 0 {
                        let probe = 1 + (rng.next_below(next_inode as u64) as u32);
                        c.remove(probe);
                    }
                }
            }
        }
        fn min_age_scan(c: &FileCache) -> Option<u32> {
            // Only meaningful when the next insert must evict (cache at
            // capacity); otherwise the returned value is unused.
            c.rnodes
                .iter()
                .flatten()
                .min_by_key(|r| r.age.load(Ordering::Relaxed))
                .map(|r| r.inode_index)
        }
    }

    #[test]
    fn slru_scan_leaves_protected_untouched() {
        // Build a hot set, promote it, then stream a scan 3x the cache
        // through: every hot file must survive in protected.
        let mut c = FileCache::with_policy(1000, 32, EvictionPolicy::SegmentedLru);
        for i in 1..=5 {
            c.insert(i, bytes(100, i as u8)).unwrap();
            c.get(i); // promote to protected
        }
        assert_eq!(c.stats().get("cache_scan_promotions"), 5);
        for i in 100..130 {
            c.insert(i, bytes(100, 9)).unwrap(); // the scan: touched once
        }
        for i in 1..=5 {
            assert!(c.peek(i).is_some(), "hot file {i} was scanned out");
        }
        assert!(c.stats().get("cache_probation_evictions") > 0);
    }

    #[test]
    fn slru_demotes_protected_overflow() {
        // Promote more bytes than the protected cap (¾ of 1000 = 750):
        // the next eviction must demote protected LRUs instead of
        // wiping probation newcomers ahead of the overflow.
        let mut c = FileCache::with_policy(1000, 32, EvictionPolicy::SegmentedLru);
        for i in 1..=9 {
            c.insert(i, bytes(100, i as u8)).unwrap();
            c.get(i); // 900 protected bytes > 750 cap
        }
        assert_eq!(c.protected_bytes(), 900);
        c.insert(50, bytes(200, 7)).unwrap(); // forces eviction + rebalance
        assert!(c.stats().get("cache_protected_demotions") > 0);
        assert!(c.protected_bytes() <= 750);
    }

    #[test]
    fn slru_falls_back_to_protected_when_probation_empty() {
        let mut c = FileCache::with_policy(300, 16, EvictionPolicy::SegmentedLru);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.get(1);
        c.get(2); // both protected (200 ≤ 225 cap), probation empty
        let out = c.insert(3, bytes(250, 3)).unwrap();
        assert!(!out.evicted.is_empty(), "protected entries were evictable");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn twoq_a1in_hits_do_not_refresh() {
        // Under 2Q a repeated hit inside A1in must not save the entry
        // from FIFO eviction (that is the scan resistance).
        let mut c = FileCache::with_policy(400, 16, EvictionPolicy::TwoQ);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.insert(3, bytes(100, 3)).unwrap();
        c.get(1); // A1in hit: no recency earned
        let out = c.insert(4, bytes(200, 4)).unwrap();
        assert_eq!(out.evicted[0], 1, "A1in is FIFO: 1 goes first");
    }

    #[test]
    fn twoq_ghost_readmission_promotes_to_am() {
        let mut c = FileCache::with_policy(400, 16, EvictionPolicy::TwoQ);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.insert(3, bytes(100, 3)).unwrap();
        c.insert(4, bytes(200, 4)).unwrap(); // evicts 1 (and 2) to ghost
        assert!(c.peek(1).is_none());
        let ghosted = c.stats().get("cache_ghost_hits");
        assert_eq!(ghosted, 0);
        c.insert(1, bytes(100, 1)).unwrap(); // ghost hit → Am
        assert_eq!(c.stats().get("cache_ghost_hits"), 1);
        assert!(c.protected_bytes() >= 100, "readmitted entry sits in Am");
        // Am entries survive a subsequent A1in-directed scan.
        for i in 100..104 {
            c.insert(i, bytes(90, 9)).unwrap();
        }
        assert!(c.peek(1).is_some(), "Am entry scanned out");
    }

    #[test]
    fn twoq_delete_purges_ghost() {
        let mut c = FileCache::with_policy(300, 16, EvictionPolicy::TwoQ);
        c.insert(1, bytes(100, 1)).unwrap();
        c.insert(2, bytes(100, 2)).unwrap();
        c.insert(3, bytes(100, 3)).unwrap();
        c.insert(4, bytes(250, 4)).unwrap(); // 1..=3 evicted, ghosted
                                             // "Delete" 1 while it is only a ghost: a later re-create of the
                                             // same inode index must NOT be treated as a re-reference.
        c.remove(1);
        c.insert(1, bytes(50, 8)).unwrap();
        assert_eq!(
            c.stats().get("cache_ghost_hits"),
            0,
            "purged ghost must not hit"
        );
        // An un-purged ghost still hits (inode 2 was never deleted).
        c.insert(2, bytes(50, 9)).unwrap();
        assert_eq!(c.stats().get("cache_ghost_hits"), 1);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(EvictionPolicy::Lru.label(), "lru");
        assert_eq!(EvictionPolicy::Fifo.label(), "fifo");
        assert_eq!(EvictionPolicy::Random.label(), "random");
        assert_eq!(EvictionPolicy::SegmentedLru.label(), "slru");
        assert_eq!(EvictionPolicy::TwoQ.label(), "2q");
    }

    #[test]
    fn byte_accounting_survives_policy_churn() {
        // Arena accounting (used + free = capacity, protected ≤ used)
        // must hold through heavy mixed traffic under both new policies.
        for policy in [EvictionPolicy::SegmentedLru, EvictionPolicy::TwoQ] {
            let mut c = FileCache::with_policy(2_000, 16, policy);
            let mut rng = DetRng::new(7);
            for i in 0..3_000u32 {
                let size = 50 + rng.next_below(200) as usize;
                c.insert(i % 64, bytes(size, i as u8)).unwrap();
                if rng.next_below(3) == 0 {
                    c.get(rng.next_below(64) as u32);
                }
                if rng.next_below(5) == 0 {
                    c.remove(rng.next_below(64) as u32);
                }
                let live: u64 = c
                    .rnodes
                    .iter()
                    .flatten()
                    .map(|r| (r.data.len() as u64).max(1))
                    .sum();
                assert_eq!(c.used_bytes(), live, "arena vs rnode bytes");
                assert!(c.protected_bytes() <= live, "protected ≤ live bytes");
            }
        }
    }
}
