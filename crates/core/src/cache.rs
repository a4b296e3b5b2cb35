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
//! atomic age word without touching the heap (they hold no lock of the
//! cache's: see below), and eviction pops entries, discards the stale
//! ones (freed slot, superseded snapshot, refreshed age, flipped
//! segment) and re-pushes the current truth until the top is exact.
//! Each hit costs at most one deferred re-push, so eviction is amortized
//! O(log slots) and chooses *exactly* the victim the full scan would
//! have chosen (ages are unique, so the minimum is unambiguous).
//!
//! # Published entries: the warm read
//!
//! A cached file's bytes, size and check random cannot change between
//! its create and its delete, so a warm read needs no table-wide lock.
//! The server fills its cache through `FileCache::insert_published`,
//! which publishes what a read needs in the file's *inode* slot: the
//! check random, a capability memo word, the `Bytes` handle and the
//! rnode slot whose recency a hit refreshes.  `Hits::serve` answers
//! from that entry under the slot's own guard.  Every write to an entry
//! happens under that guard and under the owner's exclusive lock: the
//! fill, and the clear in [`FileCache::remove`] (deletes, replacements
//! and evictions) or [`FileCache::clear`], before the rnode is freed.
//! So a reader holding the guard sees one file's random beside that
//! file's bytes, and its hit refreshes that file's rnode and no other.
//! Both hit paths run one recency rule (`Hits::touch`): the same global
//! tick, promotion and counters.  The guard is a leaf that the server's
//! lock counters do not see.  `by_inode` stays the cache's own index,
//! because a cache built without `FileCache::publishing` (as the
//! benchmark builds one) has no inode slots to publish into.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use amoeba_cap::{Capability, CheckScheme, Port, Rights};
use amoeba_sim::{DetRng, Stats, Tracer};

use crate::counters;
use crate::freelist::ExtentAllocator;
use crate::table::{verify_memo, InodeTable};
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

/// The inode table and the rnode table, one administration ("the index
/// has no significance on disk, but is used for cache management"), which
/// the server keeps under one lock.  So a cache entry always belongs to
/// the file now live in its inode slot: every write that rebinds a slot
/// drops the slot's entry, and with it the entry published for warm
/// reads, in the same exclusive section, and every fill publishes under
/// the check random of the file live in the slot.
#[derive(Debug)]
pub(crate) struct Tables {
    pub(crate) inodes: InodeTable,
    pub(crate) cache: FileCache,
    /// Generation of the inode blocks: one more for every commit's edit
    /// and every undo (see the server's `commit`).
    pub(crate) generation: u64,
}

impl Tables {
    /// Zeroes the live slot `idx` and drops its cache entry.
    pub(crate) fn clear(&mut self, idx: u32) -> Result<(), BulletError> {
        self.inodes.clear(idx)?;
        self.cache.remove(idx);
        Ok(())
    }

    /// Caches the live file in slot `idx` and publishes it for warm
    /// reads under its check random.
    pub(crate) fn fill(&mut self, idx: u32, data: Bytes) -> Result<InsertOutcome, BulletError> {
        let random = self.inodes.get(idx)?.random;
        self.cache.insert_published(idx, data, random)
    }
}

/// One cache entry.  Its age and segment words live in
/// [`Hits::rnodes`], at the same slot, where a hit served without the
/// cache can reach them.
#[derive(Debug)]
struct Rnode {
    /// The inode-table index of the cached file.
    inode_index: u32,
    /// Byte offset of the file in the cache arena (the "pointer").
    offset: u64,
    /// The cached contents (length is the file size).
    data: Bytes,
    /// The age snapshot of this slot's *live* heap entry.  Only read and
    /// written under `&mut self` (insert/evict), so a plain field: heap
    /// entries whose snapshot no longer matches are stale duplicates and
    /// are discarded on pop.
    heap_stamp: u64,
}

/// Arena bytes a cached file occupies (zero-length files hold one byte).
fn arena_len(data: &Bytes) -> u64 {
    (data.len() as u64).max(1)
}

/// The words of one rnode slot that a hit writes.  Atomic, because hits
/// write them without the cache's lock: through [`FileCache::get`] under
/// the owner's shared lock, and through [`Hits::serve`] under one inode
/// slot's guard.  Alone on a cache line, so that hits on two files never
/// write the same one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct RnodeWords {
    /// LRU age: larger is more recent.
    age: AtomicU64,
    /// Segment tag ([`SEG_PROBATION`]/[`SEG_PROTECTED`]).
    seg: AtomicU8,
    /// The inode the slot was last filled for: a hit on any other inode
    /// is a published entry that outlived its rnode.
    #[cfg(debug_assertions)]
    inode: std::sync::atomic::AtomicU32,
}

/// A warm-read entry, published in its file's inode slot (see the
/// module docs).
#[derive(Debug)]
struct Entry {
    /// The file's check random, which [`verify_memo`] checks against.
    random: u64,
    /// The memo word of the last capability verified against `random`.
    memo: AtomicU64,
    /// The cached contents.
    data: Bytes,
    /// The rnode slot caching `data`.
    rnode: u16,
}

/// A word alone on its cache lines (128 bytes: x86 prefetches lines in
/// pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Tick(AtomicU64);

/// One inode slot's published entry and its guard, alone on its cache
/// line so that readers of neighbouring files never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot(Mutex<Option<Entry>>);

/// Everything a cache hit reads and writes, shared by the [`FileCache`]
/// (which its owner locks) and the warm reads served from its published
/// entries (which take one inode slot's guard, and nothing else): the
/// policy, the global age tick, the protected byte count, each rnode
/// slot's words, the counters and the tracer.
#[derive(Debug)]
pub(crate) struct Hits {
    policy: EvictionPolicy,
    /// The global tick every recency refresh draws, on a cache line of
    /// its own: each hit writes it, and the fields beside it are read by
    /// every hit.
    age_counter: Tick,
    /// Bytes currently tagged [`SEG_PROTECTED`].
    protected_bytes: AtomicU64,
    rnodes: Box<[RnodeWords]>,
    /// One entry per inode slot; empty unless the cache was built with
    /// [`FileCache::publishing`].
    published: Box<[Slot]>,
    stats: Stats,
    tracer: Tracer,
}

impl Hits {
    /// The warm read: `cap`'s file served from its published entry, or
    /// `None` when nothing is published for its slot or `cap` is not for
    /// `port` (the caller then takes its miss path, which verifies under
    /// the table lock).  Under the slot's guard the capability is checked
    /// against the entry's random for `needed` ([`verify_memo`], the
    /// inode table's own rule), `window` may refuse the file's size, and
    /// only then does the hit count and refresh recency.  The errors are
    /// those the miss path returns for the same live file.
    pub(crate) fn serve(
        &self,
        port: Port,
        cap: &Capability,
        needed: Rights,
        scheme: &dyn CheckScheme,
        window: impl FnOnce(u32) -> Result<(), BulletError>,
    ) -> Option<Result<Bytes, BulletError>> {
        if cap.port != port {
            return None;
        }
        let idx = cap.object.value();
        let slot = self.published.get(idx as usize)?.0.lock();
        let entry = slot.as_ref()?;
        let served = verify_memo(&entry.memo, cap, needed, entry.random, scheme)
            .and_then(|()| window(entry.data.len() as u32))
            .map(|()| {
                #[cfg(debug_assertions)]
                assert_eq!(
                    self.rnodes[entry.rnode as usize]
                        .inode
                        .load(Ordering::Relaxed),
                    idx,
                    "a published entry outlived its rnode"
                );
                self.touch(entry.rnode, arena_len(&entry.data));
                self.record(idx, true);
                entry.data.clone()
            });
        Some(served)
    }

    /// The recency rule of one hit on rnode `slot`, whose file takes
    /// `len` arena bytes: the one policy function behind both hit paths.
    fn touch(&self, slot: u16, len: u64) {
        let words = &self.rnodes[slot as usize];
        match self.policy {
            EvictionPolicy::Lru => {
                words.age.store(self.next_age(), Ordering::Relaxed);
            }
            EvictionPolicy::SegmentedLru => {
                // Any re-reference refreshes recency; the first one also
                // promotes probation → protected (the scan filter: a file
                // touched once and never again stays in probation).  The
                // bytes are counted before the tag flips, and taken back
                // if another hit flipped it first, so that a demotion
                // racing this promotion never subtracts bytes not yet
                // added.
                words.age.store(self.next_age(), Ordering::Relaxed);
                if words.seg.load(Ordering::Relaxed) == SEG_PROBATION {
                    self.protected_bytes.fetch_add(len, Ordering::Relaxed);
                    if words.seg.swap(SEG_PROTECTED, Ordering::Relaxed) == SEG_PROBATION {
                        self.stats.incr(counters::CACHE_SCAN_PROMOTIONS);
                    } else {
                        self.protected_bytes.fetch_sub(len, Ordering::Relaxed);
                    }
                }
            }
            EvictionPolicy::TwoQ => {
                // Hits in A1in deliberately do NOT refresh the age: A1in
                // is a FIFO, so correlated references within a scan gain
                // a file nothing.  Only Am entries earn recency.
                if words.seg.load(Ordering::Relaxed) == SEG_PROTECTED {
                    words.age.store(self.next_age(), Ordering::Relaxed);
                }
            }
            EvictionPolicy::Fifo | EvictionPolicy::Random => {}
        }
    }

    /// Counts a lookup of inode `idx` and records its `cache.lookup`
    /// instant.
    fn record(&self, idx: u32, hit: bool) {
        self.tracer.instant(
            "cache.lookup",
            &[("inode", idx.into()), ("hit", hit.into())],
        );
        self.stats.incr(if hit {
            counters::CACHE_HITS
        } else {
            counters::CACHE_MISSES
        });
    }

    fn next_age(&self) -> u64 {
        self.age_counter.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Clears inode `idx`'s published entry under its guard; a reader
    /// holding the guard finishes first.
    fn unpublish(&self, idx: u32) {
        if let Some(slot) = self.published.get(idx as usize) {
            *slot.0.lock() = None;
        }
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
    rng: DetRng,
    /// Lazy victim heaps: min-(age snapshot, slot).  `heap[0]` orders the
    /// probation/A1in segment, `heap[1]` the protected/Am segment; the
    /// single-segment policies (LRU/FIFO) use `heap[0]` for everything.
    heaps: [BinaryHeap<Reverse<(u64, u16)>>; 2],
    /// TwoQ ghost list (A1out): inode indices recently evicted from A1in,
    /// FIFO-bounded to half the slot count.  A re-reference found here is
    /// the 2Q admission signal for the Am segment.
    ghost: VecDeque<u32>,
    ghost_set: HashSet<u32>,
    /// What a hit touches, shared with the published entries.
    hits: Arc<Hits>,
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
            rng: DetRng::new(seed),
            heaps: [BinaryHeap::new(), BinaryHeap::new()],
            ghost: VecDeque::new(),
            ghost_set: HashSet::new(),
            hits: Arc::new(Hits {
                policy,
                age_counter: Tick::default(),
                protected_bytes: AtomicU64::new(0),
                rnodes: (0..slots).map(|_| RnodeWords::default()).collect(),
                published: Box::new([]),
                stats: Stats::new(),
                tracer: Tracer::off(),
            }),
        }
    }

    /// This cache, recording its `cache.lookup` / `cache.insert` instants
    /// on `tracer` and publishing warm-read entries for inode slots
    /// `0..inode_slots` (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if [`hits`](Self::hits) has been handed out already.
    pub(crate) fn publishing(mut self, inode_slots: u32, tracer: Tracer) -> FileCache {
        let hits = Arc::get_mut(&mut self.hits).expect("nothing is shared yet");
        hits.published = (0..inode_slots).map(|_| Slot::default()).collect();
        hits.tracer = tracer;
        self
    }

    /// The shared half of the cache, through which [`Hits::serve`]
    /// answers warm reads without the cache's lock.
    pub(crate) fn hits(&self) -> Arc<Hits> {
        Arc::clone(&self.hits)
    }

    /// Cache statistics: `cache_hits`, `cache_misses`, `cache_evictions`,
    /// `cache_compactions`, `cache_inserts`, plus the policy-specific
    /// `cache_scan_promotions`, `cache_probation_evictions`,
    /// `cache_protected_demotions`, `cache_ghost_hits`.
    pub fn stats(&self) -> &Stats {
        &self.hits.stats
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
        self.hits.protected_bytes.load(Ordering::Relaxed)
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
    /// exclusive lock.
    pub fn get(&self, inode_index: u32) -> Option<Bytes> {
        let found = self.by_inode.get(&inode_index).map(|&slot| {
            let r = self.rnodes[slot as usize]
                .as_ref()
                .expect("by_inode points at a live rnode");
            self.hits.touch(slot, arena_len(&r.data));
            r.data.clone()
        });
        self.hits.record(inode_index, found.is_some());
        found
    }

    /// The hit-written words of rnode `slot`.
    fn words(&self, slot: u16) -> &RnodeWords {
        &self.hits.rnodes[slot as usize]
    }

    /// [`insert`](Self::insert) by the server, whose exclusive lock covers
    /// the inode table too: `random` is the check random of the file now
    /// in slot `inode_index`, and the inserted file is published there
    /// for warm reads (see the module docs) with no capability memoized.
    pub(crate) fn insert_published(
        &mut self,
        inode_index: u32,
        data: Bytes,
        random: u64,
    ) -> Result<InsertOutcome, BulletError> {
        let outcome = self.insert(inode_index, data.clone())?;
        if let Some(slot) = self.hits.published.get(inode_index as usize) {
            *slot.0.lock() = Some(Entry {
                random,
                memo: AtomicU64::new(0),
                data,
                rnode: self.by_inode[&inode_index],
            });
        }
        Ok(outcome)
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
        if self.hits.policy == EvictionPolicy::TwoQ && self.ghost_set.remove(&inode_index) {
            self.ghost.retain(|&i| i != inode_index);
            seg = SEG_PROTECTED;
            self.hits.stats.incr(counters::CACHE_GHOST_HITS);
            self.hits.stats.incr(counters::CACHE_SCAN_PROMOTIONS);
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
                self.hits.stats.incr(counters::CACHE_COMPACTIONS);
                continue;
            }
            evicted.push(
                self.evict_victim()
                    .expect("free < need implies entries exist"),
            );
        };

        let slot = self.free_slots.pop().expect("slot reserved above");
        let age = self.hits.next_age();
        let bytes = data.len();
        self.rnodes[slot as usize] = Some(Rnode {
            inode_index,
            offset,
            data,
            heap_stamp: age,
        });
        let words = self.words(slot);
        words.age.store(age, Ordering::Relaxed);
        words.seg.store(seg, Ordering::Relaxed);
        #[cfg(debug_assertions)]
        words.inode.store(inode_index, Ordering::Relaxed);
        if seg == SEG_PROTECTED {
            self.hits.protected_bytes.fetch_add(need, Ordering::Relaxed);
        }
        self.heaps[self.heap_of(seg)].push(Reverse((age, slot)));
        self.by_inode.insert(inode_index, slot);
        self.hits.stats.incr(counters::CACHE_INSERTS);
        self.hits.tracer.instant(
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
    /// slot are discarded lazily at the next eviction.  The file's
    /// published entry is cleared first, before its rnode is freed.
    pub fn remove(&mut self, inode_index: u32) -> Option<u16> {
        // A deleted file must not get a ghost-boosted readmission if the
        // inode index is later reused for a different file — purged even
        // when the file itself is no longer cached (only its ghost is).
        if self.ghost_set.remove(&inode_index) {
            self.ghost.retain(|&i| i != inode_index);
        }
        let slot = self.by_inode.remove(&inode_index)?;
        self.hits.unpublish(inode_index);
        let r = self.rnodes[slot as usize].take().expect("live rnode");
        if self.words(slot).seg.load(Ordering::Relaxed) == SEG_PROTECTED {
            self.hits
                .protected_bytes
                .fetch_sub(arena_len(&r.data), Ordering::Relaxed);
        }
        self.arena
            .free(r.offset, arena_len(&r.data))
            .expect("rnode extent is valid");
        self.free_slots.push(slot);
        Some(slot)
    }

    /// Drops everything (server crash: RAM contents are lost), published
    /// entries first.
    pub fn clear(&mut self) {
        for &idx in self.by_inode.keys() {
            self.hits.unpublish(idx);
        }
        let slots = self.rnodes.len();
        self.arena = ExtentAllocator::new(0, self.capacity);
        self.rnodes = (0..slots).map(|_| None).collect();
        self.free_slots = (0..slots as u16).rev().collect();
        self.by_inode.clear();
        self.heaps = [BinaryHeap::new(), BinaryHeap::new()];
        self.hits.protected_bytes.store(0, Ordering::Relaxed);
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
        match self.hits.policy {
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
            let words = self.words(slot);
            let current = words.age.load(Ordering::Relaxed);
            let seg_now = self.heap_of(words.seg.load(Ordering::Relaxed));
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
            let age = self.words(slot).age.load(Ordering::Relaxed);
            let r = self.rnodes[slot as usize].as_mut().expect("live");
            r.heap_stamp = age;
            self.heaps[SEG_PROBATION as usize].push(Reverse((age, slot)));
        }
    }

    /// SegmentedLru rebalance: while the protected segment exceeds its
    /// byte cap, demote its LRU entry back to probation as that
    /// segment's most-recent entry (a fresh age), the classic SLRU move.
    fn rebalance_protected(&mut self) {
        let cap = self.capacity * PROTECTED_NUM / PROTECTED_DEN;
        while self.hits.protected_bytes.load(Ordering::Relaxed) > cap {
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
            // Only this exclusive section demotes, and a hit never flips
            // a protected tag, so the tag popped as protected stays so
            // until this store.
            let fresh = self.hits.next_age();
            let words = self.words(slot);
            words.seg.store(SEG_PROBATION, Ordering::Relaxed);
            words.age.store(fresh, Ordering::Relaxed);
            let r = self.rnodes[slot as usize].as_mut().expect("live");
            r.heap_stamp = fresh;
            let len = arena_len(&r.data);
            self.heaps[SEG_PROBATION as usize].push(Reverse((fresh, slot)));
            self.hits.protected_bytes.fetch_sub(len, Ordering::Relaxed);
            self.hits.stats.incr(counters::CACHE_PROTECTED_DEMOTIONS);
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
        let (victim, from_probation) = match self.hits.policy {
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
                let a1in_bytes = self.used_bytes().saturating_sub(self.protected_bytes());
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
        self.hits.stats.incr(counters::CACHE_EVICTIONS);
        if from_probation {
            self.hits.stats.incr(counters::CACHE_PROBATION_EVICTIONS);
        }
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::{MacScheme, ObjNum};

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
            c.by_inode
                .iter()
                .min_by_key(|&(_, &slot)| c.words(slot).age.load(Ordering::Relaxed))
                .map(|(&inode, _)| inode)
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

    const PORT: u64 = 1;

    /// The check random of the file cached as `inode` (one per inode:
    /// the cache never sees a slot change hands).
    fn random_of(inode: u32) -> u64 {
        0xbeef_0000 + inode as u64
    }

    fn cap_for(scheme: &MacScheme, inode: u32) -> Capability {
        let object = ObjNum::new(inode).unwrap();
        scheme.mint(Port::from_u64(PORT), object, Rights::ALL, random_of(inode))
    }

    #[test]
    fn both_hit_paths_keep_one_recency_rule() {
        // One seeded sequence of inserts, hits and removes, run once with
        // every lookup through the locked `get` and once with every lookup
        // through the published entry, falling back to `get` on none: the
        // victims, every counter and the protected bytes agree, so no
        // single-threaded eviction order depends on which path served a
        // hit.
        let scheme = MacScheme::from_seed(3);
        let run = |policy: EvictionPolicy, published: bool| {
            let mut c =
                FileCache::with_policy_seeded(2_000, 16, policy, 9).publishing(64, Tracer::off());
            let hits = c.hits();
            let mut rng = DetRng::new(11);
            let (mut evicted, mut served) = (Vec::new(), 0);
            for i in 0..4_000u32 {
                let inode = 1 + rng.next_below(24) as u32;
                let cap = cap_for(&scheme, inode);
                match rng.next_below(10) {
                    0..=2 => {
                        let size = 50 + rng.next_below(300) as usize;
                        let data = bytes(size, i as u8);
                        let outcome = if published {
                            c.insert_published(inode, data, random_of(inode))
                        } else {
                            c.insert(inode, data)
                        };
                        evicted.push(outcome.unwrap().evicted);
                    }
                    3 => {
                        c.remove(inode);
                    }
                    _ if !published => {
                        c.get(inode);
                    }
                    _ => match hits.serve(Port::from_u64(PORT), &cap, Rights::READ, &scheme, |_| {
                        Ok(())
                    }) {
                        Some(hit) => {
                            assert_eq!(hit.unwrap(), c.peek(inode).unwrap());
                            served += 1;
                        }
                        None => {
                            assert_eq!(c.get(inode), None);
                        }
                    },
                }
            }
            assert_eq!(served > 200, published, "{policy:?}: {served} served");
            (evicted, c.stats().snapshot(), c.protected_bytes())
        };
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::Random,
            EvictionPolicy::SegmentedLru,
            EvictionPolicy::TwoQ,
        ] {
            assert_eq!(run(policy, false), run(policy, true), "{policy:?}");
        }
    }

    #[test]
    fn a_published_entry_lives_exactly_as_long_as_its_rnode() {
        let scheme = MacScheme::from_seed(3);
        let mut c = FileCache::new(1_000, 4).publishing(16, Tracer::off());
        let hits = c.hits();
        let port = Port::from_u64(PORT);
        let serve_cap =
            |cap: &Capability, port: Port| hits.serve(port, cap, Rights::READ, &scheme, |_| Ok(()));
        let serve = |inode: u32, _: Rights| serve_cap(&cap_for(&scheme, inode), port);
        let publish = |c: &mut FileCache, inode: u32, data: Bytes| {
            c.insert_published(inode, data, random_of(inode)).unwrap();
        };
        // A plain insert publishes nothing; the server's insert does.
        c.insert(1, bytes(100, 1)).unwrap();
        assert!(serve(1, Rights::READ).is_none());
        publish(&mut c, 1, bytes(100, 1));
        assert_eq!(serve(1, Rights::READ).unwrap().unwrap(), bytes(100, 1));
        // A forged check field, missing rights or a refused window err as
        // the table would, and a wrong port falls through to it, all
        // without counting a hit.
        let hits_before = c.stats().get(counters::CACHE_HITS);
        let mut forged = cap_for(&scheme, 1);
        forged.check ^= 1;
        assert_eq!(serve_cap(&forged, port).unwrap(), Err(BulletError::CapBad));
        let reader = scheme.mint(port, forged.object, Rights::READ, random_of(1));
        let denied = hits.serve(port, &reader, Rights::DESTROY, &scheme, |_| Ok(()));
        assert_eq!(denied.unwrap(), Err(BulletError::Denied));
        let refused = hits.serve(port, &reader, Rights::READ, &scheme, |size| {
            assert_eq!(size, 100);
            Err(BulletError::BadRange)
        });
        assert_eq!(refused.unwrap(), Err(BulletError::BadRange));
        assert!(serve_cap(&cap_for(&scheme, 1), Port::from_u64(2)).is_none());
        assert_eq!(c.stats().get(counters::CACHE_HITS), hits_before);
        // Removal, replacement, eviction and clear each unpublish.
        c.remove(1);
        assert!(serve(1, Rights::READ).is_none());
        publish(&mut c, 2, bytes(100, 2));
        c.insert(2, bytes(50, 3)).unwrap();
        assert!(serve(2, Rights::READ).is_none());
        publish(&mut c, 2, bytes(50, 3));
        c.insert(3, bytes(1_000, 4)).unwrap();
        assert!(serve(2, Rights::READ).is_none(), "evicted");
        publish(&mut c, 3, bytes(1_000, 4));
        c.clear();
        assert!(serve(3, Rights::READ).is_none(), "cleared");
    }
}
