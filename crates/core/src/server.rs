//! The Bullet server proper: operations, durability, recovery, compaction.
//!
//! # Concurrency model
//!
//! The server state is split into independently locked components so that
//! overlapping requests from many client threads make progress together
//! (see `DESIGN.md`, "Concurrency model"):
//!
//! * `table: RwLock<Tables>` — the inode table and the RAM file cache, one
//!   administration under one lock.  Every inode write-through, cache
//!   fill and eviction takes the exclusive guard.  A fill publishes the
//!   file in its inode slot, and an eviction or delete clears that entry
//!   before its rnode is freed, so a warm read is served from the slot
//!   under that slot's own guard (`Hits::serve`) and takes no table lock
//!   at all.  A read that finds no entry is a miss: under its file's
//!   in-flight guard it verifies, checks its byte window and makes its
//!   one counted lookup under one *read* guard, then loads the file.
//!   Both lookups refresh LRU ages and hit counters through atomics.
//!   Each slot also holds its file's
//!   touch/age word, which `touch` and `age_all` update under the shared
//!   guard.
//! * `alloc: Mutex<AllocState>` — the disk extent free list, the inode
//!   random-number generator and the free inode slots of this server's
//!   shard stripe: everything a create reserves and a delete returns,
//!   held only for those few-microsecond sections, never across I/O.
//! * `inflight: Box<[Mutex<()>]>` — one lock per inode slot, sized from
//!   the formatted table.  All disk I/O for a file (create data writes,
//!   miss loads, delete/expiry inode zeroing, compaction moves) happens
//!   under that file's in-flight guard *only*, keeping
//!   create/delete/read/compaction of the same file serialized while
//!   different files overlap freely.  Releasing a guard wakes only that
//!   slot's waiters, and an uncontended guard makes no syscall.
//! * `inode_io: Mutex<u64>` — held by `BulletServer::commit`, the one
//!   inode write-through, across its block writes: it holds the newest
//!   table generation written, so that two files sharing a block reach
//!   the disks in the order their images were taken.
//! * `maintenance: RwLock<()>` — compaction takes the exclusive guard;
//!   create/delete/expiry take the shared one; reads never touch it.
//! * `log: Option<logpath::Log>` — the group-commit log window and its
//!   files' reserved homes (when [`BulletConfig::log_blocks`] > 0), all
//!   of whose code is in `logpath.rs`.  Held across the *entire* commit
//!   of a batch — record append, then the inode commit — so that a
//!   record's inodes are durable before the next record appends; that
//!   invariant is what lets crash replay reinstall only the last record
//!   of the chain.
//!
//! Lock order (outer to inner): `maintenance` → `log` → `inflight` →
//! `inode_io` → `table` → `alloc`.  A path may skip levels but never
//! acquires a lock while holding one further in.  A published slot's
//! guard sits inside `table` and is a leaf: nothing is acquired under it
//! and it is never held across I/O.  Every other
//! acquisition is counted in [`BulletServer::lock_stats`], with
//! `lock_contended_*` counters for acquisitions that had to wait (the log
//! mutex is exempt: group commits are serialized by design, so its
//! contention is the batching working).  The slot guard is not counted:
//! two readers of one file queue on it unseen by those counters.

use std::collections::BTreeSet;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use amoeba_cap::{Capability, CheckScheme, MacScheme, ObjNum, Port, Rights};
use amoeba_disk::{BlockDevice, MirroredDisk, RamDisk, SchedConfig, SchedDisk, WormDisk};
use amoeba_rpc::StreamWire;
use amoeba_sim::json::Json;
use amoeba_sim::{
    AttrValue, CpuProfile, DetRng, DiskProfile, LaneCounter, Pipeline, SimClock, SpanGuard, Stats,
    Telemetry, Tracer,
};

use crate::accounting::ClientAccounting;
use crate::cache::{EvictionPolicy, FileCache, Hits, Tables};
use crate::counters;
use crate::freelist::ExtentAllocator;
use crate::gclog::ChainScan;
use crate::groupcommit::GroupCommitter;
use crate::layout::{DiskDescriptor, Inode, Residency};
use crate::maintenance;
use crate::table::{InodeTable, RepairPolicy};
use crate::BulletError;

#[path = "logpath.rs"]
mod logpath;

/// Configuration of a Bullet server instance.
#[derive(Debug, Clone)]
pub struct BulletConfig {
    /// The service port the server answers on.
    pub port: Port,
    /// Minimum number of inode slots to format.
    pub min_inodes: u32,
    /// RAM cache capacity in bytes ("all of the server's remaining memory
    /// will be used for file caching").
    pub cache_capacity: u64,
    /// Number of rnode slots.
    pub rnode_slots: usize,
    /// Disk sector size (used by the convenience constructors that build
    /// their own disks).
    pub block_size: u32,
    /// Blocks per disk (convenience constructors).
    pub disk_blocks: u64,
    /// The shared simulated clock work is charged to.
    pub clock: SimClock,
    /// CPU cost model for request service and memory copies.
    pub cpu: CpuProfile,
    /// Seed of the capability-protection key (stable across restarts, as
    /// the real server's key lives on its disk).
    pub scheme_seed: u64,
    /// Seed of the inode random-number generator.
    pub rng_seed: u64,
    /// What to do with inodes that fail the start-up consistency scan.
    pub repair: RepairPolicy,
    /// Initial age for the touch/age garbage-collection protocol: a file
    /// survives this many [`BulletServer::age_all`] rounds without a
    /// [`BulletServer::touch`] before expiring.
    pub max_age: u32,
    /// Cache eviction policy (LRU, as in the paper, by default).
    pub eviction: EvictionPolicy,
    /// Streaming transfer segment size in bytes.  Effective segments are
    /// clamped to a whole number of disk blocks (minimum one block).  A
    /// create or cold read that spans more than one segment overlaps disk
    /// and wire time segment by segment; one that fits in a segment is
    /// staged whole — disk then wire — so `u32::MAX` turns streaming off.
    pub segment_size: u32,
    /// Span tracer shared by every layer (see [`amoeba_sim::trace`]).
    /// [`Tracer::off`], the default, is free: the data path never touches
    /// the clock or allocates on its behalf.  [`Tracer::on`] records a
    /// span tree of every operation — timestamps come from the simulated
    /// clock, so the recorded times are the charged times, exactly.
    pub trace: Tracer,
    /// Blocks reserved at the tail of the data area as the group-commit
    /// log region.  `0` (the default) disables the log entirely: every
    /// create takes the direct per-file path, byte-identical to earlier
    /// releases.  When enabled, concurrent small creates are batched into
    /// single sequential, checksummed, fully mirrored log appends, and
    /// idle-time maintenance later migrates each file to its contiguous
    /// first-fit home.
    pub log_blocks: u64,
    /// Time-series telemetry (see [`amoeba_sim::timeseries`]).
    /// [`Telemetry::off`], the default, is free — the data path
    /// never reads the clock or allocates for it, so the timeline is
    /// bit-identical to a build without telemetry.  Enabled, the server
    /// samples layer gauges (cache occupancy, allocator fragmentation,
    /// log residency, group-commit batch occupancy, per-disk queue depth
    /// and arm position) into fixed-capacity ring buffers once per
    /// period, readable live through the `MONITOR` RPC.
    pub telemetry: Telemetry,
    /// Per-client resource accounting keyed by the at-most-once
    /// transaction tag (see [`crate::accounting`]).  Off by default;
    /// enabled, the RPC dispatcher charges each request's bytes, I/Os,
    /// cache hits and retries to its client id.
    pub accounting: ClientAccounting,
    /// This server's slot in a shard set (see [`crate::shard`]).
    /// [`crate::shard::ShardSlot::solo`], the default, is the
    /// single-server layout and
    /// changes nothing.  A real slot `(index, count)` stripes the inode
    /// free list so this instance only ever mints object numbers that
    /// [`amoeba_cap::shard_of`] routes back to it.
    pub shard: crate::shard::ShardSlot,
    /// Blocks on the WORM archive tier.  `0` (the default) disables
    /// tiering entirely — no archive device exists and the maintenance
    /// scheduler's demotion and recall ranks never have work, leaving
    /// behaviour byte-identical to earlier releases.  When enabled,
    /// idle-time maintenance demotes cold files' extents onto a
    /// write-once archive device and recalls them to the fast tier after
    /// their first post-demotion read.
    pub archive_blocks: u64,
    /// Fast-tier occupancy percentage above which the demotion rank
    /// engages (the tier high-water mark).  Below it cold files stay on
    /// the fast tier — there is nothing to reclaim.
    pub tier_high_water_pct: u32,
    /// The idleness gate's request-arrival threshold: a maintenance tick
    /// preempts when more than this many foreground requests arrived
    /// since the previous tick.  `0` (the default, and the historical
    /// behaviour) preempts on any arrival at all.
    pub maint_idle_request_delta: u64,
    /// Bounded rank increments one maintenance tick may perform once its
    /// idleness gate passes.  `1` (the default, and the historical
    /// behaviour) moves at most one extent per tick.
    pub maint_moves_per_tick: u32,
}

impl BulletConfig {
    /// A small configuration for unit tests and examples: 512-byte
    /// blocks, a 2 MB disk, a 1 MB cache.
    pub fn small_test() -> BulletConfig {
        BulletConfig {
            port: Port::from_u64(0xb1e7),
            min_inodes: 256,
            cache_capacity: 1 << 20,
            rnode_slots: 256,
            block_size: 512,
            disk_blocks: 4096,
            clock: SimClock::new(),
            cpu: CpuProfile::mc68020(),
            scheme_seed: 0x5eed,
            rng_seed: 0x1a2b,
            repair: RepairPolicy::Fail,
            max_age: 8,
            eviction: EvictionPolicy::Lru,
            segment_size: amoeba_rpc::DEFAULT_SEGMENT,
            trace: Tracer::off(),
            log_blocks: 0,
            telemetry: Telemetry::off(),
            accounting: ClientAccounting::off(),
            shard: crate::shard::ShardSlot::solo(),
            archive_blocks: 0,
            tier_high_water_pct: 75,
            maint_idle_request_delta: 0,
            maint_moves_per_tick: 1,
        }
    }
}

/// Allocation state: the extent free list, the inode random-number
/// generator and the free inode slots, all consumed by every create.  One
/// small mutex; never held across I/O.
struct AllocState {
    extents: ExtentAllocator,
    rng: DetRng,
    /// Free slots of this server's shard stripe, the next one last (low
    /// object numbers first), so every object number minted here routes
    /// back here.  Every slot on it is free in the table; a free slot not
    /// on it is *retired*: another shard's, or one this server handed
    /// away.
    slots: Vec<u32>,
}

impl AllocState {
    /// Draws a 48-bit check random.  Never zero: an all-zero inode is a
    /// free slot, and a zero-length file at block 0 must not encode as one.
    fn draw_random(&mut self) -> u64 {
        loop {
            let r = amoeba_cap::mask48(self.rng.next_u64());
            if r != 0 {
                break r;
            }
        }
    }
}

/// The WORM archive tier's device stack: a write-once wrapper (no exempt
/// region — the inode table stays on the fast tier) over a scheduled
/// simulated drive on the shared clock, so archive I/O charges real
/// simulated time at its own device's speed.
pub type ArchiveDevice = WormDisk<SchedDisk<RamDisk>>;

/// The archive tier: the write-once device plus the recall queue —
/// archived files whose first post-demotion read scheduled a promotion
/// back to the fast tier.  The queue mutex is a leaf: it is never held
/// across another lock acquisition.
struct ArchiveState {
    dev: Arc<ArchiveDevice>,
    recall_q: Mutex<BTreeSet<u32>>,
}

/// Outcome of one [`BulletServer::compact_tick`] increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactTick {
    /// The data area is fully packed; nothing to do.
    Idle,
    /// One extent was moved; `remaining` more moves were planned (the
    /// next tick recomputes the plan, so this is an estimate that only
    /// shrinks while the server stays idle).
    Moved {
        /// Moves left in the plan this tick was taken from.
        remaining: u64,
    },
    /// Foreground traffic arrived since the last tick (or holds the
    /// maintenance lock); the tick yielded without touching the disk.
    Preempted,
}

/// One row of [`BulletServer::describe_layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutEntry {
    /// Inode index (= object number).
    pub inode: u32,
    /// First block of the file's contiguous extent.
    pub start_block: u32,
    /// Extent length in blocks.
    pub blocks: u64,
    /// File size in bytes.
    pub size_bytes: u32,
    /// True if the file currently sits in the RAM cache.
    pub cached: bool,
}

/// The Bullet file server.
///
/// Thread-safe and concurrent: operations take `&self`, and independent
/// requests overlap.  Cache-hit reads take no table lock, only their
/// file's published slot guard; disk I/O happens under a per-inode in-flight guard only, so slow
/// mirrored writes for one file never stall reads of another.  See the
/// module documentation for the lock hierarchy.
pub struct BulletServer {
    cfg: BulletConfig,
    scheme: MacScheme,
    storage: MirroredDisk,
    /// Copy of the immutable on-disk geometry, readable without a lock.
    desc: DiskDescriptor,
    /// The cache's published warm-read entries, read without `table`.
    hits: Arc<Hits>,
    table: RwLock<Tables>,
    alloc: Mutex<AllocState>,
    /// One in-flight lock per inode slot: at most one request at a time
    /// is in its disk phase for any given file.
    inflight: Box<[Mutex<()>]>,
    /// The group-commit log window (`None` when `cfg.log_blocks == 0`).
    /// See the module docs for its place in the lock order.
    log: Option<logpath::Log>,
    /// The create-batching coordinator feeding the log.
    gc: GroupCommitter,
    /// The WORM archive tier (`None` when `cfg.archive_blocks == 0`).
    archive: Option<ArchiveState>,
    /// Serializes the inode block writes of [`commit`](Self::commit), and
    /// holds the newest table generation written, so that block images
    /// reach the disks in the order they were taken: two files sharing a
    /// control block can never clobber each other's inode on disk with a
    /// stale image.
    inode_io: Mutex<u64>,
    maintenance: RwLock<()>,
    /// Foreground requests observed, ever (bumped by `charge_request`,
    /// each client on its own lane).  The idle-time compactor compares
    /// the sum against `compact_mark` to detect arrivals since its
    /// previous tick.
    requests_seen: LaneCounter,
    /// `requests_seen` as of the last [`BulletServer::compact_tick`].
    compact_mark: std::sync::atomic::AtomicU64,
    stats: Stats,
    locks: Stats,
}

impl std::fmt::Debug for BulletServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulletServer")
            .field("port", &self.cfg.port)
            .field("files", &self.table.read().inodes.live_count())
            .finish()
    }
}

impl BulletServer {
    /// Formats `storage` as an empty Bullet disk and starts a server on
    /// it.
    ///
    /// # Errors
    ///
    /// Disk errors, or [`BulletError::Corrupt`] for impossible geometry.
    pub fn format_on(
        cfg: BulletConfig,
        storage: MirroredDisk,
    ) -> Result<BulletServer, BulletError> {
        let table = InodeTable::format(&storage, cfg.min_inodes)?;
        Self::open(cfg, storage, table, None, None)
    }

    /// Validates `cfg.archive_blocks` against the formatted geometry: an
    /// archived file's inode encodes its archive block as
    /// `data_end + block`, which must fit the 32-bit start field.
    fn check_archive_geometry(
        cfg: &BulletConfig,
        desc: &DiskDescriptor,
    ) -> Result<(), BulletError> {
        if cfg.archive_blocks > 0 && desc.data_end() + cfg.archive_blocks > u32::MAX as u64 {
            return Err(BulletError::Corrupt(format!(
                "archive of {} blocks overflows the inode start field",
                cfg.archive_blocks
            )));
        }
        Ok(())
    }

    /// Where `inode`'s extent lives under this configuration's log and
    /// archive geometry — every tier decision in this file goes through
    /// here, and [`DiskDescriptor::residency`] alone knows the encoding.
    fn residency(cfg: &BulletConfig, desc: &DiskDescriptor, inode: &Inode) -> Option<Residency> {
        let blocks = inode.blocks(desc.block_size);
        let start = inode.start_block as u64;
        desc.residency(start, blocks, cfg.log_blocks, cfg.archive_blocks)
    }

    /// [`residency`](Self::residency) of an inode of the live table.  The
    /// start-up scan admits only classifiable extents and every later
    /// start comes from this server's own allocators, so the error arm is
    /// a tripwire, not an expected outcome.
    fn residency_of(&self, inode: &Inode) -> Result<Residency, BulletError> {
        Self::residency(&self.cfg, &self.desc, inode).ok_or_else(|| {
            let at = inode.start_block;
            BulletError::Corrupt(format!("extent at block {at} lies outside every tier"))
        })
    }

    /// Victim-selection seed of [`EvictionPolicy::Random`] (the other
    /// policies ignore it).  Not a knob — 9 is the only value any run
    /// ever consumed (ABL9's random row).
    const EVICTION_SEED: u64 = 9;

    /// Starts a server on `table`, freshly formatted or loaded — the one
    /// construction path behind [`format_on`](Self::format_on) and
    /// [`recover`](Self::recover).  `replay` is recovery's scan of the log
    /// chain, where the window resumes; without one the window starts
    /// empty.  `archive` is a surviving WORM device; without one a fresh
    /// device is built when the configuration enables the tier.
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] for impossible geometry, or under
    /// [`RepairPolicy::Fail`] if home extents overlap or escape the area.
    fn open(
        cfg: BulletConfig,
        storage: MirroredDisk,
        mut table: InodeTable,
        replay: Option<ChainScan>,
        archive: Option<Arc<ArchiveDevice>>,
    ) -> Result<BulletServer, BulletError> {
        let desc = *table.descriptor();
        let log = Self::log_window(&cfg, &storage, &table, replay)?;
        Self::check_archive_geometry(&cfg, &desc)?;
        let alloc_end = desc.data_end() - cfg.log_blocks;

        // Overlap check: rebuild the allocator from the home extents
        // (log-resident extents live in the bump-allocated window and
        // archived ones on another device: neither is the allocator's to
        // manage); under ZeroBad, drop any inode that overlaps an
        // earlier-accepted one or escapes the area.
        let mut home: Vec<(u64, u64, u32)> = table
            .live()
            .filter(|(_, ino)| Self::residency(&cfg, &desc, ino) == Some(Residency::Home))
            .map(|(i, ino)| (ino.start_block as u64, ino.blocks(desc.block_size), i))
            .collect();
        let data_used: Vec<(u64, u64)> = home.iter().map(|&(s, l, _)| (s, l)).collect();
        let extents = match ExtentAllocator::from_used(desc.data_start(), alloc_end, &data_used) {
            Ok(a) => a,
            Err(e) => match cfg.repair {
                RepairPolicy::Fail => return Err(e),
                RepairPolicy::ZeroBad => {
                    home.sort_unstable();
                    let mut accepted = Vec::new();
                    let mut cursor = desc.data_start();
                    for (start, len, idx) in home {
                        if start < cursor || start + len > alloc_end {
                            table.clear(idx)?; // overlapping or escaping: zero it
                        } else {
                            accepted.push((start, len));
                            cursor = start + len;
                        }
                    }
                    ExtentAllocator::from_used(desc.data_start(), alloc_end, &accepted)?
                }
            },
        };

        // A fresh archive device is write-once throughout (exempt prefix 0
        // — inodes stay on the fast tier), segmented at the streaming
        // segment size so fully-burned segments can be sealed.
        let archive = (cfg.archive_blocks > 0).then(|| ArchiveState {
            dev: archive.unwrap_or_else(|| {
                Arc::new(WormDisk::with_segments(
                    SchedDisk::new(
                        RamDisk::new(desc.block_size, cfg.archive_blocks),
                        cfg.clock.clone(),
                        DiskProfile::scsi_1989(),
                        SchedConfig::default(),
                    ),
                    0,
                    (cfg.segment_size as u64 / desc.block_size as u64).max(1),
                ))
            }),
            recall_q: Mutex::new(BTreeSet::new()),
        });

        // The free slots of this server's stripe, descending so that low
        // object numbers are handed out first.
        let slot_count = desc.inode_slots();
        let slots = (1..slot_count)
            .rev()
            .filter(|&i| table.is_free(i) && cfg.shard.owns(i))
            .collect();
        // Ages live in RAM only: every file a restart finds starts a full
        // countdown (generous, as the original server was).
        for (idx, _) in table.live() {
            table.arm(idx, cfg.max_age);
        }
        // One tracer, shared by every layer: the cache's lookup instants,
        // the mirror's replica spans, and the server's op spans all join
        // the same tree.
        let cache = FileCache::with_policy_seeded(
            cfg.cache_capacity,
            cfg.rnode_slots,
            cfg.eviction,
            Self::EVICTION_SEED,
        )
        .publishing(slot_count, cfg.trace.clone());
        storage.set_tracer(cfg.trace.clone());
        Ok(BulletServer {
            scheme: MacScheme::from_seed(cfg.scheme_seed),
            desc,
            hits: cache.hits(),
            table: RwLock::new(Tables {
                inodes: table,
                cache,
                generation: 0,
            }),
            alloc: Mutex::new(AllocState {
                extents,
                rng: DetRng::new(cfg.rng_seed),
                slots,
            }),
            inflight: (0..slot_count).map(|_| Mutex::new(())).collect(),
            log,
            gc: GroupCommitter::new(),
            archive,
            inode_io: Mutex::new(0),
            maintenance: RwLock::new(()),
            requests_seen: LaneCounter::default(),
            compact_mark: std::sync::atomic::AtomicU64::new(0),
            cfg,
            storage,
            stats: Stats::new(),
            locks: Stats::new(),
        })
    }

    /// Convenience: formats a fresh server on `replicas` plain RAM disks
    /// sized from the configuration.
    ///
    /// # Errors
    ///
    /// As for [`format_on`](Self::format_on).
    pub fn format(cfg: BulletConfig, replicas: usize) -> Result<BulletServer, BulletError> {
        let disks: Vec<Arc<dyn BlockDevice>> = (0..replicas.max(1))
            .map(|_| {
                Arc::new(RamDisk::new(cfg.block_size, cfg.disk_blocks)) as Arc<dyn BlockDevice>
            })
            .collect();
        let storage = MirroredDisk::new(disks)?;
        BulletServer::format_on(cfg, storage)
    }

    /// Starts a server on an already-formatted `storage`: reads the
    /// complete inode table into RAM, scans it for consistency ("to make
    /// sure that files do not overlap"), and rebuilds the free lists —
    /// the paper's start-up sequence, also used for crash recovery.
    ///
    /// With `cfg.archive_blocks > 0` a *fresh* (empty) archive device is
    /// built, and the scan admits no archive extent: the old platter's
    /// bytes are not here, so an inode that points at it is out of
    /// bounds like any other.  WORM media survives a crash physically; a
    /// restart that keeps its archived files re-adopts the platter via
    /// [`recover_with_archive`](Self::recover_with_archive).
    ///
    /// # Errors
    ///
    /// Disk errors; [`BulletError::Corrupt`] under [`RepairPolicy::Fail`]
    /// if any inode is out of bounds or files overlap.
    pub fn recover(cfg: BulletConfig, storage: MirroredDisk) -> Result<BulletServer, BulletError> {
        Self::recover_inner(cfg, storage, None)
    }

    /// [`recover`](Self::recover), re-adopting a surviving WORM archive
    /// device (grabbed via [`archive_device`](Self::archive_device)
    /// before the crash): archived files keep their bytes, and the
    /// device keeps its own append cursor.
    ///
    /// # Errors
    ///
    /// As [`recover`](Self::recover); additionally
    /// [`BulletError::Corrupt`] if the device's geometry does not match
    /// `cfg.archive_blocks`.
    pub fn recover_with_archive(
        cfg: BulletConfig,
        storage: MirroredDisk,
        archive: Arc<ArchiveDevice>,
    ) -> Result<BulletServer, BulletError> {
        if cfg.archive_blocks == 0 || archive.num_blocks() != cfg.archive_blocks {
            return Err(BulletError::Corrupt(format!(
                "archive device has {} blocks, configuration says {}",
                archive.num_blocks(),
                cfg.archive_blocks
            )));
        }
        Self::recover_inner(cfg, storage, Some(archive))
    }

    fn recover_inner(
        cfg: BulletConfig,
        storage: MirroredDisk,
        archive: Option<Arc<ArchiveDevice>>,
    ) -> Result<BulletServer, BulletError> {
        // Only a surviving platter holds archived bytes, so only with one
        // does the scan admit archive extents.
        let archive_blocks = archive.as_ref().map_or(0, |_| cfg.archive_blocks);
        let report = InodeTable::load(&storage, cfg.repair, archive_blocks)?;
        let mut table = report.table;

        let replay = Self::replay_log(&cfg, &storage, &mut table)?;
        let server = BulletServer::open(cfg, storage, table, replay, archive)?;
        server
            .stats
            .add(counters::RECOVERY_REPAIRED_INODES, report.repaired as u64);
        server
            .stats
            .add(counters::RECOVERY_LIVE_FILES, server.live_files() as u64);
        Ok(server)
    }

    /// Crashes the server: volatile state (RAM cache, queued background
    /// disk writes) is lost; the disks survive.  Returns the storage so a
    /// new server can [`recover`](Self::recover) on it.
    pub fn crash(self) -> MirroredDisk {
        self.storage.crash_volatile();
        self.storage
    }

    /// Shuts the server down cleanly (flushes all background writes) and
    /// returns the storage.
    ///
    /// # Errors
    ///
    /// Disk errors during the final flush.
    pub fn shutdown(self) -> Result<MirroredDisk, BulletError> {
        self.storage.sync()?;
        Ok(self.storage)
    }

    // ------------------------------------------------------------------
    // The Bullet interface (§2.2).
    // ------------------------------------------------------------------

    /// `BULLET.CREATE(SERVER, DATA, SIZE, P-FACTOR) → CAPABILITY`.
    ///
    /// Stores `data` as a new immutable file.  With `p_factor = 0` the
    /// call returns as soon as the file is in the RAM cache (fast, but a
    /// crash shortly afterwards loses the file); with `p_factor = N` the
    /// file and its inode are on `N` disks before the call returns.  The
    /// remaining replicas are completed in the background either way
    /// (write-through mirroring).
    ///
    /// # Errors
    ///
    /// [`BulletError::BadPFactor`] if `p_factor` exceeds the disk count;
    /// [`BulletError::TooLarge`] if the file exceeds the RAM cache;
    /// [`BulletError::NoSpace`] / [`BulletError::NoInodes`] when full;
    /// disk errors (after which no partial state remains).
    pub fn create(&self, data: Bytes, p_factor: u32) -> Result<Capability, BulletError> {
        self.create_streamed(data, p_factor, None)
    }

    /// [`create`](Self::create) with access to the RPC wire: on a
    /// multi-segment file the reception of each segment from the wire, its
    /// copy into the cache arena, and the disk write of the *previous*
    /// segment all overlap in a three-lane pipeline, instead of arriving
    /// whole, copying whole, then writing whole.
    ///
    /// # Errors
    ///
    /// As [`create`](Self::create).
    pub fn create_streamed(
        &self,
        data: Bytes,
        p_factor: u32,
        wire: Option<&StreamWire>,
    ) -> Result<Capability, BulletError> {
        let mut op = self.cfg.trace.span("bullet.create");
        op.attr("op", "create");
        op.attr("bytes", data.len());
        op.attr("p_factor", p_factor);
        self.charge_request();
        self.check_p_factor(p_factor)?;
        let size = self.file_size(&data)?;
        // Charged here, on the request thread: the group-commit leader
        // below may write *other* clients' payloads, which must not be
        // billed to whoever happened to lead the flush.
        self.cfg.accounting.charge_current(|u| {
            u.bytes_written += size as u64;
            u.disk_ios += p_factor.max(1) as u64;
        });
        // Group-commit routing: small non-wire creates join the shared
        // batch and commit as one sequential log append.  Files above the
        // byte cap — and wire-fed creates, whose segment pipeline already
        // overlaps their cost — take the direct per-file path.  Grouped
        // creates are always fully synchronous on every replica (the
        // record *is* the durability point), which satisfies any valid
        // `p_factor`.
        if self.logged(data.len(), wire) {
            op.attr("grouped", true);
            return self
                .gc
                .submit(data, self.batch_caps(), |batch| self.gc_commit(batch));
        }
        self.create_direct(&mut op, data, size, p_factor, wire)
    }

    /// Refuses a P-FACTOR above the disk count.
    fn check_p_factor(&self, p_factor: u32) -> Result<(), BulletError> {
        let disks = self.storage.replica_count() as u32;
        if p_factor > disks {
            return Err(BulletError::BadPFactor {
                requested: p_factor,
                disks,
            });
        }
        Ok(())
    }

    /// A payload's length as a file size, which the inode holds in 32
    /// bits.
    fn file_size(&self, data: &[u8]) -> Result<u32, BulletError> {
        data.len().try_into().map_err(|_| BulletError::TooLarge {
            size: data.len() as u64,
            cache_capacity: self.cfg.cache_capacity,
        })
    }

    /// The direct (non-batched) create path: per-file extent allocation
    /// and a per-file mirrored write — the seed behaviour, still used for
    /// large files, wire-fed streams, and whenever the log is disabled or
    /// full.
    fn create_direct(
        &self,
        op: &mut SpanGuard,
        data: Bytes,
        size: u32,
        p_factor: u32,
        wire: Option<&StreamWire>,
    ) -> Result<Capability, BulletError> {
        let pipelined = data.len() as u64 > self.segment_bytes();
        op.attr("pipelined", pipelined);
        if !pipelined {
            // Receiving the file into cache memory costs one copy.  (The
            // pipelined path charges the same copy segment by segment,
            // overlapped with the disk writes.)
            self.charge_memcpy(data.len() as u64);
            self.stats
                .add(counters::PAYLOAD_BYTES_COPIED, data.len() as u64);
        }
        let k = p_factor as usize;
        let (idx, random) = self.install(None, &data, size, k, pipelined, wire)?;
        self.stats.incr(counters::CREATES);
        self.stats.add(counters::BYTES_CREATED, size as u64);
        Ok(self.scheme.mint(
            self.cfg.port,
            ObjNum::new(idx).expect("inode index fits 24 bits"),
            Rights::ALL,
            random,
        ))
    }

    /// The file-install protocol, written once: reserve the extent, the
    /// check random and the slot under the allocation lock, write the
    /// data (through the segment pipeline when `pipelined`, fed from
    /// `wire` if there is one) to `k` replicas, then [`commit`](Self::commit)
    /// the inode, its cache entry and its age.  The inode block write is
    /// the commit point — a crash before it leaves a free slot on disk,
    /// and recovery's allocator rebuild never sees the half-written
    /// extent.  Until the commit only `alloc` has changed, so every
    /// failure hands the reservation back and no half-created file
    /// remains.  An adopted file's `(slot, random)` is `dictated`, so
    /// every capability minted before the move keeps verifying; a new
    /// file gets the next free slot and a fresh random.  Returns the slot
    /// and check random the file lives under.
    fn install(
        &self,
        dictated: Option<(u32, u64)>,
        data: &Bytes,
        size: u32,
        k: usize,
        pipelined: bool,
        wire: Option<&StreamWire>,
    ) -> Result<(u32, u64), BulletError> {
        // The commit's cache insert refuses only a file bigger than the
        // whole cache: refuse it before anything is reserved.
        if (size as u64).max(1) > self.cfg.cache_capacity {
            return Err(BulletError::TooLarge {
                size: size as u64,
                cache_capacity: self.cfg.cache_capacity,
            });
        }
        let blocks = (size as u64).div_ceil(self.desc.block_size as u64).max(1);

        // Installs may overlap each other, but not a running compaction.
        let _m = self.maint_read();

        // Extent, random and slot in one allocator section.  A dictated
        // slot leaves the free list if it is on it; only then is it
        // `listed`, and handed back on failure.
        let (start, idx, random, listed) = {
            let mut al = self.alloc_lock();
            let start = al.extents.alloc(blocks).ok_or(BulletError::NoSpace)?;
            let (idx, random) = match dictated {
                Some((idx, random)) => (Some(idx), random),
                None => (al.slots.last().copied(), al.draw_random()),
            };
            let Some(idx) = idx else {
                al.extents.free(start, blocks).expect("just allocated");
                return Err(BulletError::NoInodes);
            };
            let listed = al.slots.iter().rposition(|&s| s == idx);
            let listed = listed.map(|at| al.slots.remove(at)).is_some();
            (start, idx, random, listed)
        };
        let inode = Inode {
            random,
            index: 0,
            start_block: start as u32,
            size_bytes: size,
        };

        // The disk phase runs under this file's in-flight guard only:
        // other requests keep flowing while the mirrored writes complete.
        let _busy = self.inflight_lock(idx);
        let written = if pipelined {
            self.stats.incr(counters::PIPELINED_CREATES);
            self.write_data_pipelined(start, blocks, data, k, wire)
        } else {
            self.write_data_blocks(start, blocks, data, k)
        };
        // A live dictated slot fails the `put`, before any change.  The
        // cache holds a reference-count bump on the shared payload, not a
        // copy (asserted by `cache_insert_shares_the_payload_buffer`).
        let committed = written.and_then(|()| {
            self.commit(
                &[idx],
                k,
                |t| {
                    t.inodes.put(idx, inode)?;
                    self.cache_insert(t, idx, data.clone())
                        .expect("the size fits the cache");
                    t.inodes.arm(idx, self.cfg.max_age);
                    Ok(())
                },
                |t| t.clear(idx),
            )
        });
        committed.inspect_err(|_| {
            let mut al = self.alloc_lock();
            al.extents.free(start, blocks).expect("just allocated");
            if listed {
                al.slots.push(idx);
            }
        })?;
        Ok((idx, random))
    }

    /// The extent-move protocol, written once: copy `inode`'s immutable
    /// extent to `to_start`, then [`commit`](Self::commit) the flip of its
    /// start block to every replica.  The inode write is the commit point:
    /// until it lands the file still lives at its old extent in RAM and on
    /// disk, so on failure the table entry flips back and the destination
    /// holds nothing anyone references.  What becomes of the destination
    /// *reservation* then — and of the source extent on success — is the
    /// caller's bookkeeping.  The caller holds the file's in-flight guard
    /// and a maintenance guard.
    ///
    /// A fast-tier destination takes a staged copy (whole extent via RAM,
    /// written to every replica, preserving the contiguous layout the read
    /// path depends on); an archive destination is burned segment by
    /// segment through [`copy_extent_to_archive`](Self::copy_extent_to_archive).
    fn move_extent(&self, idx: u32, inode: &Inode, to_start: u64) -> Result<(), BulletError> {
        let blocks = inode.blocks(self.desc.block_size);
        let k = self.storage.replica_count();
        let moved = Inode {
            start_block: to_start as u32,
            ..*inode
        };
        match self.residency_of(&moved)? {
            Residency::Archive { block } => {
                self.copy_extent_to_archive(inode.start_block as u64, blocks, block)?
            }
            Residency::Home => {
                let buf = self.read_extent(inode, None)?;
                self.storage.write_sync_k(to_start, &buf, k)?;
            }
            // Nothing moves *into* the log window: records are appended.
            Residency::Log => {
                return Err(BulletError::Corrupt(format!(
                    "extent move into the log window (block {to_start})"
                )))
            }
        }
        let flip = |t: &mut Tables, start_block| {
            t.inodes.get_mut(idx)?.start_block = start_block;
            Ok(())
        };
        self.commit(
            &[idx],
            k,
            |t| flip(t, moved.start_block),
            |t| flip(t, inode.start_block),
        )
    }

    /// `BULLET.SIZE(CAPABILITY) → SIZE`.
    ///
    /// # Errors
    ///
    /// Capability or lookup failures.
    pub fn size(&self, cap: &Capability) -> Result<u32, BulletError> {
        let mut op = self.cfg.trace.span("bullet.size");
        op.attr("op", "size");
        self.charge_request();
        let t = self.table_read();
        let inode = self.verify(&t.inodes, cap, Rights::READ)?;
        Ok(inode.size_bytes)
    }

    /// `BULLET.READ(CAPABILITY, &DATA)`: returns the whole file.
    ///
    /// A cached file is served straight from the contiguous RAM copy; a
    /// miss loads the whole contiguous extent from disk in one I/O, after
    /// making room by LRU eviction.
    ///
    /// # Errors
    ///
    /// Capability failures, [`BulletError::TooLarge`] for a file bigger
    /// than the cache, or disk errors.
    pub fn read(&self, cap: &Capability) -> Result<Bytes, BulletError> {
        self.read_streamed(cap, None)
    }

    /// [`read`](Self::read) with access to the RPC wire: a cold
    /// multi-segment read streams each segment towards the client while
    /// the next segment is still coming off the disk, instead of staging
    /// the whole file in RAM before the first byte travels.  Warm reads
    /// never stream — the cached copy goes out as one zero-copy reply.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read).
    pub fn read_streamed(
        &self,
        cap: &Capability,
        wire: Option<&StreamWire>,
    ) -> Result<Bytes, BulletError> {
        let mut op = self.cfg.trace.span("bullet.read");
        op.attr("op", "read");
        self.charge_request();
        let (data, hit) = self.fetch(cap, Rights::READ, wire, |_| Ok((0, u64::MAX)))?;
        self.stats.incr(counters::READS);
        op.attr("bytes", data.len());
        self.charge_read(hit, &data);
        Ok(data)
    }

    /// Partial read (§5 extension, for "processors with small memories").
    ///
    /// # Errors
    ///
    /// [`BulletError::BadRange`] if `[offset, offset + len)` leaves the
    /// file; otherwise as [`read`](Self::read).
    pub fn read_section(
        &self,
        cap: &Capability,
        offset: u32,
        len: u32,
    ) -> Result<Bytes, BulletError> {
        self.read_section_streamed(cap, offset, len, None)
    }

    /// [`read_section`](Self::read_section) with access to the RPC wire —
    /// cold multi-segment loads pipeline disk against wire exactly as
    /// [`read_streamed`](Self::read_streamed), except only the requested
    /// byte range travels.  A cold section read loads — and caches — the
    /// whole file, the paper's whole-file semantics.
    ///
    /// # Errors
    ///
    /// As [`read_section`](Self::read_section).
    pub(crate) fn read_section_streamed(
        &self,
        cap: &Capability,
        offset: u32,
        len: u32,
        wire: Option<&StreamWire>,
    ) -> Result<Bytes, BulletError> {
        let mut op = self.cfg.trace.span("bullet.read_section");
        op.attr("op", "read_section");
        op.attr("bytes", len);
        self.charge_request();
        let (file, hit) = self.fetch(cap, Rights::READ, wire, |size| {
            let end = offset.checked_add(len).filter(|&e| e <= size);
            Ok((offset as u64, end.ok_or(BulletError::BadRange)? as u64))
        })?;
        let data = file.slice(offset as usize..(offset + len) as usize);
        self.stats.incr(counters::SECTION_READS);
        self.charge_read(hit, &data);
        Ok(data)
    }

    /// Bills a read to the requesting client: a hit, or a miss and the
    /// disk I/O that loaded the file, plus the bytes that travel.
    fn charge_read(&self, hit: bool, data: &Bytes) {
        self.cfg.accounting.charge_current(|u| {
            if hit {
                u.cache_hits += 1;
            } else {
                u.cache_misses += 1;
                u.disk_ios += 1;
            }
            u.bytes_read += data.len() as u64;
        });
    }

    /// `BULLET.DELETE(CAPABILITY)`.
    ///
    /// Zeroes the inode, writes its block through to every disk, frees the
    /// extent and the cache copy.
    ///
    /// # Errors
    ///
    /// Capability failures or disk errors.
    pub fn delete(&self, cap: &Capability) -> Result<(), BulletError> {
        let mut op = self.cfg.trace.span("bullet.delete");
        op.attr("op", "delete");
        self.charge_request();
        let idx = cap.object.value();
        let _m = self.maint_read();
        self.destroy(idx, true, |table| {
            self.verify(table, cap, Rights::DESTROY).map(|i| Some(*i))
        })?;
        self.stats.incr(counters::DELETES);
        Ok(())
    }

    /// The file-destroy protocol, written once.  `fetch` looks the victim
    /// up (and may veto: `Ok(None)` means "already gone, nothing to do",
    /// reported as `Ok(false)`); `release_slot` says whether the inode
    /// slot returns to the free list.  The caller holds the shared
    /// maintenance guard.
    ///
    /// Write order: seal the log chain if needed → [`commit`](Self::commit)
    /// the zeroed inode (and with it the age and the cache copy) to every
    /// replica → return the slot and the space the file's [`Residency`]
    /// says it owned to the allocator, in one section.
    fn destroy(
        &self,
        idx: u32,
        release_slot: bool,
        fetch: impl FnOnce(&InodeTable) -> Result<Option<Inode>, BulletError>,
    ) -> Result<bool, BulletError> {
        // The log guard sits outside the in-flight guard in the lock
        // order; holding it keeps the seal decision below consistent with
        // concurrent commits and migrations.
        let mut logst = self.log.as_ref().map(|l| l.lock());
        // The in-flight guard serializes against a create, miss load, or
        // compaction move of the same file still in its disk phase.
        let _busy = self.inflight_lock(idx);
        let inode = match fetch(&self.table_read().inodes)? {
            Some(inode) => inode,
            None => return Ok(false),
        };
        let residency = self.residency_of(&inode)?;
        // Destroying a file of the *newest* log record must seal the
        // chain first: once the inode is zeroed on disk, a crash replay
        // would otherwise see a free slot named by a valid record and
        // resurrect the file.
        if let Some(st) = logst.as_mut() {
            if st.is_unsealed(idx) {
                self.log_seal(st, false)?;
            }
        }
        // Destruction is always written through to all disks.  The zeroing
        // stands even if the write fails: the RAM table no longer
        // references the file, so its slot and space return to the
        // allocator anyway, and recovery rebuilds from disk.  They return
        // only after the commit, so neither is reused while the zeroed
        // inode is still in flight.
        let write = self.commit(
            &[idx],
            self.storage.replica_count(),
            |t| t.clear(idx),
            |_| Ok(()),
        );
        // Another stripe's slot never rejoins the free list: an adopted
        // object's number must never be re-minted by a shard the router
        // would not deliver it to.
        let mut al = self.alloc_lock();
        if release_slot && self.cfg.shard.owns(idx) {
            al.slots.push(idx);
        }
        match residency {
            Residency::Archive { .. } => {
                // WORM space is never reclaimed — the burned blocks keep
                // the dead version forever; just forget any pending recall.
                self.archive_tier().recall_q.lock().remove(&idx);
            }
            Residency::Log => {
                // A log-resident file owns no allocator extent — it owns
                // its preallocated migration home; free that instead, and
                // let an emptied window rewind for reuse.
                let st = logst.as_mut().expect("log-resident implies log enabled");
                if let Some((hs, hl)) = st.forget(idx) {
                    al.extents.free(hs, hl)?;
                }
            }
            Residency::Home => {
                let blocks = inode.blocks(self.desc.block_size);
                al.extents.free(inode.start_block as u64, blocks)?;
            }
        }
        write?;
        Ok(true)
    }

    /// Reads a live object out for migration to another shard: its check
    /// random (so the destination can honour every already-minted
    /// capability) and its full payload.  Serves from cache when warm,
    /// from the extent otherwise.  This is the first leg of
    /// [`crate::shard::BulletShards::rebalance`].
    ///
    /// # Errors
    ///
    /// [`BulletError::NotFound`] if `idx` is not live; disk errors.
    pub(crate) fn export_object(&self, idx: u32) -> Result<(u64, Bytes), BulletError> {
        let mut op = self.cfg.trace.span("bullet.export_object");
        op.attr("op", "export_object");
        let _m = self.maint_read();
        // The in-flight guard keeps the inode snapshot stable across the
        // extent read: delete and compaction both need this guard.
        let _busy = self.inflight_lock(idx);
        // An audit is not a client read: `peek` counts no hit or miss and
        // leaves the eviction order as it was.
        let (inode, hit) = {
            let t = self.table_read();
            (*t.inodes.get(idx)?, t.cache.peek(idx))
        };
        if let Some(data) = hit {
            op.attr("bytes", data.len());
            return Ok((inode.random, data));
        }
        let mut buf = self.read_extent(&inode, None)?;
        buf.truncate(inode.size_bytes as usize);
        op.attr("bytes", buf.len());
        Ok((inode.random, Bytes::from(buf)))
    }

    /// Installs a migrated object at the *dictated* slot `idx` with the
    /// *dictated* check `random` — the destination leg of a shard
    /// rebalance.  Unlike [`create`](Self::create), which picks a fresh
    /// slot and random, adoption must reproduce both exactly so that
    /// every capability minted before the move keeps verifying.  The slot
    /// may lie outside this server's own stripe; that is the point.
    /// Adopted data is written through to every replica.
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] if slot `idx` is live here;
    /// [`BulletError::NoSpace`] / disk errors as for create.  On error
    /// the adoption is fully rolled back.
    pub(crate) fn adopt_object(
        &self,
        idx: u32,
        random: u64,
        data: Bytes,
    ) -> Result<(), BulletError> {
        let mut op = self.cfg.trace.span("bullet.adopt_object");
        op.attr("op", "adopt_object");
        op.attr("bytes", data.len());
        let size = self.file_size(&data)?;
        let k = self.storage.replica_count();
        self.install(Some((idx, random)), &data, size, k, false, None)?;
        Ok(())
    }

    /// Removes a migrated-away object from this shard — the final leg of
    /// a rebalance, after the destination's
    /// [`adopt_object`](Self::adopt_object) is durable.  The full delete
    /// protocol runs (seal-if-unsealed, zero, write-through, free the
    /// extent) *except* that the slot is never returned to the free list:
    /// the object number now lives on another shard, and re-minting it
    /// here would collide with the router's override for it.
    ///
    /// # Errors
    ///
    /// [`BulletError::NotFound`] if `idx` is not live; disk errors.
    pub(crate) fn retire_object(&self, idx: u32) -> Result<(), BulletError> {
        let mut op = self.cfg.trace.span("bullet.retire_object");
        op.attr("op", "retire_object");
        let _m = self.maint_read();
        // Deliberately no slot release: the slot is tombstoned on this
        // shard for the life of the process.
        self.destroy(idx, false, |table| table.get(idx).map(|i| Some(*i)))?;
        Ok(())
    }

    /// §5 extension: derives a **new** immutable file from an existing one
    /// with `data` overlaid at `offset` (growing the file if needed),
    /// entirely server-side — "for a small modification it is not
    /// necessary any longer to transfer the whole file".
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read) plus the create-path errors.
    pub fn modify(
        &self,
        cap: &Capability,
        offset: u32,
        data: &[u8],
        p_factor: u32,
    ) -> Result<Capability, BulletError> {
        self.derive(cap, Some(offset), data, p_factor)
    }

    /// §5 extension: appends by deriving a new file (a
    /// [`modify`](Self::modify) at the old end).
    ///
    /// # Errors
    ///
    /// As [`modify`](Self::modify).
    pub fn append(
        &self,
        cap: &Capability,
        data: &[u8],
        p_factor: u32,
    ) -> Result<Capability, BulletError> {
        self.derive(cap, None, data, p_factor)
    }

    /// The body of [`modify`](Self::modify) and [`append`](Self::append):
    /// fetches the base once, then overlays `data` at `offset`, or at the
    /// base's end when `offset` is `None`.
    fn derive(
        &self,
        cap: &Capability,
        offset: Option<u32>,
        data: &[u8],
        p_factor: u32,
    ) -> Result<Capability, BulletError> {
        let mut op = self.cfg.trace.span("bullet.modify");
        op.attr("op", "modify");
        op.attr("bytes", data.len());
        let needed = Rights::READ | Rights::MODIFY;
        let (base, _) = self.fetch(cap, needed, None, |_| Ok((0, u64::MAX)))?;
        let offset = offset.map_or(base.len(), |o| o as usize);
        let new_len = base.len().max(offset + data.len());
        let mut buf = vec![0u8; new_len];
        buf[..base.len()].copy_from_slice(&base);
        buf[offset..offset + data.len()].copy_from_slice(data);
        // The extra server-side copy is charged inside create() as the
        // usual reception copy; charge the read-side copy here.
        self.charge_memcpy(base.len() as u64);
        self.stats
            .add(counters::PAYLOAD_BYTES_COPIED, base.len() as u64);
        self.stats.incr(counters::MODIFIES);
        self.create(Bytes::from(buf), p_factor)
    }

    // ------------------------------------------------------------------
    // Administration.
    // ------------------------------------------------------------------

    /// Completes all background replica writes and syncs the disks.
    ///
    /// # Errors
    ///
    /// Disk errors.
    pub fn sync(&self) -> Result<(), BulletError> {
        self.storage.sync()?;
        Ok(())
    }

    /// The "3 a.m." disk compaction: slides every file leftward so the
    /// free space becomes one hole.  Files move via RAM (read whole
    /// extent, write to the new location on every disk, update the
    /// inode).  Returns the number of files moved.
    ///
    /// # Errors
    ///
    /// Disk errors mid-plan leave already-moved files fully consistent
    /// (each move updates the inode on disk before the next move starts).
    pub fn compact_disk(&self) -> Result<u64, BulletError> {
        // Exclusive maintenance guard: creates, deletes, and expiry wait;
        // reads keep flowing (each move serializes against readers of the
        // moving file via its in-flight guard).
        let _m = self.maint_write();
        // Migrate every log-resident file home first: the sliding plan
        // only understands home extents, and a drained window keeps the
        // "free space becomes one hole" postcondition.
        if let Some(logmx) = &self.log {
            let mut st = logmx.lock();
            while self.migrate_one_log_file(&mut st)?.is_some() {}
        }
        // Each increment recomputes the sliding plan and applies its
        // first move; the first move of the recomputed plan is the next
        // move of the original, so this is the one-pass plan, move by move.
        let mut moved = 0;
        while self.pack_one()?.is_some() {
            moved += 1;
        }
        Ok(moved)
    }

    /// One increment of idle-time maintenance, and only when the server
    /// has been idle since the previous tick.
    ///
    /// The paper runs compaction "every morning at say 3 am" as one long
    /// exclusive pass; here it is a ranked background scheduler that
    /// yields to foreground traffic.  Each tick:
    ///
    /// 1. If more than [`BulletConfig::maint_idle_request_delta`]
    ///    requests arrived since the last tick, or foreground work
    ///    currently holds the maintenance lock, the tick *preempts* —
    ///    it does nothing, counts a preemption, and re-arms.
    /// 2. Otherwise the ranks are consulted in order — group-commit
    ///    log migration, data-area packing, archive recall, cold-file
    ///    demotion — and the first with work performs one bounded
    ///    increment ([`BulletConfig::maint_moves_per_tick`] increments
    ///    per tick; every move lands on every replica with the inode
    ///    updated on disk before the tick returns, the same consistency
    ///    as [`compact_disk`](Self::compact_disk)).
    ///
    /// With tiering off (`archive_blocks == 0`) the recall and demotion
    /// ranks never have work and the tick behaves exactly as earlier
    /// releases: migrate one log file, else pack one extent, else idle.
    ///
    /// Drive it from an idle loop until it returns [`CompactTick::Idle`].
    ///
    /// # Errors
    ///
    /// Disk errors; an interrupted tick leaves every file consistent.
    pub fn compact_tick(&self) -> Result<CompactTick, BulletError> {
        use std::sync::atomic::Ordering;
        // Idleness gate: foreground arrivals beyond the configured
        // threshold since the previous tick preempt this one.  (The swap
        // also re-arms the gate, so the next tick runs if the server has
        // gone quiet.)
        let seen = self.requests_seen.get();
        let mark = self.compact_mark.swap(seen, Ordering::Relaxed);
        if seen.saturating_sub(mark) > self.cfg.maint_idle_request_delta {
            self.stats.incr(counters::COMPACTION_PREEMPTIONS);
            return Ok(CompactTick::Preempted);
        }
        // Never wait for the maintenance lock: a create/delete in
        // progress means the server is not idle.
        let Some(_m) = self.maintenance.try_write() else {
            self.locks.incr(counters::LOCK_MAINTENANCE_WRITE);
            self.locks.incr(counters::LOCK_CONTENDED_MAINTENANCE_WRITE);
            self.stats.incr(counters::COMPACTION_PREEMPTIONS);
            return Ok(CompactTick::Preempted);
        };
        self.locks.incr(counters::LOCK_MAINTENANCE_WRITE);
        self.stats.incr(counters::MAINTENANCE_TICKS);

        let mut outcome = CompactTick::Idle;
        for _ in 0..self.cfg.maint_moves_per_tick.max(1) {
            let Some(remaining) = self.maintain_one()? else {
                break;
            };
            outcome = CompactTick::Moved { remaining };
        }
        Ok(outcome)
    }

    /// One bounded increment of the first maintenance rank with work;
    /// returns that rank's estimate of the increments it has left, or
    /// `None` when no rank had any.  The ranks, highest first: draining
    /// the group-commit window keeps it free for future batches; packing
    /// restores the one-hole invariant; recall serves files the read path
    /// already asked for; demotion is pure space reclamation.
    ///
    /// Each rank first peeks with an *uncounted* try-lock, so the peeks
    /// never perturb the lock telemetry of the real work paths (and a
    /// busy lock counts as work).  A rank whose peek finds nothing counts
    /// a `maint_skips_*`; one whose increment finds nothing falls through
    /// to the next rank without counting one.
    fn maintain_one(&self) -> Result<Option<u64>, BulletError> {
        // Rank 0: migrate one log-resident file to its contiguous home.
        let log = self.log.as_ref().map(|l| l.lock());
        if let Some(mut st) = log.filter(|st| st.resident() > 0) {
            if self.migrate_one_log_file(&mut st)?.is_some() {
                return Ok(Some(st.resident()));
            }
        } else {
            self.stats.incr(counters::MAINT_SKIPS_LOG_MIGRATION);
        }
        // Rank 1: pack the data area by one extent move.  Any live file
        // may leave a hole; the plan decides.
        let live = self.table.try_read().map_or(1, |t| t.inodes.live_count());
        if live > 0 {
            if let Some(remaining) = self.pack_one()? {
                return Ok(Some(remaining));
            }
        } else {
            self.stats.incr(counters::MAINT_SKIPS_PACKING);
        }
        // Rank 2: recall one archived file a read asked for.
        if self.tier_recall_backlog() > 0 {
            if self.recall_one()?.is_some() {
                return Ok(Some(self.tier_recall_backlog() as u64));
            }
        } else {
            self.stats.incr(counters::MAINT_SKIPS_RECALL);
        }
        // Rank 3: demote one cold file, only while the fast tier sits
        // above its high-water mark.
        let above_water = |al: MutexGuard<'_, AllocState>| {
            let report = al.extents.report();
            let used = report.total - report.free;
            used * 100 > report.total.max(1) * self.cfg.tier_high_water_pct as u64
        };
        if self.archive.is_some() && self.alloc.try_lock().is_none_or(above_water) {
            if self.demote_one()?.is_some() {
                return Ok(Some(0));
            }
        } else {
            self.stats.incr(counters::MAINT_SKIPS_DEMOTION);
        }
        Ok(None)
    }

    /// One increment of data-area packing (maintenance rank 1): recompute
    /// the sliding plan, apply its first move.  Returns the remaining
    /// move count, or `None` when the area is fully packed.
    fn pack_one(&self) -> Result<Option<u64>, BulletError> {
        let (idx, inode, m, remaining) = {
            let t = self.table_read();
            let table = &t.inodes;
            // Log-window extents are bump-allocated and archived extents
            // live on another device entirely: neither is the
            // allocator's to plan over.
            let used: Vec<(u64, u64)> = table
                .live()
                .filter(|&(_, inode)| self.residency_of(inode) == Ok(Residency::Home))
                .map(|(_, inode)| (inode.start_block as u64, inode.blocks(self.desc.block_size)))
                .collect();
            let plan = self.alloc_lock().extents.plan_compaction(&used);
            let Some(&m) = plan.first() else {
                return Ok(None);
            };
            let (idx, inode) = table
                .live()
                .find(|&(_, inode)| inode.start_block as u64 == m.from)
                .expect("plan extents come from the table");
            (idx, *inode, m, plan.len() as u64 - 1)
        };

        let _busy = self.inflight_lock(idx);
        // The region [m.to, m.from) ahead of the plan's first move is all
        // free (every live extent before it is already packed): claim it
        // so the allocator never hands it out mid-move, copy, then
        // release the vacated tail [m.to + len, m.from + len).
        let shift = m.from - m.to;
        self.alloc_lock().extents.reserve(m.to, shift)?;
        // A failed move must release the claimed destination — otherwise
        // the region stays unallocatable until recovery.  `move_extent`
        // has already flipped the table entry back, so the extent still
        // lives at `m.from` in memory and on disk and the destination
        // really is free again.
        if let Err(e) = self.move_extent(idx, &inode, m.to) {
            self.alloc_lock().extents.free(m.to, shift)?;
            return Err(e);
        }
        self.alloc_lock().extents.free(m.to + m.len, shift)?;
        self.stats.incr(counters::DISK_COMPACTION_MOVES);
        Ok(Some(remaining))
    }

    // ------------------------------------------------------------------
    // The storage tiers: RAM → mirrored disk → WORM archive.
    // ------------------------------------------------------------------

    /// Aging rounds ([`age_all`](Self::age_all)) a file must survive
    /// untouched before demotion may consider it cold.  Not a
    /// knob — nothing ever ran with another value.
    pub const TIER_COLD_AGE: u32 = 1;

    /// Demotes one cold file's extent to the WORM archive tier —
    /// maintenance rank 3.  Candidates are live, uncached,
    /// allocator-range (neither log-resident nor already archived) files
    /// that survived [`TIER_COLD_AGE`](Self::TIER_COLD_AGE) aging rounds
    /// untouched; among them the size-tiered bucketing of
    /// [`maintenance::size_tiered_pick`] chooses.  The extent streams to
    /// the archive through the low-priority disk lane, the inode flips
    /// to the archive encoding (`data_end + archive_block`), and the
    /// fast-tier extent returns to the allocator.  Returns the demoted
    /// index, or `None` when nothing qualifies.
    fn demote_one(&self) -> Result<Option<u32>, BulletError> {
        let Some(arch) = &self.archive else {
            return Ok(None);
        };
        let block_size = self.desc.block_size;
        let candidates: Vec<(u32, u64)> = {
            let t = self.table_read();
            t.inodes
                .live()
                .filter(|&(idx, ino)| {
                    let age = t.inodes.age(idx);
                    t.cache.peek(idx).is_none()
                        && self.residency_of(ino) == Ok(Residency::Home)
                        && age != 0
                        && self.cfg.max_age.saturating_sub(age) >= Self::TIER_COLD_AGE
                })
                .map(|(idx, ino)| (idx, ino.blocks(block_size)))
                .collect()
        };
        let Some(idx) = maintenance::size_tiered_pick(&candidates) else {
            return Ok(None);
        };
        let _busy = self.inflight_lock(idx);
        // Re-check under the guard: a read may have re-warmed the file
        // into the cache, or a delete may have claimed the slot.
        let inode = {
            let t = self.table_read();
            match t.inodes.get(idx) {
                Ok(i) if t.cache.peek(idx).is_none() => *i,
                _ => return Ok(None),
            }
        };
        if self.residency_of(&inode)? != Residency::Home {
            return Ok(None);
        }
        let blocks = inode.blocks(block_size);
        // The reservation is permanent — a burner can never unburn — so
        // a full archive simply ends demotion, and a failed move wastes
        // the run (nothing else changed: full rollback).
        let Ok(dst) = arch.dev.append_reserve(blocks) else {
            return Ok(None);
        };
        self.move_extent(idx, &inode, self.desc.archive_start(dst))?;
        // Committed: the fast-tier extent returns to the allocator, and
        // fully-burned archive segments seal behind the cursor.
        self.alloc_lock()
            .extents
            .free(inode.start_block as u64, blocks)?;
        arch.dev.seal_full_segments();
        self.stats.incr(counters::TIER_DEMOTIONS);
        self.stats
            .add(counters::TIER_ARCHIVE_BYTES, inode.size_bytes as u64);
        Ok(Some(idx))
    }

    /// Streams a fast-tier extent to the archive device segment by
    /// segment through the two-lane pipeline: lane 0 reads segment `k`
    /// off the fast tier — on the disk scheduler's *low-priority* lane,
    /// so a foreground request waking mid-stream is never stuck behind
    /// archive traffic — while lane 1 burns segment `k-1` onto the
    /// archive.
    fn copy_extent_to_archive(&self, src: u64, blocks: u64, dst: u64) -> Result<(), BulletError> {
        let dev = &self.archive_tier().dev;
        let block_size = self.desc.block_size as u64;
        let (total, seg) = (blocks * block_size, self.segment_bytes());
        let lanes = &["archive_read", "archive_write"];
        Pipeline::walk(&self.cfg.trace, lanes, total, seg, |pipe, off, end| {
            let mut buf = vec![0u8; (end - off) as usize];
            pipe.stage(0, || {
                self.storage
                    .read_blocks_low(src + off / block_size, &mut buf)
            })?;
            pipe.stage(1, || dev.write_blocks(dst + off / block_size, &buf))
        })?;
        Ok(())
    }

    /// Recalls one archived file back to the fast tier — maintenance
    /// rank 2, completing the promotion an archived
    /// read scheduled.  The copy runs under the file's in-flight guard
    /// with full rollback (the fast-tier extent is freed and the index
    /// requeued on error); the burned archive blocks are never reclaimed
    /// — WORM media keeps the old version forever.  Returns the recalled
    /// index, or `None` when the queue is empty (or the fast tier is too
    /// full — the index is requeued and demotion gets its turn).
    fn recall_one(&self) -> Result<Option<u32>, BulletError> {
        let Some(arch) = &self.archive else {
            return Ok(None);
        };
        loop {
            let picked = arch.recall_q.lock().iter().next().copied();
            let Some(idx) = picked else {
                return Ok(None);
            };
            arch.recall_q.lock().remove(&idx);
            let _busy = self.inflight_lock(idx);
            let inode = match self.table_read().inodes.get(idx) {
                Ok(i) => *i,
                Err(_) => continue, // deleted while queued
            };
            let Residency::Archive { .. } = self.residency_of(&inode)? else {
                continue; // already recalled, or the slot was reused
            };
            let blocks = inode.blocks(self.desc.block_size);
            let home = self.alloc_lock().extents.alloc(blocks);
            let Some(home) = home else {
                // Fast tier full: requeue and yield to demotion
                // (next rank), which makes room.
                arch.recall_q.lock().insert(idx);
                return Ok(None);
            };
            if let Err(e) = self.move_extent(idx, &inode, home) {
                self.alloc_lock().extents.free(home, blocks)?;
                arch.recall_q.lock().insert(idx);
                return Err(e);
            }
            self.stats.incr(counters::TIER_PROMOTIONS);
            return Ok(Some(idx));
        }
    }

    /// The archive tier: the classifier yields [`Residency::Archive`] only
    /// when `archive_blocks > 0`, which is exactly when the tier was built.
    fn archive_tier(&self) -> &ArchiveState {
        self.archive
            .as_ref()
            .expect("an archive-resident extent implies tiering")
    }

    /// The WORM archive device (`None` when tiering is off) — grab it
    /// before [`crash`](Self::crash) to re-adopt the surviving platter
    /// via [`recover_with_archive`](Self::recover_with_archive).
    pub fn archive_device(&self) -> Option<Arc<ArchiveDevice>> {
        self.archive.as_ref().map(|a| Arc::clone(&a.dev))
    }

    /// Archived files whose promotion back to the fast tier is still
    /// pending (scheduled by their first post-demotion read).
    pub fn tier_recall_backlog(&self) -> usize {
        self.archive.as_ref().map_or(0, |a| a.recall_q.lock().len())
    }

    /// Compacts the RAM cache arena; returns bytes moved.
    pub fn compact_memory(&self) -> u64 {
        let moved = self.table_write().cache.compact();
        self.charge_memcpy(moved);
        self.stats.add(counters::PAYLOAD_BYTES_COPIED, moved);
        moved
    }

    /// Fragmentation snapshot of the disk data area.
    pub fn disk_frag_report(&self) -> crate::FragReport {
        self.alloc_lock().extents.report()
    }

    /// Per-zone fragmentation snapshots of the disk data area (`zones`
    /// equal slices), for fragmentation trend tracking.
    pub fn disk_zone_frag(&self, zones: u32) -> Vec<crate::FragReport> {
        self.alloc_lock().extents.zone_reports(zones)
    }

    /// Server operation counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Cache counters (`cache_hits`, `cache_misses`, …), snapshotted.
    pub fn cache_stats(&self) -> Vec<(&'static str, u64)> {
        self.table_read().cache.stats().snapshot()
    }

    /// Lock acquisition counters (`lock_*`) with `lock_contended_*`
    /// companions counting acquisitions that had to wait, snapshotted.
    pub fn lock_stats(&self) -> Vec<(&'static str, u64)> {
        self.locks.snapshot()
    }

    /// The per-client accounting table (disabled unless
    /// [`BulletConfig::accounting`] enabled it).
    pub(crate) fn accounting(&self) -> &ClientAccounting {
        &self.cfg.accounting
    }

    /// The live-monitoring snapshot behind the `MONITOR` RPC: one
    /// versioned JSON object carrying every counter, the tail of each
    /// telemetry ring, the SLO watchdog's event log, and the top
    /// per-client resource consumers.
    ///
    /// The top-level `"monitor_schema"` key versions the wire format;
    /// consumers must check it before parsing further (see DESIGN.md
    /// §14.3).
    pub(crate) fn monitor_snapshot(&self) -> String {
        const TAIL: usize = 8;
        const TOP_K: usize = 10;
        let (telemetry, accounting) = (&self.cfg.telemetry, &self.cfg.accounting);
        // Counters: server ops, then the cache's own stats, then locks —
        // disjoint name sets, merged into one flat object.
        let counters = self
            .stats
            .snapshot()
            .into_iter()
            .chain(self.cache_stats())
            .chain(self.lock_stats())
            .map(|(name, value)| (name, Json::num(value)));
        // Gauge/delta series: ring metadata plus the last few samples.
        let series =
            telemetry
                .series_index()
                .into_iter()
                .map(|(name, instance, kind, len, dropped)| {
                    let samples = telemetry.series(name, instance);
                    let tail = samples[samples.len().saturating_sub(TAIL)..]
                        .iter()
                        .map(|s| {
                            Json::object([
                                ("t_ns", Json::num(s.at.as_ns())),
                                ("v", Json::num(s.value)),
                            ])
                        });
                    Json::object([
                        ("series", Json::string(name)),
                        ("instance", Json::num(instance)),
                        ("kind", Json::string(kind.label())),
                        ("points", Json::num(len)),
                        ("dropped", Json::num(dropped)),
                        ("tail", Json::array(tail)),
                    ])
                });
        // The SLO watchdog's degradation/recovery event log.
        let slo_events = telemetry.slo_events().into_iter().map(|e| {
            Json::object([
                ("t_ns", Json::num(e.at.as_ns())),
                ("kind", Json::string(e.kind.label())),
                ("slo", Json::string(e.slo)),
                ("series", Json::string(e.series)),
                ("instance", Json::num(e.instance)),
                ("value", Json::num(e.value)),
                ("ceiling", Json::num(e.ceiling)),
            ])
        });
        // Per-client accounting: population size plus the top offenders
        // by the cost metric (deterministic order; see `ClientUsage`).
        let top = accounting.top_k(TOP_K).into_iter().map(|(client, u)| {
            Json::object([
                ("client", Json::num(client)),
                ("requests", Json::num(u.requests)),
                ("bytes_read", Json::num(u.bytes_read)),
                ("bytes_written", Json::num(u.bytes_written)),
                ("disk_ios", Json::num(u.disk_ios)),
                ("cache_hits", Json::num(u.cache_hits)),
                ("cache_misses", Json::num(u.cache_misses)),
                ("retries", Json::num(u.retries)),
                ("cost", Json::num(u.cost())),
            ])
        });
        let clients = [
            ("count", Json::num(accounting.len())),
            ("top", Json::array(top)),
        ];
        Json::object([
            ("monitor_schema", Json::num(1)),
            ("now_ns", Json::num(self.cfg.clock.now().as_ns())),
            ("telemetry_enabled", Json::num(telemetry.enabled())),
            ("counters", Json::object(counters)),
            ("series", Json::array(series)),
            ("slo_events", Json::array(slo_events)),
            ("clients", Json::object(clients)),
        ])
        .compact()
    }

    /// The mirrored storage (for failover tests and admin tooling).
    pub fn storage(&self) -> &MirroredDisk {
        &self.storage
    }

    /// The service port.
    pub fn port(&self) -> Port {
        self.cfg.port
    }

    /// This server's slot in its shard set ([`crate::shard::ShardSlot::solo`]
    /// when unsharded).
    pub(crate) fn shard_slot(&self) -> crate::shard::ShardSlot {
        self.cfg.shard
    }

    /// Number of live files.
    pub fn live_files(&self) -> usize {
        self.table_read().inodes.live_count()
    }

    /// Drops the whole RAM cache (admin/benchmark hook, modelling a flush
    /// or reboot without touching the disks).
    pub fn clear_cache(&self) {
        self.table_write().cache.clear();
    }

    /// A snapshot of the on-disk layout (Fig. 1 of the paper): the disk
    /// descriptor plus every live file's `(inode, start_block, size,
    /// cached)` row, sorted by start block.
    pub fn describe_layout(&self) -> (crate::DiskDescriptor, Vec<LayoutEntry>) {
        let t = self.table_read();
        let mut rows: Vec<LayoutEntry> = t
            .inodes
            .live()
            .map(|(idx, inode)| LayoutEntry {
                inode: idx,
                start_block: inode.start_block,
                blocks: inode.blocks(self.desc.block_size),
                size_bytes: inode.size_bytes,
                cached: t.cache.peek(idx).is_some(),
            })
            .collect();
        rows.sort_unstable_by_key(|e| e.start_block);
        (self.desc, rows)
    }

    /// Resets a file's garbage-collection age — the Amoeba touch/age
    /// protocol: owners of long-lived objects (above all the directory
    /// service, for every file it can still reach) periodically touch
    /// them; everything else eventually expires.
    ///
    /// # Errors
    ///
    /// Capability failures.
    pub fn touch(&self, cap: &Capability) -> Result<(), BulletError> {
        let t = self.table_read();
        self.verify(&t.inodes, cap, Rights::NONE)?;
        t.inodes.arm(cap.object.value(), self.cfg.max_age);
        Ok(())
    }

    /// One aging round: every live file's age drops by one, and files
    /// whose age reaches zero are deleted (inode zeroed on every disk,
    /// extent and cache freed).  Returns the number of files expired.
    ///
    /// The original Amoeba servers ran this periodically; untouched
    /// objects — lost capabilities, debris from crashed clients — age out
    /// without any global mark-and-sweep.
    ///
    /// # Errors
    ///
    /// Disk errors while zeroing expired inodes.
    pub fn age_all(&self) -> Result<u64, BulletError> {
        let _m = self.maint_read();
        // In slot order, so the frees — and every layout after them —
        // replay.
        let expired = self.table_read().inodes.age_round();
        let mut count = 0;
        for (idx, random) in expired {
            // A file deleted by a concurrent request after expiry was
            // decided has nothing left to reclaim, and one created into
            // its slot since is not the file that expired.
            let fetch = |table: &InodeTable| {
                Ok(table.get(idx).ok().filter(|i| i.random == random).copied())
            };
            if self.destroy(idx, true, fetch)? {
                count += 1;
            }
        }
        self.stats.add(counters::AGED_OUT, count);
        Ok(count)
    }

    /// Administrative enumeration: owner capabilities for every live file.
    ///
    /// This is the hook the directory service's garbage collector uses to
    /// sweep unreachable files; it is not part of the client protocol.
    pub fn list_live_caps(&self) -> Vec<Capability> {
        self.table_read()
            .inodes
            .live()
            .map(|(idx, inode)| {
                self.scheme.mint(
                    self.cfg.port,
                    ObjNum::new(idx).expect("inode index fits 24 bits"),
                    Rights::ALL,
                    inode.random,
                )
            })
            .collect()
    }

    /// Restricts a capability server-side (the MAC scheme cannot do it
    /// client-side): returns a capability for the same file with
    /// `cap.rights ∩ mask`.
    ///
    /// # Errors
    ///
    /// Capability failures.
    pub fn restrict(&self, cap: &Capability, mask: Rights) -> Result<Capability, BulletError> {
        let t = self.table_read();
        let inode = self.verify(&t.inodes, cap, Rights::NONE)?;
        Ok(self.scheme.mint(
            self.cfg.port,
            cap.object,
            cap.rights.intersection(mask),
            inode.random,
        ))
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn verify<'a>(
        &self,
        table: &'a InodeTable,
        cap: &Capability,
        needed: Rights,
    ) -> Result<&'a Inode, BulletError> {
        if cap.port != self.cfg.port {
            return Err(BulletError::CapBad);
        }
        table.get_verified(cap, needed, &self.scheme)
    }

    /// The verified fetch every read starts with, in two steps.  A cached
    /// file is published in its inode slot and served from there under
    /// that slot's guard alone ([`Hits::serve`]), so a warm read takes no
    /// table lock.  Anything else goes to the one miss path,
    /// [`load_cold`](Self::load_cold).  `window` maps the file size to the
    /// byte window a cold load streams (and may refuse it).  Returns the
    /// whole file and whether the cache held it.
    fn fetch(
        &self,
        cap: &Capability,
        needed: Rights,
        wire: Option<&StreamWire>,
        window: impl Fn(u32) -> Result<(u64, u64), BulletError>,
    ) -> Result<(Bytes, bool), BulletError> {
        let fits = |size| window(size).map(drop);
        match self
            .hits
            .serve(self.cfg.port, cap, needed, &self.scheme, fits)
        {
            Some(served) => served.map(|data| (data, true)),
            None => self.load_cold(cap, needed, wire, window),
        }
    }

    /// The effective streaming segment: the configured size clamped to a
    /// whole number of disk blocks, minimum one block.
    fn segment_bytes(&self) -> u64 {
        let bs = self.desc.block_size as u64;
        (self.cfg.segment_size as u64 / bs).max(1) * bs
    }

    /// The miss path: loads the file's extent from disk into the cache
    /// under the per-inode in-flight guard, holding no table or cache
    /// lock during the I/O itself.
    ///
    /// Under the guard one table read guard verifies `cap` for `needed`,
    /// applies `window` (so a refused range counts no lookup) and makes
    /// the read's one counted lookup.  That finds the file only if a fill
    /// raced this read; otherwise the file is loaded, and the snapshot
    /// stays valid for the whole I/O because delete and compaction need
    /// the guard too.  The load streams the window `[win_start, win_end)`
    /// over `wire` as [`read_extent`](Self::read_extent) says.  Returns the
    /// whole file and whether the lookup hit.
    ///
    /// Kept out of line: inlined into each read entry point, its frame
    /// made every warm read slower too (`hot_read_1c` `read_p50_us` +3 %,
    /// worse in 10 of 10 benchmark pairs).
    #[inline(never)]
    fn load_cold(
        &self,
        cap: &Capability,
        needed: Rights,
        wire: Option<&StreamWire>,
        window: impl Fn(u32) -> Result<(u64, u64), BulletError>,
    ) -> Result<(Bytes, bool), BulletError> {
        let idx = cap.object.value();
        let _busy = self.inflight_lock(idx);
        let (inode, (win_start, win_end)) = {
            let t = self.table_read();
            let inode = *self.verify(&t.inodes, cap, needed)?;
            let window = window(inode.size_bytes)?;
            if let Some(data) = t.cache.get(idx) {
                return Ok((data, true));
            }
            (inode, window)
        };
        let mut buf = self.read_extent(&inode, wire.map(|w| (w, win_start, win_end)))?;
        buf.truncate(inode.size_bytes as usize);
        let data = Bytes::from(buf);
        // A reference-count bump, not a copy: cache and reply share the
        // buffer the disk read into.
        self.cache_insert(&mut self.table_write(), idx, data.clone())?;
        // An archived file was served *from the archive device*, with no
        // foreground stall waiting for a copy-back; the recall rank moves
        // it to the fast tier on a later idle tick.
        if let Residency::Archive { .. } = self.residency_of(&inode)? {
            self.archive_tier().recall_q.lock().insert(idx);
        }
        Ok((data, false))
    }

    /// Reads `inode`'s whole block-padded extent off the device its
    /// [`Residency`] names: the one extent reader behind the miss path,
    /// shard export and extent moves.  An archived extent is one read off
    /// the archive device.  A home or log extent comes off the mirror,
    /// whose failovers this read made count as `failover_reads`: one
    /// contiguous read, unless `stream` names a wire and the extent spans
    /// more than one segment.  Then the two-lane pipeline runs: lane 0
    /// reads segment `k` off the disk while lane 1 streams the part of
    /// segment `k-1` inside the file-byte window `[win_start, win_end)`
    /// of `stream = (wire, win_start, win_end)`.  The extent's capacity
    /// is reserved once and every read appends to it, so each byte is
    /// written once, by the device, and streaming adds no copies.
    fn read_extent(
        &self,
        inode: &Inode,
        stream: Option<(&StreamWire, u64, u64)>,
    ) -> Result<Vec<u8>, BulletError> {
        let block_size = self.desc.block_size as u64;
        let total = inode.blocks(self.desc.block_size) * block_size;
        let mut buf = Vec::with_capacity(total as usize);
        let start_block = match self.residency_of(inode)? {
            Residency::Archive { block } => {
                let dev = &self.archive_tier().dev;
                dev.read_blocks_append(block, total / block_size, &mut buf)?;
                return Ok(buf);
            }
            Residency::Home | Residency::Log => inode.start_block as u64,
        };
        // Appends the extent's bytes `[off, end)` to `buf`.  The mirror
        // fails over silently; surface the failovers this read made as a
        // server counter so campaigns can prove degraded reads kept
        // succeeding.
        let mut read = |off: u64, end: u64| {
            let (first, n) = (start_block + off / block_size, (end - off) / block_size);
            let (result, made) = self.storage.append_counting_failovers(first, n, &mut buf);
            if made > 0 {
                self.stats.add(counters::FAILOVER_READS, made);
            }
            result
        };
        let seg = self.segment_bytes();
        let result = match stream {
            Some((wire, win_start, win_end)) if total > seg => {
                self.stats.incr(counters::PIPELINED_READS);
                let lanes = &["disk_read", "wire_send"];
                Pipeline::walk(&self.cfg.trace, lanes, total, seg, |pipe, off, end| {
                    pipe.stage(0, || read(off, end))?;
                    // Only the window part of the segment travels; the last
                    // sent chunk is capped at the file size (the tail
                    // padding of the final block never leaves the server).
                    let sent_start = off.max(win_start);
                    let sent_end = end.min(win_end).min(inode.size_bytes as u64);
                    if sent_end > sent_start {
                        self.stats.incr(counters::STREAM_SEGMENTS);
                        pipe.stage(1, || wire.stage_reply_segment(sent_end - sent_start));
                    }
                    Ok(())
                })
                .map(drop)
            }
            _ => read(0, total),
        };
        result?;
        Ok(buf)
    }

    /// The pipelined counterpart of
    /// [`write_data_blocks`](Self::write_data_blocks): for each segment,
    /// lane 0 receives the bytes from the wire, lane 1 copies them into
    /// the cache arena, and lane 2 writes the *previous* segment's blocks
    /// to the `k` synchronous replicas — so the disks are busy while the
    /// next segment is still arriving.
    fn write_data_pipelined(
        &self,
        start: u64,
        blocks: u64,
        data: &[u8],
        k: usize,
        wire: Option<&StreamWire>,
    ) -> Result<(), BulletError> {
        let block_size = self.desc.block_size as u64;
        let (total, seg) = (blocks * block_size, self.segment_bytes());
        let lanes = &["wire_recv", "memcpy", "disk_write"];
        Pipeline::walk(&self.cfg.trace, lanes, total, seg, |pipe, off, end| {
            let chunk_len = (end.min(data.len() as u64)).saturating_sub(off);
            self.stats.incr(counters::STREAM_SEGMENTS);
            if let Some(w) = wire {
                pipe.stage(0, || w.recv_request_segment(chunk_len));
            }
            pipe.stage(1, || {
                self.cfg.clock.advance(self.cfg.cpu.memcpy(chunk_len));
            });
            self.stats.add(counters::PAYLOAD_BYTES_COPIED, chunk_len);
            pipe.stage(2, || {
                let chunk = &data[off as usize..(off + chunk_len) as usize];
                let first = start + off / block_size;
                if chunk_len == end - off {
                    self.storage.write_sync_k(first, chunk, k)
                } else {
                    // Final partial segment: pad to the block boundary.
                    let mut padded = vec![0u8; (end - off) as usize];
                    padded[..chunk.len()].copy_from_slice(chunk);
                    self.storage.write_sync_k(first, &padded, k)
                }
            })
            .map(drop)
        })?;
        Ok(())
    }

    /// Caches the live file in slot `idx` ([`Tables::fill`]), charging
    /// compaction copies.  The caller holds the table write guard `t`
    /// comes from.
    fn cache_insert(&self, t: &mut Tables, idx: u32, data: Bytes) -> Result<(), BulletError> {
        let outcome = t.fill(idx, data)?;
        if outcome.compaction_bytes > 0 {
            self.charge_memcpy(outcome.compaction_bytes);
        }
        Ok(())
    }

    /// Writes a file's data extent to `k` replicas, padding the final
    /// block only when needed — block-aligned files go straight from the
    /// shared [`Bytes`] handle with no copy.
    fn write_data_blocks(
        &self,
        start: u64,
        blocks: u64,
        data: &[u8],
        k: usize,
    ) -> Result<(), BulletError> {
        let total = (blocks * self.desc.block_size as u64) as usize;
        if data.len() == total {
            self.storage.write_sync_k(start, data, k)?;
        } else {
            let mut padded = vec![0u8; total];
            padded[..data.len()].copy_from_slice(data);
            self.storage.write_sync_k(start, &padded, k)?;
        }
        Ok(())
    }

    /// The one inode write-through — "the whole disk block containing the
    /// inode has to be written".  One exclusive table section applies
    /// `edit` to the inodes `idxs`, bumps the table generation, and
    /// snapshots each distinct control block holding one of them; then,
    /// under `inode_io`, the blocks go to `k` replicas in block order.
    /// `edit` must fail, if at all, before it changes anything: its error
    /// is returned with nothing written.  If a write fails, `undo`
    /// reverses the edit and the disk error is returned.
    ///
    /// Images reach the disks in generation order: `inode_io` holds the
    /// newest generation written, and a commit whose snapshot a newer one
    /// overtook re-takes it under `table.read` (the newer image may share
    /// a block with it).  An undo is a generation of its own, so no image
    /// taken before it is written after it.  The edit stays outside
    /// `inode_io`: inside, it queued behind another client's inode write,
    /// and two concurrent creators paid 40 % on `cd_p50_us` (2-vCPU host).
    fn commit(
        &self,
        idxs: &[u32],
        k: usize,
        edit: impl FnOnce(&mut Tables) -> Result<(), BulletError>,
        undo: impl FnOnce(&mut Tables) -> Result<(), BulletError>,
    ) -> Result<(), BulletError> {
        let snapshot = |t: &Tables| {
            let blocks: BTreeSet<u64> = idxs.iter().map(|&i| t.inodes.block_of(i)).collect();
            let images = blocks.into_iter().map(|b| (b, t.inodes.block_image(b)));
            (t.generation, images.collect::<Vec<_>>())
        };
        let (mut taken, mut images) = {
            let mut t = self.table_write();
            edit(&mut t)?;
            t.generation += 1;
            snapshot(&t)
        };
        let mut written = self.inode_io_lock();
        if *written > taken {
            (taken, images) = snapshot(&self.table_read());
        }
        *written = taken;
        for (block, image) in &images {
            if let Err(e) = self.storage.write_sync_k(*block, image, k) {
                let mut t = self.table_write();
                let _ = undo(&mut t);
                t.generation += 1;
                *written = t.generation;
                return Err(e.into());
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Traced clock charges.
    // ------------------------------------------------------------------

    /// Charges the fixed request-service CPU cost under a `cpu.request`
    /// leaf span, so a per-op span tree accounts for every charged
    /// nanosecond.
    fn charge_request(&self) {
        self.requests_seen.add(1);
        // `now` sums every clock lane: read it only when telemetry can
        // use it.
        if self.cfg.telemetry.enabled() && self.cfg.telemetry.tick(self.cfg.clock.now()) {
            self.sample_gauges();
        }
        self.cfg.accounting.charge_current(|u| u.requests += 1);
        let _s = self.cfg.trace.span("cpu.request");
        self.cfg.clock.advance(self.cfg.cpu.request());
    }

    /// Samples the layer gauges into the telemetry rings (at most once
    /// per telemetry period; see [`Telemetry::tick`]).
    ///
    /// Uses *try*-locks, taken one at a time and released before the
    /// next: a gauge whose lock is busy (or already held by this thread
    /// via a caller) is simply skipped this period, so sampling can
    /// never deadlock or stall the request that happened to cross the
    /// period boundary.
    fn sample_gauges(&self) {
        let telemetry = &self.cfg.telemetry;
        let now = self.cfg.clock.now();
        if let Some(t) = self.table.try_read() {
            let cache = &t.cache;
            let (used, protected, ghost) = (
                cache.used_bytes(),
                cache.protected_bytes(),
                cache.ghost_len() as u64,
            );
            // Hit/miss deltas per period (the rings lock is a leaf, so
            // sampling under the table read guard is in lock order).
            telemetry.sample_counters(
                now,
                cache.stats(),
                &[
                    counters::CACHE_HITS,
                    counters::CACHE_MISSES,
                    counters::CACHE_EVICTIONS,
                ],
            );
            drop(t);
            telemetry.gauge(counters::GAUGE_CACHE_USED_BYTES, 0, now, used);
            telemetry.gauge(counters::GAUGE_CACHE_PROTECTED_BYTES, 0, now, protected);
            telemetry.gauge(counters::GAUGE_CACHE_GHOST_LEN, 0, now, ghost);
        }
        if let Some(alloc) = self.alloc.try_lock() {
            let report = alloc.extents.report();
            drop(alloc);
            telemetry.gauge(counters::GAUGE_ALLOC_FREE_BLOCKS, 0, now, report.free);
            telemetry.gauge(counters::GAUGE_ALLOC_MAX_HOLE, 0, now, report.largest_hole);
        }
        if let Some(arch) = &self.archive {
            telemetry.gauge(
                counters::GAUGE_TIER_ARCHIVE_BLOCKS,
                0,
                now,
                arch.dev.burned_blocks(),
            );
            if let Some(q) = arch.recall_q.try_lock() {
                telemetry.gauge(counters::GAUGE_TIER_RECALL_QUEUE, 0, now, q.len() as u64);
            }
        }
        // Counter-delta series: op mix and cache behaviour per period.
        telemetry.sample_counters(
            now,
            &self.stats,
            &[
                counters::READS,
                counters::SECTION_READS,
                counters::CREATES,
                counters::DELETES,
                counters::MODIFIES,
                counters::BYTES_CREATED,
                counters::LOG_APPENDS,
                counters::GROUP_COMMIT_FLUSHES,
            ],
        );
    }

    /// Charges a `bytes`-long memory copy under a `cpu.memcpy` leaf span.
    fn charge_memcpy(&self, bytes: u64) {
        let mut s = self.cfg.trace.span("cpu.memcpy");
        s.attr("bytes", bytes);
        self.cfg.clock.advance(self.cfg.cpu.memcpy(bytes));
    }

    /// A counted lock acquisition: bumps `total`, and `contended` when
    /// the uncontended fast path failed.  With tracing on, each
    /// acquisition additionally records a zero-width `instant` carrying
    /// the contended flag — zero-width because lock waits block real
    /// threads but never advance the simulated clock.
    fn counted_lock<G>(
        &self,
        (total, contended, instant): (&'static str, &'static str, &'static str),
        try_acquire: impl FnOnce() -> Option<G>,
        acquire: impl FnOnce() -> G,
    ) -> G {
        self.locks.incr(total);
        let (guard, waited) = match try_acquire() {
            Some(g) => (g, false),
            None => {
                self.locks.incr(contended);
                (acquire(), true)
            }
        };
        self.cfg
            .trace
            .instant(instant, &[("contended", AttrValue::Bool(waited))]);
        guard
    }

    /// File `idx`'s in-flight guard.  An object number past the table
    /// names no file; it takes slot 0's lock, which no file uses, and
    /// the caller's lookup then fails as for any other dead number.
    fn inflight_lock(&self, idx: u32) -> MutexGuard<'_, ()> {
        let slot = self.inflight.get(idx as usize).unwrap_or(&self.inflight[0]);
        let names = (
            counters::LOCK_INFLIGHT,
            counters::LOCK_CONTENDED_INFLIGHT,
            "lock.inflight",
        );
        self.counted_lock(names, || slot.try_lock(), || slot.lock())
    }
}

/// The counted locks, one row each: the wrapper's name and guard type,
/// the lock field with its non-blocking and blocking acquire methods, and
/// the `(acquisitions, contended, trace instant)` names it reports under
/// through [`BulletServer::counted_lock`].
macro_rules! counted_locks {
    ($($name:ident -> $guard:ty = $field:ident.$try_acquire:ident / $acquire:ident,
       $total:ident, $contended:ident, $instant:literal;)*) => {
        impl BulletServer {$(
            fn $name(&self) -> $guard {
                let names = (counters::$total, counters::$contended, $instant);
                self.counted_lock(names, || self.$field.$try_acquire(), || self.$field.$acquire())
            }
        )*}
    };
}

counted_locks! {
    table_read -> RwLockReadGuard<'_, Tables> = table.try_read / read, LOCK_TABLE_READ, LOCK_CONTENDED_TABLE_READ, "lock.table_read";
    table_write -> RwLockWriteGuard<'_, Tables> = table.try_write / write, LOCK_TABLE_WRITE, LOCK_CONTENDED_TABLE_WRITE, "lock.table_write";
    alloc_lock -> MutexGuard<'_, AllocState> = alloc.try_lock / lock, LOCK_ALLOC, LOCK_CONTENDED_ALLOC, "lock.alloc";
    inode_io_lock -> MutexGuard<'_, u64> = inode_io.try_lock / lock, LOCK_INODE_IO, LOCK_CONTENDED_INODE_IO, "lock.inode_io";
    maint_read -> RwLockReadGuard<'_, ()> = maintenance.try_read / read, LOCK_MAINTENANCE_READ, LOCK_CONTENDED_MAINTENANCE_READ, "lock.maintenance_read";
    maint_write -> RwLockWriteGuard<'_, ()> = maintenance.try_write / write, LOCK_MAINTENANCE_WRITE, LOCK_CONTENDED_MAINTENANCE_WRITE, "lock.maintenance_write";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gclog;
    use std::collections::HashMap;

    fn server() -> BulletServer {
        BulletServer::format(BulletConfig::small_test(), 2).unwrap()
    }

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    /// `(inode, residency)` of every live file, in start-block order.
    fn residencies(s: &BulletServer) -> Vec<(u32, Residency)> {
        let t = s.table.read();
        let mut rows: Vec<(u32, u32, Residency)> = t
            .inodes
            .live()
            .map(|(idx, ino)| (ino.start_block, idx, s.residency_of(ino).unwrap()))
            .collect();
        rows.sort_unstable_by_key(|r| r.0);
        rows.into_iter().map(|(_, idx, r)| (idx, r)).collect()
    }

    #[test]
    fn create_read_size_delete_cycle() {
        let s = server();
        let cap = s.create(payload(1000, 7), 2).unwrap();
        assert_eq!(s.size(&cap).unwrap(), 1000);
        assert_eq!(s.read(&cap).unwrap(), payload(1000, 7));
        s.delete(&cap).unwrap();
        assert_eq!(s.read(&cap).unwrap_err(), BulletError::NotFound);
        assert_eq!(s.size(&cap).unwrap_err(), BulletError::NotFound);
        assert_eq!(s.delete(&cap).unwrap_err(), BulletError::NotFound);
    }

    #[test]
    fn files_are_immutable_distinct_objects() {
        let s = server();
        let a = s.create(payload(10, 1), 1).unwrap();
        let b = s.create(payload(10, 2), 1).unwrap();
        assert_ne!(a.object, b.object);
        assert_eq!(s.read(&a).unwrap(), payload(10, 1));
        assert_eq!(s.read(&b).unwrap(), payload(10, 2));
    }

    #[test]
    fn zero_byte_file_works() {
        let s = server();
        let cap = s.create(Bytes::new(), 1).unwrap();
        assert_eq!(s.size(&cap).unwrap(), 0);
        assert_eq!(s.read(&cap).unwrap(), Bytes::new());
        s.delete(&cap).unwrap();
    }

    #[test]
    fn forged_capability_rejected() {
        // Each refused read counts no lookup and fills nothing, whether
        // the file is published (refused by `Hits::serve`) or uncached
        // (refused under `load_cold`'s table guard before its lookup).
        let s = server();
        let cap = s.create(payload(10, 1), 1).unwrap();
        let gone = s.create(payload(10, 2), 1).unwrap();
        s.delete(&gone).unwrap();
        let mut forged = cap;
        forged.check ^= 1;
        let mut wrong_port = cap;
        wrong_port.port = Port::from_u64(123);
        let cases = [
            (cap, Some((5, 6)), BulletError::BadRange),
            (forged, None, BulletError::CapBad),
            (wrong_port, None, BulletError::CapBad),
            (gone, None, BulletError::NotFound),
        ];
        let lookups = || {
            let stats: HashMap<_, _> = s.cache_stats().into_iter().collect();
            let count = |name| stats.get(name).copied().unwrap_or(0);
            (count("cache_hits"), count("cache_misses"))
        };
        for cached in [true, false] {
            if !cached {
                s.clear_cache();
            }
            for (c, section, err) in &cases {
                let before = lookups();
                let got = match *section {
                    Some((offset, len)) => s.read_section(c, offset, len),
                    None => s.read(c),
                };
                assert_eq!(&got.unwrap_err(), err);
                assert_eq!(lookups(), before, "{err:?} counted a lookup");
                let filled = s.table.read().cache.len();
                assert_eq!(filled, usize::from(cached), "{err:?} filled the cache");
            }
        }
    }

    #[test]
    fn object_numbers_past_the_table_are_clean_errors() {
        let s = server();
        let cap = s.create(payload(10, 1), 1).unwrap();
        let mut far = cap;
        far.object = ObjNum::new(ObjNum::MAX).unwrap();
        assert_eq!(s.delete(&far).unwrap_err(), BulletError::NotFound);
        far.port = Port::from_u64(123);
        assert_eq!(s.delete(&far).unwrap_err(), BulletError::CapBad);
        assert_eq!(
            s.export_object(ObjNum::MAX).unwrap_err(),
            BulletError::NotFound
        );
        assert_eq!(
            s.retire_object(ObjNum::MAX).unwrap_err(),
            BulletError::NotFound
        );
        assert_eq!(s.read(&cap).unwrap(), payload(10, 1));
    }

    #[test]
    fn restricted_capability_enforces_rights() {
        let s = server();
        let owner = s.create(payload(10, 1), 1).unwrap();
        let reader = s.restrict(&owner, Rights::READ).unwrap();
        assert_eq!(s.read(&reader).unwrap(), payload(10, 1));
        assert_eq!(s.delete(&reader).unwrap_err(), BulletError::Denied);
        // Claiming more rights than minted fails verification.
        let mut amplified = reader;
        amplified.rights = Rights::ALL;
        assert_eq!(s.delete(&amplified).unwrap_err(), BulletError::CapBad);
    }

    #[test]
    fn read_section_and_ranges() {
        let s = server();
        let data: Bytes = Bytes::from((0u8..200).collect::<Vec<u8>>());
        let cap = s.create(data.clone(), 1).unwrap();
        assert_eq!(s.read_section(&cap, 10, 20).unwrap(), data.slice(10..30));
        assert_eq!(s.read_section(&cap, 0, 200).unwrap(), data);
        assert_eq!(s.read_section(&cap, 0, 0).unwrap(), Bytes::new());
        assert_eq!(
            s.read_section(&cap, 150, 51).unwrap_err(),
            BulletError::BadRange
        );
        assert_eq!(
            s.read_section(&cap, u32::MAX, 2).unwrap_err(),
            BulletError::BadRange
        );
    }

    #[test]
    fn modify_creates_new_version_leaving_original() {
        let s = server();
        let v1 = s.create(Bytes::from_static(b"hello world"), 1).unwrap();
        let v2 = s.modify(&v1, 6, b"earth", 1).unwrap();
        assert_eq!(s.read(&v1).unwrap(), Bytes::from_static(b"hello world"));
        assert_eq!(s.read(&v2).unwrap(), Bytes::from_static(b"hello earth"));
        // Growing modification.
        let v3 = s.modify(&v1, 6, b"wide world", 1).unwrap();
        assert_eq!(
            s.read(&v3).unwrap(),
            Bytes::from_static(b"hello wide world")
        );
    }

    #[test]
    fn modify_of_an_uncached_file_completes() {
        // After a restart the cache is cold, so the base comes off the
        // disk, whose load takes the cache write lock.
        let cfg = BulletConfig::small_test();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let v1 = s.create(Bytes::from_static(b"hello world"), 2).unwrap();
        let s = BulletServer::recover(cfg, s.shutdown().unwrap()).unwrap();
        let v2 = s.modify(&v1, 6, b"earth", 2).unwrap();
        assert_eq!(s.read(&v2).unwrap(), Bytes::from_static(b"hello earth"));
    }

    #[test]
    fn append_extends_into_new_version() {
        let s = server();
        let v1 = s.create(Bytes::from_static(b"log:"), 1).unwrap();
        let v2 = s.append(&v1, b" entry1", 1).unwrap();
        assert_eq!(s.read(&v2).unwrap(), Bytes::from_static(b"log: entry1"));
        assert_eq!(s.read(&v1).unwrap(), Bytes::from_static(b"log:"));
    }

    #[test]
    fn p_factor_validated_against_disk_count() {
        let s = server();
        assert!(matches!(
            s.create(payload(10, 0), 3).unwrap_err(),
            BulletError::BadPFactor {
                requested: 3,
                disks: 2
            }
        ));
        for p in 0..=2 {
            s.create(payload(10, 0), p).unwrap();
        }
    }

    #[test]
    fn pfactor_zero_is_volatile_until_sync() {
        let s = server();
        let cap = s.create(payload(100, 9), 0).unwrap();
        assert!(s.storage().pending_background() > 0);
        // Still readable from cache.
        assert_eq!(s.read(&cap).unwrap(), payload(100, 9));
        s.sync().unwrap();
        assert_eq!(s.storage().pending_background(), 0);
    }

    #[test]
    fn crash_with_pfactor_zero_loses_file_with_one_keeps_it() {
        let cfg = BulletConfig::small_test();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let durable = s.create(payload(100, 1), 1).unwrap();
        let volatile = s.create(payload(100, 2), 0).unwrap();

        let storage = s.crash();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.read(&durable).unwrap(), payload(100, 1));
        // The p=0 file's inode never reached disk: the capability is dead.
        assert!(matches!(
            s2.read(&volatile).unwrap_err(),
            BulletError::NotFound | BulletError::CapBad
        ));
    }

    #[test]
    fn clean_shutdown_preserves_pfactor_zero_files() {
        let cfg = BulletConfig::small_test();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let cap = s.create(payload(100, 2), 0).unwrap();
        let storage = s.shutdown().unwrap();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.read(&cap).unwrap(), payload(100, 2));
    }

    #[test]
    fn capabilities_survive_restart() {
        let cfg = BulletConfig::small_test();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let cap = s.create(payload(5000, 3), 2).unwrap();
        let storage = s.shutdown().unwrap();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.read(&cap).unwrap(), payload(5000, 3));
        assert_eq!(s2.live_files(), 1);
    }

    #[test]
    fn cache_hit_after_cold_read() {
        let cfg = BulletConfig::small_test();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let cap = s.create(payload(1000, 4), 2).unwrap();
        let storage = s.shutdown().unwrap();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        s2.read(&cap).unwrap(); // cold: disk
        s2.read(&cap).unwrap(); // warm: cache
        let stats: std::collections::HashMap<_, _> = s2.cache_stats().into_iter().collect();
        assert_eq!(stats["cache_misses"], 1);
        assert_eq!(stats["cache_hits"], 1);
    }

    /// The lock acquisitions `s` counted since the previous call, as
    /// sorted `name=count` pairs.
    fn lock_deltas(s: &BulletServer) -> impl FnMut() -> String + '_ {
        let mut last = HashMap::new();
        move || {
            let now: HashMap<_, _> = s.lock_stats().into_iter().collect();
            let mut d: Vec<_> = (now.iter())
                .map(|(n, v)| format!("{}={}", &n[5..], v - last.get(n).unwrap_or(&0)))
                .filter(|d| !d.ends_with("=0"))
                .collect();
            d.sort_unstable();
            last = now;
            d.join(" ")
        }
    }

    #[test]
    fn each_operation_takes_exactly_its_locks() {
        // The inode table and its cache are one lock, and every inode
        // write-through is one commit: each path that writes an inode
        // takes `inode_io` and `table_write` once.  A cache fill publishes
        // the file in its inode slot, so a warm read takes no counted lock
        // at all.
        let s = server();
        let mut delta = lock_deltas(&s);
        let mut seen = Vec::new();
        let cap = s.create(payload(1000, 1), 1).unwrap();
        seen.push(format!("create: {}", delta()));
        s.read(&cap).unwrap();
        seen.push(format!("warm read: {}", delta()));
        s.clear_cache();
        delta();
        s.read(&cap).unwrap();
        seen.push(format!("cold read: {}", delta()));
        s.delete(&cap).unwrap();
        seen.push(format!("delete: {}", delta()));
        s.adopt_object(200, 0xabc, payload(1000, 2)).unwrap();
        seen.push(format!("adopt: {}", delta()));
        s.retire_object(200).unwrap();
        seen.push(format!("retire: {}", delta()));
        // One packing move: a hole at the front, then an idle tick.
        let hole = s.create(payload(1000, 3), 1).unwrap();
        s.create(payload(1000, 4), 1).unwrap();
        s.delete(&hole).unwrap();
        assert_eq!(s.compact_tick().unwrap(), CompactTick::Preempted);
        delta();
        assert_ne!(s.compact_tick().unwrap(), CompactTick::Idle);
        seen.push(format!("move: {}", delta()));
        let cfg = BulletConfig {
            log_blocks: 64,
            ..BulletConfig::small_test()
        };
        let s = BulletServer::format(cfg, 2).unwrap();
        let batch = (0..3).map(|i| payload(900, i)).collect();
        s.create_batch(batch, 1).unwrap();
        seen.push(format!("grouped create: {}", lock_deltas(&s)()));
        let write = "alloc=1 inflight=1 inode_io=1 maintenance_read=1";
        assert_eq!(
            seen,
            [
                format!("create: {write} table_write=1"),
                "warm read: ".into(),
                "cold read: inflight=1 table_read=1 table_write=1".into(),
                format!("delete: {write} table_read=1 table_write=1"),
                format!("adopt: {write} table_write=1"),
                format!("retire: {write} table_read=1 table_write=1"),
                "move: alloc=3 inflight=1 inode_io=1 maintenance_write=1 table_read=1 \
                 table_write=1"
                    .into(),
                "grouped create: alloc=1 inode_io=1 maintenance_read=1 table_write=1".into(),
            ]
        );
    }

    #[test]
    fn adopting_into_a_live_slot_is_corrupt_and_changes_nothing() {
        let s = server();
        let cap = s.create(payload(1000, 1), 1).unwrap();
        let free_slots = s.alloc.lock().slots.clone();
        let space = s.disk_frag_report();
        assert!(matches!(
            s.adopt_object(cap.object.value(), 0xabc, payload(700, 2)),
            Err(BulletError::Corrupt(_))
        ));
        assert_eq!(s.alloc.lock().slots, free_slots, "free-slot list");
        assert_eq!(s.disk_frag_report(), space, "extent allocator");
        // The live file keeps its cache entry, its inode and its bytes.
        assert_eq!(s.read(&cap).unwrap(), payload(1000, 1));
    }

    #[test]
    fn a_round_trip_rebalance_adopts_into_the_sources_retired_slot() {
        let shards = crate::shard::BulletShards::format(&BulletConfig::small_test(), 2, 1).unwrap();
        let (a, b) = (shards.shard(0), shards.shard(1));
        let cap = a.create(payload(3000, 7), 1).unwrap();
        let idx = cap.object.value();
        // Retired on A: free in its table, off its free list.
        shards.rebalance(0, 1, idx).unwrap();
        let retired = a.alloc.lock().slots.clone();
        assert!(a.table.read().inodes.is_free(idx) && !retired.contains(&idx));
        // Back to A, into that retired slot: the capability minted before
        // the first move reads, and A's free list is as it was.
        shards.rebalance(1, 0, idx).unwrap();
        assert_eq!(a.read(&cap).unwrap(), payload(3000, 7));
        assert_eq!(a.alloc.lock().slots, retired);
        // B retired a slot of A's stripe; it never joins B's free list.
        assert!(b.table.read().inodes.is_free(idx) && !b.alloc.lock().slots.contains(&idx));
        // Deleted on A, its own stripe's slot is free to mint again.
        a.delete(&cap).unwrap();
        assert_eq!(a.alloc.lock().slots.last(), Some(&idx));
    }

    #[test]
    fn control_blocks_do_not_depend_on_the_ram_cache() {
        // "The index has no significance on disk": a cached file's inode
        // is written with index 0, so the image is the same whatever the
        // rnode table held.
        let image = |rnode_slots| {
            let cfg = BulletConfig {
                rnode_slots,
                ..BulletConfig::small_test()
            };
            let s = BulletServer::format(cfg, 2).unwrap();
            let caps: Vec<_> = (0..4)
                .map(|n| s.create(payload(100, n), 2).unwrap())
                .collect();
            s.read(&caps[0]).unwrap();
            let idx = caps[3].object.value();
            assert!(s
                .describe_layout()
                .1
                .iter()
                .any(|r| r.inode == idx && r.cached));
            let mut raw = vec![0u8; (s.desc.control_blocks * s.desc.block_size) as usize];
            s.storage().read_blocks(0, &mut raw).unwrap();
            let at = idx as usize * crate::layout::INODE_SIZE;
            assert_eq!(Inode::decode(raw[at..at + 16].try_into().unwrap()).index, 0);
            raw
        };
        assert_eq!(image(2), image(256));
    }

    #[test]
    fn no_space_and_rollback() {
        let mut cfg = BulletConfig::small_test();
        cfg.disk_blocks = 64; // tiny disk: 8 control blocks leave ~56 data blocks
        cfg.cache_capacity = 1 << 20;
        let s = BulletServer::format(cfg, 2).unwrap();
        let big = payload(40 * 512, 1);
        let cap = s.create(big, 1).unwrap();
        // A second big file cannot fit.
        assert_eq!(
            s.create(payload(40 * 512, 2), 1).unwrap_err(),
            BulletError::NoSpace
        );
        // The failure left no debris: deleting the first frees everything.
        let files_before = s.live_files();
        assert_eq!(files_before, 1);
        s.delete(&cap).unwrap();
        s.create(payload(40 * 512, 2), 1).unwrap();
    }

    #[test]
    fn too_large_for_cache_rejected() {
        let mut cfg = BulletConfig::small_test();
        cfg.cache_capacity = 4096;
        cfg.rnode_slots = 8;
        let s = BulletServer::format(cfg, 2).unwrap();
        assert!(matches!(
            s.create(payload(8192, 0), 1).unwrap_err(),
            BulletError::TooLarge { .. }
        ));
    }

    #[test]
    fn disk_failover_is_transparent_to_clients() {
        use amoeba_disk::FaultyDisk;
        let cfg = BulletConfig::small_test();
        let a = Arc::new(FaultyDisk::new(RamDisk::new(
            cfg.block_size,
            cfg.disk_blocks,
        )));
        let b = Arc::new(FaultyDisk::new(RamDisk::new(
            cfg.block_size,
            cfg.disk_blocks,
        )));
        let storage = MirroredDisk::new(vec![a.clone(), b.clone()]).unwrap();
        let s = BulletServer::format_on(cfg.clone(), storage).unwrap();

        let cap = s.create(payload(2000, 5), 2).unwrap();
        a.fail_now();
        // Reads (cold) and creates keep working on the surviving disk.
        let cap2 = s.create(payload(100, 6), 1).unwrap();
        assert_eq!(s.read(&cap2).unwrap(), payload(100, 6));
        // Evict the cache by restarting, to force a disk read.
        let storage = s.shutdown().unwrap();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.read(&cap).unwrap(), payload(2000, 5));
    }

    /// A replica whose next read, once armed, waits inside the device
    /// until the test lets it go.
    struct GatedDisk {
        inner: RamDisk,
        armed: std::sync::atomic::AtomicBool,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl BlockDevice for GatedDisk {
        fn block_size(&self) -> u32 {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_blocks(
            &self,
            first_block: u64,
            buf: &mut [u8],
        ) -> Result<(), amoeba_disk::DiskError> {
            if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                self.entered.wait();
                self.release.wait();
            }
            self.inner.read_blocks(first_block, buf)
        }
        fn write_blocks(
            &self,
            first_block: u64,
            data: &[u8],
        ) -> Result<(), amoeba_disk::DiskError> {
            self.inner.write_blocks(first_block, data)
        }
        fn sync(&self) -> Result<(), amoeba_disk::DiskError> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_read_is_not_billed_for_a_failover_another_request_makes() {
        use amoeba_disk::FaultyDisk;
        let cfg = BulletConfig::small_test();
        let gated = Arc::new(GatedDisk {
            inner: RamDisk::new(cfg.block_size, cfg.disk_blocks),
            armed: Default::default(),
            entered: std::sync::Barrier::new(2),
            release: std::sync::Barrier::new(2),
        });
        let faulty = Arc::new(FaultyDisk::new(RamDisk::new(
            cfg.block_size,
            cfg.disk_blocks,
        )));
        let storage = MirroredDisk::new(vec![gated.clone(), faulty.clone()]).unwrap();
        let s = BulletServer::format_on(cfg.clone(), storage).unwrap();
        let cap = s.create(payload(2000, 5), 2).unwrap();
        // A restart empties the cache, so the read below goes to disk.
        let s = BulletServer::recover(cfg, s.shutdown().unwrap()).unwrap();
        gated.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        std::thread::scope(|t| {
            let reader = t.spawn(|| s.read(&cap));
            gated.entered.wait(); // the read is inside replica 0
            faulty.fail_now();
            s.create(payload(100, 6), 2).unwrap(); // its write kills replica 1
            gated.release.wait();
            assert_eq!(reader.join().unwrap().unwrap(), payload(2000, 5));
        });
        assert_eq!(s.storage().stats().get("mirror_failovers"), 1);
        assert_eq!(s.stats().get(counters::FAILOVER_READS), 0);
    }

    #[test]
    fn compaction_closes_holes_and_preserves_files() {
        let mut cfg = BulletConfig::small_test();
        cfg.disk_blocks = 256;
        let s = BulletServer::format(cfg, 2).unwrap();
        let caps: Vec<Capability> = (0..10)
            .map(|i| s.create(payload(5 * 512, i as u8), 1).unwrap())
            .collect();
        // Delete every other file → shattered free space.
        for cap in caps.iter().step_by(2) {
            s.delete(cap).unwrap();
        }
        let before = s.disk_frag_report();
        assert!(before.external_fragmentation > 0.0);
        let moved = s.compact_disk().unwrap();
        assert!(moved > 0);
        let after = s.disk_frag_report();
        assert_eq!(after.hole_count, 1);
        assert_eq!(after.free, before.free);
        // Survivors read back intact (bypassing the cache via restart).
        let storage = s.shutdown().unwrap();
        let s2 = BulletServer::recover(BulletConfig::small_test(), storage).unwrap();
        for (i, cap) in caps.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(s2.read(cap).unwrap(), payload(5 * 512, i as u8));
            }
        }
    }

    #[test]
    fn compact_tick_moves_incrementally_and_yields_to_traffic() {
        let mut cfg = BulletConfig::small_test();
        cfg.disk_blocks = 256;
        let s = BulletServer::format(cfg, 2).unwrap();
        let caps: Vec<Capability> = (0..10)
            .map(|i| s.create(payload(5 * 512, i as u8), 1).unwrap())
            .collect();
        for cap in caps.iter().step_by(2) {
            s.delete(cap).unwrap();
        }
        assert!(s.disk_frag_report().external_fragmentation > 0.0);

        // The setup traffic preempts the first tick; the second runs.
        assert_eq!(s.compact_tick().unwrap(), CompactTick::Preempted);
        assert!(matches!(
            s.compact_tick().unwrap(),
            CompactTick::Moved { .. }
        ));
        // A foreground read between ticks preempts the next one again.
        assert_eq!(s.read(&caps[1]).unwrap(), payload(5 * 512, 1));
        assert_eq!(s.compact_tick().unwrap(), CompactTick::Preempted);
        assert_eq!(s.stats().get(counters::COMPACTION_PREEMPTIONS), 2);

        // Left alone, ticks drain the plan one move at a time to Idle.
        let mut moves = 1;
        loop {
            match s.compact_tick().unwrap() {
                CompactTick::Moved { remaining } => {
                    moves += 1;
                    if remaining == 0 {
                        assert_eq!(s.compact_tick().unwrap(), CompactTick::Idle);
                        break;
                    }
                }
                CompactTick::Idle => break,
                CompactTick::Preempted => panic!("no traffic, no preemption"),
            }
        }
        assert!(moves > 1, "incremental compaction took {moves} moves");
        assert_eq!(s.stats().get(counters::DISK_COMPACTION_MOVES), moves);
        let after = s.disk_frag_report();
        assert_eq!(after.hole_count, 1);
        assert_eq!(after.external_fragmentation, 0.0);

        // Survivors read back intact after the incremental moves
        // (restart to bypass the cache).
        let storage = s.shutdown().unwrap();
        let mut cfg2 = BulletConfig::small_test();
        cfg2.disk_blocks = 256;
        let s2 = BulletServer::recover(cfg2, storage).unwrap();
        for (i, cap) in caps.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(s2.read(cap).unwrap(), payload(5 * 512, i as u8));
            }
        }
    }

    /// One `FaultyDisk` fail-offset sweep over every caller of `install`,
    /// `gc_commit`, `destroy` and `move_extent`.  The single replica dies
    /// at each op offset inside the operation in turn, so every fallible
    /// step (data read, replica write, record append, inode write, seal)
    /// errors at least once.  A failed operation must surface the disk
    /// error — never `Corrupt`, which is what a leaked reservation turns
    /// the *next* attempt into — and leave the RAM state whole: the
    /// allocator's used blocks are exactly the home extents plus the
    /// reserved homes, no two extents overlap, and every slot but the
    /// descriptor's is live, on the free list once, or retired (free in
    /// the table but off the list), which only a retire makes.
    #[test]
    fn failed_multi_write_ops_surface_the_disk_error_and_conserve_space() {
        use amoeba_disk::FaultyDisk;
        struct Case {
            name: &'static str,
            log_blocks: u64,
            archive_blocks: u64,
            setup: fn(&BulletServer),
            op: fn(&BulletServer) -> Result<(), BulletError>,
        }
        fn files(s: &BulletServer, n: usize) {
            for i in 0..n {
                s.create(payload(5 * 512, i as u8), 1).unwrap();
            }
        }
        fn nth(s: &BulletServer, n: usize) -> Capability {
            s.list_live_caps()[n]
        }
        fn holes(s: &BulletServer) {
            files(s, 6);
            for cap in s.list_live_caps().iter().step_by(2) {
                s.delete(cap).unwrap();
            }
        }
        fn cold(s: &BulletServer) {
            s.clear_cache();
            s.age_all().unwrap();
        }
        fn preempt(s: &BulletServer) {
            assert_eq!(s.compact_tick().unwrap(), CompactTick::Preempted);
        }
        fn tick(s: &BulletServer) -> Result<(), BulletError> {
            s.compact_tick().map(|_| ())
        }
        let cases = [
            Case {
                name: "create",
                log_blocks: 0,
                archive_blocks: 0,
                setup: |s| files(s, 2),
                op: |s| s.create(payload(5 * 512, 9), 1).map(|_| ()),
            },
            Case {
                name: "grouped create",
                log_blocks: 64,
                archive_blocks: 0,
                setup: |s| files(s, 2),
                op: |s| {
                    let batch = (0..4).map(|i| payload(900, i)).collect();
                    s.create_batch(batch, 1).map(|_| ())
                },
            },
            Case {
                name: "adopt",
                log_blocks: 0,
                archive_blocks: 0,
                setup: |s| files(s, 2),
                op: |s| s.adopt_object(200 + s.live_files() as u32, 0xabc, payload(5 * 512, 9)),
            },
            Case {
                name: "delete",
                log_blocks: 0,
                archive_blocks: 0,
                setup: |s| files(s, 4),
                op: |s| s.delete(&nth(s, 1)),
            },
            Case {
                name: "delete from the log",
                log_blocks: 64,
                archive_blocks: 0,
                setup: |s| {
                    let batch = (0..4).map(|i| payload(900, i)).collect();
                    s.create_batch(batch, 1).unwrap();
                },
                op: |s| s.delete(&nth(s, 1)),
            },
            Case {
                name: "retire",
                log_blocks: 0,
                archive_blocks: 0,
                setup: |s| files(s, 4),
                op: |s| s.retire_object(nth(s, 1).object.value()),
            },
            Case {
                name: "age_all",
                log_blocks: 0,
                archive_blocks: 0,
                setup: |s| {
                    files(s, 4);
                    let table = &s.table.read().inodes;
                    table.live().for_each(|(idx, _)| table.arm(idx, 1));
                },
                op: |s| s.age_all().map(|_| ()),
            },
            Case {
                name: "migrate",
                log_blocks: 64,
                archive_blocks: 0,
                setup: |s| {
                    let batch = (0..4).map(|i| payload(900, i)).collect();
                    s.create_batch(batch, 1).unwrap();
                    preempt(s);
                },
                op: tick,
            },
            Case {
                name: "pack",
                log_blocks: 0,
                archive_blocks: 0,
                setup: |s| {
                    holes(s);
                    preempt(s);
                },
                op: tick,
            },
            Case {
                name: "demote",
                log_blocks: 0,
                archive_blocks: 64,
                setup: |s| {
                    files(s, 3);
                    cold(s);
                    preempt(s);
                },
                op: tick,
            },
            Case {
                name: "recall",
                log_blocks: 0,
                archive_blocks: 64,
                setup: |s| {
                    files(s, 3);
                    cold(s);
                    drain_maintenance(s);
                    for cap in s.list_live_caps() {
                        s.read(&cap).unwrap();
                    }
                    preempt(s);
                },
                op: tick,
            },
            Case {
                name: "compact_disk",
                log_blocks: 64,
                archive_blocks: 0,
                setup: |s| {
                    holes(s);
                    let batch = (0..3).map(|i| payload(900, i)).collect();
                    s.create_batch(batch, 1).unwrap();
                },
                op: |s| s.compact_disk().map(|_| ()),
            },
        ];
        for case in &cases {
            let mut saw_disk_error = false;
            let mut saw_success = false;
            for fail_at in 0..40u64 {
                let mut cfg = BulletConfig::small_test();
                cfg.disk_blocks = 512;
                cfg.log_blocks = case.log_blocks;
                cfg.archive_blocks = case.archive_blocks;
                cfg.tier_high_water_pct = 0;
                let disk = Arc::new(FaultyDisk::new(RamDisk::new(
                    cfg.block_size,
                    cfg.disk_blocks,
                )));
                let storage = MirroredDisk::new(vec![disk.clone()]).unwrap();
                let s = BulletServer::format_on(cfg, storage).unwrap();
                (case.setup)(&s);
                disk.fail_after(fail_at);
                // Depending on the offset the first attempt may finish
                // before the countdown strikes; whichever attempt fails,
                // it must fail with the disk error and leave no debris.
                for attempt in 0..3 {
                    let ctx = format!("{} attempt {attempt} at op {fail_at}", case.name);
                    match (case.op)(&s) {
                        Ok(()) => saw_success |= !disk.is_failed(),
                        Err(BulletError::Disk(_)) => saw_disk_error = true,
                        Err(e) => panic!("{ctx}: unexpected {e:?}"),
                    }
                    let (_, rows) = s.describe_layout();
                    for w in rows.windows(2) {
                        assert!(
                            w[0].start_block as u64 + w[0].blocks <= w[1].start_block as u64,
                            "{ctx}: extents {:?} and {:?} overlap",
                            w[0],
                            w[1]
                        );
                    }
                    let homes: u64 = rows
                        .iter()
                        .zip(residencies(&s))
                        .filter(|(_, (_, r))| *r == Residency::Home)
                        .map(|(row, _)| row.blocks)
                        .sum();
                    let reserved: u64 = s.log.as_ref().map_or(0, |l| l.lock().reserved_blocks());
                    let report = s.disk_frag_report();
                    assert_eq!(
                        report.total - report.free,
                        homes + reserved,
                        "{ctx}: allocator and table disagree"
                    );
                    // Only a retire retires a slot, and it retires one even
                    // when its inode write fails.
                    let free = s.alloc.lock().slots.clone();
                    let t = s.table.read();
                    let slots = (1..s.desc.inode_slots()).collect::<Vec<_>>();
                    let retired = (slots.iter())
                        .filter(|&&i| t.inodes.is_free(i) && !free.contains(&i))
                        .count();
                    let counts = (free.len() + t.inodes.live_count() + retired, retired > 0);
                    let expected = (slots.len(), case.name == "retire");
                    assert_eq!(counts, expected, "{ctx}: free + live + retired slots");
                }
            }
            assert!(saw_disk_error, "{}: the countdown never struck", case.name);
            assert!(saw_success, "{}: no offset let the op finish", case.name);
        }
    }

    #[test]
    fn zone_frag_reports_cover_the_data_area() {
        let s = server();
        let zones = s.disk_zone_frag(4);
        assert_eq!(zones.len(), 4);
        let whole = s.disk_frag_report();
        assert_eq!(zones.iter().map(|z| z.total).sum::<u64>(), whole.total);
        assert_eq!(zones.iter().map(|z| z.free).sum::<u64>(), whole.free);
    }

    #[test]
    fn recovery_detects_overlap_corruption() {
        let cfg = BulletConfig::small_test();
        let s = BulletServer::format(cfg.clone(), 1).unwrap();
        let a = s.create(payload(512, 1), 1).unwrap();
        let _b = s.create(payload(512, 2), 1).unwrap();
        let storage = s.shutdown().unwrap();

        // Corrupt: rewrite inode b to overlap inode a's extent.
        let report = InodeTable::load(&storage, RepairPolicy::Fail, 0).unwrap();
        let mut table = report.table;
        let a_start = table.get(a.object.value()).unwrap().start_block;
        let b_idx = table
            .live()
            .map(|(i, _)| i)
            .find(|&i| i != a.object.value())
            .unwrap();
        table.get_mut(b_idx).unwrap().start_block = a_start;
        let block = table.block_of(b_idx);
        let image = table.block_image(block);
        storage.write_blocks(block, &image).unwrap();

        assert!(matches!(
            BulletServer::recover(cfg.clone(), storage),
            Err(BulletError::Corrupt(_))
        ));
    }

    #[test]
    fn recovery_repairs_overlap_with_zerobad() {
        let mut cfg = BulletConfig::small_test();
        let s = BulletServer::format(cfg.clone(), 1).unwrap();
        let a = s.create(payload(512, 1), 1).unwrap();
        let b = s.create(payload(512, 2), 1).unwrap();
        let storage = s.shutdown().unwrap();

        let report = InodeTable::load(&storage, RepairPolicy::Fail, 0).unwrap();
        let mut table = report.table;
        let a_start = table.get(a.object.value()).unwrap().start_block;
        table.get_mut(b.object.value()).unwrap().start_block = a_start;
        let block = table.block_of(b.object.value());
        let image = table.block_image(block);
        storage.write_blocks(block, &image).unwrap();

        cfg.repair = RepairPolicy::ZeroBad;
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        // One of the overlapping pair survives; the server is operational.
        assert_eq!(s2.live_files(), 1);
        s2.create(payload(100, 3), 1).unwrap();
    }

    #[test]
    fn clear_cache_forces_disk_reads() {
        let s = server();
        let cap = s.create(payload(3000, 8), 2).unwrap();
        s.clear_cache();
        assert_eq!(s.read(&cap).unwrap(), payload(3000, 8));
        let stats: std::collections::HashMap<_, _> = s.cache_stats().into_iter().collect();
        assert_eq!(stats["cache_misses"], 1);
    }

    #[test]
    fn layout_dump_matches_files() {
        let s = server();
        let a = s.create(payload(600, 1), 1).unwrap();
        let b = s.create(payload(100, 2), 1).unwrap();
        let (desc, rows) = s.describe_layout();
        assert_eq!(desc.block_size, 512);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].inode, a.object.value());
        assert_eq!(rows[0].blocks, 2);
        assert_eq!(rows[1].inode, b.object.value());
        assert!(rows.iter().all(|r| r.cached));
        assert_eq!(rows[0].start_block as u64 + 2, rows[1].start_block as u64);
        s.clear_cache();
        let (_, rows) = s.describe_layout();
        assert!(rows.iter().all(|r| !r.cached));
    }

    #[test]
    fn untouched_files_age_out() {
        let mut cfg = BulletConfig::small_test();
        cfg.max_age = 3;
        let s = BulletServer::format(cfg, 2).unwrap();
        let kept = s.create(payload(100, 1), 1).unwrap();
        let doomed = s.create(payload(100, 2), 1).unwrap();
        for round in 0..3 {
            s.touch(&kept).unwrap();
            let expired = s.age_all().unwrap();
            assert_eq!(expired, u64::from(round == 2), "round {round}");
        }
        assert_eq!(s.read(&kept).unwrap(), payload(100, 1));
        assert_eq!(s.read(&doomed).unwrap_err(), BulletError::NotFound);
        assert_eq!(s.stats().get("aged_out"), 1);
        // Expiry is durable: the inode was zeroed on disk.
        let storage = s.shutdown().unwrap();
        let s2 = BulletServer::recover(BulletConfig::small_test(), storage).unwrap();
        assert!(s2.read(&doomed).is_err());
        assert!(s2.read(&kept).is_ok());
    }

    #[test]
    fn touch_requires_a_genuine_capability() {
        let s = server();
        let cap = s.create(payload(10, 1), 1).unwrap();
        let mut forged = cap;
        forged.check ^= 2;
        assert_eq!(s.touch(&forged).unwrap_err(), BulletError::CapBad);
        s.touch(&cap).unwrap();
    }

    #[test]
    fn recovery_resets_ages_generously() {
        let mut cfg = BulletConfig::small_test();
        cfg.max_age = 2;
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let cap = s.create(payload(10, 1), 1).unwrap();
        s.age_all().unwrap(); // age 1 remaining
        let storage = s.shutdown().unwrap();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        // After recovery the file has a fresh max_age again.
        s2.age_all().unwrap();
        assert!(s2.read(&cap).is_ok(), "one round must not expire it");
        s2.age_all().unwrap();
        assert!(s2.read(&cap).is_err(), "two rounds without touch expire it");
    }

    #[test]
    fn operations_charge_simulated_time() {
        let cfg = BulletConfig::small_test();
        let clock = cfg.clock.clone();
        let s = BulletServer::format(cfg, 2).unwrap();
        clock.reset();
        let cap = s.create(payload(10_000, 1), 2).unwrap();
        // Plain RAM disks charge nothing, so this is CPU only: the fixed
        // request cost plus one 10 KB reception copy (≈ 2.75 ms).
        let create_time = clock.now();
        assert!(
            create_time.as_ms_f64() > 2.0,
            "create charged {create_time}"
        );
        let before = clock.now();
        s.read(&cap).unwrap(); // cache hit: cheap
        let read_time = clock.now() - before;
        assert!(read_time < create_time);
    }

    /// With tracing on, the leaves of an operation's span tree account
    /// for every simulated nanosecond the operation charged: the union of
    /// leaf intervals equals the root's duration, for both the mirrored
    /// create and the cold read.
    #[test]
    fn traced_op_leaves_cover_the_whole_duration() {
        use amoeba_sim::trace::leaf_coverage;

        let mut cfg = BulletConfig::small_test();
        cfg.trace = Tracer::on(cfg.clock.clone());
        let tracer = cfg.trace.clone();
        let s = BulletServer::format(cfg, 2).unwrap();

        let cap = s.create(payload(300 * 1024, 7), 2).unwrap();
        s.clear_cache();
        tracer.clear();
        s.read(&cap).unwrap();

        let spans = tracer.snapshot();
        let root = spans
            .iter()
            .find(|sp| sp.name == "bullet.read")
            .expect("the read records an op span");
        assert!(root.duration().as_ns() > 0);
        assert_eq!(
            leaf_coverage(&spans, root.id),
            root.duration(),
            "every charged nanosecond of the cold read sits in a leaf span"
        );

        tracer.clear();
        let cap2 = s.create(payload(200 * 1024, 9), 2).unwrap();
        let spans = tracer.snapshot();
        let root = spans
            .iter()
            .find(|sp| sp.name == "bullet.create")
            .expect("the create records an op span");
        assert_eq!(leaf_coverage(&spans, root.id), root.duration());
        s.delete(&cap2).unwrap();
    }

    /// Tracing must be free when disabled: a server with
    /// [`Tracer::off`] charges exactly the same simulated time as an
    /// identically-configured server with tracing enabled.
    #[test]
    fn disabled_tracing_charges_identical_time() {
        let elapsed = |trace: Tracer| {
            let mut cfg = BulletConfig::small_test();
            cfg.trace = trace;
            let clock = cfg.clock.clone();
            let s = BulletServer::format(cfg, 2).unwrap();
            let cap = s.create(payload(300 * 1024, 3), 2).unwrap();
            s.clear_cache();
            s.read(&cap).unwrap();
            s.read(&cap).unwrap();
            s.delete(&cap).unwrap();
            clock.now()
        };
        let clock = SimClock::new();
        assert_eq!(
            elapsed(Tracer::off()),
            elapsed(Tracer::on(clock)),
            "span recording must never advance the simulated clock"
        );
    }

    // ------------------------------------------------------------------
    // The group-commit log.
    // ------------------------------------------------------------------

    fn log_cfg() -> BulletConfig {
        let mut cfg = BulletConfig::small_test();
        cfg.log_blocks = 512; // of the 4096-block disk
        cfg
    }

    fn log_server() -> BulletServer {
        BulletServer::format(log_cfg(), 2).unwrap()
    }

    #[test]
    fn grouped_create_read_delete_cycle() {
        let s = log_server();
        let cap = s.create(payload(1000, 7), 2).unwrap();
        assert_eq!(s.size(&cap).unwrap(), 1000);
        assert_eq!(s.read(&cap).unwrap(), payload(1000, 7));
        assert_eq!(s.stats().get(counters::LOG_APPENDS), 1);
        assert_eq!(s.stats().get(counters::GROUP_COMMIT_FLUSHES), 1);
        s.delete(&cap).unwrap();
        assert_eq!(s.read(&cap).unwrap_err(), BulletError::NotFound);
    }

    #[test]
    fn create_batch_commits_one_append_per_chunk() {
        let s = log_server();
        let files: Vec<Bytes> = (0..10).map(|i| payload(1000, i as u8)).collect();
        let caps = s.create_batch(files, 2).unwrap();
        assert_eq!(caps.len(), 10);
        // The whole batch fits one record: one append, one flush.
        assert_eq!(s.stats().get(counters::LOG_APPENDS), 1);
        assert_eq!(s.stats().get(counters::GROUP_COMMIT_FLUSHES), 1);
        assert_eq!(s.stats().get(counters::LOG_BATCH_FILES), 10);
        assert_eq!(s.stats().get(counters::CREATES), 10);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(s.read(cap).unwrap(), payload(1000, i as u8));
        }
        assert_eq!(s.live_files(), 10);
    }

    #[test]
    fn create_batch_respects_the_file_cap() {
        let mut cfg = log_cfg();
        // 1 KiB blocks: one header block could name 62 files, so the
        // constant — not the header clamp — is the binding cap.
        cfg.block_size = 1024;
        let s = BulletServer::format(cfg, 2).unwrap();
        let n = BulletServer::LOG_BATCH_MAX_FILES + 1;
        let files: Vec<Bytes> = (0..n).map(|i| payload(600, i as u8)).collect();
        let caps = s.create_batch(files, 2).unwrap();
        assert_eq!(caps.len(), n);
        // 32 + 1.
        assert_eq!(s.stats().get(counters::GROUP_COMMIT_FLUSHES), 2);
        assert_eq!(s.stats().get(counters::LOG_APPENDS), 2);
    }

    #[test]
    fn oversized_files_in_a_batch_go_direct() {
        let s = log_server();
        let big = BulletServer::LOG_BATCH_MAX_BYTES as usize + 1;
        let files = vec![payload(1000, 1), payload(big, 2), payload(1000, 3)];
        let caps = s.create_batch(files, 2).unwrap();
        for (cap, (n, fill)) in caps.iter().zip([(1000, 1u8), (big, 2), (1000, 3)]) {
            assert_eq!(s.read(cap).unwrap(), payload(n, fill));
        }
        // The big file bypassed the log; the small ones were grouped
        // (order forced the leading chunk to flush before the direct
        // create, so two flushes of one file each).
        assert_eq!(s.stats().get(counters::LOG_BATCH_FILES), 2);
    }

    #[test]
    fn log_files_migrate_home_during_idle_time() {
        let s = log_server();
        let files: Vec<Bytes> = (0..5).map(|i| payload(900, i as u8)).collect();
        let caps = s.create_batch(files, 2).unwrap();
        assert!(
            residencies(&s).iter().all(|&(_, r)| r == Residency::Log),
            "freshly grouped files are log-resident"
        );
        // Drive the idle loop: the first tick is preempted (the creates
        // count as arrivals), then one migration per tick.
        let mut moved = 0;
        for _ in 0..32 {
            match s.compact_tick().unwrap() {
                CompactTick::Idle => break,
                CompactTick::Moved { .. } => moved += 1,
                CompactTick::Preempted => {}
            }
        }
        assert_eq!(moved, 5, "one migration per file");
        assert_eq!(s.stats().get(counters::LOG_MIGRATIONS), 5);
        assert!(
            residencies(&s).iter().all(|&(_, r)| r == Residency::Home),
            "migrated files live in the data area"
        );
        // Contiguous-read invariant: contents unchanged, cold reads too.
        s.clear_cache();
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(s.read(cap).unwrap(), payload(900, i as u8));
        }
        // The drained window rewinds and keeps serving batches.
        s.create_batch((0..3).map(|i| payload(700, 40 + i as u8)).collect(), 2)
            .unwrap();
        assert_eq!(s.live_files(), 8);
    }

    #[test]
    fn compact_disk_drains_the_log_and_packs() {
        let s = log_server();
        let caps = s
            .create_batch((0..6).map(|i| payload(800, i as u8)).collect(), 2)
            .unwrap();
        s.delete(&caps[1]).unwrap();
        s.delete(&caps[3]).unwrap();
        s.compact_disk().unwrap();
        assert!(residencies(&s).iter().all(|&(_, r)| r == Residency::Home));
        let report = s.disk_frag_report();
        assert_eq!(report.hole_count, 1, "free space is one hole");
        s.clear_cache();
        for (i, cap) in caps.iter().enumerate() {
            if i != 1 && i != 3 {
                assert_eq!(s.read(cap).unwrap(), payload(800, i as u8));
            }
        }
    }

    #[test]
    fn grouped_files_survive_a_crash() {
        let cfg = log_cfg();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let caps = s
            .create_batch((0..8).map(|i| payload(1200, i as u8)).collect(), 2)
            .unwrap();
        // crash(), not shutdown(): grouped commits are fully synchronous,
        // so losing queued background writes must lose nothing.
        let storage = s.crash();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.live_files(), 8);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(s2.read(cap).unwrap(), payload(1200, i as u8));
        }
    }

    #[test]
    fn replay_reinstalls_the_last_record_when_the_inode_write_was_lost() {
        let cfg = log_cfg();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let caps = s
            .create_batch((0..3).map(|i| payload(1000, i as u8)).collect(), 2)
            .unwrap();
        let storage = s.shutdown().unwrap();

        // Simulate a crash after the record append but before the inode
        // write-through: zero the batch's inodes on disk.
        let report = InodeTable::load(&storage, RepairPolicy::Fail, 0).unwrap();
        let mut table = report.table;
        let mut blocks = std::collections::BTreeSet::new();
        for cap in &caps {
            table.clear(cap.object.value()).unwrap();
            blocks.insert(table.block_of(cap.object.value()));
        }
        for b in blocks {
            storage.write_blocks(b, &table.block_image(b)).unwrap();
        }

        // Replay walks the chain and reinstalls the batch — same slots,
        // same randoms, so the pre-crash capabilities still verify.
        let s2 = BulletServer::recover(cfg.clone(), storage).unwrap();
        assert_eq!(s2.live_files(), 3);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(s2.read(cap).unwrap(), payload(1000, i as u8));
        }
        // Replay is idempotent: a second recovery changes nothing.
        let storage = s2.shutdown().unwrap();
        let s3 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s3.live_files(), 3);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(s3.read(cap).unwrap(), payload(1000, i as u8));
        }
    }

    #[test]
    fn torn_log_tail_is_dropped_whole_and_leaks_nothing() {
        let cfg = log_cfg();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let committed = s
            .create_batch((0..2).map(|i| payload(1000, i as u8)).collect(), 2)
            .unwrap();
        let torn = s
            .create_batch((0..2).map(|i| payload(1000, 10 + i as u8)).collect(), 2)
            .unwrap();
        let storage = s.shutdown().unwrap();

        // Find the two records, tear the second (a crash mid-append: its
        // checksum cannot verify), and zero its inodes as a torn
        // write-through would have left them.
        let desc = *InodeTable::load(&storage, RepairPolicy::Fail, 0)
            .unwrap()
            .table
            .descriptor();
        let bs = desc.block_size as usize;
        let log_start = desc.data_end() - cfg.log_blocks;
        let scan = gclog::scan_chain(bs, log_start, desc.data_end(), &mut |b, buf| {
            storage.read_blocks(b, buf).is_ok()
        });
        assert_eq!(scan.records.len(), 2);
        let second = scan.records[1].at;
        let mut header = vec![0u8; bs];
        storage.read_blocks(second, &mut header).unwrap();
        header[gclog::HEADER_BYTES - 1] ^= 0xff; // corrupt the CRC
        storage.write_blocks(second, &header).unwrap();
        let report = InodeTable::load(&storage, RepairPolicy::Fail, 0).unwrap();
        let mut table = report.table;
        let mut blocks = std::collections::BTreeSet::new();
        for cap in &torn {
            table.clear(cap.object.value()).unwrap();
            blocks.insert(table.block_of(cap.object.value()));
        }
        for b in blocks {
            storage.write_blocks(b, &table.block_image(b)).unwrap();
        }

        // Replay keeps every committed batch and drops exactly the torn
        // tail — never half of it.
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.live_files(), 2);
        for (i, cap) in committed.iter().enumerate() {
            assert_eq!(s2.read(cap).unwrap(), payload(1000, i as u8));
        }
        for cap in &torn {
            assert!(matches!(
                s2.read(cap).unwrap_err(),
                BulletError::NotFound | BulletError::CapBad
            ));
        }
        // No allocator leak: deleting the survivors leaves the data area
        // one whole free hole.
        for cap in &committed {
            s2.delete(cap).unwrap();
        }
        let report = s2.disk_frag_report();
        assert_eq!(report.hole_count, 1);
        assert_eq!(report.free, report.total);
    }

    #[test]
    fn deleting_a_file_of_the_newest_batch_seals_the_chain() {
        let cfg = log_cfg();
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        let caps = s
            .create_batch(vec![payload(1000, 1), payload(1000, 2)], 2)
            .unwrap();
        let appends = s.stats().get(counters::LOG_APPENDS);
        s.delete(&caps[1]).unwrap();
        assert_eq!(
            s.stats().get(counters::LOG_APPENDS),
            appends + 1,
            "deleting an unsealed file appends a seal record"
        );
        // After a crash, replay must not resurrect the deleted file from
        // the (still checksum-valid) old record.
        let storage = s.crash();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.live_files(), 1);
        assert_eq!(s2.read(&caps[0]).unwrap(), payload(1000, 1));
        assert!(matches!(
            s2.read(&caps[1]).unwrap_err(),
            BulletError::NotFound | BulletError::CapBad
        ));
    }

    /// A replica that, while armed (`floor > 0`), refuses every write
    /// below `floor` and keeps the first write it accepts at or above it.
    struct WalledDisk {
        inner: RamDisk,
        floor: Arc<std::sync::atomic::AtomicU64>,
        accepted: Arc<Mutex<Option<Vec<u8>>>>,
    }

    impl BlockDevice for WalledDisk {
        fn block_size(&self) -> u32 {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_blocks(
            &self,
            first_block: u64,
            buf: &mut [u8],
        ) -> Result<(), amoeba_disk::DiskError> {
            self.inner.read_blocks(first_block, buf)
        }
        fn write_blocks(
            &self,
            first_block: u64,
            data: &[u8],
        ) -> Result<(), amoeba_disk::DiskError> {
            let floor = self.floor.load(std::sync::atomic::Ordering::SeqCst);
            if floor > 0 {
                if first_block < floor {
                    return Err(amoeba_disk::DiskError::DeviceFailed);
                }
                self.accepted.lock().get_or_insert_with(|| data.to_vec());
            }
            self.inner.write_blocks(first_block, data)
        }
        fn sync(&self) -> Result<(), amoeba_disk::DiskError> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_batch_whose_inodes_never_landed_stays_dead_after_a_restart() {
        let cfg = log_cfg();
        let floor = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let accepted = Arc::new(Mutex::new(None));
        let disks: Vec<Arc<dyn BlockDevice>> = (0..2)
            .map(|_| {
                Arc::new(WalledDisk {
                    inner: RamDisk::new(cfg.block_size, cfg.disk_blocks),
                    floor: Arc::clone(&floor),
                    accepted: Arc::clone(&accepted),
                }) as Arc<dyn BlockDevice>
            })
            .collect();
        let storage = MirroredDisk::new(disks.clone()).unwrap();
        let s = BulletServer::format_on(cfg.clone(), storage).unwrap();
        let kept = s
            .create_batch((0..3).map(|i| payload(1000, i)).collect(), 2)
            .unwrap();
        let before = s.live_files();

        // The record lands in the data area; the inode write-through is
        // refused on both replicas.
        floor.store(s.desc.data_start(), std::sync::atomic::Ordering::SeqCst);
        let failed = s.create_batch((0..4).map(|i| payload(900, 10 + i)).collect(), 2);
        assert!(matches!(failed, Err(BulletError::Disk(_))), "{failed:?}");
        let record = accepted.lock().take().expect("the record was written");
        let bs = cfg.block_size as usize;
        let header = gclog::decode_header(bs, &record[..bs]).expect("a record header");
        let named = gclog::decode_entries(&record, header.file_count);
        assert_eq!(named.len(), 4);

        // A restart builds the mirror anew over the same devices.
        drop(s.crash());
        floor.store(0, std::sync::atomic::Ordering::SeqCst);
        let s2 = BulletServer::recover(cfg, MirroredDisk::new(disks).unwrap()).unwrap();
        assert_eq!(s2.live_files(), before, "the failed batch came back");
        let live: Vec<u32> = s2.table.read().inodes.live().map(|(i, _)| i).collect();
        assert!(named.iter().all(|e| !live.contains(&e.index)), "{live:?}");
        for (i, cap) in kept.iter().enumerate() {
            assert_eq!(s2.read(cap).unwrap(), payload(1000, i as u8));
        }
    }

    #[test]
    fn full_log_window_falls_back_to_the_direct_path() {
        let mut cfg = log_cfg();
        cfg.log_blocks = 4; // room for at most a header + 2 payload blocks
        let s = BulletServer::format(cfg, 2).unwrap();
        let files: Vec<Bytes> = (0..4).map(|i| payload(3 * 512, i as u8)).collect();
        let caps = s.create_batch(files, 2).unwrap();
        assert_eq!(s.stats().get(counters::LOG_APPENDS), 0, "nothing fits");
        assert_eq!(s.stats().get(counters::CREATES), 4);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(s.read(cap).unwrap(), payload(3 * 512, i as u8));
        }
    }

    #[test]
    fn grouped_commits_are_deterministic() {
        let run = || {
            let cfg = log_cfg();
            let clock = cfg.clock.clone();
            let s = BulletServer::format(cfg, 2).unwrap();
            let caps = s
                .create_batch((0..12).map(|i| payload(700 + i, i as u8)).collect(), 2)
                .unwrap();
            (caps, clock.now())
        };
        let (caps_a, t_a) = run();
        let (caps_b, t_b) = run();
        assert_eq!(caps_a, caps_b, "batch composition is a pure function");
        assert_eq!(t_a, t_b, "charged simulated time is reproducible");
    }

    #[test]
    fn grouped_files_age_out_cleanly() {
        let mut cfg = log_cfg();
        cfg.max_age = 1;
        let s = BulletServer::format(cfg.clone(), 2).unwrap();
        s.create_batch(vec![payload(1000, 1), payload(1000, 2)], 2)
            .unwrap();
        assert_eq!(s.age_all().unwrap(), 2);
        assert_eq!(s.live_files(), 0);
        // Expiry sealed the chain: a crash resurrects nothing.
        let storage = s.crash();
        let s2 = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s2.live_files(), 0);
        // And the space came back.
        let report = s2.disk_frag_report();
        assert_eq!(report.free, report.total);
    }

    // ------------------------------------------------------------------
    // Tiered storage: demotion to the WORM archive, recall, and the
    // configurable idleness gate.

    fn tiered_cfg() -> BulletConfig {
        let mut cfg = BulletConfig::small_test();
        cfg.archive_blocks = 8192;
        cfg.tier_high_water_pct = 0; // any occupancy sits "above water"
        cfg
    }

    /// Ticks maintenance until the scheduler reports idle; returns how
    /// many ticks made progress.
    fn drain_maintenance(s: &BulletServer) -> u64 {
        let mut progressed = 0;
        loop {
            match s.compact_tick().unwrap() {
                CompactTick::Moved { .. } => progressed += 1,
                CompactTick::Idle => return progressed,
                CompactTick::Preempted => {}
            }
        }
    }

    #[test]
    fn cold_files_demote_to_the_archive_and_recall_on_read() {
        let s = BulletServer::format(tiered_cfg(), 2).unwrap();
        let cap = s.create(payload(3 * 512 + 17, 9), 2).unwrap();
        s.clear_cache(); // cold = uncached…
        s.age_all().unwrap(); // …and one aging round untouched
        assert!(drain_maintenance(&s) >= 1);
        assert_eq!(s.stats().get(counters::TIER_DEMOTIONS), 1);
        let (desc, rows) = s.describe_layout();
        assert!(
            rows[0].start_block as u64 >= desc.data_end(),
            "file lives on the archive tier"
        );
        let arch = s.archive_device().unwrap();
        assert_eq!(arch.burned_blocks(), 4);
        // The fast-tier extent came back whole.
        let report = s.disk_frag_report();
        assert_eq!(report.free, report.total);

        // First read after demotion is served from the archive — no
        // foreground stall — and merely *schedules* the promotion.
        assert_eq!(s.read(&cap).unwrap(), payload(3 * 512 + 17, 9));
        assert_eq!(s.tier_recall_backlog(), 1);
        assert_eq!(s.stats().get(counters::TIER_PROMOTIONS), 0);

        // Idle ticks complete the recall.
        drain_maintenance(&s);
        assert_eq!(s.stats().get(counters::TIER_PROMOTIONS), 1);
        assert_eq!(s.tier_recall_backlog(), 0);
        let (desc, rows) = s.describe_layout();
        assert!(
            (rows[0].start_block as u64) < desc.data_end(),
            "file is home again"
        );
        s.clear_cache();
        assert_eq!(s.read(&cap).unwrap(), payload(3 * 512 + 17, 9));
        // WORM media: the archived copy's blocks stay burned forever.
        assert_eq!(arch.burned_blocks(), 4);
    }

    #[test]
    fn archived_files_survive_a_crash_via_the_surviving_platter() {
        let s = BulletServer::format(tiered_cfg(), 2).unwrap();
        let cap = s.create(payload(2000, 5), 2).unwrap();
        s.clear_cache();
        s.age_all().unwrap();
        drain_maintenance(&s);
        assert_eq!(s.stats().get(counters::TIER_DEMOTIONS), 1);
        let arch = s.archive_device().unwrap();
        let storage = s.crash();
        let s2 = BulletServer::recover_with_archive(tiered_cfg(), storage, arch).unwrap();
        assert_eq!(s2.read(&cap).unwrap(), payload(2000, 5));
        let arch2 = s2.archive_device().unwrap();
        assert_eq!(
            arch2.append_pos(),
            4,
            "adopted cursor sits past the survivor"
        );
    }

    #[test]
    fn a_restart_without_its_platter_never_serves_an_archived_file() {
        let crashed = || {
            let s = BulletServer::format(tiered_cfg(), 2).unwrap();
            let cap = s.create(payload(2000, 0x5a), 2).unwrap();
            s.clear_cache();
            s.age_all().unwrap();
            drain_maintenance(&s);
            assert_eq!(s.stats().get(counters::TIER_DEMOTIONS), 1);
            (cap, s.crash())
        };
        // The file's bytes were on the lost platter, so its inode lies
        // outside every tier of the restarted server.
        let (_, storage) = crashed();
        assert!(matches!(
            BulletServer::recover(tiered_cfg(), storage),
            Err(BulletError::Corrupt(_))
        ));
        let (cap, storage) = crashed();
        let mut cfg = tiered_cfg();
        cfg.repair = RepairPolicy::ZeroBad;
        let s = BulletServer::recover(cfg, storage).unwrap();
        assert_eq!(s.live_files(), 0);
        assert_eq!(s.stats().get(counters::RECOVERY_REPAIRED_INODES), 1);
        assert!(s.read(&cap).is_err());
        assert_eq!(s.archive_device().unwrap().append_pos(), 0);
    }

    #[test]
    fn formatting_is_opening_an_empty_table() {
        let cfg = || {
            let mut cfg = tiered_cfg();
            cfg.log_blocks = 512;
            cfg
        };
        let placement = |s: &BulletServer| {
            let arch = s.archive_device().unwrap();
            let frag = s.disk_frag_report();
            (s.describe_layout(), frag, s.live_files(), arch.append_pos())
        };
        let fresh = BulletServer::format(cfg(), 2).unwrap();
        let empty = BulletServer::format(cfg(), 2).unwrap();
        let arch = empty.archive_device().unwrap();
        let storage = empty.shutdown().unwrap();
        let reopened = BulletServer::recover_with_archive(cfg(), storage, arch).unwrap();
        assert_eq!(placement(&fresh), placement(&reopened));
        // Both log windows start at the same head: the first batch lands
        // on the same blocks.
        let files = || (0..6).map(|i| payload(700, i)).collect::<Vec<_>>();
        fresh.create_batch(files(), 2).unwrap();
        reopened.create_batch(files(), 2).unwrap();
        assert_eq!(placement(&fresh), placement(&reopened));
    }

    #[test]
    fn deleting_an_archived_file_frees_no_fast_tier_space_twice() {
        let s = BulletServer::format(tiered_cfg(), 2).unwrap();
        let cap = s.create(payload(1500, 3), 2).unwrap();
        s.clear_cache();
        s.age_all().unwrap();
        drain_maintenance(&s);
        assert_eq!(s.stats().get(counters::TIER_DEMOTIONS), 1);
        let before = s.disk_frag_report();
        assert_eq!(
            before.free, before.total,
            "demotion already freed the home extent"
        );
        s.delete(&cap).unwrap();
        assert_eq!(s.live_files(), 0);
        let after = s.disk_frag_report();
        assert_eq!(after.free, after.total);
        // The WORM blocks stay burned: the cursor never rewinds.
        assert_eq!(s.archive_device().unwrap().append_pos(), 3);
    }

    #[test]
    fn every_residency_destroys_cleanly_with_log_and_archive_both_on() {
        // The only configuration where a misread tier bit shows: archived
        // starts also lie past the log window's first block.
        let cfg = || {
            let mut cfg = tiered_cfg();
            cfg.log_blocks = 512;
            cfg
        };
        let s = BulletServer::format(cfg(), 2).unwrap();
        let file = |i: usize| payload(900, i as u8); // two blocks each
        let idx = |cap: &Capability| cap.object.value();
        let resident = |s: &BulletServer| s.log.as_ref().unwrap().lock().resident();

        // a0..a7 commit through the log and migrate home; the cold half
        // (a4..a7) then demotes, and b0..b3 stay log-resident.
        let a = s.create_batch((0..8).map(file).collect(), 2).unwrap();
        drain_maintenance(&s);
        s.clear_cache();
        s.age_all().unwrap();
        for cap in &a[..4] {
            s.touch(cap).unwrap();
        }
        drain_maintenance(&s);
        let b = s.create_batch((8..12).map(file).collect(), 2).unwrap();
        let of = |cap: &Capability| {
            let rows = residencies(&s);
            rows.iter().find(|&&(i, _)| i == idx(cap)).unwrap().1
        };
        assert!(a[..4].iter().all(|c| of(c) == Residency::Home));
        assert!(a[4..]
            .iter()
            .all(|c| matches!(of(c), Residency::Archive { .. })));
        assert!(b.iter().all(|c| of(c) == Residency::Log));
        for (i, cap) in a.iter().enumerate().skip(4) {
            assert_eq!(s.read(cap).unwrap(), file(i), "served from the archive");
        }
        assert_eq!(s.tier_recall_backlog(), 4);
        assert_eq!(resident(&s), 4);
        let used = |s: &BulletServer| {
            let r = s.disk_frag_report();
            r.total - r.free
        };
        assert_eq!(used(&s), 4 * 2 + 4 * 2, "four homes, four reserved homes");

        // One file of each residency through each destroy path.
        for cap in [&a[0], &a[4], &b[0]] {
            s.delete(cap).unwrap();
        }
        for cap in [&a[1], &a[5], &b[1]] {
            s.retire_object(idx(cap)).unwrap();
        }
        for cap in [&a[2], &a[6], &b[2]] {
            s.table.read().inodes.arm(idx(cap), 1);
        }
        assert_eq!(s.age_all().unwrap(), 3);

        let check = |s: &BulletServer, reserved_homes: u64| {
            assert_eq!(s.live_files(), 3);
            let tiers: Vec<Residency> = residencies(s).into_iter().map(|(_, r)| r).collect();
            assert!(matches!(
                tiers[..],
                [Residency::Home, Residency::Log, Residency::Archive { .. }]
            ));
            assert_eq!(used(s), 2 + reserved_homes);
            assert_eq!(resident(s), 1);
            for (i, cap) in a.iter().chain(&b).enumerate() {
                if i % 4 == 3 {
                    assert_eq!(s.read(cap).unwrap(), file(i));
                } else {
                    assert_eq!(s.read(cap).unwrap_err(), BulletError::NotFound);
                }
            }
        };
        assert_eq!(s.tier_recall_backlog(), 1, "only the survivor's recall");
        check(&s, 2);

        // Recovery classifies the same three extents the same way; the
        // RAM-only home reservation of the log survivor evaporates.
        let arch = s.archive_device().unwrap();
        let s2 = BulletServer::recover_with_archive(cfg(), s.crash(), arch).unwrap();
        check(&s2, 0);
    }

    #[test]
    fn idle_gate_request_delta_tolerates_light_traffic() {
        let mut cfg = BulletConfig::small_test();
        cfg.disk_blocks = 256;
        cfg.maint_idle_request_delta = 2;
        let s = BulletServer::format(cfg, 2).unwrap();
        let caps: Vec<Capability> = (0..6)
            .map(|i| s.create(payload(5 * 512, i as u8), 1).unwrap())
            .collect();
        for cap in caps.iter().step_by(2) {
            s.delete(cap).unwrap();
        }
        // First tick re-arms the mark after the setup burst.
        assert_eq!(s.compact_tick().unwrap(), CompactTick::Preempted);
        // Two requests between ticks stay within the tolerated delta.
        s.read(&caps[1]).unwrap();
        s.read(&caps[3]).unwrap();
        assert!(matches!(
            s.compact_tick().unwrap(),
            CompactTick::Moved { .. }
        ));
        // Three requests exceed it: the tick yields.
        s.read(&caps[1]).unwrap();
        s.read(&caps[3]).unwrap();
        s.read(&caps[5]).unwrap();
        assert_eq!(s.compact_tick().unwrap(), CompactTick::Preempted);
    }

    #[test]
    fn moves_per_tick_batches_maintenance_increments() {
        let mut cfg = BulletConfig::small_test();
        cfg.disk_blocks = 256;
        cfg.maint_moves_per_tick = 16;
        let s = BulletServer::format(cfg, 2).unwrap();
        let caps: Vec<Capability> = (0..10)
            .map(|i| s.create(payload(5 * 512, i as u8), 1).unwrap())
            .collect();
        for cap in caps.iter().step_by(2) {
            s.delete(cap).unwrap();
        }
        assert!(s.disk_frag_report().external_fragmentation > 0.0);
        assert_eq!(s.compact_tick().unwrap(), CompactTick::Preempted);
        // One idle tick performs up to 16 increments: the whole plan.
        assert!(matches!(
            s.compact_tick().unwrap(),
            CompactTick::Moved { .. }
        ));
        assert!(s.stats().get(counters::DISK_COMPACTION_MOVES) > 1);
        assert_eq!(s.disk_frag_report().external_fragmentation, 0.0);
    }

    /// The four log × archive combinations the ranked tick runs under.
    fn rank_cfgs() -> [(bool, bool, BulletConfig); 4] {
        [(false, false), (true, false), (false, true), (true, true)].map(|(log, archive)| {
            let mut cfg = BulletConfig::small_test();
            cfg.log_blocks = if log { 512 } else { 0 };
            cfg.archive_blocks = if archive { 8192 } else { 0 };
            (log, archive, cfg)
        })
    }

    /// One tick past the idleness gate, with what it moved of
    /// `[maintenance_ticks, skips of log migration, packing, recall,
    /// demotion]`.
    fn ranked_tick(s: &BulletServer) -> (CompactTick, [u64; 5]) {
        let counts = || {
            [
                counters::MAINTENANCE_TICKS,
                counters::MAINT_SKIPS_LOG_MIGRATION,
                counters::MAINT_SKIPS_PACKING,
                counters::MAINT_SKIPS_RECALL,
                counters::MAINT_SKIPS_DEMOTION,
            ]
            .map(|c| s.stats().get(c))
        };
        let before = counts();
        let tick = loop {
            match s.compact_tick().unwrap() {
                CompactTick::Preempted => {}
                tick => break tick,
            }
        };
        let after = counts();
        (tick, std::array::from_fn(|i| after[i] - before[i]))
    }

    #[test]
    fn a_tick_with_no_work_anywhere_is_idle_and_counts_every_skip() {
        for (log, archive, cfg) in rank_cfgs() {
            let s = BulletServer::format(cfg, 2).unwrap();
            let got = ranked_tick(&s);
            assert_eq!(
                got,
                (CompactTick::Idle, [1, 1, 1, 1, 1]),
                "log {log} archive {archive}"
            );
        }
    }

    #[test]
    fn the_first_rank_with_work_wins_and_lower_ranks_are_not_reached() {
        for (log, archive, cfg) in rank_cfgs() {
            let at = format!("log {log} archive {archive}");
            let s = BulletServer::format(cfg, 2).unwrap();
            let caps: Vec<Capability> = (0..3)
                .map(|i| s.create(payload(5 * 512, i), 1).unwrap())
                .collect();
            s.delete(&caps[0]).unwrap();
            let moved = |remaining| CompactTick::Moved { remaining };
            if log {
                // Log migration (rank 0) wins over the hole packing
                // would fill, which is neither skipped nor reached.
                for remaining in [1, 0] {
                    assert_eq!(ranked_tick(&s), (moved(remaining), [1, 0, 0, 0, 0]), "{at}");
                }
                assert_eq!(s.stats().get(counters::DISK_COMPACTION_MOVES), 0);
            }
            // Packing (rank 1): the hole ahead of two files plans two moves.
            for remaining in [1, 0] {
                assert_eq!(ranked_tick(&s), (moved(remaining), [1, 1, 0, 0, 0]), "{at}");
            }
            // Packed with live files: packing's peek says "work", its plan
            // is empty, and the tick falls through without a packing skip.
            assert_eq!(
                ranked_tick(&s),
                (CompactTick::Idle, [1, 1, 0, 1, 1]),
                "{at}"
            );
            assert_eq!(s.stats().get(counters::DISK_COMPACTION_MOVES), 2);
        }
    }

    #[test]
    fn recall_and_demotion_win_only_after_packing_falls_through() {
        for (log, archive, mut cfg) in rank_cfgs() {
            if !archive {
                continue;
            }
            let at = format!("log {log} archive {archive}");
            cfg.tier_high_water_pct = 0;
            let s = BulletServer::format(cfg, 2).unwrap();
            let cap = s.create(payload(3 * 512, 4), 2).unwrap();
            let moved = CompactTick::Moved { remaining: 0 };
            if log {
                assert_eq!(ranked_tick(&s), (moved, [1, 0, 0, 0, 0]), "{at}");
            }
            s.clear_cache();
            s.age_all().unwrap();
            // Demotion (rank 3): packing found nothing, recall skipped.
            assert_eq!(ranked_tick(&s), (moved, [1, 1, 0, 1, 0]), "{at}");
            assert_eq!(s.stats().get(counters::TIER_DEMOTIONS), 1);
            // Recall (rank 2) wins over demotion, which is not reached.
            s.read(&cap).unwrap();
            assert_eq!(ranked_tick(&s), (moved, [1, 1, 0, 0, 0]), "{at}");
            assert_eq!(s.stats().get(counters::TIER_PROMOTIONS), 1);
            // Cached again: demotion's peek says "work", its pick finds
            // none, and the tick is idle with no demotion skip.
            assert_eq!(
                ranked_tick(&s),
                (CompactTick::Idle, [1, 1, 0, 1, 0]),
                "{at}"
            );
        }
    }
}
