//! The Bullet server proper: operations, durability, recovery, compaction.
//!
//! # Concurrency model
//!
//! The server state is split into independently locked components so that
//! overlapping requests from many client threads make progress together
//! (see `DESIGN.md`, "Concurrency model"):
//!
//! * `table: RwLock<Tables>` — the inode table and the RAM file cache, one
//!   administration under one lock.  Verification and the cache hit it
//!   guards run under one *read* guard: [`FileCache::get`] refreshes LRU
//!   ages and hit counters through atomics, so the hot path takes no
//!   exclusive lock at all.  Create, delete, cache fills and evictions
//!   take the exclusive guard.  Each slot also holds its file's touch/age
//!   word, which `touch` and `age_all` update under the shared guard.
//! * `alloc: Mutex<AllocState>` — the disk extent free list and the inode
//!   random-number generator, held only for the few-microsecond reserve /
//!   free operations, never across I/O.
//! * `inflight: Box<[Mutex<()>]>` — one lock per inode slot, sized from
//!   the formatted table.  All disk I/O for a file (create write-through,
//!   miss loads, delete/expiry inode zeroing, compaction moves) happens
//!   under that file's in-flight guard *only*, keeping
//!   create/delete/read/compaction of the same file serialized while
//!   different files overlap freely.  Releasing a guard wakes only that
//!   slot's waiters, and an uncontended guard makes no syscall.
//! * `maintenance: RwLock<()>` — compaction takes the exclusive guard;
//!   create/delete/expiry take the shared one; reads never touch it.
//!
//! * `log: Option<Mutex<LogState>>` — the group-commit log window (when
//!   [`BulletConfig::log_blocks`] > 0).  Held across the *entire* commit
//!   of a batch — record append, table publish, inode write-through — so
//!   that a record's inodes are durable before the next record appends;
//!   that invariant is what lets crash replay reinstall only the last
//!   record of the chain.
//!
//! Lock order (outer to inner): `maintenance` → `log` → `inflight` →
//! `table` → `alloc`, with `inode_io` taken only around inode
//! block write-through (acquiring `table.read` inside).  A path may skip
//! levels but never acquires a lock while holding one further in.  Every
//! acquisition is counted in [`BulletServer::lock_stats`], with
//! `lock_contended_*` counters for acquisitions that had to wait (the log
//! mutex is exempt: group commits are serialized by design, so its
//! contention is the batching working).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use amoeba_cap::{AmoebaScheme, Capability, CheckScheme, MacScheme, ObjNum, Port, Rights};
use amoeba_disk::{BlockDevice, LogWindow, MirroredDisk, RamDisk, SimDisk, WormDisk};
use amoeba_rpc::StreamWire;
use amoeba_sim::json::Json;
use amoeba_sim::{
    AttrValue, CpuProfile, DetRng, DiskProfile, LaneCounter, Nanos, Pipeline, SimClock, SpanGuard,
    Stats, Telemetry, TelemetryConfig, TraceConfig, Tracer,
};

use crate::accounting::ClientAccounting;
use crate::cache::{EvictionPolicy, FileCache};
use crate::counters;
use crate::freelist::ExtentAllocator;
use crate::gclog;
use crate::groupcommit::{BatchCaps, GroupCommitter};
use crate::layout::{DiskDescriptor, Inode, Residency};
use crate::maintenance;
use crate::table::{InodeTable, RepairPolicy};
use crate::BulletError;

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
    /// Which check-field protection scheme to run (see `amoeba_cap::check`).
    pub scheme: SchemeKind,
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
    /// clamped to a whole number of disk blocks (minimum one block).
    pub segment_size: u32,
    /// Overlap disk and wire time segment by segment on multi-segment
    /// transfers (cold reads towards the wire, creates from it).  When
    /// off, transfers are staged whole — disk then wire — as the seed
    /// implementation did.
    pub pipeline: bool,
    /// Span tracing (see [`amoeba_sim::trace`]).  [`TraceConfig::off`],
    /// the default, is free: the data path never touches the clock or
    /// allocates on its behalf.  [`TraceConfig::enabled`] records a span
    /// tree of every operation — timestamps come from the simulated
    /// clock, so the recorded times are the charged times, exactly.
    pub trace: TraceConfig,
    /// Blocks reserved at the tail of the data area as the group-commit
    /// log region.  `0` (the default) disables the log entirely: every
    /// create takes the direct per-file path, byte-identical to earlier
    /// releases.  When enabled, concurrent small creates are batched into
    /// single sequential, checksummed, fully mirrored log appends, and
    /// idle-time maintenance later migrates each file to its contiguous
    /// first-fit home.
    pub log_blocks: u64,
    /// Time-series telemetry (see [`amoeba_sim::timeseries`]).
    /// [`TelemetryConfig::off`], the default, is free — the data path
    /// never reads the clock or allocates for it, so the timeline is
    /// bit-identical to a build without telemetry.  Enabled, the server
    /// samples layer gauges (cache occupancy, allocator fragmentation,
    /// log residency, group-commit batch occupancy, per-disk queue depth
    /// and arm position) into fixed-capacity ring buffers once per
    /// period, readable live through the `MONITOR` RPC.
    pub telemetry: TelemetryConfig,
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
            scheme: SchemeKind::Mac,
            rng_seed: 0x1a2b,
            repair: RepairPolicy::Fail,
            max_age: 8,
            eviction: EvictionPolicy::Lru,
            segment_size: 64 * 1024,
            pipeline: true,
            trace: TraceConfig::off(),
            log_blocks: 0,
            telemetry: TelemetryConfig::off(),
            accounting: ClientAccounting::off(),
            shard: crate::shard::ShardSlot::solo(),
            archive_blocks: 0,
            tier_high_water_pct: 75,
            maint_idle_request_delta: 0,
            maint_moves_per_tick: 1,
        }
    }
}

/// The capability protection scheme a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchemeKind {
    /// The scheme the paper sketches: a server-secret MAC over
    /// (object, rights, random).  Restriction needs a server round-trip.
    #[default]
    Mac,
    /// The published Amoeba sparse-capabilities scheme: the owner
    /// capability carries the raw random number, and anyone can restrict
    /// it *client-side* through the public one-way function.
    Amoeba,
}

impl SchemeKind {
    fn build(self, seed: u64) -> Box<dyn CheckScheme> {
        match self {
            SchemeKind::Mac => Box::new(MacScheme::from_seed(seed)),
            SchemeKind::Amoeba => Box::new(AmoebaScheme::new()),
        }
    }
}

/// The inode table and the rnode table, one administration ("the index
/// has no significance on disk, but is used for cache management").  One
/// lock covers both, so a cache entry always belongs to the file now live
/// in its inode slot: every write that rebinds a slot drops the slot's
/// entry in the same exclusive section.
struct Tables {
    inodes: InodeTable,
    cache: FileCache,
}

/// Disk-space allocation state: the extent free list plus the inode
/// random-number generator, both consumed by every create.  One small
/// mutex; never held across I/O.
struct AllocState {
    extents: ExtentAllocator,
    rng: DetRng,
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

/// Where an installed file's identity comes from.
enum Identity {
    /// A new file: the table picks a free slot of this server's stripe
    /// and the allocator's generator draws the check random.
    Fresh,
    /// An adopted file: slot and random are dictated, so every capability
    /// minted before the move keeps verifying.
    Dictated { idx: u32, random: u64 },
}

/// The group-commit log's mutable state: the append-window bookkeeping
/// plus the preallocated contiguous home of every log-resident file.
///
/// Homes are reserved at commit time — one
/// [`ExtentAllocator::alloc_batch`] call per batch, so the whole batch
/// takes the allocator lock once and (when a contiguous run exists) its
/// files will land adjacent after migration.  The map is RAM-only: after
/// a crash log migration re-allocates homes on demand, and the
/// allocator rebuild never sees the forgotten reservations, so no free
/// space leaks across recovery.
struct LogState {
    window: LogWindow,
    homes: HashMap<u32, (u64, u64)>,
}

/// The WORM archive tier's device stack: a write-once wrapper (no exempt
/// region — the inode table stays on the fast tier) over a simulated
/// drive on the shared clock, so archive I/O charges real simulated time
/// at its own device's speed.
pub type ArchiveDevice = WormDisk<SimDisk<RamDisk>>;

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
/// requests overlap.  Cache-hit reads run entirely under shared locks;
/// disk I/O happens under a per-inode in-flight guard only, so slow
/// mirrored writes for one file never stall reads of another.  See the
/// module documentation for the lock hierarchy.
pub struct BulletServer {
    cfg: BulletConfig,
    scheme: Box<dyn CheckScheme>,
    storage: MirroredDisk,
    /// Copy of the immutable on-disk geometry, readable without a lock.
    desc: DiskDescriptor,
    table: RwLock<Tables>,
    alloc: Mutex<AllocState>,
    /// One in-flight lock per inode slot: at most one request at a time
    /// is in its disk phase for any given file.
    inflight: Box<[Mutex<()>]>,
    /// The group-commit log window (`None` when `cfg.log_blocks == 0`).
    /// See the module docs for its place in the lock order.
    log: Option<Mutex<LogState>>,
    /// The create-batching coordinator feeding the log.
    gc: GroupCommitter,
    /// The WORM archive tier (`None` when `cfg.archive_blocks == 0`).
    archive: Option<ArchiveState>,
    /// Serializes inode-block write-through so that the order block
    /// images are snapshotted equals the order they reach the disks: two
    /// files sharing a control block can never clobber each other's inode
    /// on disk with a stale image.
    inode_io: Mutex<()>,
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
    /// Clone of `cfg.trace`'s tracer, hoisted out for the hot paths.
    tracer: Tracer,
    /// Clone of `cfg.telemetry`'s handle, hoisted like the tracer.
    telemetry: Telemetry,
    /// Clone of `cfg.accounting`, hoisted like the tracer.
    accounting: ClientAccounting,
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
        let desc = *table.descriptor();
        let log_start = Self::check_log_geometry(&cfg, &desc)?;
        let log = match log_start {
            Some(ls) => {
                // Break any stale record chain a reused device might hold:
                // the chain can only start at the window's first block.
                storage.write_sync_k(
                    ls,
                    &vec![0u8; desc.block_size as usize],
                    storage.replica_count(),
                )?;
                Some(LogState {
                    window: LogWindow::new(ls, desc.data_end()),
                    homes: HashMap::new(),
                })
            }
            None => None,
        };
        let alloc = ExtentAllocator::new(
            desc.data_start(),
            log_start.unwrap_or_else(|| desc.data_end()),
        );
        Self::check_archive_geometry(&cfg, &desc)?;
        let archive = Self::build_archive(&cfg, desc.block_size);
        Ok(BulletServer::assemble(
            cfg, storage, table, alloc, log, archive,
        ))
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

    /// Builds a fresh archive tier when the configuration enables one.
    /// The whole device is write-once (exempt prefix 0 — inodes stay on
    /// the fast tier), segmented at the streaming segment size so
    /// fully-burned segments can be sealed.
    fn build_archive(cfg: &BulletConfig, block_size: u32) -> Option<ArchiveState> {
        (cfg.archive_blocks > 0).then(|| ArchiveState {
            dev: Arc::new(WormDisk::with_segments(
                SimDisk::new(
                    RamDisk::new(block_size, cfg.archive_blocks),
                    cfg.clock.clone(),
                    DiskProfile::scsi_1989(),
                ),
                0,
                (cfg.segment_size as u64 / block_size as u64).max(1),
            )),
            recall_q: Mutex::new(BTreeSet::new()),
        })
    }

    /// Validates `cfg.log_blocks` against the formatted geometry and
    /// returns the log window's first block (`None` when disabled).
    fn check_log_geometry(
        cfg: &BulletConfig,
        desc: &DiskDescriptor,
    ) -> Result<Option<u64>, BulletError> {
        if cfg.log_blocks == 0 {
            return Ok(None);
        }
        if gclog::max_entries(desc.block_size as usize) == 0 {
            return Err(BulletError::Corrupt(format!(
                "a {}-byte block cannot hold a log record naming one file",
                desc.block_size
            )));
        }
        let data = desc.data_end() - desc.data_start();
        if cfg.log_blocks >= data {
            return Err(BulletError::Corrupt(format!(
                "log region of {} blocks leaves no data area (data blocks: {data})",
                cfg.log_blocks
            )));
        }
        Ok(Some(desc.data_end() - cfg.log_blocks))
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

    fn assemble(
        cfg: BulletConfig,
        storage: MirroredDisk,
        mut table: InodeTable,
        extents: ExtentAllocator,
        log: Option<LogState>,
        archive: Option<ArchiveState>,
    ) -> BulletServer {
        // Stripe the free list before the table is published: a sharded
        // instance only ever mints object numbers that hash back to it,
        // so the stripe must be in force before the first create.
        table.set_stripe(cfg.shard.index, cfg.shard.count);
        // Ages live in RAM only: every file a restart finds starts a full
        // countdown (generous, as the original server was).
        for (idx, _) in table.live() {
            table.arm(idx, cfg.max_age);
        }
        // One tracer, shared by every layer: the cache's lookup instants,
        // the mirror's replica spans, and the server's op spans all join
        // the same tree.
        let tracer = cfg.trace.tracer().clone();
        let telemetry = cfg.telemetry.telemetry().clone();
        let accounting = cfg.accounting.clone();
        let mut cache = FileCache::with_policy_seeded(
            cfg.cache_capacity,
            cfg.rnode_slots,
            cfg.eviction,
            Self::EVICTION_SEED,
        );
        cache.set_tracer(tracer.clone());
        storage.set_tracer(tracer.clone());
        let slots = table.descriptor().inode_slots();
        BulletServer {
            scheme: cfg.scheme.build(cfg.scheme_seed),
            desc: *table.descriptor(),
            table: RwLock::new(Tables {
                inodes: table,
                cache,
            }),
            alloc: Mutex::new(AllocState {
                extents,
                rng: DetRng::new(cfg.rng_seed),
            }),
            inflight: (0..slots).map(|_| Mutex::new(())).collect(),
            log: log.map(Mutex::new),
            gc: GroupCommitter::new(),
            archive,
            inode_io: Mutex::new(()),
            maintenance: RwLock::new(()),
            requests_seen: LaneCounter::default(),
            compact_mark: std::sync::atomic::AtomicU64::new(0),
            cfg,
            storage,
            stats: Stats::new(),
            locks: Stats::new(),
            tracer,
            telemetry,
            accounting,
        }
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
    /// # Errors
    ///
    /// Disk errors; [`BulletError::Corrupt`] under [`RepairPolicy::Fail`]
    /// if any inode is out of bounds or files overlap.
    ///
    /// With `cfg.archive_blocks > 0` a *fresh* (empty) archive device is
    /// built: archived inodes stay valid and the append cursor is
    /// restored past their extents, but their bytes are gone — WORM media
    /// survives a crash physically, so a real restart re-adopts the
    /// platter via [`recover_with_archive`](Self::recover_with_archive).
    pub fn recover(cfg: BulletConfig, storage: MirroredDisk) -> Result<BulletServer, BulletError> {
        Self::recover_inner(cfg, storage, None)
    }

    /// [`recover`](Self::recover), re-adopting a surviving WORM archive
    /// device (grabbed via [`archive_device`](Self::archive_device)
    /// before the crash): archived files keep their bytes, and the
    /// append cursor can only move forward.
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
        archive_dev: Option<Arc<ArchiveDevice>>,
    ) -> Result<BulletServer, BulletError> {
        let report = InodeTable::load_with_archive(&storage, cfg.repair, cfg.archive_blocks)?;
        let mut table = report.table;
        let desc = *table.descriptor();
        let log_start = Self::check_log_geometry(&cfg, &desc)?;
        let alloc_end = log_start.unwrap_or_else(|| desc.data_end());

        // Log replay, before the allocator rebuild: walk the checksummed
        // record chain (a torn tail fails its checksum and is dropped
        // whole, like ABL13's torn inodes).  Only the last valid record
        // can name files whose inode write-through had not landed at the
        // crash — the commit protocol holds the log mutex until a
        // record's inodes are durable, so every earlier record's files
        // are already in the loaded table.  Reinstall exactly the last
        // record's entries whose slot is still free; an occupied slot
        // means the inode landed (or was since migrated / reused) and
        // must not be clobbered.
        let mut log = None;
        if let Some(ls) = log_start {
            let bs = desc.block_size as usize;
            let scan = gclog::scan_chain(bs, ls, desc.data_end(), &mut |b, buf| {
                storage.read_blocks(b, buf).is_ok()
            });
            let mut unsealed: Vec<u32> = Vec::new();
            if let Some(last) = scan.records.last() {
                unsealed = last.entries.iter().map(|e| e.index).collect();
                let offs = gclog::entry_payload_offsets(bs as u64, &last.entries);
                let mut touched = BTreeSet::new();
                for (e, off) in last.entries.iter().zip(offs) {
                    let inode = Inode {
                        random: e.random,
                        index: 0,
                        start_block: (last.at + off) as u32,
                        size_bytes: e.size_bytes,
                    };
                    if table.install(e.index, inode).is_ok() {
                        touched.insert(table.block_of(e.index));
                    }
                }
                // Complete the interrupted write-through so the replayed
                // batch is durable in the table again.
                for b in touched {
                    storage.write_sync_k(b, &table.block_image(b), storage.replica_count())?;
                }
            }
            let (resident, resident_bytes) = table
                .live()
                .filter(|(_, ino)| Self::residency(&cfg, &desc, ino) == Some(Residency::Log))
                .fold((0u64, 0u64), |(n, by), (_, ino)| {
                    (n + 1, by + ino.size_bytes as u64)
                });
            let mut window = LogWindow::new(ls, desc.data_end());
            window.restore(scan.head, scan.last_seq, resident, resident_bytes, unsealed);
            // Homes are re-allocated on demand by log migration; the
            // pre-crash reservations evaporate with the allocator rebuild.
            log = Some(LogState {
                window,
                homes: HashMap::new(),
            });
        }

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
        let alloc = match ExtentAllocator::from_used(desc.data_start(), alloc_end, &data_used) {
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

        Self::check_archive_geometry(&cfg, &desc)?;
        let archive = match archive_dev {
            Some(dev) => Some(ArchiveState {
                dev,
                recall_q: Mutex::new(BTreeSet::new()),
            }),
            None => Self::build_archive(&cfg, desc.block_size),
        };
        if let Some(arch) = &archive {
            // The append cursor must clear every archived extent the
            // table still references — even on a fresh device, so future
            // demotions never burn over a slot recovery believes is
            // taken.  `restore_append_pos` never rewinds, so a surviving
            // device keeps its own (equal or later) cursor.
            let past_used = table
                .live()
                .filter_map(|(_, ino)| match Self::residency(&cfg, &desc, ino) {
                    Some(Residency::Archive { block }) => Some(block + ino.blocks(desc.block_size)),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            arch.dev.restore_append_pos(past_used);
        }

        let server = BulletServer::assemble(cfg, storage, table, alloc, log, archive);
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
        let mut op = self.tracer.span("bullet.create");
        op.attr("op", "create");
        op.attr("bytes", data.len());
        op.attr("p_factor", p_factor);
        self.charge_request();
        if p_factor as usize > self.storage.replica_count() {
            return Err(BulletError::BadPFactor {
                requested: p_factor,
                disks: self.storage.replica_count() as u32,
            });
        }
        let size: u32 = data.len().try_into().map_err(|_| BulletError::TooLarge {
            size: data.len() as u64,
            cache_capacity: self.cfg.cache_capacity,
        })?;
        // Charged here, on the request thread: the group-commit leader
        // below may write *other* clients' payloads, which must not be
        // billed to whoever happened to lead the flush.
        self.accounting.charge_current(|u| {
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
        if self.log.is_some() && wire.is_none() && data.len() as u64 <= Self::LOG_BATCH_MAX_BYTES {
            op.attr("grouped", true);
            return self
                .gc
                .submit(data, self.batch_caps(), |batch| self.gc_commit(batch));
        }
        self.create_direct(&mut op, data, size, p_factor, wire)
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
        let pipelined = self.cfg.pipeline && data.len() as u64 > self.segment_bytes();
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
        let (idx, random) = self.install(Identity::Fresh, &data, size, k, pipelined, wire)?;
        self.stats.incr(counters::CREATES);
        self.stats.add(counters::BYTES_CREATED, size as u64);
        Ok(self.scheme.mint(
            self.cfg.port,
            ObjNum::new(idx).expect("inode index fits 24 bits"),
            Rights::ALL,
            random,
        ))
    }

    /// The file-install protocol, written once: reserve an extent
    /// first-fit, publish the inode in the RAM table, insert into the
    /// cache, then write the data (through the segment pipeline when
    /// `pipelined`, fed from `wire` if there is one) and the inode's control
    /// block through to `k` replicas.  The inode block write is the commit point — a crash
    /// before it leaves a free slot on disk, and recovery's allocator
    /// rebuild never sees the half-written extent.  Every failure rolls
    /// back exactly the stages already taken, so no half-created file
    /// remains.  Returns the slot and check random the file lives under.
    fn install(
        &self,
        identity: Identity,
        data: &Bytes,
        size: u32,
        k: usize,
        pipelined: bool,
        wire: Option<&StreamWire>,
    ) -> Result<(u32, u64), BulletError> {
        let blocks = (size as u64).div_ceil(self.desc.block_size as u64).max(1);

        // Installs may overlap each other, but not a running compaction.
        let _m = self.maint_read();

        // Reserve the extent and settle the check random under the
        // allocation lock alone.
        let (start, random) = {
            let mut al = self.alloc_lock();
            let start = al.extents.alloc(blocks).ok_or(BulletError::NoSpace)?;
            let random = match identity {
                Identity::Fresh => al.draw_random(),
                Identity::Dictated { random, .. } => random,
            };
            (start, random)
        };
        // Every failure from here on hands the reservation back.
        let release_extent = || {
            self.alloc_lock()
                .extents
                .free(start, blocks)
                .expect("just allocated")
        };
        let inode = Inode {
            random,
            index: 0,
            start_block: start as u32,
            size_bytes: size,
        };

        // Publish the inode in the RAM table.
        let idx = {
            let mut t = self.table_write();
            match identity {
                Identity::Fresh => t.inodes.alloc(inode),
                Identity::Dictated { idx, .. } => t.inodes.install(idx, inode).map(|()| idx),
            }
        }
        .inspect_err(|_| release_extent())?;

        // The disk phase runs under this file's in-flight guard only:
        // other requests keep flowing while the mirrored writes complete.
        let _busy = self.inflight_lock(idx);

        // Into the RAM cache, and the age starts: only now, under the
        // in-flight guard, may `age_all` pick the file.  The clone is a
        // reference-count bump on the shared payload buffer, not a copy:
        // the cache and the caller hold the same bytes (asserted by
        // `cache_insert_shares_the_payload_buffer`).
        let cached = {
            let mut t = self.table_write();
            self.cache_insert(&mut t.cache, idx, data.clone())
                .map(|()| t.inodes.arm(idx, self.cfg.max_age))
                .inspect_err(|_| drop(t.inodes.clear(idx)))
        };
        cached.inspect_err(|_| release_extent())?;

        // Write-through: file data, then the inode's whole block.
        let write = if pipelined {
            self.stats.incr(counters::PIPELINED_CREATES);
            self.write_data_pipelined(start, blocks, data, k, wire)
        } else {
            self.write_data_blocks(start, blocks, data, k)
        }
        .and_then(|()| self.write_inode_block(idx, k));
        if let Err(e) = write {
            {
                let mut t = self.table_write();
                t.cache.remove(idx);
                let _ = t.inodes.clear(idx);
            }
            release_extent();
            return Err(e);
        }
        Ok((idx, random))
    }

    /// Deterministic batched create: stores `files` through the
    /// group-commit log in argument order, forming batches by *position*
    /// (up to the configured file/byte caps) rather than by arrival
    /// timing.  Returns one capability per file, in input order.
    ///
    /// This is the benchmark and ablation entry point: unlike concurrent
    /// [`create`](Self::create) calls racing into the shared committer —
    /// whose batch composition depends on thread scheduling — the batches
    /// formed here are a pure function of the input, so two identical
    /// runs charge identical simulated time and write identical records.
    ///
    /// With the log disabled this degrades to sequential creates; files
    /// above [`LOG_BATCH_MAX_BYTES`](Self::LOG_BATCH_MAX_BYTES) take the
    /// direct path.
    /// Grouped files are durable on every replica when the call returns.
    ///
    /// # Errors
    ///
    /// As [`create`](Self::create).  On the first error the call aborts;
    /// files from batches already committed remain live (sweep them via
    /// [`list_live_caps`](Self::list_live_caps) if needed).
    pub fn create_batch(
        &self,
        files: Vec<Bytes>,
        p_factor: u32,
    ) -> Result<Vec<Capability>, BulletError> {
        if p_factor as usize > self.storage.replica_count() {
            return Err(BulletError::BadPFactor {
                requested: p_factor,
                disks: self.storage.replica_count() as u32,
            });
        }
        if self.log.is_none() {
            return files
                .into_iter()
                .map(|d| self.create(d, p_factor))
                .collect();
        }
        let caps = self.batch_caps();
        let mut out = Vec::with_capacity(files.len());
        let mut pending: Vec<Bytes> = Vec::new();
        let mut pending_bytes = 0u64;
        for data in files {
            let size: u32 = data.len().try_into().map_err(|_| BulletError::TooLarge {
                size: data.len() as u64,
                cache_capacity: self.cfg.cache_capacity,
            })?;
            self.charge_request();
            if data.len() as u64 > Self::LOG_BATCH_MAX_BYTES {
                // Oversized: flush what's queued (order!), then go direct.
                self.flush_chunk(&mut pending, &mut pending_bytes, &mut out)?;
                let mut op = self.tracer.span("bullet.create");
                op.attr("op", "create");
                op.attr("bytes", data.len());
                out.push(self.create_direct(&mut op, data, size, p_factor, None)?);
                continue;
            }
            if pending.len() == caps.max_files || pending_bytes + data.len() as u64 > caps.max_bytes
            {
                self.flush_chunk(&mut pending, &mut pending_bytes, &mut out)?;
            }
            pending_bytes += data.len() as u64;
            pending.push(data);
        }
        self.flush_chunk(&mut pending, &mut pending_bytes, &mut out)?;
        Ok(out)
    }

    /// Commits `pending` (if any) as one group-commit batch, appending
    /// the minted capabilities to `out`.
    fn flush_chunk(
        &self,
        pending: &mut Vec<Bytes>,
        pending_bytes: &mut u64,
        out: &mut Vec<Capability>,
    ) -> Result<(), BulletError> {
        if pending.is_empty() {
            return Ok(());
        }
        *pending_bytes = 0;
        let mut op = self.tracer.span("bullet.create_batch");
        op.attr("op", "create_batch");
        op.attr("files", pending.len());
        for r in self.gc_commit(std::mem::take(pending)) {
            out.push(r?);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The group-commit log (create batching).
    // ------------------------------------------------------------------

    /// Simulated linger window (250 µs) charged once per group-commit
    /// flush by [`gc_commit`](Self::gc_commit): the time the flush leader
    /// waits for straggler creates to join the batch before issuing the
    /// append.  Not a knob — nothing ever ran with another value.
    const LOG_LINGER: Nanos = Nanos(250_000);

    /// Maximum files per group-commit record (additionally clamped to
    /// what one record header block can name).  Not a knob — nothing
    /// ever ran with another value.
    pub const LOG_BATCH_MAX_FILES: usize = 32;

    /// Maximum total payload bytes per group-commit record; also the
    /// largest single create eligible for the log path — bigger files go
    /// direct, where the pipelined path already amortizes their cost.
    pub const LOG_BATCH_MAX_BYTES: u64 = 256 * 1024;

    /// Per-batch caps handed to the committer: the file cap clamped to
    /// what one record header block can name, the byte cap, and a short
    /// *host-time* linger for the threaded path (the simulated
    /// counterpart is [`LOG_LINGER`](Self::LOG_LINGER)).
    fn batch_caps(&self) -> BatchCaps {
        BatchCaps {
            max_files: Self::LOG_BATCH_MAX_FILES
                .min(gclog::max_entries(self.desc.block_size as usize)),
            max_bytes: Self::LOG_BATCH_MAX_BYTES,
            linger: std::time::Duration::from_micros(300),
        }
    }

    /// Commits one batch as a single sequential, checksummed, fully
    /// mirrored log append — the create path's tentpole.  One record
    /// (header block + block-aligned payloads) replaces per-file data
    /// writes, and the batch's inode write-through collapses to one write
    /// per *distinct* control block; the whole batch takes the allocator
    /// lock once ([`ExtentAllocator::alloc_batch`] reserves every file's
    /// future contiguous home up front).
    ///
    /// The log mutex is held across the entire commit (see the module
    /// docs): the record append is the durability point, and the inodes
    /// are on disk before the next record can append, which is what lets
    /// crash replay reinstall only the chain's last record.  Returns one
    /// result per file, in order; on any failure the batch rolls back
    /// whole — no half-committed batch is ever visible or recoverable.
    fn gc_commit(&self, batch: Vec<Bytes>) -> Vec<Result<Capability, BulletError>> {
        let n = batch.len();
        debug_assert!(n > 0, "committer never flushes an empty batch");
        let bs = self.desc.block_size;
        let k = self.storage.replica_count();
        let sizes: Vec<u32> = batch.iter().map(|d| d.len() as u32).collect();
        let lens: Vec<u64> = sizes
            .iter()
            .map(|&s| gclog::payload_blocks_for(bs as u64, s))
            .collect();
        let rec_blocks = 1 + lens.iter().sum::<u64>();
        let total_bytes: u64 = sizes.iter().map(|&s| s as u64).sum();

        let maint = self.maint_read();
        let mut st = self.log_lock();

        // Reserve the record, keeping one spare block behind it so a seal
        // record can always append while this batch is the newest (see
        // `log_seal_locked`).
        let reserved = if st.window.remaining() > rec_blocks {
            st.window.reserve(rec_blocks)
        } else {
            None
        };
        let Some((at, seq)) = reserved else {
            // Window full (migration has fallen behind) or the batch is
            // bigger than the window: fall back to the direct per-file
            // path.  Drop the guards first — create_direct retakes them.
            drop(st);
            drop(maint);
            return batch
                .into_iter()
                .map(|d| {
                    let size = d.len() as u32;
                    let mut op = self.tracer.span("bullet.create");
                    op.attr("op", "create");
                    op.attr("bytes", d.len());
                    op.attr("log_fallback", true);
                    self.create_direct(&mut op, d, size, k as u32, None)
                })
                .collect();
        };

        // One allocator acquisition for the whole batch: the contiguous
        // homes the files will migrate to, plus their check randoms.
        let alloc_res = {
            let mut al = self.alloc_lock();
            al.extents.alloc_batch(&lens).map(|homes| {
                let randoms: Vec<u64> = (0..n).map(|_| al.draw_random()).collect();
                (homes, randoms)
            })
        };
        let Some((homes, randoms)) = alloc_res else {
            st.window.unreserve(at, seq);
            return vec![Err(BulletError::NoSpace); n];
        };
        let free_homes = |server: &BulletServer| {
            let mut al = server.alloc_lock();
            for (&s, &l) in homes.iter().zip(&lens) {
                let _ = al.extents.free(s, l);
            }
        };

        // Publish the inodes in the RAM table.  Their extents point into
        // the log window; idle-time migration repoints them at `homes`.
        let mut idxs: Vec<u32> = Vec::with_capacity(n);
        {
            let mut t = self.table_write();
            let mut off = at + 1;
            for i in 0..n {
                let inode = Inode {
                    random: randoms[i],
                    index: 0,
                    start_block: off as u32,
                    size_bytes: sizes[i],
                };
                match t.inodes.alloc(inode) {
                    Ok(idx) => {
                        idxs.push(idx);
                        off += lens[i];
                    }
                    Err(e) => {
                        for &p in &idxs {
                            let _ = t.inodes.clear(p);
                        }
                        drop(t);
                        free_homes(self);
                        st.window.unreserve(at, seq);
                        return vec![Err(e); n];
                    }
                }
            }
        }

        // Assemble and append the record — the commit point.  One
        // sequential mirrored write: one seek, amortized over the batch.
        let entries: Vec<gclog::LogEntry> = (0..n)
            .map(|i| gclog::LogEntry {
                index: idxs[i],
                random: randoms[i],
                size_bytes: sizes[i],
            })
            .collect();
        let payloads: Vec<&[u8]> = batch.iter().map(|d| &d[..]).collect();
        let image = gclog::encode_record(bs as usize, seq, &entries, &payloads);
        {
            // The linger window the batch accumulated over, plus the
            // assembly copy into the record image.
            let mut s = self.tracer.span("gc.flush");
            s.attr("files", n);
            s.attr("bytes", total_bytes);
            self.cfg.clock.advance(Self::LOG_LINGER);
            self.cfg.clock.advance(self.cfg.cpu.memcpy(total_bytes));
        }
        self.stats.add(counters::PAYLOAD_BYTES_COPIED, total_bytes);
        if let Err(e) = self.storage.write_sync_k(at, &image, k) {
            {
                let mut t = self.table_write();
                for &idx in &idxs {
                    let _ = t.inodes.clear(idx);
                }
            }
            free_homes(self);
            st.window.unreserve(at, seq);
            return vec![Err(BulletError::from(e)); n];
        }
        self.stats.incr(counters::LOG_APPENDS);
        self.stats.incr(counters::GROUP_COMMIT_FLUSHES);
        self.stats.add(counters::LOG_BATCH_FILES, n as u64);
        self.stats.add(counters::LOG_RESIDENT_BYTES, total_bytes);

        // Into the RAM cache, each age armed.  A cache refusal is not fatal
        // here: the file is already durable in the log — it merely starts
        // cold.
        {
            let mut t = self.table_write();
            let Tables { inodes, cache } = &mut *t;
            for (i, &idx) in idxs.iter().enumerate() {
                let _ = self.cache_insert(cache, idx, batch[i].clone());
                inodes.arm(idx, self.cfg.max_age);
            }
        }

        // Inode write-through, deduplicated: the batch's inodes cluster in
        // few control blocks — write each *distinct* block once.  (This is
        // what keeps the whole batch at ~2 physical I/Os.)
        let inode_write = {
            let _io = self.inode_io_lock();
            let images: Vec<(u64, Vec<u8>)> = {
                let t = self.table_read();
                let blocks: BTreeSet<u64> = idxs.iter().map(|&i| t.inodes.block_of(i)).collect();
                blocks
                    .into_iter()
                    .map(|b| (b, t.inodes.block_image(b)))
                    .collect()
            };
            images
                .into_iter()
                .try_for_each(|(b, img)| self.storage.write_sync_k(b, &img, k).map(|_| ()))
        };
        if let Err(e) = inode_write {
            // The record is durable but the inodes never were: roll the
            // RAM state back, then seal the chain (best effort, in place)
            // so a later crash cannot resurrect the rolled-back batch.
            {
                let mut t = self.table_write();
                for &idx in &idxs {
                    t.cache.remove(idx);
                    let _ = t.inodes.clear(idx);
                }
            }
            free_homes(self);
            st.window.unreserve(at, seq);
            if let Some((sat, sseq)) = st.window.reserve(1) {
                let seal = gclog::encode_record(bs as usize, sseq, &[], &[]);
                let _ = self.storage.write_sync_k(sat, &seal, k);
                st.window.unreserve(sat, sseq);
            }
            return vec![Err(BulletError::from(e)); n];
        }

        // Committed: bookkeeping and capabilities.
        st.window.note_batch(&idxs, total_bytes);
        for i in 0..n {
            st.homes.insert(idxs[i], (homes[i], lens[i]));
        }
        self.stats.add(counters::CREATES, n as u64);
        self.stats.add(counters::BYTES_CREATED, total_bytes);
        (0..n)
            .map(|i| {
                Ok(self.scheme.mint(
                    self.cfg.port,
                    ObjNum::new(idxs[i]).expect("inode index fits 24 bits"),
                    Rights::ALL,
                    randoms[i],
                ))
            })
            .collect()
    }

    /// Appends an empty *seal* record (caller holds the log guard),
    /// advancing the chain so crash replay will not reinstall any earlier
    /// record.  Called before destroying a file of the newest batch —
    /// once its inode is zeroed on disk, replay would otherwise see a
    /// free slot named by a valid record and resurrect the file.
    fn log_seal_locked(&self, st: &mut LogState) -> Result<(), BulletError> {
        let Some((at, seq)) = st.window.reserve(1) else {
            // Unreachable by the spare-block invariant: every commit
            // leaves one free block behind its record while it is newest.
            debug_assert!(false, "no room for a seal record");
            st.window.seal();
            return Ok(());
        };
        let seal = gclog::encode_record(self.desc.block_size as usize, seq, &[], &[]);
        if let Err(e) = self
            .storage
            .write_sync_k(at, &seal, self.storage.replica_count())
        {
            // Abort the caller before it destroys anything.
            st.window.unreserve(at, seq);
            return Err(e.into());
        }
        st.window.seal();
        self.stats.incr(counters::LOG_APPENDS);
        Ok(())
    }

    /// Moves the lowest-addressed log-resident file to its contiguous
    /// data-area home — preallocated at commit, or allocated now if the
    /// reservation was lost to a crash (homes are RAM-only).  The caller
    /// holds the maintenance guard and the log guard.  Returns the moved
    /// inode index, or `None` when the window holds no live files.
    ///
    /// The index stays in the window's unsealed set — its slot remains
    /// live, so replay skips it, and a later delete still seals the chain.
    fn migrate_one_log_file(&self, st: &mut LogState) -> Result<Option<u32>, BulletError> {
        let picked = {
            let t = self.table_read();
            t.inodes
                .live()
                .filter(|&(_, inode)| self.residency_of(inode) == Ok(Residency::Log))
                .min_by_key(|&(_, inode)| inode.start_block)
                .map(|(i, inode)| (i, *inode))
        };
        let Some((idx, inode)) = picked else {
            return Ok(None);
        };
        let _busy = self.inflight_lock(idx);
        let blocks = inode.blocks(self.desc.block_size);
        let home = match st.homes.remove(&idx) {
            Some(h) => h,
            None => {
                let start = self
                    .alloc_lock()
                    .extents
                    .alloc(blocks)
                    .ok_or(BulletError::NoSpace)?;
                (start, blocks)
            }
        };
        debug_assert_eq!(home.1, blocks, "home reservation matches the extent");
        if let Err(e) = self.move_extent(idx, &inode, home.0) {
            // Keep the reservation for the retry.
            st.homes.insert(idx, home);
            return Err(e);
        }
        if st.window.file_gone(inode.size_bytes as u64) {
            st.window.reset();
        }
        self.stats.incr(counters::LOG_MIGRATIONS);
        Ok(Some(idx))
    }

    /// The extent-move protocol, written once: copy `inode`'s immutable
    /// extent to `to_start`, flip the table entry, write the inode block
    /// through to every replica.  The inode write is the commit point:
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
                let buf = self.read_whole_extent(inode)?;
                self.storage.write_sync_k(to_start, &buf, k)?;
            }
            // Nothing moves *into* the log window: records are appended.
            Residency::Log => {
                return Err(BulletError::Corrupt(format!(
                    "extent move into the log window (block {to_start})"
                )))
            }
        }
        self.table_write().inodes.get_mut(idx)?.start_block = moved.start_block;
        if let Err(e) = self.write_inode_block(idx, k) {
            self.table_write().inodes.get_mut(idx)?.start_block = inode.start_block;
            return Err(e);
        }
        Ok(())
    }

    /// Reads `inode`'s whole block-padded extent off whichever device its
    /// [`Residency`] names, in one I/O.
    fn read_whole_extent(&self, inode: &Inode) -> Result<Vec<u8>, BulletError> {
        let block_size = self.desc.block_size;
        let mut buf = vec![0u8; (inode.blocks(block_size) * block_size as u64) as usize];
        match self.residency_of(inode)? {
            Residency::Archive { block } => self.archive_tier().dev.read_blocks(block, &mut buf)?,
            Residency::Home | Residency::Log => self
                .storage
                .read_blocks(inode.start_block as u64, &mut buf)?,
        }
        Ok(buf)
    }

    /// `BULLET.SIZE(CAPABILITY) → SIZE`.
    ///
    /// # Errors
    ///
    /// Capability or lookup failures.
    pub fn size(&self, cap: &Capability) -> Result<u32, BulletError> {
        let mut op = self.tracer.span("bullet.size");
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
        let mut op = self.tracer.span("bullet.read");
        op.attr("op", "read");
        self.charge_request();
        let idx = cap.object.value();
        // Fast path: verification and the cache hit share one read guard,
        // so concurrent cache-hot reads never serialize, and the entry
        // found is the verified file's.  The guard is gone before the
        // miss path, whose fill takes the write guard.
        let hit = {
            let t = self.table_read();
            self.verify(&t.inodes, cap, Rights::READ)?;
            t.cache.get(idx)
        };
        if let Some(data) = hit {
            self.stats.incr(counters::READS);
            op.attr("bytes", data.len());
            self.accounting.charge_current(|u| {
                u.cache_hits += 1;
                u.bytes_read += data.len() as u64;
            });
            return Ok(data);
        }
        let data = self.load_cold(cap, idx, Rights::READ, wire, 0, u64::MAX)?;
        self.stats.incr(counters::READS);
        op.attr("bytes", data.len());
        self.accounting.charge_current(|u| {
            u.cache_misses += 1;
            u.disk_ios += 1;
            u.bytes_read += data.len() as u64;
        });
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
    pub fn read_section_streamed(
        &self,
        cap: &Capability,
        offset: u32,
        len: u32,
        wire: Option<&StreamWire>,
    ) -> Result<Bytes, BulletError> {
        let mut op = self.tracer.span("bullet.read_section");
        op.attr("op", "read_section");
        op.attr("bytes", len);
        self.charge_request();
        let idx = cap.object.value();
        // One read guard, dropped before the miss arm, as in `read`.
        let (end, hit) = {
            let t = self.table_read();
            let size = self.verify(&t.inodes, cap, Rights::READ)?.size_bytes;
            let end = offset.checked_add(len).filter(|&e| e <= size);
            (end.ok_or(BulletError::BadRange)?, t.cache.get(idx))
        };
        let was_hit = hit.is_some();
        let data = match hit {
            Some(d) => d.slice(offset as usize..end as usize),
            None => self
                .load_cold(cap, idx, Rights::READ, wire, offset as u64, end as u64)?
                .slice(offset as usize..end as usize),
        };
        self.stats.incr(counters::SECTION_READS);
        self.accounting.charge_current(|u| {
            if was_hit {
                u.cache_hits += 1;
            } else {
                u.cache_misses += 1;
                u.disk_ios += 1;
            }
            u.bytes_read += data.len() as u64;
        });
        Ok(data)
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
        let mut op = self.tracer.span("bullet.delete");
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
    /// Write order: seal the log chain if needed → zero the inode (and
    /// with it the age) in RAM → drop the cache copy → write the zeroed
    /// inode block through to every replica (the commit point) → release
    /// the slot and free the space the file's [`Residency`] says it owned.
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
            if st.window.is_unsealed(idx) {
                self.log_seal_locked(st)?;
            }
        }
        {
            let mut t = self.table_write();
            t.inodes.clear_keep_slot(idx)?;
            t.cache.remove(idx);
        }
        // Destruction is always written through to all disks.  The inode
        // slot and the extent return to the free lists only afterwards,
        // so neither can be reallocated while the zeroed inode is still
        // in flight (on error they return anyway: the RAM table no
        // longer references them, and recovery rebuilds from disk).
        let write = self.write_inode_block(idx, self.storage.replica_count());
        if release_slot {
            self.table_write().inodes.release_slot(idx);
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
                if let Some((hs, hl)) = st.homes.remove(&idx) {
                    self.alloc_lock().extents.free(hs, hl)?;
                }
                if st.window.file_gone(inode.size_bytes as u64) {
                    st.window.reset();
                }
            }
            Residency::Home => {
                let blocks = inode.blocks(self.desc.block_size);
                self.alloc_lock()
                    .extents
                    .free(inode.start_block as u64, blocks)?;
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
    pub fn export_object(&self, idx: u32) -> Result<(u64, Bytes), BulletError> {
        let mut op = self.tracer.span("bullet.export_object");
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
        let mut buf = self.read_whole_extent(&inode)?;
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
    pub fn adopt_object(&self, idx: u32, random: u64, data: Bytes) -> Result<(), BulletError> {
        let mut op = self.tracer.span("bullet.adopt_object");
        op.attr("op", "adopt_object");
        op.attr("bytes", data.len());
        let size: u32 = data.len().try_into().map_err(|_| BulletError::TooLarge {
            size: data.len() as u64,
            cache_capacity: self.cfg.cache_capacity,
        })?;
        let identity = Identity::Dictated { idx, random };
        let k = self.storage.replica_count();
        self.install(identity, &data, size, k, false, None)?;
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
    pub fn retire_object(&self, idx: u32) -> Result<(), BulletError> {
        let mut op = self.tracer.span("bullet.retire_object");
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
        let mut op = self.tracer.span("bullet.modify");
        op.attr("op", "modify");
        op.attr("bytes", data.len());
        let idx = cap.object.value();
        // One read guard, dropped before the miss arm, as in `read`.
        let hit = {
            let t = self.table_read();
            self.verify(&t.inodes, cap, Rights::READ | Rights::MODIFY)?;
            t.cache.get(idx)
        };
        let base = match hit {
            Some(d) => d,
            None => self.load_cold(cap, idx, Rights::READ | Rights::MODIFY, None, 0, u64::MAX)?,
        };
        let new_len = base.len().max(offset as usize + data.len());
        let mut buf = vec![0u8; new_len];
        buf[..base.len()].copy_from_slice(&base);
        buf[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        // The extra server-side copy is charged inside create() as the
        // usual reception copy; charge the read-side copy here.
        self.charge_memcpy(base.len() as u64);
        self.stats
            .add(counters::PAYLOAD_BYTES_COPIED, base.len() as u64);
        self.stats.incr(counters::MODIFIES);
        self.create(Bytes::from(buf), p_factor)
    }

    /// §5 extension: appends by deriving a new file (sugar over
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
        let size = {
            let t = self.table_read();
            self.verify(&t.inodes, cap, Rights::READ | Rights::MODIFY)?
                .size_bytes
        };
        self.modify(cap, size, data, p_factor)
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
        if let Some(mut st) = log.filter(|st| st.window.resident() > 0) {
            if self.migrate_one_log_file(&mut st)?.is_some() {
                return Ok(Some(st.window.resident()));
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
        let seg = self.segment_bytes();
        let total = blocks * block_size;
        let mut pipe =
            Pipeline::with_trace(self.tracer.clone(), &["archive_read", "archive_write"]);
        let mut off = 0u64;
        while off < total {
            let end = (off + seg).min(total);
            let mut buf = vec![0u8; (end - off) as usize];
            pipe.begin_segment();
            let read = pipe.stage(0, || {
                self.storage
                    .read_blocks_low(src + off / block_size, &mut buf)
            });
            if let Err(e) = read {
                // Drop settles the charges accrued so far.
                drop(pipe);
                return Err(e.into());
            }
            let write = pipe.stage(1, || dev.write_blocks(dst + off / block_size, &buf));
            if let Err(e) = write {
                drop(pipe);
                return Err(e.into());
            }
            off = end;
        }
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

    /// The telemetry handle (disabled unless
    /// [`BulletConfig::telemetry`] enabled it) — for flight-recorder
    /// exports and tests.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The per-client accounting table (disabled unless
    /// [`BulletConfig::accounting`] enabled it).
    pub fn accounting(&self) -> &ClientAccounting {
        &self.accounting
    }

    /// The live-monitoring snapshot behind the `MONITOR` RPC: one
    /// versioned JSON object carrying every counter, the tail of each
    /// telemetry ring, the SLO watchdog's event log, and the top
    /// per-client resource consumers.
    ///
    /// The top-level `"monitor_schema"` key versions the wire format;
    /// consumers must check it before parsing further (see DESIGN.md
    /// §14.3).
    pub fn monitor_snapshot(&self) -> String {
        const TAIL: usize = 8;
        const TOP_K: usize = 10;
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
        let series = self.telemetry.series_index().into_iter().map(
            |(name, instance, kind, len, dropped)| {
                let samples = self.telemetry.series(name, instance);
                let tail = samples[samples.len().saturating_sub(TAIL)..]
                    .iter()
                    .map(|s| {
                        Json::object([("t_ns", Json::num(s.at.as_ns())), ("v", Json::num(s.value))])
                    });
                Json::object([
                    ("series", Json::string(name)),
                    ("instance", Json::num(instance)),
                    ("kind", Json::string(kind.label())),
                    ("points", Json::num(len)),
                    ("dropped", Json::num(dropped)),
                    ("tail", Json::array(tail)),
                ])
            },
        );
        // The SLO watchdog's degradation/recovery event log.
        let slo_events = self.telemetry.slo_events().into_iter().map(|e| {
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
        let top = self.accounting.top_k(TOP_K).into_iter().map(|(client, u)| {
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
            ("count", Json::num(self.accounting.len())),
            ("top", Json::array(top)),
        ];
        Json::object([
            ("monitor_schema", Json::num(1)),
            ("now_ns", Json::num(self.cfg.clock.now().as_ns())),
            ("telemetry_enabled", Json::num(self.telemetry.enabled())),
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
    pub fn shard_slot(&self) -> crate::shard::ShardSlot {
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
        table.get_verified(cap, needed, self.scheme.as_ref())
    }

    /// The effective streaming segment: the configured size clamped to a
    /// whole number of disk blocks, minimum one block.
    fn segment_bytes(&self) -> u64 {
        let bs = self.desc.block_size as u64;
        (self.cfg.segment_size as u64 / bs).max(1) * bs
    }

    /// The whole-file cache-miss path: loads the file's extent from disk
    /// into the cache under the per-inode in-flight guard, holding no
    /// table or cache lock during the I/O itself.
    ///
    /// With a wire and a multi-segment file, the load pipelines: segment
    /// `k` comes off the disk while segment `k-1` is on the wire (only the
    /// part inside the byte window `[win_start, win_end)` of the file
    /// travels — the whole file for `BULLET.READ`, the requested range for
    /// a section read).  Segments land directly in the contiguous cache
    /// buffer, so streaming adds no copies.
    fn load_cold(
        &self,
        cap: &Capability,
        idx: u32,
        needed: Rights,
        wire: Option<&StreamWire>,
        win_start: u64,
        win_end: u64,
    ) -> Result<Bytes, BulletError> {
        let _busy = self.inflight_lock(idx);
        // Re-verify: the file may have been deleted, or moved by
        // compaction, before the guard was ours.  The snapshot is stable
        // for the whole I/O because delete/compaction need this guard.
        // Another request may have loaded the file meanwhile; a late hit
        // here does not re-count the miss.
        let (inode, late_hit) = {
            let t = self.table_read();
            (*self.verify(&t.inodes, cap, needed)?, t.cache.recheck(idx))
        };
        if let Some(data) = late_hit {
            return Ok(data);
        }
        let size = inode.size_bytes as u64;
        let archived = matches!(self.residency_of(&inode)?, Residency::Archive { .. });
        let mut buf = if archived {
            // Archive tier: serve the read *from the archive device* — no
            // foreground stall waiting for a copy-back — and schedule the
            // promotion below; the recall rank moves the file to the fast
            // tier on a later idle tick.
            self.read_whole_extent(&inode)?
        } else {
            let block_size = self.desc.block_size;
            let mut buf = vec![0u8; (inode.blocks(block_size) * block_size as u64) as usize];
            self.read_extent(
                inode.start_block as u64,
                &mut buf,
                wire,
                win_start,
                win_end.min(size),
                size,
            )?;
            buf
        };
        buf.truncate(inode.size_bytes as usize);
        let data = Bytes::from(buf);
        // A reference-count bump, not a copy: cache and reply share the
        // buffer the disk read into.
        self.cache_insert(&mut self.table_write().cache, idx, data.clone())?;
        if archived {
            self.archive_tier().recall_q.lock().insert(idx);
        }
        Ok(data)
    }

    /// Reads the extent of the file at `start_block` into `buf`.  Without
    /// a wire (or with the pipeline off, or a single segment) this is one
    /// contiguous disk read, exactly the seed behaviour.  With a wire it
    /// runs the two-lane pipeline: lane 0 reads segment `k` off the disk
    /// while lane 1 streams the part of segment `k-1` inside the
    /// file-byte window `[win_start, win_end)` to the client.
    fn read_extent(
        &self,
        start_block: u64,
        buf: &mut [u8],
        wire: Option<&StreamWire>,
        win_start: u64,
        win_end: u64,
        size: u64,
    ) -> Result<(), BulletError> {
        // The mirror fails over silently; surface the failovers this read
        // made as a server counter so campaigns can prove degraded reads
        // kept succeeding.
        let mut failovers = 0;
        let mut read_blocks = |first: u64, buf: &mut [u8]| {
            let (result, made) = self.storage.read_counting_failovers(first, buf, false);
            failovers += made;
            result
        };
        let result = 'read: {
            let block_size = self.desc.block_size as u64;
            let seg = self.segment_bytes();
            let (Some(wire), true) = (wire, self.cfg.pipeline && buf.len() as u64 > seg) else {
                break 'read read_blocks(start_block, buf).map_err(BulletError::from);
            };
            self.stats.incr(counters::PIPELINED_READS);
            let mut pipe = Pipeline::with_trace(self.tracer.clone(), &["disk_read", "wire_send"]);
            let mut off = 0u64;
            let total = buf.len() as u64;
            while off < total {
                let end = (off + seg).min(total);
                pipe.begin_segment();
                let read = pipe.stage(0, || {
                    read_blocks(
                        start_block + off / block_size,
                        &mut buf[off as usize..end as usize],
                    )
                });
                if let Err(e) = read {
                    // Drop settles the charges accrued so far: the time the
                    // pipeline spent before the failure is still spent.
                    drop(pipe);
                    break 'read Err(e.into());
                }
                // Only the window part of the segment travels; the last
                // sent chunk is capped at the file size (the tail padding
                // of the final block never leaves the server).
                let sent_start = off.max(win_start);
                let sent_end = end.min(win_end).min(size);
                if sent_end > sent_start {
                    self.stats.incr(counters::STREAM_SEGMENTS);
                    pipe.stage(1, || wire.stage_reply_segment(sent_end - sent_start));
                }
                off = end;
            }
            Ok(())
        };
        if failovers > 0 {
            self.stats.add(counters::FAILOVER_READS, failovers);
        }
        result
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
        let seg = self.segment_bytes();
        let total = blocks * block_size;
        let mut pipe =
            Pipeline::with_trace(self.tracer.clone(), &["wire_recv", "memcpy", "disk_write"]);
        let mut off = 0u64;
        while off < total {
            let end = (off + seg).min(total);
            let chunk_len = (end.min(data.len() as u64)).saturating_sub(off);
            pipe.begin_segment();
            self.stats.incr(counters::STREAM_SEGMENTS);
            if let Some(w) = wire {
                pipe.stage(0, || w.recv_request_segment(chunk_len));
            }
            pipe.stage(1, || {
                self.cfg.clock.advance(self.cfg.cpu.memcpy(chunk_len));
            });
            self.stats.add(counters::PAYLOAD_BYTES_COPIED, chunk_len);
            let write = pipe.stage(2, || {
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
            });
            if let Err(e) = write {
                drop(pipe);
                return Err(e.into());
            }
            off = end;
        }
        Ok(())
    }

    /// Inserts into the cache, charging compaction copies.  The caller
    /// holds the table write guard `cache` comes from.
    fn cache_insert(
        &self,
        cache: &mut FileCache,
        idx: u32,
        data: Bytes,
    ) -> Result<(), BulletError> {
        let outcome = cache.insert(idx, data)?;
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

    /// Write-through of the control block holding inode `idx` to `k`
    /// replicas.  Serialized on `inode_io` so that the image snapshot
    /// order equals the disk write order for files sharing a block.
    fn write_inode_block(&self, idx: u32, k: usize) -> Result<(), BulletError> {
        let _io = self.inode_io_lock();
        let (block, image) = {
            let t = self.table_read();
            let block = t.inodes.block_of(idx);
            (block, t.inodes.block_image(block))
        };
        self.storage.write_sync_k(block, &image, k)?;
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
        if self.telemetry.enabled() && self.telemetry.tick(self.cfg.clock.now()) {
            self.sample_gauges();
        }
        self.accounting.charge_current(|u| u.requests += 1);
        let _s = self.tracer.span("cpu.request");
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
            self.telemetry.sample_counters(
                now,
                cache.stats(),
                &[
                    counters::CACHE_HITS,
                    counters::CACHE_MISSES,
                    counters::CACHE_EVICTIONS,
                ],
            );
            drop(t);
            self.telemetry
                .gauge(counters::GAUGE_CACHE_USED_BYTES, 0, now, used);
            self.telemetry
                .gauge(counters::GAUGE_CACHE_PROTECTED_BYTES, 0, now, protected);
            self.telemetry
                .gauge(counters::GAUGE_CACHE_GHOST_LEN, 0, now, ghost);
        }
        if let Some(alloc) = self.alloc.try_lock() {
            let report = alloc.extents.report();
            drop(alloc);
            self.telemetry
                .gauge(counters::GAUGE_ALLOC_FREE_BLOCKS, 0, now, report.free);
            self.telemetry
                .gauge(counters::GAUGE_ALLOC_MAX_HOLE, 0, now, report.largest_hole);
        }
        if let Some(log) = &self.log {
            if let Some(st) = log.try_lock() {
                let resident = st.window.resident();
                drop(st);
                self.telemetry
                    .gauge(counters::GAUGE_LOG_RESIDENT_FILES, 0, now, resident);
            }
            self.telemetry.gauge(
                counters::GAUGE_GC_BATCH_OCCUPANCY,
                0,
                now,
                self.gc.pending_len() as u64,
            );
        }
        if let Some(arch) = &self.archive {
            self.telemetry.gauge(
                counters::GAUGE_TIER_ARCHIVE_BLOCKS,
                0,
                now,
                arch.dev.burned_blocks(),
            );
            if let Some(q) = arch.recall_q.try_lock() {
                self.telemetry
                    .gauge(counters::GAUGE_TIER_RECALL_QUEUE, 0, now, q.len() as u64);
            }
        }
        // Counter-delta series: op mix and cache behaviour per period.
        self.telemetry.sample_counters(
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
        let mut s = self.tracer.span("cpu.memcpy");
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
        self.tracer
            .instant(instant, &[("contended", AttrValue::Bool(waited))]);
        guard
    }

    /// The group-commit log guard.  Uncounted by design: commits are
    /// serialized on this mutex on purpose — its "contention" is the
    /// batching doing its job, not a scalability signal.
    fn log_lock(&self) -> MutexGuard<'_, LogState> {
        self.log
            .as_ref()
            .expect("log_lock requires cfg.log_blocks > 0")
            .lock()
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
    inode_io_lock -> MutexGuard<'_, ()> = inode_io.try_lock / lock, LOCK_INODE_IO, LOCK_CONTENDED_INODE_IO, "lock.inode_io";
    maint_read -> RwLockReadGuard<'_, ()> = maintenance.try_read / read, LOCK_MAINTENANCE_READ, LOCK_CONTENDED_MAINTENANCE_READ, "lock.maintenance_read";
    maint_write -> RwLockWriteGuard<'_, ()> = maintenance.try_write / write, LOCK_MAINTENANCE_WRITE, LOCK_CONTENDED_MAINTENANCE_WRITE, "lock.maintenance_write";
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = server();
        let cap = s.create(payload(10, 1), 1).unwrap();
        let mut forged = cap;
        forged.check ^= 1;
        assert_eq!(s.read(&forged).unwrap_err(), BulletError::CapBad);
        let mut wrong_port = cap;
        wrong_port.port = Port::from_u64(123);
        assert_eq!(s.read(&wrong_port).unwrap_err(), BulletError::CapBad);
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

    #[test]
    fn each_operation_takes_exactly_its_locks() {
        // The inode table and its cache are one lock: a warm read is one
        // shared guard, and no operation takes a second one for the cache.
        let s = server();
        let mut last = HashMap::new();
        let mut delta = || {
            let now: HashMap<_, _> = s.lock_stats().into_iter().collect();
            let mut d: Vec<_> = (now.iter())
                .map(|(n, v)| format!("{}={}", &n[5..], v - last.get(n).unwrap_or(&0)))
                .filter(|d| !d.ends_with("=0"))
                .collect();
            d.sort_unstable();
            last = now;
            d.join(" ")
        };
        let write = "alloc=1 inflight=1 inode_io=1 maintenance_read=1 table_read";
        let cap = s.create(payload(1000, 1), 1).unwrap();
        assert_eq!(delta(), format!("{write}=1 table_write=2"), "create");
        s.read(&cap).unwrap();
        assert_eq!(delta(), "table_read=1", "warm read");
        s.clear_cache();
        delta();
        s.read(&cap).unwrap();
        assert_eq!(
            delta(),
            "inflight=1 table_read=2 table_write=1",
            "cold read"
        );
        s.delete(&cap).unwrap();
        assert_eq!(delta(), format!("{write}=2 table_write=2"), "delete");
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
    /// `destroy` and `move_extent`.  The single replica dies at each op
    /// offset inside the operation in turn, so every fallible step (data
    /// read, replica write, inode write, seal) errors at least once.  A
    /// failed operation must surface the disk error — never `Corrupt`,
    /// which is what a leaked reservation turns the *next* attempt into —
    /// and leave the RAM state whole: the allocator's used blocks are
    /// exactly the home extents plus the reserved homes, and no two
    /// extents overlap.
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
                    let reserved: u64 = s
                        .log
                        .as_ref()
                        .map_or(0, |l| l.lock().homes.values().map(|&(_, len)| len).sum());
                    let report = s.disk_frag_report();
                    assert_eq!(
                        report.total - report.free,
                        homes + reserved,
                        "{ctx}: allocator and table disagree"
                    );
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
        let report = InodeTable::load(&storage, RepairPolicy::Fail).unwrap();
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

        let report = InodeTable::load(&storage, RepairPolicy::Fail).unwrap();
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
    fn amoeba_scheme_allows_client_side_restriction() {
        use amoeba_cap::AmoebaScheme;
        let mut cfg = BulletConfig::small_test();
        cfg.scheme = SchemeKind::Amoeba;
        let s = BulletServer::format(cfg, 2).unwrap();
        let owner = s.create(payload(50, 3), 1).unwrap();
        // The client restricts WITHOUT talking to the server — the whole
        // point of the sparse-capabilities scheme.
        let reader = AmoebaScheme::new().restrict(&owner, Rights::READ).unwrap();
        assert_eq!(s.read(&reader).unwrap(), payload(50, 3));
        assert_eq!(s.delete(&reader).unwrap_err(), BulletError::Denied);
        // Amplification still fails.
        let mut amplified = reader;
        amplified.rights = Rights::ALL;
        assert_eq!(s.delete(&amplified).unwrap_err(), BulletError::CapBad);
        s.delete(&owner).unwrap();
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
        cfg.trace = TraceConfig::enabled(cfg.clock.clone());
        let tracer = cfg.trace.tracer().clone();
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
    /// [`TraceConfig::off`] charges exactly the same simulated time as an
    /// identically-configured server with tracing enabled.
    #[test]
    fn disabled_tracing_charges_identical_time() {
        let elapsed = |trace: TraceConfig| {
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
            elapsed(TraceConfig::off()),
            elapsed(TraceConfig::enabled(clock)),
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
        let report = InodeTable::load(&storage, RepairPolicy::Fail).unwrap();
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
        let desc = *InodeTable::load(&storage, RepairPolicy::Fail)
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
        let report = InodeTable::load(&storage, RepairPolicy::Fail).unwrap();
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
    fn plain_recover_restores_the_append_cursor_past_archived_extents() {
        let s = BulletServer::format(tiered_cfg(), 2).unwrap();
        s.create(payload(2000, 5), 2).unwrap();
        s.clear_cache();
        s.age_all().unwrap();
        drain_maintenance(&s);
        let storage = s.crash();
        // A *fresh* platter: the archived inode stays valid and the
        // cursor is restored past its extent, so later demotions can
        // never land on top of it.
        let s2 = BulletServer::recover(tiered_cfg(), storage).unwrap();
        assert_eq!(s2.live_files(), 1);
        assert_eq!(s2.archive_device().unwrap().append_pos(), 4);
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
        let resident = |s: &BulletServer| s.log.as_ref().unwrap().lock().window.resident();

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
