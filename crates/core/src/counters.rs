//! Canonical counter names for the Bullet server's [`amoeba_sim::Stats`].
//!
//! Every counter the core crate increments is declared here once, so the
//! name a component bumps and the name a benchmark or test reads cannot
//! silently fork (a typo in a string literal would just read zero).  The
//! same table, with prose descriptions, lives in DESIGN.md §9.3; the disk
//! and net crates keep their own small namespaces (`mirror_*`, `net_*`)
//! because they are reusable below the Bullet layer.
//!
//! Naming scheme: operation counters are plural verbs (`creates`,
//! `reads`), byte totals end in `_bytes` or start with `bytes_`, and each
//! sharded lock contributes a pair `lock_<shard>` / `lock_contended_<shard>`
//! counting acquisitions and try-lock misses.

pub use amoeba_rpc::fault::{DEDUP_EVICTIONS, DEDUP_HITS, RPC_GIVEUPS, RPC_RETRIES, RPC_TIMEOUTS};
pub use amoeba_rpc::shard::{
    GAUGE_SHARD_DEGRADED_OPS, GAUGE_SHARD_ROUTED_OPS, SHARD_DEGRADED_OPS, SHARD_ROUTED_OPS,
};

/// Extents moved between shards by [`crate::shard::BulletShards::rebalance`]
/// (counted on the destination shard's stats).
pub const SHARD_REBALANCE_EXTENTS: &str = "shard_rebalance_extents";

/// Inodes repaired (zeroed after a half-committed create) during
/// [`crate::server::BulletServer::recover`].
pub const RECOVERY_REPAIRED_INODES: &str = "recovery_repaired_inodes";

/// Live files the startup consistency scan accepted during
/// [`crate::server::BulletServer::recover`].
pub const RECOVERY_LIVE_FILES: &str = "recovery_live_files";

/// Cold disk reads that were served by a surviving replica after the
/// preferred one failed (the mirror's failover, observed at the server).
pub const FAILOVER_READS: &str = "failover_reads";

/// Successful `BULLET.CREATE` operations.
pub const CREATES: &str = "creates";

/// Payload bytes accepted by successful creates.
pub const BYTES_CREATED: &str = "bytes_created";

/// Creates whose payload took the segmented receive→copy→disk pipeline.
pub const PIPELINED_CREATES: &str = "pipelined_creates";

/// Whole-file `BULLET.READ` operations.
pub const READS: &str = "reads";

/// `BULLET.READ_SECTION` operations (byte-range reads).
pub const SECTION_READS: &str = "section_reads";

/// Cold reads that streamed disk→wire through the segment pipeline.
pub const PIPELINED_READS: &str = "pipelined_reads";

/// Transfer segments moved by the streaming paths (either direction).
pub const STREAM_SEGMENTS: &str = "stream_segments";

/// Bytes memcpy'd between request/reply buffers and the cache arena.
pub const PAYLOAD_BYTES_COPIED: &str = "payload_bytes_copied";

/// Successful `BULLET.DELETE` operations.
pub const DELETES: &str = "deletes";

/// Successful `BULLET.MODIFY`/`BULLET.APPEND` operations (each is a
/// create-new + delete-old pair under the immutable-file rule).
pub const MODIFIES: &str = "modifies";

/// Live extents moved while compacting the on-disk data area.
pub const DISK_COMPACTION_MOVES: &str = "disk_compaction_moves";

/// Idle-time compaction ticks that yielded to foreground traffic instead
/// of moving an extent.
pub const COMPACTION_PREEMPTIONS: &str = "compaction_preemptions";

/// Highest per-disk request-queue depth observed (high-water mark,
/// aggregated across replicas as the maximum).
pub const DISK_QUEUE_DEPTH_MAX: &str = "disk_queue_depth_max";

/// Requests absorbed into an adjacent request's transfer by the disk
/// scheduler (charged transfer time only — no seek, no rotation).
pub const DISK_COALESCED_IOS: &str = "disk_coalesced_ios";

/// Queued requests granted by deadline aging instead of the arm policy
/// (the scheduler's starvation bound firing).
pub const SCHED_DEADLINE_PROMOTIONS: &str = "sched_deadline_promotions";

/// Files removed by ageing (the garbage collector's touch-or-die rule).
pub const AGED_OUT: &str = "aged_out";

/// Maintenance-scheduler ticks that got past the idleness gate (preempted
/// ticks count under [`COMPACTION_PREEMPTIONS`] instead).
pub const MAINTENANCE_TICKS: &str = "maintenance_ticks";

/// Ticks whose log→home migration peek found no log-resident file.
pub const MAINT_SKIPS_LOG_MIGRATION: &str = "maint_skips_log_migration";

/// Ticks whose data-area packing peek found no live file.
pub const MAINT_SKIPS_PACKING: &str = "maint_skips_packing";

/// Ticks whose archive-recall (promotion) peek found an empty queue.
pub const MAINT_SKIPS_RECALL: &str = "maint_skips_recall";

/// Ticks whose demotion peek found no archive, or the fast tier at or
/// under its high-water mark.
pub const MAINT_SKIPS_DEMOTION: &str = "maint_skips_demotion";

/// Cold files streamed from the fast tier to the WORM archive.
pub const TIER_DEMOTIONS: &str = "tier_demotions";

/// Archived files recalled to the fast tier after a read scheduled them.
pub const TIER_PROMOTIONS: &str = "tier_promotions";

/// Payload bytes burned onto the archive tier by demotion (WORM media:
/// this total never decreases).
pub const TIER_ARCHIVE_BYTES: &str = "tier_archive_bytes";

/// Physical record appends to the group-commit log (batch commits plus
/// the occasional one-block seal record written before deleting a file
/// of the newest batch).
pub const LOG_APPENDS: &str = "log_appends";

/// Group-commit flushes: batches committed as one sequential log append.
pub const GROUP_COMMIT_FLUSHES: &str = "group_commit_flushes";

/// Files committed through the group-commit log (sum of batch sizes).
pub const LOG_BATCH_FILES: &str = "log_batch_files";

/// Log-resident files migrated to their contiguous data-area home by the
/// idle-time maintenance rank.
pub const LOG_MIGRATIONS: &str = "log_migrations";

/// Whole-file cache lookups that found the file resident.
pub const CACHE_HITS: &str = "cache_hits";

/// Cache lookups that missed (and usually triggered a cold load).
pub const CACHE_MISSES: &str = "cache_misses";

/// Files inserted into the RAM cache.
pub const CACHE_INSERTS: &str = "cache_inserts";

/// Files evicted to make room.
pub const CACHE_EVICTIONS: &str = "cache_evictions";

/// Arena compactions run to coalesce free space for an insert.
pub const CACHE_COMPACTIONS: &str = "cache_compactions";

/// Re-referenced files promoted into the protected/Am segment (a
/// SegmentedLru probation hit, or a TwoQ ghost-list readmission) — the
/// scan filter admitting a file to the scan-proof part of the cache.
pub const CACHE_SCAN_PROMOTIONS: &str = "cache_scan_promotions";

/// Evictions taken from the probation (SegmentedLru) / A1in (TwoQ)
/// segment — churn absorbed by the scan zone instead of the working set.
pub const CACHE_PROBATION_EVICTIONS: &str = "cache_probation_evictions";

/// SegmentedLru protected-LRU entries demoted back to probation because
/// the protected segment outgrew its byte cap.
pub const CACHE_PROTECTED_DEMOTIONS: &str = "cache_protected_demotions";

/// TwoQ inserts whose inode was found on the A1out ghost list (the 2Q
/// "second reference after eviction" admission signal).
pub const CACHE_GHOST_HITS: &str = "cache_ghost_hits";

/// Acquisitions of the read lock over the inode table and the cache.
pub const LOCK_TABLE_READ: &str = "lock_table_read";
/// Contended acquisitions (try-lock misses) of the table read lock.
pub const LOCK_CONTENDED_TABLE_READ: &str = "lock_contended_table_read";
/// Acquisitions of the write lock over the inode table and the cache.
pub const LOCK_TABLE_WRITE: &str = "lock_table_write";
/// Contended acquisitions of the table write lock.
pub const LOCK_CONTENDED_TABLE_WRITE: &str = "lock_contended_table_write";
/// Acquisitions of the disk-allocator lock.
pub const LOCK_ALLOC: &str = "lock_alloc";
/// Contended acquisitions of the disk-allocator lock.
pub const LOCK_CONTENDED_ALLOC: &str = "lock_contended_alloc";
/// Acquisitions of the inode-I/O ordering lock.
pub const LOCK_INODE_IO: &str = "lock_inode_io";
/// Contended acquisitions of the inode-I/O ordering lock.
pub const LOCK_CONTENDED_INODE_IO: &str = "lock_contended_inode_io";
/// Read-side acquisitions of the maintenance (compaction/ageing) lock.
pub const LOCK_MAINTENANCE_READ: &str = "lock_maintenance_read";
/// Contended read-side acquisitions of the maintenance lock.
pub const LOCK_CONTENDED_MAINTENANCE_READ: &str = "lock_contended_maintenance_read";
/// Write-side acquisitions of the maintenance lock.
pub const LOCK_MAINTENANCE_WRITE: &str = "lock_maintenance_write";
/// Contended write-side acquisitions of the maintenance lock.
pub const LOCK_CONTENDED_MAINTENANCE_WRITE: &str = "lock_contended_maintenance_write";
/// Acquisitions of the in-flight cold-load registry lock.
pub const LOCK_INFLIGHT: &str = "lock_inflight";
/// Contended acquisitions of the in-flight registry lock.
pub const LOCK_CONTENDED_INFLIGHT: &str = "lock_contended_inflight";

/// Telemetry gauge: instantaneous per-disk request-queue depth, sampled
/// by the disk scheduler once per telemetry period (instance = disk id).
pub const GAUGE_DISK_QUEUE_DEPTH: &str = "disk_queue_depth";

/// Telemetry gauge: the disk arm's current block position at sample time
/// (instance = disk id).
pub const GAUGE_DISK_ARM_BLOCK: &str = "disk_arm_block";

/// Telemetry gauge: bytes of payload resident in the RAM cache.
pub const GAUGE_CACHE_USED_BYTES: &str = "cache_used_bytes";

/// Telemetry gauge: bytes held by the protected/Am segment of the
/// scan-resistant cache policy (zero under plain LRU).
pub const GAUGE_CACHE_PROTECTED_BYTES: &str = "cache_protected_bytes";

/// Telemetry gauge: entries on the TwoQ A1out ghost list (zero for
/// policies without a ghost list).
pub const GAUGE_CACHE_GHOST_LEN: &str = "cache_ghost_len";

/// Telemetry gauge: free allocation units in the extent allocator.
pub const GAUGE_ALLOC_FREE_BLOCKS: &str = "alloc_free_blocks";

/// Telemetry gauge: largest contiguous free hole (allocation units) —
/// the allocator's fragmentation headline.
pub const GAUGE_ALLOC_MAX_HOLE: &str = "alloc_max_hole";

/// Telemetry gauge: write-once blocks burned on the archive tier (the
/// WORM platter's occupancy; monotonic by construction).
pub const GAUGE_TIER_ARCHIVE_BLOCKS: &str = "tier_archive_blocks";

/// Telemetry gauge: archived files queued for recall to the fast tier.
pub const GAUGE_TIER_RECALL_QUEUE: &str = "tier_recall_queue";

/// Telemetry gauge (evsim rig): per-disk backlog in simulated µs — how
/// far the disk's free time is ahead of the arriving request (instance =
/// disk id).
pub const GAUGE_EVSIM_DISK_BACKLOG_US: &str = "evsim_disk_backlog_us";

/// Telemetry counter-delta series (evsim rig): requests that lost their
/// packet to a lossy wire since the last sample — the SLO watchdog's
/// fault-burst tripwire (any non-zero rate is a degradation).
pub const GAUGE_EVSIM_RETRIES: &str = "evsim_retries";

/// Every telemetry gauge name the workspace can sample, for exhaustive
/// iteration (MONITOR snapshots, doc tables, the registry drift test).
/// Counter-delta series reuse names from [`ALL`] and are not repeated
/// here.
pub const GAUGES: &[&str] = &[
    GAUGE_DISK_QUEUE_DEPTH,
    GAUGE_DISK_ARM_BLOCK,
    GAUGE_CACHE_USED_BYTES,
    GAUGE_CACHE_PROTECTED_BYTES,
    GAUGE_CACHE_GHOST_LEN,
    GAUGE_ALLOC_FREE_BLOCKS,
    GAUGE_ALLOC_MAX_HOLE,
    GAUGE_TIER_ARCHIVE_BLOCKS,
    GAUGE_TIER_RECALL_QUEUE,
    GAUGE_EVSIM_DISK_BACKLOG_US,
    GAUGE_EVSIM_RETRIES,
    GAUGE_SHARD_ROUTED_OPS,
    GAUGE_SHARD_DEGRADED_OPS,
];

/// Every counter name the core crate can emit, for exhaustive iteration
/// (status dumps, doc tables, tests that no name is duplicated).
pub const ALL: &[&str] = &[
    RECOVERY_REPAIRED_INODES,
    RECOVERY_LIVE_FILES,
    FAILOVER_READS,
    RPC_RETRIES,
    RPC_TIMEOUTS,
    RPC_GIVEUPS,
    DEDUP_HITS,
    DEDUP_EVICTIONS,
    CREATES,
    BYTES_CREATED,
    PIPELINED_CREATES,
    READS,
    SECTION_READS,
    PIPELINED_READS,
    STREAM_SEGMENTS,
    PAYLOAD_BYTES_COPIED,
    DELETES,
    MODIFIES,
    DISK_COMPACTION_MOVES,
    COMPACTION_PREEMPTIONS,
    DISK_QUEUE_DEPTH_MAX,
    DISK_COALESCED_IOS,
    SCHED_DEADLINE_PROMOTIONS,
    AGED_OUT,
    MAINTENANCE_TICKS,
    MAINT_SKIPS_LOG_MIGRATION,
    MAINT_SKIPS_PACKING,
    MAINT_SKIPS_RECALL,
    MAINT_SKIPS_DEMOTION,
    TIER_DEMOTIONS,
    TIER_PROMOTIONS,
    TIER_ARCHIVE_BYTES,
    LOG_APPENDS,
    GROUP_COMMIT_FLUSHES,
    LOG_BATCH_FILES,
    LOG_MIGRATIONS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_INSERTS,
    CACHE_EVICTIONS,
    CACHE_COMPACTIONS,
    CACHE_SCAN_PROMOTIONS,
    CACHE_PROBATION_EVICTIONS,
    CACHE_PROTECTED_DEMOTIONS,
    CACHE_GHOST_HITS,
    LOCK_TABLE_READ,
    LOCK_CONTENDED_TABLE_READ,
    LOCK_TABLE_WRITE,
    LOCK_CONTENDED_TABLE_WRITE,
    LOCK_ALLOC,
    LOCK_CONTENDED_ALLOC,
    LOCK_INODE_IO,
    LOCK_CONTENDED_INODE_IO,
    LOCK_MAINTENANCE_READ,
    LOCK_CONTENDED_MAINTENANCE_READ,
    LOCK_MAINTENANCE_WRITE,
    LOCK_CONTENDED_MAINTENANCE_WRITE,
    LOCK_INFLIGHT,
    LOCK_CONTENDED_INFLIGHT,
    SHARD_ROUTED_OPS,
    SHARD_DEGRADED_OPS,
    SHARD_REBALANCE_EXTENTS,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate counter name {name}");
        }
        for name in GAUGES {
            assert!(seen.insert(*name), "gauge name {name} collides");
        }
    }

    #[test]
    fn rpc_layer_counters_are_registered() {
        // The retry/dedup names are declared by `amoeba_rpc::fault` and
        // re-exported here; the registry must carry them so status dumps
        // and benchmarks iterate over the full set.
        for name in [
            RPC_RETRIES,
            RPC_TIMEOUTS,
            RPC_GIVEUPS,
            DEDUP_HITS,
            DEDUP_EVICTIONS,
        ] {
            assert!(ALL.contains(&name), "{name} missing from ALL");
        }
    }

    #[test]
    fn cache_policy_and_evsim_counters_are_registered() {
        for name in [
            CACHE_SCAN_PROMOTIONS,
            CACHE_PROBATION_EVICTIONS,
            CACHE_PROTECTED_DEMOTIONS,
            CACHE_GHOST_HITS,
        ] {
            assert!(ALL.contains(&name), "{name} missing from ALL");
        }
    }

    #[test]
    fn shard_counters_are_registered() {
        // The routed/degraded names are declared by `amoeba_rpc::shard`
        // (the router lives below the core crate) and re-exported here;
        // the rebalance counter is the core rebalancer's own.
        for name in [
            SHARD_ROUTED_OPS,
            SHARD_DEGRADED_OPS,
            SHARD_REBALANCE_EXTENTS,
        ] {
            assert!(ALL.contains(&name), "{name} missing from ALL");
        }
        for name in [GAUGE_SHARD_ROUTED_OPS, GAUGE_SHARD_DEGRADED_OPS] {
            assert!(GAUGES.contains(&name), "{name} missing from GAUGES");
        }
    }

    #[test]
    fn tiering_and_maintenance_counters_are_registered() {
        for name in [
            MAINTENANCE_TICKS,
            MAINT_SKIPS_LOG_MIGRATION,
            MAINT_SKIPS_PACKING,
            MAINT_SKIPS_RECALL,
            MAINT_SKIPS_DEMOTION,
            TIER_DEMOTIONS,
            TIER_PROMOTIONS,
            TIER_ARCHIVE_BYTES,
        ] {
            assert!(ALL.contains(&name), "{name} missing from ALL");
        }
        for name in [GAUGE_TIER_ARCHIVE_BLOCKS, GAUGE_TIER_RECALL_QUEUE] {
            assert!(GAUGES.contains(&name), "{name} missing from GAUGES");
        }
    }

    #[test]
    fn every_lock_counter_has_a_contended_twin() {
        for name in ALL
            .iter()
            .filter(|n| n.starts_with("lock_") && !n.starts_with("lock_contended_"))
        {
            let twin = format!("lock_contended_{}", &name["lock_".len()..]);
            assert!(
                ALL.contains(&twin.as_str()),
                "{name} has no {twin} counterpart"
            );
        }
    }
}
