//! Sharding the Bullet service over N independent server instances.
//!
//! The paper scales the Bullet server by making one machine fast; this
//! module scales it *out*.  Ports are location-independent (§2.1), so N
//! instances can share one service port and one capability-protection
//! key: any instance can verify any capability minted for the service,
//! provided it holds the object's inode.  What partitions the service is
//! object-number ownership — [`amoeba_cap::shard_of`] maps every object
//! number to its home shard, and each instance's free-slot list holds
//! only the slots its [`ShardSlot::owns`], so it only ever mints object
//! numbers that hash back to itself.
//!
//! Pieces:
//!
//! * [`ShardSlot`] — a server's `(index, count)` position in the set,
//!   carried in [`crate::BulletConfig::shard`];
//! * [`BulletShards`] — the assembled set: validated construction, the
//!   rebalance protocol (export → adopt → retire, reusing the recovery
//!   machinery's dictated-slot [`crate::server::BulletServer::adopt_object`]
//!   install path), and whole-set accounting used by the ABL18 ablation
//!   to prove that a rebalance preserves every live byte.
//!
//! Request routing lives one layer up, in `amoeba_rpc::ShardRouter` —
//! this module is the storage side of the split.

use std::sync::Arc;

use crate::counters;
use crate::server::{BulletConfig, BulletServer};
use crate::BulletError;

/// A server's position in a shard set: stripe `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlot {
    /// This server's stripe index, `< count`.
    pub index: u32,
    /// Total number of shards in the set.
    pub count: u32,
}

impl ShardSlot {
    /// The single-server layout: stripe 0 of 1.  Leaves the inode free
    /// list untouched, so an unsharded server is bit-for-bit the
    /// pre-sharding behaviour.
    pub fn solo() -> ShardSlot {
        ShardSlot { index: 0, count: 1 }
    }

    /// Slot `index` of a `count`-wide set.
    ///
    /// # Panics
    ///
    /// If `count > 1` and `index >= count` — a slot outside the set
    /// could never be routed to.
    pub fn new(index: u32, count: u32) -> ShardSlot {
        assert!(
            count <= 1 || index < count,
            "shard slot {index} outside a set of {count}"
        );
        ShardSlot { index, count }
    }

    /// Whether object number `obj` hashes home to this slot (every
    /// number does in a set of one).
    pub fn owns(&self, obj: u32) -> bool {
        self.count <= 1 || amoeba_cap::shard_of(obj, self.count) == self.index
    }
}

impl Default for ShardSlot {
    fn default() -> ShardSlot {
        ShardSlot::solo()
    }
}

/// A validated set of N Bullet server instances sharing one service
/// port, each owning its own stripe of the object-number space (plus its
/// own disks, cache, scheduler, log, and telemetry).
pub struct BulletShards {
    shards: Vec<Arc<BulletServer>>,
}

impl BulletShards {
    /// Assembles a shard set from already-running instances.
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] if the set is empty, the instances
    /// disagree on the service port, or instance `i` is not configured
    /// as slot `(i, n)`.
    pub fn new(shards: Vec<Arc<BulletServer>>) -> Result<BulletShards, BulletError> {
        if shards.is_empty() {
            return Err(BulletError::Corrupt("empty shard set".into()));
        }
        let n = shards.len() as u32;
        let port = shards[0].port();
        for (i, s) in shards.iter().enumerate() {
            if s.port() != port {
                return Err(BulletError::Corrupt(format!(
                    "shard {i} answers a different port — one service, one port"
                )));
            }
            let want = ShardSlot::new(i as u32, n);
            if s.shard_slot() != want {
                return Err(BulletError::Corrupt(format!(
                    "shard {i} configured as slot ({}, {}), expected ({}, {})",
                    s.shard_slot().index,
                    s.shard_slot().count,
                    want.index,
                    want.count
                )));
            }
        }
        Ok(BulletShards { shards })
    }

    /// Formats `count` fresh instances from `base`, each on its own
    /// `replicas`-way mirrored RAM disks, sharing `base`'s port, clock,
    /// and protection key, with the shard slot set per instance.
    ///
    /// # Errors
    ///
    /// As [`BulletServer::format`](crate::server::BulletServer::format).
    pub fn format(
        base: &BulletConfig,
        count: u32,
        replicas: usize,
    ) -> Result<BulletShards, BulletError> {
        let mut shards = Vec::with_capacity(count as usize);
        for i in 0..count.max(1) {
            let mut cfg = base.clone();
            cfg.shard = ShardSlot::new(i, count.max(1));
            shards.push(Arc::new(BulletServer::format(cfg, replicas)?));
        }
        BulletShards::new(shards)
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn shard(&self, i: usize) -> &Arc<BulletServer> {
        &self.shards[i]
    }

    /// Iterates over the shards in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<BulletServer>> {
        self.shards.iter()
    }

    /// Moves one object from shard `from` to shard `to`: export the
    /// payload and check random, install them at the *same* object
    /// number on the destination (so every capability minted before the
    /// move keeps verifying), then retire the source copy.  Durable on
    /// every destination replica before the source copy is touched — a
    /// crash between adopt and retire leaves a harmless extra copy, never
    /// a lost byte.  Bumps [`counters::SHARD_REBALANCE_EXTENTS`] on the
    /// destination.
    ///
    /// The caller must re-point routing (the router's override map) at
    /// `to` afterwards; this type only moves the bytes.
    ///
    /// # Errors
    ///
    /// [`BulletError::NotFound`] if `idx` is not live on `from`;
    /// [`BulletError::Corrupt`] if it is already live on `to` or the
    /// shard indices are out of range; disk errors from any leg.
    pub fn rebalance(&self, from: usize, to: usize, idx: u32) -> Result<(), BulletError> {
        if from >= self.shards.len() || to >= self.shards.len() {
            return Err(BulletError::Corrupt(format!(
                "rebalance {from} -> {to} outside a set of {}",
                self.shards.len()
            )));
        }
        if from == to {
            return Ok(());
        }
        let src = &self.shards[from];
        let dst = &self.shards[to];
        let (random, data) = src.export_object(idx)?;
        dst.adopt_object(idx, random, data)?;
        src.retire_object(idx)?;
        dst.stats().incr(counters::SHARD_REBALANCE_EXTENTS);
        Ok(())
    }

    /// Live object numbers on shard `i`, derived from its administrative
    /// capability enumeration.
    pub fn live_indices(&self, i: usize) -> Vec<u32> {
        self.shards[i]
            .list_live_caps()
            .into_iter()
            .map(|c| c.object.value())
            .collect()
    }

    /// Total live files across the set.
    pub fn total_live_files(&self) -> usize {
        self.shards.iter().map(|s| s.live_files()).sum()
    }

    /// Total live bytes across the set.
    ///
    /// # Errors
    ///
    /// Disk errors reading a cold extent.
    pub fn total_live_bytes(&self) -> Result<u64, BulletError> {
        let mut total = 0u64;
        for i in 0..self.shards.len() {
            for idx in self.live_indices(i) {
                let (_, data) = self.shards[i].export_object(idx)?;
                total += data.len() as u64;
            }
        }
        Ok(total)
    }

    /// A placement-independent digest of every live byte in the set: the
    /// XOR of one FNV-1a digest per object over `index ‖ length ‖ bytes`.
    /// XOR makes the fold order- and placement-independent, so the digest
    /// is unchanged by *which shard* holds an object — exactly the
    /// property a rebalance must preserve and the ABL18 invariant checks.
    ///
    /// # Errors
    ///
    /// Disk errors reading a cold extent.
    pub fn live_digest(&self) -> Result<u64, BulletError> {
        let mut acc = 0u64;
        for i in 0..self.shards.len() {
            for idx in self.live_indices(i) {
                let (_, data) = self.shards[i].export_object(idx)?;
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                let mut eat = |b: u8| {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                };
                idx.to_le_bytes().into_iter().for_each(&mut eat);
                (data.len() as u64)
                    .to_le_bytes()
                    .into_iter()
                    .for_each(&mut eat);
                data.iter().copied().for_each(&mut eat);
                acc ^= h;
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn set(count: u32) -> BulletShards {
        BulletShards::format(&BulletConfig::small_test(), count, 2).unwrap()
    }

    #[test]
    fn an_audit_is_not_a_client_read() {
        // Room for two of three files: the third create evicts the first,
        // and re-reading the second makes the third the LRU victim.
        let run = |audit: bool| {
            let cfg = BulletConfig {
                cache_capacity: 2000,
                ..BulletConfig::small_test()
            };
            let set = BulletShards::format(&cfg, 1, 2).unwrap();
            let s = set.shard(0);
            let caps: Vec<_> = (0..3u8)
                .map(|n| s.create(Bytes::from(vec![n; 1000]), 1).unwrap())
                .collect();
            s.read(&caps[1]).unwrap();
            let before = s.cache_stats();
            if audit {
                set.live_digest().unwrap();
                assert_eq!(s.cache_stats(), before, "an audit counts no hit or miss");
            }
            s.create(Bytes::from(vec![9; 1000]), 1).unwrap();
            s.describe_layout()
                .1
                .iter()
                .map(|r| (r.inode, r.cached))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(true),
            run(false),
            "an audit leaves the eviction order as it was"
        );
    }

    #[test]
    fn solo_slot_changes_nothing() {
        let server = BulletServer::format(BulletConfig::small_test(), 2).unwrap();
        assert_eq!(server.shard_slot(), ShardSlot::solo());
        let cap = server.create(Bytes::from_static(b"unsharded"), 1).unwrap();
        assert_eq!(server.read(&cap).unwrap(), Bytes::from_static(b"unsharded"));
    }

    #[test]
    fn striped_shards_mint_only_their_own_object_numbers() {
        let shards = set(4);
        for i in 0..4usize {
            for n in 0..8u32 {
                let cap = shards
                    .shard(i)
                    .create(Bytes::from(format!("s{i}f{n}")), 1)
                    .unwrap();
                assert_eq!(
                    amoeba_cap::shard_of(cap.object.value(), 4),
                    i as u32,
                    "shard {i} minted object {} which hashes elsewhere",
                    cap.object
                );
            }
        }
        assert_eq!(shards.total_live_files(), 32);
    }

    #[test]
    fn rebalance_preserves_the_capability_and_the_bytes() {
        let shards = set(2);
        let payload = Bytes::from(vec![0xabu8; 3000]);
        let cap = shards.shard(0).create(payload.clone(), 1).unwrap();
        let idx = cap.object.value();
        let before = shards.live_digest().unwrap();

        shards.rebalance(0, 1, idx).unwrap();

        // The pre-move capability verifies on the destination…
        assert_eq!(shards.shard(1).read(&cap).unwrap(), payload);
        // …the source no longer knows the object…
        assert!(matches!(
            shards.shard(0).read(&cap),
            Err(BulletError::NotFound)
        ));
        // …and no live byte moved anywhere but between shards.
        assert_eq!(shards.live_digest().unwrap(), before);
        assert_eq!(
            shards
                .shard(1)
                .stats()
                .get(counters::SHARD_REBALANCE_EXTENTS),
            1
        );
    }

    #[test]
    fn retired_slot_is_never_reminted_by_the_source() {
        let shards = set(2);
        let cap = shards
            .shard(0)
            .create(Bytes::from_static(b"mv"), 1)
            .unwrap();
        let idx = cap.object.value();
        shards.rebalance(0, 1, idx).unwrap();
        // Exhaust the source's creates: none may reuse the migrated
        // object number, which would collide with the destination copy.
        for n in 0..40u32 {
            let c = shards
                .shard(0)
                .create(Bytes::from(format!("post-move {n}")), 1)
                .unwrap();
            assert_ne!(c.object.value(), idx, "source re-minted a migrated slot");
        }
    }

    #[test]
    fn rebalance_round_trip_restores_the_source_copy() {
        let shards = set(2);
        let payload = Bytes::from_static(b"there and back again");
        let cap = shards.shard(0).create(payload.clone(), 1).unwrap();
        let idx = cap.object.value();
        shards.rebalance(0, 1, idx).unwrap();
        shards.rebalance(1, 0, idx).unwrap();
        assert_eq!(shards.shard(0).read(&cap).unwrap(), payload);
        assert!(shards.shard(1).read(&cap).is_err());
    }

    #[test]
    fn mismatched_slots_are_rejected() {
        let mut cfg = BulletConfig::small_test();
        cfg.shard = ShardSlot::new(1, 4); // claims slot 1 but sits at 0
        let s = Arc::new(BulletServer::format(cfg, 1).unwrap());
        assert!(BulletShards::new(vec![s]).is_err());
        assert!(BulletShards::new(Vec::new()).is_err());
    }
}
