//! The directory service's storage backend: one or several Bullet
//! servers.
//!
//! §5 of the paper: "Currently we are investigating how the Bullet file
//! server and the Amoeba directory service can cooperate in providing a
//! general purpose storage system.  Goals of this research are high
//! availability…"  This module implements that cooperation: the
//! directory service can keep every directory file (and its own
//! catalogue) on **N Bullet servers simultaneously**, so the naming
//! service survives the loss of any single file server.

use std::sync::Arc;

use bytes::Bytes;

use amoeba_cap::Capability;
use bullet_core::{BulletError, BulletServer};

use crate::DirError;

/// Durability used for each replica write.
const STORE_PFACTOR: u32 = 1;

/// A replicated or sharded file store over one or more Bullet servers.
///
/// In the replicated layout ([`BulletStore::replicated`]) files created
/// through the store exist once per server; the capability set (one per
/// replica, in store order) travels together.  In the sharded layout
/// ([`BulletStore::sharded`]) the servers are stripes of *one* service
/// — same port, partitioned object numbers — and a create places the
/// file on exactly one of them, chosen by free space.  Reads fall over
/// across every server answering the capability's port, which in the
/// sharded layout also makes lookups robust against a concurrent shard
/// migration: the old home answers NotFound and the new home serves.
#[derive(Clone)]
pub struct BulletStore {
    servers: Vec<Arc<BulletServer>>,
    sharded: bool,
}

impl std::fmt::Debug for BulletStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulletStore")
            .field("replicas", &self.servers.len())
            .finish()
    }
}

impl BulletStore {
    /// A store over a single Bullet server (the common configuration).
    pub fn single(server: Arc<BulletServer>) -> BulletStore {
        BulletStore {
            servers: vec![server],
            sharded: false,
        }
    }

    /// A store replicating across all the given servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn replicated(servers: Vec<Arc<BulletServer>>) -> BulletStore {
        assert!(!servers.is_empty(), "a store needs at least one server");
        BulletStore {
            servers,
            sharded: false,
        }
    }

    /// A store over the shards of one sharded Bullet service: a create
    /// places each file on a single shard (the one with the most free
    /// disk), instead of replicating it everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on the service
    /// port — shards are stripes of one service, not independent
    /// services.
    pub fn sharded(shards: Vec<Arc<BulletServer>>) -> BulletStore {
        assert!(!shards.is_empty(), "a store needs at least one server");
        assert!(
            shards.iter().all(|s| s.port() == shards[0].port()),
            "shards of one service must share its port"
        );
        BulletStore {
            servers: shards,
            sharded: true,
        }
    }

    /// Number of replica servers.
    pub fn width(&self) -> usize {
        self.servers.len()
    }

    /// The underlying servers.
    pub fn servers(&self) -> &[Arc<BulletServer>] {
        &self.servers
    }

    /// True if `cap` addresses one of this store's servers.
    pub fn is_store_cap(&self, cap: &Capability) -> bool {
        self.servers.iter().any(|s| s.port() == cap.port)
    }

    /// Creates `data`: on every replica in the replicated layout (one
    /// capability per replica, store order), on a single shard in the
    /// sharded layout (one capability).
    ///
    /// # Errors
    ///
    /// Replicated: fails if ANY replica cannot take the file (metadata
    /// must exist everywhere); already-created replicas are rolled back.
    /// Sharded: fails only when no shard can take it.
    pub fn create(&self, data: Bytes) -> Result<Vec<Capability>, DirError> {
        if self.sharded {
            return self.create_on_a_shard(data);
        }
        let mut caps = Vec::with_capacity(self.servers.len());
        for server in &self.servers {
            match server.create(data.clone(), STORE_PFACTOR) {
                Ok(cap) => caps.push(cap),
                Err(e) => {
                    self.delete(&caps);
                    return Err(DirError::Bullet(e));
                }
            }
        }
        Ok(caps)
    }

    /// Sharded placement: shards ordered by free disk space, most free
    /// first, falling over to the next candidate if the fullest choice
    /// still cannot take the file.
    fn create_on_a_shard(&self, data: Bytes) -> Result<Vec<Capability>, DirError> {
        let mut order: Vec<usize> = (0..self.servers.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.servers[i].disk_frag_report().free));
        let mut last = BulletError::NoSpace;
        for i in order {
            match self.servers[i].create(data.clone(), STORE_PFACTOR) {
                Ok(cap) => return Ok(vec![cap]),
                Err(e) => last = e,
            }
        }
        Err(DirError::Bullet(last))
    }

    /// Reads from the first replica that answers.
    ///
    /// # Errors
    ///
    /// The last replica's error if all fail.
    pub fn read(&self, caps: &[Capability]) -> Result<Bytes, DirError> {
        let mut last: Option<BulletError> = None;
        for cap in caps {
            for server in &self.servers {
                if server.port() != cap.port {
                    continue;
                }
                match server.read(cap) {
                    Ok(data) => return Ok(data),
                    Err(e) => last = Some(e),
                }
            }
        }
        Err(match last {
            Some(e) => DirError::Bullet(e),
            None => DirError::NotFound,
        })
    }

    /// Deletes every replica, best effort (a replica on a dead server is
    /// left for its own garbage collection).
    pub fn delete(&self, caps: &[Capability]) {
        for cap in caps {
            for server in &self.servers {
                if server.port() == cap.port {
                    let _ = server.delete(cap);
                }
            }
        }
    }

    /// Touches every replica that still exists (the aging-GC protocol).
    pub fn touch(&self, caps: &[Capability]) {
        for cap in caps {
            for server in &self.servers {
                if server.port() == cap.port {
                    let _ = server.touch(cap);
                }
            }
        }
    }

    /// All live capabilities across every replica server (for the
    /// mark-and-sweep collector).
    pub fn live_caps(&self) -> Vec<Capability> {
        self.servers
            .iter()
            .flat_map(|s| s.list_live_caps())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::Port;
    use bullet_core::BulletConfig;

    fn two_servers() -> (Arc<BulletServer>, Arc<BulletServer>, BulletStore) {
        let mut cfg_a = BulletConfig::small_test();
        cfg_a.port = Port::from_u64(0xaaaa);
        let mut cfg_b = BulletConfig::small_test();
        cfg_b.port = Port::from_u64(0xbbbb);
        cfg_b.scheme_seed = 0xb;
        let a = Arc::new(BulletServer::format(cfg_a, 1).unwrap());
        let b = Arc::new(BulletServer::format(cfg_b, 1).unwrap());
        let store = BulletStore::replicated(vec![a.clone(), b.clone()]);
        (a, b, store)
    }

    #[test]
    fn create_lands_on_every_replica() {
        let (a, b, store) = two_servers();
        let caps = store.create(Bytes::from_static(b"both")).unwrap();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].port, a.port());
        assert_eq!(caps[1].port, b.port());
        assert_eq!(a.read(&caps[0]).unwrap(), Bytes::from_static(b"both"));
        assert_eq!(b.read(&caps[1]).unwrap(), Bytes::from_static(b"both"));
    }

    #[test]
    fn read_falls_over_to_surviving_replica() {
        let (a, _b, store) = two_servers();
        let caps = store.create(Bytes::from_static(b"survivor")).unwrap();
        a.delete(&caps[0]).unwrap(); // first replica gone
        assert_eq!(store.read(&caps).unwrap(), Bytes::from_static(b"survivor"));
    }

    #[test]
    fn failed_create_rolls_back() {
        let (a, b, store) = two_servers();
        // Fill server B so the replicated create must fail there.
        let mut hog = Vec::new();
        while let Ok(cap) = b.create(Bytes::from(vec![0u8; 200 * 512]), 1) {
            hog.push(cap);
        }
        let live_a_before = a.list_live_caps().len();
        assert!(store.create(Bytes::from(vec![1u8; 200 * 512])).is_err());
        assert_eq!(
            a.list_live_caps().len(),
            live_a_before,
            "replica A rolled back"
        );
    }

    #[test]
    fn delete_and_touch_cover_all_replicas() {
        let (a, b, store) = two_servers();
        let caps = store.create(Bytes::from_static(b"x")).unwrap();
        store.touch(&caps);
        store.delete(&caps);
        assert!(a.read(&caps[0]).is_err());
        assert!(b.read(&caps[1]).is_err());
        assert!(store.read(&caps).is_err());
    }

    #[test]
    fn live_caps_spans_servers() {
        let (_a, _b, store) = two_servers();
        store.create(Bytes::from_static(b"1")).unwrap();
        store.create(Bytes::from_static(b"2")).unwrap();
        assert_eq!(store.live_caps().len(), 4);
        assert_eq!(store.width(), 2);
    }

    fn shard_set(count: u32) -> (bullet_core::BulletShards, BulletStore) {
        let shards = bullet_core::BulletShards::format(&BulletConfig::small_test(), count, 1)
            .expect("shard set formats");
        let store = BulletStore::sharded(shards.iter().cloned().collect());
        (shards, store)
    }

    #[test]
    fn sharded_create_places_on_exactly_one_shard() {
        let (shards, store) = shard_set(4);
        for n in 0..16u32 {
            let caps = store.create(Bytes::from(format!("file {n}"))).unwrap();
            assert_eq!(caps.len(), 1, "sharded placement is single-copy");
            assert_eq!(store.read(&caps).unwrap(), Bytes::from(format!("file {n}")));
        }
        assert_eq!(shards.total_live_files(), 16);
        // Free-space placement spreads equal-size files across the set.
        let spread = (0..4).filter(|&i| shards.shard(i).live_files() > 0).count();
        assert!(spread >= 2, "all 16 files piled onto {spread} shard(s)");
    }

    #[test]
    fn sharded_lookup_survives_a_racing_shard_migration() {
        let (shards, store) = shard_set(2);
        let caps = store.create(Bytes::from_static(b"moving target")).unwrap();
        let idx = caps[0].object.value();
        let home = (0..2)
            .find(|&i| shards.shard(i).read(&caps[0]).is_ok())
            .expect("the file lives somewhere");
        // A rebalance moves the extent between the directory server
        // storing the capability and the next lookup: the old home now
        // answers NotFound, and the store's port-matched fall-over walks
        // on to the shard that adopted the object.
        shards.rebalance(home, 1 - home, idx).unwrap();
        assert_eq!(
            store.read(&caps).unwrap(),
            Bytes::from_static(b"moving target")
        );
        store.touch(&caps); // aging must also reach the new home
        store.delete(&caps);
        assert_eq!(shards.total_live_files(), 0);
    }

    #[test]
    #[should_panic(expected = "share its port")]
    fn sharded_store_rejects_mixed_ports() {
        let (a, b, _) = two_servers();
        let _ = BulletStore::sharded(vec![a, b]);
    }
}
