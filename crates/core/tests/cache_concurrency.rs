//! Compaction racing concurrent lookups, and warm reads racing the
//! reuse of their file's slots.
//!
//! The server serves a cached file from the entry its cache fill
//! published in the file's inode slot, under that slot's guard alone; a
//! lookup that finds no entry runs under the table's read lock, where
//! `FileCache::get` takes `&self`.  Both refresh the rnode age (and,
//! under SegmentedLru, the segment tag and protected-byte count) through
//! atomics.  Compaction and eviction run under the write lock and
//! rewrite arena offsets.  The
//! cache tests race the two sides the way the server does — many readers
//! hammering `get` between write-locked insert/remove/compact storms —
//! and assert the map survives exactly: no entry lost, none double-freed
//! (the arena's `free` panics on an invalid extent, so a double free
//! cannot pass silently), byte accounting exact.  The server tests race
//! warm reads of one file against its delete, its inode slot's reuse and
//! its rnode's reuse, and cold reads of one file against each other.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use amoeba_cap::Capability;
use bullet_core::{BulletConfig, BulletError, BulletServer, EvictionPolicy, FileCache};
use bytes::Bytes;
use parking_lot::RwLock;
use proptest::prelude::*;

fn fill_for(inode: u32, len: usize) -> Bytes {
    Bytes::from([inode as u8, len as u8].repeat(len / 2 + 1)[..len].to_vec())
}

/// The barrier race: readers age-refresh through `&self` while a writer
/// compacts and churns under `&mut self`, exactly the server's locking.
fn race(policy: EvictionPolicy, seed: u64) {
    let cache = Arc::new(RwLock::new(FileCache::with_policy(64 * 1024, 64, policy)));
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(5)); // 4 readers + the writer

    std::thread::scope(|s| {
        for reader in 0..4u64 {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut rng = amoeba_sim::DetRng::new(seed ^ (reader + 1));
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let inode = rng.next_below(96) as u32;
                    // A hit must always return the exact bytes that were
                    // inserted for this inode, mid-compaction or not.
                    if let Some(data) = cache.read().get(inode) {
                        assert_eq!(data[0], inode as u8, "foreign bytes surfaced");
                        assert_eq!(data[1], data.len() as u8, "truncated entry");
                    }
                }
            });
        }

        // The writer drives churn sized to force both eviction (64 KB
        // capacity, entries up to 2 KB) and fragmentation → compaction
        // (removals punch holes; insert compacts when free bytes suffice
        // but no hole is contiguous).
        let mut rng = amoeba_sim::DetRng::new(seed);
        let mut model: HashMap<u32, usize> = HashMap::new();
        barrier.wait();
        for i in 0..4_000u64 {
            let mut c = cache.write();
            match rng.next_below(10) {
                0..=5 => {
                    let inode = rng.next_below(96) as u32;
                    let len = 64 + rng.next_below(2_000) as usize;
                    let out = c.insert(inode, fill_for(inode, len)).unwrap();
                    model.insert(inode, len);
                    for victim in out.evicted {
                        model.remove(&victim);
                    }
                }
                6..=8 => {
                    let inode = rng.next_below(96) as u32;
                    let removed = c.remove(inode);
                    assert_eq!(removed.is_some(), model.remove(&inode).is_some());
                }
                _ => {
                    c.compact();
                }
            }
            // Give readers lock air every few writes.
            if i % 16 == 0 {
                drop(c);
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);

        // Exactness: the cache holds the model, entry for entry.
        let c = cache.read();
        assert_eq!(c.len(), model.len(), "entries lost or duplicated");
        let mut live_bytes = 0u64;
        for (&inode, &len) in &model {
            let data = c.peek(inode).expect("model entry missing from cache");
            assert_eq!(data.len(), len);
            assert_eq!(data, fill_for(inode, len));
            live_bytes += (len as u64).max(1);
        }
        assert_eq!(c.used_bytes(), live_bytes, "arena accounting drifted");
        assert!(
            c.stats().get("cache_compactions") + c.stats().get("cache_evictions") > 0,
            "the race never exercised the interesting paths"
        );
    });
}

#[test]
fn compaction_races_concurrent_age_refreshes_lru() {
    for seed in [1, 0xbeef, 0x5eed] {
        race(EvictionPolicy::Lru, seed);
    }
}

#[test]
fn compaction_races_concurrent_promotions_slru() {
    // SegmentedLru is the hard case: readers also flip segment tags and
    // bump the protected-byte count under the read lock.
    for seed in [2, 0xcafe, 0x7eed] {
        race(EvictionPolicy::SegmentedLru, seed);
    }
}

#[test]
fn compaction_races_concurrent_lookups_twoq() {
    for seed in [3, 0xdead, 0x9eed] {
        race(EvictionPolicy::TwoQ, seed);
    }
}

/// Single-threaded model equivalence across random op walks, per policy:
/// whatever the policy evicts, the surviving map must match a shadow
/// model exactly after every step (proptest shrinks any divergence to a
/// minimal op sequence).
#[derive(Debug, Clone)]
enum CacheOp {
    Insert { inode: u32, len: usize },
    Get(u32),
    Remove(u32),
    Compact,
}

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        5 => (0u32..48, 16usize..3_000).prop_map(|(inode, len)| CacheOp::Insert { inode, len }),
        3 => (0u32..48).prop_map(CacheOp::Get),
        2 => (0u32..48).prop_map(CacheOp::Remove),
        1 => Just(CacheOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn policies_never_lose_or_double_free_entries(
        ops in prop::collection::vec(arb_cache_op(), 1..200),
        policy_idx in 0usize..3,
    ) {
        let policy = [
            EvictionPolicy::Lru,
            EvictionPolicy::SegmentedLru,
            EvictionPolicy::TwoQ,
        ][policy_idx];
        let mut c = FileCache::with_policy(32 * 1024, 32, policy);
        let mut model: HashMap<u32, usize> = HashMap::new();
        for op in &ops {
            match *op {
                CacheOp::Insert { inode, len } => {
                    let out = c.insert(inode, fill_for(inode, len)).unwrap();
                    model.insert(inode, len);
                    for victim in out.evicted {
                        prop_assert!(model.remove(&victim).is_some(), "evicted a non-entry");
                    }
                }
                CacheOp::Get(inode) => {
                    prop_assert_eq!(c.get(inode).is_some(), model.contains_key(&inode));
                }
                CacheOp::Remove(inode) => {
                    prop_assert_eq!(c.remove(inode).is_some(), model.remove(&inode).is_some());
                }
                CacheOp::Compact => {
                    c.compact();
                }
            }
            prop_assert_eq!(c.len(), model.len());
            let live: u64 = model.values().map(|&l| (l as u64).max(1)).sum();
            prop_assert_eq!(c.used_bytes(), live);
        }
        for (&inode, &len) in &model {
            let data = c.peek(inode).expect("model entry missing");
            prop_assert_eq!(data, fill_for(inode, len));
        }
    }
}

/// A warm read never serves another file's bytes from its slot.  Readers
/// loop on the capability of file A, which its create published.  A
/// writer evicts A's rnode with inserts, deletes A, creates B until B
/// lands in A's inode slot (the free-slot list is LIFO), which publishes
/// B, and evicts again.  Every read of A returns A's bytes (a hit, or a reload
/// while A lives), `NotFound` or `CapBad`; none returns B's.  A hit that
/// outlives its rnode trips the cache's debug check on the reader.
/// Three readers on fewer cores are preempted at every point of a read,
/// which is what opens a window between two guards if there is one.
#[test]
fn a_warm_read_never_serves_another_files_bytes_from_its_slot() {
    const CYCLES: u32 = 600;
    const FILE: usize = 1_000;
    let server = BulletServer::format(
        BulletConfig {
            // FIFO: hits cannot keep A resident against the fillers.
            eviction: EvictionPolicy::Fifo,
            cache_capacity: 8 * FILE as u64,
            ..BulletConfig::small_test()
        },
        1,
    )
    .unwrap();
    let file = |n: u32, len: usize| Bytes::from(vec![(n % 251) as u8 + 1; len]);
    let current: RwLock<Option<(Capability, Bytes)>> = RwLock::new(None);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let Some((cap, a)) = current.read().clone() else {
                            continue;
                        };
                        match server.read(&cap) {
                            Ok(got) => {
                                assert!(got == a, "a read of A served another file's bytes");
                                served += 1;
                            }
                            Err(BulletError::NotFound | BulletError::CapBad) => {}
                            Err(e) => panic!("read of A: {e}"),
                        }
                    }
                    served
                })
            })
            .collect();
        // However the writer leaves, the readers stop, or the scope would
        // wait on them forever.
        let stopper = StopOnDrop(&stop);
        // Fillers of FILE bytes each: nine push every older entry out of
        // an eight-file FIFO cache.
        let evict_all = |n: u32| {
            let fillers: Vec<_> = (0..9)
                .map(|i| server.create(file(n + i, FILE), 1).unwrap())
                .collect();
            fillers.iter().for_each(|f| server.delete(f).unwrap());
        };
        for cycle in 0..CYCLES {
            let n = cycle * 20;
            let a_bytes = file(n, FILE - 1 - (cycle as usize % 7));
            let a = server.create(a_bytes.clone(), 1).unwrap();
            assert_eq!(server.read(&a).unwrap(), a_bytes);
            *current.write() = Some((a, a_bytes));
            evict_all(n + 1);
            server.read(&a).unwrap();
            server.delete(&a).unwrap();
            let b_bytes = file(n + 10, FILE);
            let mut extra = Vec::new();
            let b = loop {
                let b = server.create(b_bytes.clone(), 1).unwrap();
                if b.object == a.object {
                    break b;
                }
                extra.push(b);
            };
            assert_eq!(server.read(&b).unwrap(), b_bytes);
            evict_all(n + 11);
            for f in extra.iter().chain([&b]) {
                server.delete(f).unwrap();
            }
        }
        drop(stopper);
        let served: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(served > 0, "no read of A was ever served");
    });
}

/// Concurrent cold reads of one file load it once and count one lookup
/// each.  Eight readers start on one barrier and read a file just
/// dropped from the cache.  Every read returns the file's bytes,
/// `cache_misses` rises by exactly one (the one load) and
/// `cache_hits + cache_misses` by exactly eight.  A reader that waits
/// out the load on the file's in-flight guard counts its one lookup
/// there, as a hit, and never a miss before it.  Repeated, so that some
/// rounds catch readers behind the load.
#[test]
fn concurrent_cold_reads_load_once_and_count_one_lookup_each() {
    const READERS: usize = 8;
    const ROUNDS: usize = 100;
    let server = BulletServer::format(BulletConfig::small_test(), 1).unwrap();
    let bytes = Bytes::from((0..64 * 1024).map(|i| (i % 251) as u8).collect::<Vec<_>>());
    let cap = server.create(bytes.clone(), 1).unwrap();
    let lookups = || {
        let stats: HashMap<_, _> = server.cache_stats().into_iter().collect();
        let count = |name| stats.get(name).copied().unwrap_or(0);
        (
            count("cache_misses"),
            count("cache_hits") + count("cache_misses"),
        )
    };
    for round in 0..ROUNDS {
        server.clear_cache();
        let (misses, total) = lookups();
        let barrier = Barrier::new(READERS);
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    barrier.wait();
                    assert!(server.read(&cap).unwrap() == bytes, "a read lost the bytes");
                });
            }
        });
        let (misses_after, total_after) = lookups();
        assert_eq!(misses_after - misses, 1, "round {round}: not one load");
        assert_eq!(
            total_after - total,
            READERS as u64,
            "round {round}: not one counted lookup per read"
        );
    }
}

/// Raises its flag when dropped, unwinding included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}
