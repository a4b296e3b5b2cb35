//! Concurrency stress: many client threads hammering one server while
//! faults are injected — the server must stay consistent throughout.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use amoeba_bullet::bullet::{BulletConfig, BulletError, BulletServer};
use amoeba_bullet::cap::Capability;
use amoeba_bullet::dir::DirServer;
use amoeba_bullet::disk::{BlockDevice, DiskError, FaultyDisk, MirroredDisk, RamDisk};
use amoeba_bullet::sim::DetRng;
use amoeba_bullet::unix::{UnixFs, WritePolicy};
use bytes::Bytes;
use crossbeam::channel::unbounded;

fn big_config() -> BulletConfig {
    let mut cfg = BulletConfig::small_test();
    cfg.disk_blocks = 32_768;
    cfg.cache_capacity = 8 << 20;
    cfg.min_inodes = 4096;
    cfg.rnode_slots = 4096;
    cfg
}

#[test]
fn many_threads_create_read_delete_consistently() {
    let server = Arc::new(BulletServer::format(big_config(), 2).unwrap());
    let threads = 8;
    let per_thread = 50;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut rng = DetRng::new(t as u64 + 1);
                let mut live: Vec<(Capability, Vec<u8>)> = Vec::new();
                for i in 0..per_thread {
                    let size = (rng.next_below(4000) + 1) as usize;
                    let fill = (t * 31 + i) as u8;
                    let data = vec![fill; size];
                    let cap = server.create(Bytes::from(data.clone()), 1).unwrap();
                    live.push((cap, data));
                    // Read a random live file back.
                    let (cap, expect) = &live[rng.next_below(live.len() as u64) as usize];
                    assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
                    // Occasionally delete one.
                    if rng.next_f64() < 0.3 {
                        let i = rng.next_below(live.len() as u64) as usize;
                        let (cap, _) = live.swap_remove(i);
                        server.delete(&cap).unwrap();
                    }
                }
                live
            })
        })
        .collect();

    let survivors: Vec<(Capability, Vec<u8>)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    // Every thread's survivors read back exactly.
    for (cap, expect) in &survivors {
        assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
    }
    assert_eq!(server.live_files(), survivors.len());
    // Storage accounting survived the contention.
    let frag = server.disk_frag_report();
    assert!(frag.free <= frag.total);
    // So did the inode blocks the threads shared: no image written out of
    // order lost a survivor's inode or kept a deleted one.
    let storage = Arc::try_unwrap(server).unwrap().shutdown().unwrap();
    let server = BulletServer::recover(big_config(), storage).unwrap();
    assert_eq!(server.live_files(), survivors.len());
    for (cap, expect) in &survivors {
        assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
    }
}

#[test]
fn disk_dies_mid_stress_and_nobody_notices() {
    let cfg = big_config();
    let a = Arc::new(FaultyDisk::new(RamDisk::new(
        cfg.block_size,
        cfg.disk_blocks,
    )));
    let b = Arc::new(FaultyDisk::new(RamDisk::new(
        cfg.block_size,
        cfg.disk_blocks,
    )));
    let storage = MirroredDisk::new(vec![
        a.clone() as Arc<dyn BlockDevice>,
        b.clone() as Arc<dyn BlockDevice>,
    ])
    .unwrap();
    let server = Arc::new(BulletServer::format_on(cfg, storage).unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let (err_tx, err_rx) = unbounded::<String>();
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let server = server.clone();
            let stop = stop.clone();
            let err_tx = err_tx.clone();
            std::thread::spawn(move || {
                let mut rng = DetRng::new(100 + t);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let data = vec![t as u8; (rng.next_below(2000) + 1) as usize];
                    match server.create(Bytes::from(data.clone()), 1) {
                        Ok(cap) => {
                            if server.read(&cap).map(|d| d.to_vec()) != Ok(data) {
                                let _ = err_tx.send(format!("thread {t}: read mismatch"));
                            }
                            if server.delete(&cap).is_err() {
                                let _ = err_tx.send(format!("thread {t}: delete failed"));
                            }
                        }
                        Err(e) => {
                            let _ = err_tx.send(format!("thread {t}: create failed: {e}"));
                        }
                    }
                    n += 1;
                }
                n
            })
        })
        .collect();

    // Let the workers run, kill a disk under them, let them keep running.
    std::thread::sleep(std::time::Duration::from_millis(50));
    a.fail_now();
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let total_ops: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    drop(err_tx);
    let errors: Vec<String> = err_rx.into_iter().collect();
    assert!(errors.is_empty(), "worker errors: {errors:?}");
    assert!(total_ops > 100, "only {total_ops} ops completed");
    assert_eq!(server.storage().alive_count(), 1);
    assert_eq!(server.live_files(), 0);
}

/// Per-file byte pattern that makes torn or cross-wired reads visible:
/// every position depends on the writer, the sequence number, and the
/// offset, so bytes from any other file (or zero padding) cannot match.
fn pattern(t: usize, i: usize, len: usize) -> Vec<u8> {
    let seed = (t as u8).wrapping_mul(37).wrapping_add(i as u8);
    (0..len).map(|j| seed.wrapping_add(j as u8)).collect()
}

/// All workers start on one barrier and hammer create/read/delete while a
/// maintenance thread runs disk compaction, arena compaction, and cache
/// flushes in a tight loop.  No file may be lost or torn: every read
/// must return exactly the bytes committed by its create, both during
/// the storm and after it settles.
#[test]
fn barrier_storm_with_concurrent_compaction() {
    const WORKERS: usize = 6;
    const OPS: usize = 40;
    let server = Arc::new(BulletServer::format(big_config(), 2).unwrap());
    let barrier = Arc::new(std::sync::Barrier::new(WORKERS + 1));
    let stop = Arc::new(AtomicBool::new(false));

    let survivors: Vec<Vec<(Capability, Vec<u8>)>> = std::thread::scope(|scope| {
        let maintenance = {
            let server = server.clone();
            let barrier = barrier.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                barrier.wait();
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    server.compact_disk().unwrap();
                    server.compact_memory();
                    server.clear_cache();
                    rounds += 1;
                }
                rounds
            })
        };
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let server = server.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let mut rng = DetRng::new(0xbeef + t as u64);
                    let mut live: Vec<(Capability, Vec<u8>)> = Vec::new();
                    barrier.wait();
                    for i in 0..OPS {
                        let data = pattern(t, i, (rng.next_below(3000) + 1) as usize);
                        let cap = server.create(Bytes::from(data.clone()), 2).unwrap();
                        live.push((cap, data));
                        let (cap, expect) = &live[rng.next_below(live.len() as u64) as usize];
                        assert_eq!(&server.read(cap).unwrap()[..], &expect[..], "torn read");
                        if rng.next_f64() < 0.25 {
                            let victim = rng.next_below(live.len() as u64) as usize;
                            let (cap, _) = live.swap_remove(victim);
                            server.delete(&cap).unwrap();
                        }
                    }
                    live
                })
            })
            .collect();
        let survivors: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        assert!(maintenance.join().unwrap() > 0, "compaction never ran");
        survivors
    });

    // After the storm: nothing lost, nothing torn, accounting exact.
    let total: usize = survivors.iter().map(Vec::len).sum();
    assert_eq!(server.live_files(), total);
    for (cap, expect) in survivors.iter().flatten() {
        assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
    }
    // One more quiesced compaction keeps every survivor readable.
    server.compact_disk().unwrap();
    for (cap, expect) in survivors.iter().flatten() {
        assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
    }
    let frag = server.disk_frag_report();
    assert!(frag.free <= frag.total);
}

/// True for a capability whose file is gone: its slot is free, or holds
/// another file by now.
fn gone(e: &BulletError) -> bool {
    matches!(e, BulletError::NotFound | BulletError::CapBad)
}

/// Four clients create, read, touch and delete while a fifth thread runs
/// aging rounds back to back at the shortest ages, so expiry can take any
/// file at any moment and a client learns of it from the server.  No read
/// may return foreign bytes, no file may outlive the clients' knowledge
/// of it, and no extent may be owned by nobody.
#[test]
fn aging_races_creates_touches_and_deletes() {
    const OPS: usize = 1000;
    for max_age in [1, 2] {
        let mut cfg = big_config();
        cfg.max_age = max_age;
        let server = BulletServer::format(cfg, 2).unwrap();
        let stop = AtomicBool::new(false);
        let held: Vec<(Capability, Vec<u8>)> = std::thread::scope(|scope| {
            let aging = scope.spawn(|| {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    server.age_all().unwrap();
                    rounds += 1;
                }
                rounds
            });
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut rng = DetRng::new(0xa9e5 + t as u64);
                        let mut live: Vec<(Capability, Vec<u8>)> = Vec::new();
                        for i in 0..OPS {
                            let data = pattern(t, i, (rng.next_below(1500) + 1) as usize);
                            let cap = server.create(Bytes::from(data.clone()), 1).unwrap();
                            live.push((cap, data));
                            let pick = rng.next_below(live.len() as u64) as usize;
                            let cap = live[pick].0;
                            let outcome = match rng.next_below(3) {
                                0 => server.read(&cap).map(|got| {
                                    assert!(got[..] == live[pick].1[..], "foreign bytes");
                                }),
                                1 => server.touch(&cap),
                                _ => server.delete(&cap).map(|()| {
                                    live.swap_remove(pick);
                                }),
                            };
                            match outcome {
                                Ok(()) => {}
                                Err(e) if gone(&e) => drop(live.swap_remove(pick)),
                                Err(e) => panic!("thread {t}: {e}"),
                            }
                        }
                        live
                    })
                })
                .collect();
            // Stop the aging loop before a worker's panic can propagate,
            // or the scope would wait on it forever.
            let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            stop.store(true, Ordering::Relaxed);
            assert!(aging.join().unwrap() > 0, "aging never ran");
            joined.into_iter().flat_map(Result::unwrap).collect()
        });

        // Quiescent: every file a client still holds reads back exactly
        // or has expired, and the server holds exactly the survivors.
        let survivors = held
            .iter()
            .filter(|(cap, expect)| match server.read(cap) {
                Ok(got) => {
                    assert_eq!(&got[..], &expect[..]);
                    true
                }
                Err(e) => {
                    assert!(gone(&e), "max_age {max_age}: {e}");
                    false
                }
            })
            .count();
        assert_eq!(server.live_files(), survivors, "max_age {max_age}");
        assert!(server.stats().get("aged_out") > 0, "nothing expired");
        // Allocator exactness: every used block is a live file's.
        let (_, rows) = server.describe_layout();
        let report = server.disk_frag_report();
        assert_eq!(
            report.total - report.free,
            rows.iter().map(|r| r.blocks).sum::<u64>(),
            "max_age {max_age}"
        );
    }
}

/// A RAM disk that counts the reads reaching it and holds each one for a
/// millisecond before serving it, so racing readers overlap in their
/// disk phase and a writer can act while a read is in flight.
struct CountingDisk {
    inner: RamDisk,
    reads: AtomicU64,
}

impl BlockDevice for CountingDisk {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.inner.read_blocks(first_block, buf)
    }
    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.inner.write_blocks(first_block, data)
    }
    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }
}

/// Readers start on one barrier and cold-read one uncached file together.
/// The file's in-flight guard lets exactly one extent read reach the
/// disks, and every reader gets the file's bytes.  Then the same race
/// beside a delete and a create that reuses the slot: a reader gets the
/// old bytes or a gone error, never the new file's bytes.
#[test]
fn readers_racing_on_one_cold_file_share_one_extent_read() {
    const READERS: usize = 8;
    const ROUNDS: usize = 20;
    let cfg = big_config();
    let disks: Vec<Arc<CountingDisk>> = (0..2)
        .map(|_| {
            Arc::new(CountingDisk {
                inner: RamDisk::new(cfg.block_size, cfg.disk_blocks),
                reads: AtomicU64::new(0),
            })
        })
        .collect();
    let devices = disks.iter().map(|d| d.clone() as Arc<dyn BlockDevice>);
    let storage = MirroredDisk::new(devices.collect()).unwrap();
    let server = BulletServer::format_on(cfg, storage).unwrap();
    let reads = || -> u64 { disks.iter().map(|d| d.reads.load(Ordering::SeqCst)).sum() };
    let race = |cap: &Capability, writer: &(dyn Fn() + Sync)| {
        let barrier = Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        server.read(cap)
                    })
                })
                .collect();
            barrier.wait();
            writer();
            let got: Vec<Result<Bytes, BulletError>> =
                readers.into_iter().map(|r| r.join().unwrap()).collect();
            got
        })
    };
    for round in 0..ROUNDS {
        let old = pattern(round, 0, 3000);
        let cap = server.create(Bytes::from(old.clone()), 2).unwrap();
        server.clear_cache();
        let before = reads();
        for got in race(&cap, &|| ()) {
            assert_eq!(&got.unwrap()[..], &old[..], "round {round}");
        }
        assert_eq!(reads() - before, 1, "round {round}: one extent read");

        server.clear_cache();
        let new = pattern(round, 1, 3000);
        let fresh = Mutex::new(None);
        let got = race(&cap, &|| {
            server.delete(&cap).unwrap();
            let created = server.create(Bytes::from(new.clone()), 2).unwrap();
            *fresh.lock().unwrap() = Some(created);
        });
        let fresh = fresh.into_inner().unwrap().unwrap();
        assert_eq!(fresh.object, cap.object, "the create reuses the slot");
        for got in got {
            match got {
                Ok(bytes) => assert_eq!(&bytes[..], &old[..], "round {round}"),
                Err(e) => assert!(gone(&e), "round {round}: {e:?}"),
            }
        }
        server.delete(&fresh).unwrap();
    }
}

#[test]
fn unix_layer_concurrent_distinct_files() {
    let bullet = Arc::new(BulletServer::format(big_config(), 2).unwrap());
    let dirs = Arc::new(DirServer::bootstrap(bullet.clone()).unwrap());
    let fs = Arc::new(UnixFs::with_policy(
        dirs,
        bullet,
        WritePolicy::LastWriterWins,
    ));
    std::thread::scope(|scope| {
        for t in 0..6u8 {
            let fs = fs.clone();
            scope.spawn(move || {
                let dir = format!("/worker-{t}");
                fs.mkdir(&dir).unwrap();
                for i in 0..15u8 {
                    let path = format!("{dir}/file-{i}");
                    fs.write_file(&path, &vec![t ^ i; 512]).unwrap();
                    assert_eq!(fs.read_file(&path).unwrap(), vec![t ^ i; 512]);
                }
            });
        }
    });
    assert_eq!(fs.readdir("/").unwrap().len(), 6);
    for t in 0..6u8 {
        assert_eq!(fs.readdir(&format!("/worker-{t}")).unwrap().len(), 15);
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under any concurrent schedule — mixed P-FACTORs, deletes, disk
    /// compactions, and cache flushes racing across threads — a read of
    /// a capability returns exactly the bytes committed when that
    /// capability was minted, never a torn or foreign image.
    #[test]
    fn concurrent_reads_return_committed_bytes(
        plans in proptest::collection::vec(
            proptest::collection::vec((1usize..2500, 0u32..100), 2..14),
            2..5,
        )
    ) {
        let server = Arc::new(BulletServer::format(big_config(), 2).unwrap());
        std::thread::scope(|scope| {
            for (t, plan) in plans.iter().enumerate() {
                let server = server.clone();
                scope.spawn(move || {
                    let mut live: Vec<(Capability, Vec<u8>)> = Vec::new();
                    for (i, &(size, act)) in plan.iter().enumerate() {
                        let data = pattern(t, i, size);
                        let cap = server.create(Bytes::from(data.clone()), act % 3).unwrap();
                        live.push((cap, data));
                        let pick = act as usize % live.len();
                        let (cap, expect) = &live[pick];
                        assert_eq!(&server.read(cap).unwrap()[..], &expect[..], "torn read");
                        if act >= 70 {
                            let (cap, _) = live.swap_remove(pick);
                            server.delete(&cap).unwrap();
                        } else if act < 5 {
                            server.compact_disk().unwrap();
                        } else if act < 10 {
                            server.clear_cache();
                        }
                    }
                    for (cap, expect) in &live {
                        assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
                    }
                });
            }
        });
        server.sync().unwrap();
        let report = server.disk_frag_report();
        prop_assert!(report.free <= report.total);
    }
}

#[test]
fn concurrent_grouped_creates_read_back_and_survive_a_crash() {
    let mut cfg = big_config();
    cfg.log_blocks = 4096;
    let server = Arc::new(BulletServer::format(cfg.clone(), 2).unwrap());
    let (threads, per_thread) = (4, 64);
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (server, barrier) = (server.clone(), barrier.clone());
            std::thread::spawn(move || {
                let mut rng = DetRng::new(t as u64 + 11);
                barrier.wait();
                (0..per_thread)
                    .map(|i| {
                        let len = 1024 + rng.next_below(3 * 1024 + 1) as usize;
                        let data = pattern(t, i, len);
                        let cap = server.create(Bytes::from(data.clone()), 1).unwrap();
                        (cap, data)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let files: Vec<(Capability, Vec<u8>)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    for (cap, expect) in &files {
        assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
    }
    assert_eq!(server.stats().get("creates"), 256);
    // Batch sizes depend on timing; durability does not.
    let storage = Arc::try_unwrap(server).unwrap().crash();
    let server = BulletServer::recover(cfg, storage).unwrap();
    assert_eq!(server.live_files(), files.len());
    for (cap, expect) in &files {
        assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
    }
}
