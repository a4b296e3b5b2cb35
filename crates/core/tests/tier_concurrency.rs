//! Tier migrations racing concurrent reads.
//!
//! Demotion streams a cold file's extent to the WORM archive and frees
//! its fast-tier home; the first post-demotion read schedules a recall
//! that later moves the file back.  These tests race the sides the way
//! the server does — reader threads hammering `read` while maintenance
//! ticks demote and recall underneath them — and assert the bytes stay
//! exact through every migration and the fast-tier allocator never
//! double-frees an extent (`ExtentAllocator::free` errors on an invalid
//! free, so a double free fails the tick loudly instead of passing).
//! The proptest walks random op sequences against a shadow model and
//! additionally checks the allocator's byte accounting after every step.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use amoeba_cap::Capability;
use bullet_core::{counters, BulletConfig, BulletServer, CompactTick};
use bytes::Bytes;
use proptest::prelude::*;

fn fill_for(tag: u8, len: usize) -> Bytes {
    Bytes::from([tag, len as u8].repeat(len / 2 + 1)[..len].to_vec())
}

fn drain_maintenance(s: &BulletServer) {
    loop {
        if let CompactTick::Idle = s.compact_tick().unwrap() {
            return;
        }
    }
}

/// The barrier race: readers fetch files mid-migration while the driver
/// clears the cache (making everything a demotion candidate) and ticks
/// maintenance.  The gate is configured to tolerate the readers'
/// traffic, so demotions and recalls really do interleave with reads.
#[test]
fn tier_migrations_race_concurrent_reads() {
    let mut cfg = BulletConfig::small_test();
    cfg.archive_blocks = 1 << 16;
    cfg.tier_high_water_pct = 0; // any occupancy is "above water"
    cfg.maint_idle_request_delta = u64::MAX; // run despite reader traffic
    cfg.maint_moves_per_tick = 4;
    let s = Arc::new(BulletServer::format(cfg, 2).unwrap());
    let caps: Arc<Vec<Capability>> = Arc::new(
        (0..24)
            .map(|i| s.create(fill_for(i as u8, 600 + 37 * i), 2).unwrap())
            .collect(),
    );
    s.age_all().unwrap(); // one round cold: every uncached file is a candidate
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(4)); // 3 readers + the driver

    std::thread::scope(|scope| {
        for reader in 0..3u64 {
            let s = Arc::clone(&s);
            let caps = Arc::clone(&caps);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut rng = amoeba_sim::DetRng::new(0x7143 ^ (reader + 1));
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let i = rng.next_below(24) as usize;
                    // A read must return the exact bytes whichever tier
                    // the file sits on — or is moving between — now.
                    let data = s.read(&caps[i]).unwrap();
                    assert_eq!(data[0], i as u8, "foreign bytes mid-migration");
                    assert_eq!(data.len(), 600 + 37 * i, "truncated file");
                }
            });
        }

        barrier.wait();
        for round in 0..150u64 {
            if round % 3 == 0 {
                s.clear_cache();
            }
            s.compact_tick().unwrap();
            if round % 16 == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesce, then force the full round trip deterministically: archive
    // everything, read it all back (scheduling 24 recalls), and let the
    // scheduler bring every file home.
    drain_maintenance(&s);
    s.clear_cache();
    drain_maintenance(&s);
    let (desc, rows) = s.describe_layout();
    assert!(
        rows.iter().all(|r| r.start_block as u64 >= desc.data_end()),
        "every file ends up archived"
    );
    let report = s.disk_frag_report();
    assert_eq!(
        report.free, report.total,
        "fast tier fully reclaimed — nothing leaked or double-freed"
    );
    for (i, cap) in caps.iter().enumerate() {
        assert_eq!(s.read(cap).unwrap(), fill_for(i as u8, 600 + 37 * i));
    }
    assert_eq!(s.tier_recall_backlog(), 24);
    drain_maintenance(&s);
    assert_eq!(s.tier_recall_backlog(), 0);
    let promoted = s.stats().get(counters::TIER_PROMOTIONS);
    assert!(
        promoted >= 24,
        "all scheduled recalls completed: {promoted}"
    );
    for (i, cap) in caps.iter().enumerate() {
        assert_eq!(s.read(cap).unwrap(), fill_for(i as u8, 600 + 37 * i));
    }
}

/// Random op walks against a shadow model (proptest shrinks any
/// divergence to a minimal sequence).  The model mirrors every file's age
/// exactly — reads do *not* refresh ages; creation and touch do, and a
/// restart resets every live file's — so expiry, demotion eligibility,
/// and the allocator's byte accounting are all checked deterministically
/// after every step.
#[derive(Debug, Clone)]
enum TierOp {
    Create { len: usize, fill: u8 },
    Read(u8),
    Delete(u8),
    Touch(u8),
    ClearCache,
    Age,
    Tick,
    // Clean shutdown, then recovery re-adopting the archive: ages reset
    // and the cache starts cold.
    Restart,
}

fn arb_tier_op() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        4 => (64usize..2_000, any::<u8>()).prop_map(|(len, fill)| TierOp::Create { len, fill }),
        4 => any::<u8>().prop_map(TierOp::Read),
        2 => any::<u8>().prop_map(TierOp::Delete),
        2 => any::<u8>().prop_map(TierOp::Touch),
        2 => Just(TierOp::ClearCache),
        2 => Just(TierOp::Age),
        3 => Just(TierOp::Tick),
        1 => Just(TierOp::Restart),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn demote_read_promote_never_loses_bytes_or_extents(
        ops in prop::collection::vec(arb_tier_op(), 1..120),
    ) {
        let mut cfg = BulletConfig::small_test();
        cfg.archive_blocks = 1 << 16;
        cfg.tier_high_water_pct = 0;
        cfg.max_age = 3; // short enough that touches decide who expires
        let max_age = cfg.max_age;
        let mut s = BulletServer::format(cfg.clone(), 2).unwrap();
        // One slot per file ever created: (cap, bytes, model age).
        let mut files: Vec<Option<(Capability, Bytes, u32)>> = Vec::new();
        for op in &ops {
            match *op {
                TierOp::Create { len, fill } => {
                    let data = fill_for(fill, len);
                    let cap = s.create(data.clone(), 2).unwrap();
                    files.push(Some((cap, data, max_age)));
                }
                TierOp::Read(i) => {
                    if files.is_empty() {
                        continue;
                    }
                    let slot = i as usize % files.len();
                    // Expired slots hold None and are simply skipped.
                    if let Some((cap, data, _)) = &files[slot] {
                        prop_assert_eq!(&s.read(cap).unwrap(), data);
                    }
                }
                TierOp::Delete(i) => {
                    if files.is_empty() {
                        continue;
                    }
                    let slot = i as usize % files.len();
                    if let Some((cap, _, _)) = files[slot].take() {
                        s.delete(&cap).unwrap();
                    }
                }
                TierOp::Touch(i) => {
                    if files.is_empty() {
                        continue;
                    }
                    let slot = i as usize % files.len();
                    if let Some((cap, _, age)) = &mut files[slot] {
                        s.touch(cap).unwrap();
                        *age = max_age;
                    }
                }
                TierOp::ClearCache => s.clear_cache(),
                TierOp::Age => {
                    let mut expired_model = 0u64;
                    for entry in files.iter_mut() {
                        let expired = match entry {
                            Some((_, _, age)) => {
                                *age -= 1;
                                *age == 0
                            }
                            None => false,
                        };
                        if expired {
                            expired_model += 1;
                            *entry = None;
                        }
                    }
                    prop_assert_eq!(s.age_all().unwrap(), expired_model);
                }
                TierOp::Tick => {
                    s.compact_tick().unwrap();
                }
                TierOp::Restart => {
                    let archive = s.archive_device().unwrap();
                    let storage = s.shutdown().unwrap();
                    s = BulletServer::recover_with_archive(cfg.clone(), storage, archive).unwrap();
                    prop_assert!(s.describe_layout().1.iter().all(|r| !r.cached));
                    for (_, _, age) in files.iter_mut().flatten() {
                        *age = max_age;
                    }
                }
            }
            // Allocator exactness after every op: fast-tier usage must
            // equal the live fast-resident extents.  A migration that
            // leaked an extent or freed one twice diverges here.
            let (desc, rows) = s.describe_layout();
            let fast: u64 = rows
                .iter()
                .filter(|r| (r.start_block as u64) < desc.data_end())
                .map(|r| r.blocks)
                .sum();
            let report = s.disk_frag_report();
            prop_assert_eq!(report.total - report.free, fast);
        }
        for entry in files.iter().flatten() {
            prop_assert_eq!(&s.read(&entry.0).unwrap(), &entry.1);
        }
    }
}
