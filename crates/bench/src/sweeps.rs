//! The single-table ablations of the paper's design decisions
//! (ABL1–11): each sweeps one dial of the 1989 testbed, renders one table
//! with its commentary, and states its headline invariant as criteria.

use std::collections::HashMap;
use std::sync::Arc;

use amoeba_cap::Capability;
use amoeba_disk::{RamDisk, SchedConfig, SchedDisk};
use amoeba_log::LogServer;
use amoeba_net::SimEthernet;
use amoeba_rpc::{Dispatcher, RpcClient, DEFAULT_SEGMENT};
use amoeba_sim::{capture, DetRng, Histogram, HwProfile, Nanos, SimClock};
use bullet_core::{
    BulletClient, BulletConfig, BulletError, BulletRpcServer, BulletServer, EvictionPolicy,
};
use bytes::Bytes;
use nfs_blockfs::BlockFs;

use crate::ablation::{Invariant, Outcome};
use crate::rig::{paper_config, sim_mirror, BulletRig, Makespan};
use crate::table::{bandwidth_kb_s, size_label, Text, SIZES};
use crate::workload::{nth, WorkloadMix};

/// ABL1 — the RAM cache: warm reads (the paper's Fig. 2 setting, "the
/// test file will be completely in memory") against cold reads that must
/// fetch the contiguous extent from disk.
pub fn cache() -> Outcome {
    let mut reds: Vec<String> = Vec::new();
    let mut t = Text::titled("ABL1 — Bullet READ delay, RAM cache hit vs cold (disk) read");
    t.0 += "     File Size       warm (ms)       cold (ms)   cold/warm\n";
    for &size in &SIZES {
        let rig = BulletRig::paper_1989();
        let warm = rig.measure_read(size);
        let cold = rig.measure_cold_read(size);
        writeln!(
            t,
            "  {:>12}  {:>14.2}  {:>14.2}  {:>9.1}x",
            size_label(size),
            warm.as_ms_f64(),
            cold.as_ms_f64(),
            cold.as_ns() as f64 / warm.as_ns() as f64
        );
        if cold <= warm {
            reds.push(size_label(size));
        }
    }
    writeln!(t);
    writeln!(t, "Cold bandwidth at 1 MB: {:.0} KB/s;", {
        let rig = BulletRig::paper_1989();
        bandwidth_kb_s(1 << 20, rig.measure_cold_read(1 << 20))
    });
    t.0 += "with the streaming pipeline (ABL11) a cold multi-segment read runs at
max(disk, wire) rather than their sum, so the cold/warm gap at 1 MB is
the pipeline fill, not a full extra disk pass; the cache still wins —
a warm read never touches the disk arm at all.
";
    let criteria = vec![Invariant::rows(
        "a warm (cache-hit) read beats the cold read at every size",
        &reds,
    )];
    Outcome::plain("ablation_cache.txt", &t, criteria)
}

/// Server-side cold fetch from the Bullet layout (one contiguous I/O).
fn bullet_fetch(size: usize) -> Nanos {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let storage = sim_mirror(1, 1024, 65_536, &clock, hw.disk);
    let mut cfg = BulletConfig::small_test();
    cfg.clock = clock.clone();
    cfg.cache_capacity = 16 << 20;
    cfg.rnode_slots = 64;
    let server = BulletServer::format_on(cfg, storage).expect("format");
    let cap = server
        .create(Bytes::from(vec![1u8; size]), 1)
        .expect("create");
    server.clear_cache();
    let t0 = clock.now();
    server.read(&cap).expect("cold read");
    clock.now() - t0
}

/// Server-side cold fetch from the aged block layout (per-block I/O plus
/// indirect-block reads).
fn blockfs_fetch(size: usize) -> Nanos {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let disk = SchedDisk::new(
        RamDisk::new(1024, 65_536),
        clock.clone(),
        hw.disk,
        SchedConfig::default(),
    );
    // Aged: scattered allocation; cache large enough to hold metadata but
    // dropped before the measured read so data comes off the platter.
    let mut fs = BlockFs::format(disk, 64, 8 << 20, Some(0xa6ed)).expect("format");
    let (ino, generation) = fs.create_inode().expect("inode");
    let data = vec![2u8; size];
    for (i, chunk) in data.chunks(1024).enumerate() {
        fs.write(ino, generation, (i * 1024) as u32, chunk)
            .expect("write");
    }
    fs.drop_caches();
    let t0 = clock.now();
    fs.read(ino, generation, 0, size as u32).expect("cold read");
    clock.now() - t0
}

/// ABL2 — contiguity itself, with the network out of the picture:
/// fetching a file's bytes off the disk as one contiguous extent (Bullet)
/// versus block-at-a-time through indirect blocks on an aged, scattered
/// file system (the traditional design).  Both sides run on an identical
/// simulated SCSI drive; only the layout policy differs — this isolates
/// the paper's core architectural bet.
pub fn contiguity() -> Outcome {
    let mut t =
        Text::titled("ABL2 — cold server-side fetch (no network): contiguous vs scattered blocks");
    t.0 += "     File Size   contiguous (ms)    scattered (ms)       ratio\n";
    let mut reds: Vec<String> = Vec::new();
    for &size in &SIZES {
        let c = bullet_fetch(size);
        let s = blockfs_fetch(size);
        writeln!(
            t,
            "  {:>12}  {:>16.1}  {:>16.1}  {:>9.1}x",
            size_label(size),
            c.as_ms_f64(),
            s.as_ms_f64(),
            s.as_ns() as f64 / c.as_ns() as f64
        );
        if c >= s {
            reds.push(size_label(size));
        }
    }
    t.0 += "\nOne seek + one transfer versus a seek per scattered block: this gap is
why the Bullet server stores files contiguously (§2).
";
    let criteria = vec![Invariant::rows(
        "the contiguous fetch beats the scattered one at every size",
        &reds,
    )];
    Outcome::plain("ablation_contiguity.txt", &t, criteria)
}

/// ABL3 — the P-FACTOR durability dial of `BULLET.CREATE`:
/// reply-from-cache (P=0) vs one disk (P=1) vs both disks (P=2).
pub fn pfactor() -> Outcome {
    let (mut slower, mut over) = (Vec::new(), Vec::new());
    let mut t = Text::titled("ABL3 — BULLET.CREATE delay (ms) by P-FACTOR");
    t.0 += "     File Size         P=0         P=1         P=2\n";
    for &size in &SIZES {
        let mut cols = Vec::new();
        for p in 0..=2 {
            let rig = BulletRig::paper_1989();
            cols.push(rig.measure_create(size, p));
        }
        writeln!(
            t,
            "  {:>12}  {:>10.1}  {:>10.1}  {:>10.1}",
            size_label(size),
            cols[0].as_ms_f64(),
            cols[1].as_ms_f64(),
            cols[2].as_ms_f64()
        );
        if cols[0] > cols[1] {
            slower.push(size_label(size));
        }
        if cols[2].as_ns() as f64 > cols[1].as_ns() as f64 * 1.25 {
            over.push(size_label(size));
        }
    }
    t.0 += "\nP=0 returns after the RAM-cache insert (fast, crash-vulnerable);
P=N returns after the file and inode are on N disks (§2.2).  The N
replica writes run in parallel, so P=2 costs what the slowest disk
costs — the same as P=1 on identical spindles.
";
    let criteria = vec![
        Invariant::rows("P=0 never costs more than P=1", &slower),
        Invariant::rows(
            "P=2's parallel replica writes stay within 25 % of P=1",
            &over,
        ),
    ];
    Outcome::plain("ablation_pfactor.txt", &t, criteria)
}

/// ABL4 — the cost the paper consciously accepts: external fragmentation
/// of the contiguous data area under a realistic create/delete churn,
/// and what the "3 a.m." compaction buys back.
pub fn fragmentation() -> Outcome {
    let mut cfg = BulletConfig::small_test();
    cfg.disk_blocks = 16_384; // 8 MB data area: small enough to stress
    cfg.cache_capacity = 4 << 20;
    cfg.min_inodes = 1024;
    cfg.rnode_slots = 1024;
    let clock = cfg.clock.clone();
    let hw = HwProfile::amoeba_1989();
    let storage = sim_mirror(2, cfg.block_size, cfg.disk_blocks, &clock, hw.disk);
    let server = BulletServer::format_on(cfg, storage).expect("format");

    let mut mix = WorkloadMix::unix_mix(0xf4a6, 256 * 1024, 400);
    let mut caps = Vec::new();
    let mut failures_with_free_space = 0u64;

    let mut t =
        Text::titled("ABL4 — external fragmentation under churn (75% reads, 1984 size mix)");
    t.0 += "       ops    files   free blks  largest hole     holes  external fragmentation\n";
    for step in (2000..=12_000u64).step_by(2000) {
        mix.drive(
            2000,
            &mut caps,
            |size| match server.create(Bytes::from(vec![7u8; size as usize]), 1) {
                Ok(cap) => Some(cap),
                Err(BulletError::NoSpace) => {
                    // The interesting case: free space exists but no
                    // hole is big enough for the file.
                    let r = server.disk_frag_report();
                    let block = server.describe_layout().0.block_size as u64;
                    failures_with_free_space += u64::from(r.free * block > size);
                    None
                }
                Err(BulletError::NoInodes) => None,
                Err(e) => panic!("unexpected: {e}"),
            },
            |caps, n| _ = server.read(&nth(caps, n)).expect("read live file"),
            |cap| server.delete(&cap).expect("delete live file"),
        );
        let r = server.disk_frag_report();
        writeln!(
            t,
            "  {:>8}  {:>7}  {:>10}  {:>12}  {:>8}  {:>22.3}",
            step,
            server.live_files(),
            r.free,
            r.largest_hole,
            r.hole_count,
            r.external_fragmentation
        );
    }

    writeln!(t);
    writeln!(
        t,
        "creates refused for lack of a large-enough hole (although free space existed): {failures_with_free_space}"
    );

    let before = server.disk_frag_report();
    let t0 = clock.now();
    let moved = server.compact_disk().expect("compaction");
    let compaction_time = clock.now() - t0;
    let after = server.disk_frag_report();
    writeln!(t);
    writeln!(
        t,
        "3 a.m. compaction: moved {moved} files in {compaction_time} of simulated disk time"
    );
    writeln!(
        t,
        "  before: largest hole {:>6} of {:>6} free  ({:>3} holes, frag {:.3})",
        before.largest_hole, before.free, before.hole_count, before.external_fragmentation
    );
    writeln!(
        t,
        "  after : largest hole {:>6} of {:>6} free  ({:>3} holes, frag {:.3})",
        after.largest_hole, after.free, after.hole_count, after.external_fragmentation
    );
    writeln!(t);
    writeln!(
        t,
        "Unusable-when-needed space before compaction: {:.1}% of all free space",
        100.0 * before.external_fragmentation
    );
    t.0 += "(the paper: buy an 800 MB disk to store 500 MB — a conscious trade for speed).\n";
    let criteria = vec![Invariant::new(
        "compaction leaves the free space in at most one hole",
        after.hole_count <= 1 && after.largest_hole == after.free,
        format!(
            "{} holes, largest {} of {} free blocks",
            after.hole_count, after.largest_hole, after.free
        ),
    )];
    Outcome::plain("ablation_fragmentation.txt", &t, criteria)
}

const APPENDS: usize = 400;
const ENTRY: usize = 256;
const REPORT_EVERY: usize = 80;

fn log_rig() -> (SimClock, Arc<BulletServer>) {
    let mut cfg = BulletConfig::small_test();
    cfg.disk_blocks = 32_768; // 16 MB
    cfg.cache_capacity = 8 << 20;
    cfg.min_inodes = 2048;
    cfg.rnode_slots = 2048;
    let clock = cfg.clock.clone();
    (
        clock,
        Arc::new(BulletServer::format(cfg, 2).expect("format")),
    )
}

/// ABL5 — the §2 log-file caveat: "each append to a log file would
/// require the whole file to be copied … for log files we have
/// implemented a separate server."  Compares the cumulative simulated
/// cost of N appends done naively (`BULLET.APPEND`, a whole new file per
/// append — quadratic total work) against the log server's segment chain
/// (linear).
pub fn logserver() -> Outcome {
    // Naive: BULLET.APPEND derives a whole new file per entry.
    let (clock_a, bullet_a) = log_rig();
    let mut naive_points = Vec::new();
    let mut cap = bullet_a.create(Bytes::new(), 1).expect("create");
    let t0 = clock_a.now();
    for i in 1..=APPENDS {
        let new = bullet_a.append(&cap, &[b'x'; ENTRY], 1).expect("append");
        bullet_a.delete(&cap).expect("retire old version");
        cap = new;
        if i % REPORT_EVERY == 0 {
            naive_points.push(clock_a.now() - t0);
        }
    }

    // Log server: segment chain, O(entry) per append.
    let (clock_b, bullet_b) = log_rig();
    let logs = LogServer::bootstrap(bullet_b).expect("bootstrap");
    let log = logs.create_log().expect("create log");
    let mut log_points = Vec::new();
    let t0 = clock_b.now();
    for i in 1..=APPENDS {
        logs.append(&log, &[b'x'; ENTRY]).expect("append");
        if i % REPORT_EVERY == 0 {
            log_points.push(clock_b.now() - t0);
        }
    }
    logs.checkpoint(&log).expect("final checkpoint");

    let mut t = Text::default();
    writeln!(
        t,
        "ABL5 — cumulative cost of {ENTRY}-byte appends (simulated time)"
    );
    t.0 += "   appends   naive BULLET (ms)     log server (ms)     ratio\n";
    for (i, (naive, fast)) in naive_points.iter().zip(&log_points).enumerate() {
        let n = (i + 1) * REPORT_EVERY;
        let ratio = if fast.as_ns() == 0 {
            "   (tail in RAM)".to_string()
        } else {
            format!("{:>7.1}x", naive.as_ns() as f64 / fast.as_ns() as f64)
        };
        writeln!(
            t,
            "  {:>8}  {:>18.1}  {:>18.1}  {ratio}",
            n,
            naive.as_ms_f64(),
            fast.as_ms_f64(),
        );
    }

    let naive_total: Nanos = *naive_points.last().expect("points");
    let log_total: Nanos = *log_points.last().expect("points");
    writeln!(t);
    writeln!(
        t,
        "Total: naive {:.1} ms vs log server {:.1} ms — the gap grows with log length,",
        naive_total.as_ms_f64(),
        log_total.as_ms_f64()
    );
    t.0 += "because each naive append rewrites the whole log to disk (twice, mirrored).\n";
    let read_back = logs.len(&log).expect("len");
    writeln!(
        t,
        "Log server sealed {} segments; read-back length {}.",
        logs.segment_count(&log).expect("count"),
        read_back
    );
    let criteria = vec![
        Invariant::new(
            "the log server beats the naive path in total",
            log_total < naive_total,
            format!(
                "log server {:.1} ms vs naive {:.1} ms",
                log_total.as_ms_f64(),
                naive_total.as_ms_f64()
            ),
        ),
        Invariant::new(
            "every appended byte reads back",
            read_back == (APPENDS * ENTRY) as u64,
            format!("{read_back} of {} bytes", APPENDS * ENTRY),
        ),
    ];
    Outcome::plain("ablation_logserver.txt", &t, criteria)
}

/// Hit ratio of the server's cache so far.
fn hit_ratio(server: &BulletServer) -> f64 {
    let stats: HashMap<_, _> = server.cache_stats().into_iter().collect();
    let hits = *stats.get("cache_hits").unwrap_or(&0) as f64;
    let misses = *stats.get("cache_misses").unwrap_or(&0) as f64;
    hits / (hits + misses).max(1.0)
}

/// 12k ops of the cited mix against a `cache_bytes` cache: hit ratio and
/// mean read delay (ms).
fn cache_size_run(cache_bytes: u64) -> (f64, f64) {
    let rig = BulletRig::with_options(2, HwProfile::amoeba_1989(), cache_bytes);
    let delays = Histogram::new();
    WorkloadMix::unix_mix(0xcafe, 512 * 1024, 700).drive(
        12_000,
        &mut Vec::new(),
        |size| {
            let data = Bytes::from(vec![1u8; size as usize]);
            rig.client.create(data, 1).ok()
        },
        |caps, n| {
            let t0 = rig.clock.now();
            let _ = rig.client.read(&nth(caps, n));
            delays.record(rig.clock.now() - t0);
        },
        |cap| _ = rig.client.delete(&cap),
    );
    (hit_ratio(&rig.server), delays.mean().as_ms_f64())
}

/// ABL6 — cache sizing: hit ratio and mean read delay of the cited
/// workload mix as the RAM cache shrinks from "all remaining memory"
/// (the paper's design point) downward.
pub fn cache_size() -> Outcome {
    let mut t =
        Text::titled("ABL6 — cache size vs hit ratio and mean READ delay (cited workload mix)");
    t.0 += "         cache   hit ratio    mean read (ms)\n";
    let mut rows = Vec::new();
    for &kb in &[512u64, 1024, 2048, 4096, 8192, 16_384] {
        let (ratio, mean) = cache_size_run(kb << 10);
        writeln!(t, "  {:>9} KB  {:>9.1}%  {:>16.1}", kb, 100.0 * ratio, mean);
        rows.push((ratio, mean));
    }
    t.0 += "\n\"All of the server's remaining memory will be used for file caching\" (§3):
the hit ratio — and with it Fig. 2's no-disk read path — is bought with RAM.
";
    let (small, large) = (rows.first().expect("rows"), rows.last().expect("rows"));
    let criteria = vec![
        Invariant::new(
            "the full-size cache beats the smallest on hit ratio",
            large.0 > small.0,
            format!("{:.3} vs {:.3}", large.0, small.0),
        ),
        Invariant::new(
            "the full-size cache beats the smallest on mean read delay",
            large.1 < small.1,
            format!("{:.1} ms vs {:.1} ms", large.1, small.1),
        ),
    ];
    Outcome::plain("ablation_cache_size.txt", &t, criteria)
}

/// A two-disk server behind an Ethernet at `load`, assembled by hand so
/// the eviction policy and the wire load are the only things that vary.
fn loaded_stack(
    cache_capacity: u64,
    eviction: EvictionPolicy,
    load: f64,
) -> (SimClock, Arc<BulletServer>, BulletClient) {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let storage = sim_mirror(2, 1024, 65_536, &clock, hw.disk);
    let mut cfg = BulletConfig::small_test();
    cfg.block_size = 1024;
    cfg.disk_blocks = 65_536;
    cfg.cache_capacity = cache_capacity;
    cfg.rnode_slots = 2048;
    cfg.min_inodes = 2048;
    cfg.clock = clock.clone();
    cfg.eviction = eviction;
    let server = Arc::new(BulletServer::format_on(cfg, storage).expect("format"));
    let dispatcher = Dispatcher::new(SimEthernet::with_load(clock.clone(), hw.net, load));
    dispatcher.register(BulletRpcServer::new(server.clone()));
    let client = BulletClient::new(RpcClient::new(dispatcher), server.port());
    (clock, server, client)
}

/// Warm read of a `size`-byte file at wire load `load`: delay (ms) and
/// bandwidth (KB/s).
fn read_delay_ms(load: f64, size: usize) -> (f64, f64) {
    let (clock, _server, client) = loaded_stack(12 << 20, EvictionPolicy::Lru, load);
    let cap = client
        .create(Bytes::from(vec![7u8; size]), 2)
        .expect("create");
    client.read(&cap).expect("warm-up");
    let t0 = clock.now();
    client.read(&cap).expect("measured");
    clock.advance(HwProfile::amoeba_1989().cpu.memcpy(size as u64));
    let dt = clock.now() - t0;
    (dt.as_ms_f64(), bandwidth_kb_s(size, dt))
}

/// ABL7 — the "normally loaded Ethernet": how competing traffic scales
/// the Bullet read tables (the paper measured under real load; we sweep
/// the load factor).
pub fn netload() -> Outcome {
    let mut reds: Vec<String> = Vec::new();
    let mut t = Text::titled("ABL7 — Ethernet load factor vs warm READ performance");
    for &size in &[512usize, 65_536, 1 << 20] {
        writeln!(t, "  file size {}:", size_label(size));
        t.0 += "      load    delay (ms)       bw (KB/s)\n";
        let mut prev = 0.0f64;
        for &load in &[1.0f64, 1.25, 1.5, 2.0, 3.0] {
            let (ms, bw) = read_delay_ms(load, size);
            writeln!(t, "  {:>7.2}x  {:>12.1}  {:>14.1}", load, ms, bw);
            if ms < prev {
                reds.push(format!("{} at {load:.2}x", size_label(size)));
            }
            prev = ms;
        }
    }
    t.0 += "\nDelays scale linearly with wire contention; the Bullet advantage over the
block baseline is load-independent because both ride the same Ethernet.
";
    let criteria = vec![Invariant::rows(
        "read delay grows monotonically with wire contention at every size",
        &reds,
    )];
    Outcome::plain("ablation_netload.txt", &t, criteria)
}

/// ABL8 — the price of replication: CREATE+DELETE with one, two (the
/// paper's configuration), and three mirrored disks.
pub fn mirror() -> Outcome {
    let mut reds: Vec<String> = Vec::new();
    let mut t = Text::titled("ABL8 — CREATE+DELETE delay (ms) by replica count (P-FACTOR = disks)");
    t.0 += "     File Size      1 disk     2 disks     3 disks\n";
    for &size in &SIZES {
        let mut cols = Vec::new();
        for disks in 1..=3usize {
            // Full durability on every configured disk.
            let rig = BulletRig::with_options(disks, HwProfile::amoeba_1989(), 12 << 20);
            cols.push(rig.measure_create_delete(size).as_ms_f64());
        }
        writeln!(
            t,
            "  {:>12}  {:>10.1}  {:>10.1}  {:>10.1}",
            size_label(size),
            cols[0],
            cols[1],
            cols[2]
        );
        if cols[2] > cols[0] * 1.25 {
            reds.push(size_label(size));
        }
    }
    t.0 += "\nReplica writes are issued in parallel and the create returns when the
slowest disk finishes, so extra replicas add *disk-time demand* (one
write per spindle, visible under load — see ablation_concurrency) but
almost no delay: \"a relatively small increment in total file server
cost\" (§3) buys the availability story of the fault_tolerance example.
";
    // "A relatively small increment" (§3): the replica writes run in
    // parallel, so the third disk may not cost a quarter more than none.
    let criteria = vec![Invariant::rows(
        "3 disks stay within 25 % of 1 disk at every size",
        &reds,
    )];
    Outcome::plain("ablation_mirror.txt", &t, criteria)
}

/// 12k ops of the cited mix against a constrained cache evicting by
/// `policy`: hit ratio and simulated workload time (s).
fn eviction_run(policy: EvictionPolicy) -> (f64, f64) {
    // Constrained: evictions must happen.
    let (clock, server, client) = loaded_stack(768 * 1024, policy, 1.0);
    let t0 = clock.now();
    WorkloadMix::unix_mix(0xfeed, 512 * 1024, 700).drive(
        12_000,
        &mut Vec::new(),
        |size| {
            let data = Bytes::from(vec![1u8; size as usize]);
            client.create(data, 1).ok()
        },
        // Real traces have a hot set: 40% of reads go to a few
        // long-lived files, the rest spread uniformly.
        |caps, n| {
            let hot = &caps[..caps.len().min(8)];
            _ = client.read(&nth(if n % 5 < 2 { hot } else { caps }, n));
        },
        |cap| _ = client.delete(&cap),
    );
    let wall = clock.now() - t0;
    (hit_ratio(&server), wall.as_secs_f64())
}

/// ABL9 — the cache eviction policy: the paper's LRU ("an age field to
/// implement an LRU cache strategy") against FIFO, random, segmented-LRU,
/// and 2Q victims, under the cited workload mix with a constrained cache.
/// (ABL16 re-runs this question at 10k-client event-engine scale, where
/// the scan-resistant policies separate.)
pub fn eviction() -> Outcome {
    let mut t = Text::titled("ABL9 — eviction policy under the cited mix (768 KB cache, 12k ops)");
    t.0 += "      policy   hit ratio   workload time (s)\n";
    let mut ratios = Vec::new();
    for (name, policy) in [
        ("LRU", EvictionPolicy::Lru),
        ("FIFO", EvictionPolicy::Fifo),
        ("random", EvictionPolicy::Random),
        ("SLRU", EvictionPolicy::SegmentedLru),
        ("2Q", EvictionPolicy::TwoQ),
    ] {
        let (ratio, secs) = eviction_run(policy);
        writeln!(t, "  {:>10}  {:>9.1}%  {:>18.1}", name, 100.0 * ratio, secs);
        ratios.push((name, ratio));
    }
    t.0 += "\nA near-null result: SLRU edges ahead and every policy lands within ~2 points,
so at whole-file granularity the policy matters far less than having the cache
at all (ABL1, ABL6) — consistent with the paper spending two bytes per rnode
on it and no more.  The gap only opens under one-touch scan pollution, which
is exactly what ABL16 (`ablation_evsim`) measures at 10k-client scale.
";
    let best = ratios.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
    let name = |&(name, ratio): &(&str, f64)| format!("{name} {ratio:.3}");
    let never: Vec<String> = ratios.iter().filter(|r| r.1 <= 0.0).map(name).collect();
    let behind: Vec<String> = ratios
        .iter()
        .filter(|r| r.1 < best - 0.05)
        .map(name)
        .collect();
    // The near-null result the paper's two-byte age field banks on.
    let criteria = vec![
        Invariant::rows("every policy hits the cache", &never),
        Invariant::rows(
            "every policy lands within 5 points of the best hit ratio",
            &behind,
        ),
    ];
    Outcome::plain("ablation_eviction.txt", &t, criteria)
}

/// Operations per ABL10 client lane.
const LANE_OPS: usize = 512;
/// One create+delete pair every this many lane operations (the rest read).
const WRITE_EVERY: usize = 256;
/// ABL10's shared pool of cache-resident files.
const POOL: usize = 64;
/// Size of each pool file and of each created file.
const POOL_FILE: usize = 4096;

/// ABL10 — multi-client scaling (§3: one server serves several clients):
/// 1–16 client lanes run a cache-hot, read-mostly mix against one server
/// (reads of a shared pool of cache-resident files, with an occasional
/// mirrored create+delete).  The lanes run on one thread, interleaved
/// round-robin op by op, each drawing from its own seeded generator, and
/// [`Makespan`] settles them against the mirrored pair as one spindle.
/// Cache-hit reads charge only CPU, so aggregate read throughput scales
/// with the client count until the creates' disk demand binds.  The
/// network medium is left out: it is a property of the wire, measured in
/// ABL7.
pub fn concurrency() -> Outcome {
    let hw = HwProfile::amoeba_1989();
    let mut t = Text::titled("ABL10 — aggregate read throughput vs concurrent clients");
    writeln!(
        t,
        "  (cache-hot read-mostly mix: {POOL} pooled {POOL_FILE}-byte files,"
    );
    writeln!(
        t,
        "   1 mirrored create+delete per {WRITE_EVERY} ops, {LANE_OPS} ops/client)"
    );
    writeln!(t);
    writeln!(
        t,
        "  {:>8}  {:>10}  {:>12}  {:>9}  {:>9}  {:>9}  {:>10}",
        "Clients", "Makespan", "Reads/s", "Speedup", "p50 (ms)", "p99 (ms)", "Bound by"
    );
    let mut base_rate = 0.0f64;
    let (mut below, mut short) = (Vec::new(), Vec::new());
    for clients in [1usize, 2, 4, 8, 16] {
        let disk_clock = SimClock::new();
        let storage = sim_mirror(2, 1024, 65_536, &disk_clock, hw.disk);
        let cfg = paper_config(SimClock::new(), hw.cpu, 12 << 20);
        let server = BulletServer::format_on(cfg, storage).expect("formatting succeeds");
        let pool: Vec<Capability> = (0..POOL)
            .map(|i| {
                let data = Bytes::from(vec![i as u8; POOL_FILE]);
                server.create(data, 2).expect("pool create")
            })
            .collect();
        for cap in &pool {
            server.read(cap).expect("pool warm-up");
        }

        let hist = Histogram::new();
        let mut lanes = Makespan::new(clients, hw.cpu, &[disk_clock]);
        let mut rngs: Vec<DetRng> = (0..clients)
            .map(|c| DetRng::new(0x1000 + c as u64))
            .collect();
        let mut reads = 0u64;
        for op in 0..LANE_OPS {
            for (c, rng) in rngs.iter_mut().enumerate() {
                if op % WRITE_EVERY == WRITE_EVERY / 2 {
                    let data = Bytes::from(vec![c as u8; POOL_FILE]);
                    let ((), log) = capture(|| {
                        let cap = server.create(data, 2).expect("create fits the rig");
                        server.delete(&cap).expect("delete own file");
                    });
                    lanes.charge(c, 0, &log, 0);
                } else {
                    let cap = &pool[rng.next_below(POOL as u64) as usize];
                    let (data, log) = capture(|| server.read(cap).expect("pool file exists"));
                    hist.record(lanes.charge(c, 0, &log, data.len()));
                    reads += 1;
                }
            }
        }

        let makespan = lanes.settle();
        let rate = reads as f64 / makespan.as_secs_f64();
        if clients == 1 {
            base_rate = rate;
        }
        if rate < base_rate {
            below.push(format!("{clients} clients {rate:.0}/s"));
        }
        if clients == 4 && rate < 2.0 * base_rate {
            short.push(format!("{rate:.0}/s against {base_rate:.0}/s"));
        }
        writeln!(
            t,
            "  {:>8}  {:>8.0}ms  {:>12.0}  {:>8.1}x  {:>9.1}  {:>9.1}  {:>10}",
            clients,
            makespan.as_ms_f64(),
            rate,
            rate / base_rate,
            hist.quantile(0.5).as_ms_f64(),
            hist.quantile(0.99).as_ms_f64(),
            if lanes.busiest_spindle() > lanes.slowest_lane() {
                "disk"
            } else {
                "cpu lane"
            }
        );
    }
    t.0 += "\nA cache-hit read takes no table lock (the fill that cached its file
published it in its inode slot) and charges no disk time, so
aggregate read throughput grows with the client count; the
occasional mirrored creates are the serial resource that finally
binds it.
";
    // The sharded read path scales until the spindles bind.
    let criteria = vec![
        Invariant::rows("no client count reads below the 1-client rate", &below),
        Invariant::rows("4 clients read at least 2x the 1-client rate", &short),
    ];
    Outcome::plain("ablation_concurrency.txt", &t, criteria)
}

/// The file sizes of the streaming tables here and in `BENCH_pr2.json`
/// (1 KB … 1 MB).
pub const STREAM_SIZES: [usize; 5] = [1024, 4096, 65_536, 262_144, 1 << 20];
const SEGMENTS: [u32; 5] = [4096, 16_384, DEFAULT_SEGMENT, 262_144, 1 << 20];

/// A segment no file reaches: every transfer fits in one, so none
/// streams — the sequential columns of ABL11 and `report --json`.
pub const ONE_SEGMENT: u32 = u32::MAX;

/// The paper rig with streaming segments of `segment_size` bytes.
pub fn stream_rig(segment_size: u32) -> BulletRig {
    BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |cfg| {
        cfg.segment_size = segment_size;
    })
}

/// ABL11 — sequential vs pipelined streaming transfers: cold whole-file
/// READ and mirrored CREATE delay in one segment (the pre-pipeline
/// transfer path: stage the whole file in RAM, then move it) and in
/// 64 KB segments (segment `k` on the disk while segment `k-1` is on the
/// wire), then a segment-size sweep at 1 MB.
pub fn pipeline() -> Outcome {
    let mut reds: Vec<String> = Vec::new();
    let mut t = Text::titled("ABL11 — pipelined streaming transfers (64 KB segments unless noted)");
    t.0 += "\n  Cold whole-file READ (client cache miss, extent off both-mirrored disk):
   File size      sequential       pipelined    speedup     pipe KB/s\n";
    for &size in &STREAM_SIZES {
        let seq = stream_rig(ONE_SEGMENT).measure_cold_read(size);
        let pipe = stream_rig(DEFAULT_SEGMENT).measure_cold_read(size);
        if pipe > seq {
            reds.push(format!("{} cold read", size_label(size)));
        }
        writeln!(
            t,
            "  {:>10}  {:>12.1}ms  {:>12.1}ms  {:>8.2}x  {:>12.1}",
            size_label(size),
            seq.as_ms_f64(),
            pipe.as_ms_f64(),
            seq.as_ns() as f64 / pipe.as_ns() as f64,
            bandwidth_kb_s(size, pipe)
        );
    }
    t.0 += "\n  CREATE, P-FACTOR 2 (payload received, copied, and mirrored in segments):
   File size      sequential       pipelined    speedup\n";
    for &size in &STREAM_SIZES {
        let seq = stream_rig(ONE_SEGMENT).measure_create(size, 2);
        let pipe = stream_rig(DEFAULT_SEGMENT).measure_create(size, 2);
        if pipe > seq {
            reds.push(format!("{} create", size_label(size)));
        }
        writeln!(
            t,
            "  {:>10}  {:>12.1}ms  {:>12.1}ms  {:>8.2}x",
            size_label(size),
            seq.as_ms_f64(),
            pipe.as_ms_f64(),
            seq.as_ns() as f64 / pipe.as_ns() as f64,
        );
    }
    writeln!(t);
    writeln!(t, "  Segment-size sweep, cold 1 MB READ (pipelined):");
    t.0 += "     Segment           delay          KB/s    segments\n";
    // The sweep intentionally visits bad configurations (a 4 KB segment
    // pays 256 per-operation disk costs), so its rows are informative,
    // not gated: the pipelined-never-slower invariant holds for the
    // shipped default, judged on the tables above.
    let seq_1mb = stream_rig(ONE_SEGMENT).measure_cold_read(1 << 20);
    let mut best: (u32, Nanos) = (0, Nanos::from_ns(u64::MAX));
    for &seg in &SEGMENTS {
        let dt = stream_rig(seg).measure_cold_read(1 << 20);
        if dt < best.1 {
            best = (seg, dt);
        }
        writeln!(
            t,
            "  {:>10}  {:>12.1}ms  {:>12.1}  {:>10}",
            size_label(seg as usize),
            dt.as_ms_f64(),
            bandwidth_kb_s(1 << 20, dt),
            (1u64 << 20).div_ceil(seg as u64),
        );
    }
    writeln!(t);
    writeln!(
        t,
        "  sequential 1 MB baseline: {:.1} ms; best segment {} at {:.1} ms",
        seq_1mb.as_ms_f64(),
        size_label(best.0 as usize),
        best.1.as_ms_f64()
    );
    t.0 += "\nSmall segments chop the transfer into many per-operation disk and
per-packet fixed costs (at 4 KB they cost more than the overlap
recovers); huge segments degenerate to the sequential
store-and-forward path.  The 64 KB default sits near the knee.
";
    // The invariant the scheduling recurrence guarantees.
    let criteria = vec![Invariant::rows(
        "pipelined never slower than sequential",
        &reds,
    )];
    Outcome::plain("ablation_pipeline.txt", &t, criteria)
}
