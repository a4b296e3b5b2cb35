//! Ablation ABL10 — multi-client scaling of the sharded-lock read path.
//!
//! Spawns 1/2/4/8/16 real client threads against ONE Bullet server and
//! runs a cache-hot, read-mostly mix on each (a shared pool of
//! cache-resident files, with an occasional mirrored create+delete).
//! The threads exercise the server's actual per-component locks; the
//! *costs* are settled in virtual time with two independent clocks:
//!
//! * **CPU clock** — request handling and memory copies.  Each client
//!   lane captures its own charges ([`amoeba_sim::capture`]); lanes run
//!   in parallel, so the CPU-side makespan is the slowest single lane.
//! * **Disk clock** — the mirrored pair is one serial resource.  Every
//!   operation's captured disk component (already max-of-replicas,
//!   thanks to the parallel mirror writes) is summed into a total disk
//!   demand that cannot be parallelised away.
//!
//! `makespan = max(slowest lane, total disk demand)` and aggregate read
//! throughput is `reads / makespan`.  Cache-hit reads take only shared
//! locks and charge only CPU, so the read-mostly mix scales with the
//! client count until the creates' disk demand saturates the spindles —
//! which the 16-client row shows.  The network medium is excluded: it
//! is a property of the wire, not of the server's locking, and is
//! measured separately in ABL7 (`ablation_netload`).
//!
//! Exit status is non-zero if the headline invariant goes red:
//! aggregate read throughput must never drop below the single-client
//! baseline, and 4 clients must reach at least 2× it (the sharded read
//! path scales until the spindles bind).
//!
//! ```text
//! cargo run -p bullet-bench --bin ablation_concurrency
//! ```

use std::sync::Arc;

use bytes::Bytes;

use amoeba_cap::Capability;
use amoeba_sim::{capture, DetRng, Histogram, HwProfile, Nanos, SimClock};
use bullet_bench::rig::{paper_config, sim_mirror};
use bullet_core::BulletServer;

/// Operations per client lane.
const OPS: usize = 512;
/// One create+delete pair every this many operations (the rest read).
const WRITE_EVERY: usize = 256;
/// Shared pool of cache-resident files.
const POOL: usize = 64;
/// Size of each pool file and of the created files.
const FILE_SIZE: usize = 4096;

struct LaneResult {
    /// Sum of all per-op costs charged by this lane (CPU + its own disk).
    total: Nanos,
    /// Disk component across the lane's ops (serial-resource demand).
    disk: Nanos,
    reads: u64,
}

/// A Bullet server whose disks charge a *separate* clock, so captured
/// per-op costs can be split into CPU and disk components.
fn build(hw: HwProfile) -> (Arc<BulletServer>, SimClock) {
    let cpu_clock = SimClock::new();
    let disk_clock = SimClock::new();
    let storage = sim_mirror(2, 1024, 65_536, &disk_clock, hw.disk);
    let cfg = paper_config(cpu_clock, hw.cpu, 12 << 20);
    let server = Arc::new(BulletServer::format_on(cfg, storage).expect("formatting succeeds"));
    (server, disk_clock)
}

fn run_lane(
    server: &BulletServer,
    disk_clock: &SimClock,
    pool: &[Capability],
    hw: &HwProfile,
    seed: u64,
    hist: &Histogram,
) -> LaneResult {
    let mut rng = DetRng::new(seed);
    let mut total = Nanos::ZERO;
    let mut disk = Nanos::ZERO;
    let mut reads = 0u64;
    for op in 0..OPS {
        if op % WRITE_EVERY == WRITE_EVERY / 2 {
            let data = Bytes::from(vec![seed as u8; FILE_SIZE]);
            let (cap, log) = capture(|| {
                let cap = server.create(data, 2).expect("create fits the rig");
                server.delete(&cap).expect("delete own file");
                cap
            });
            let _ = cap;
            total += log.total();
            disk += log.charged_to(disk_clock);
        } else {
            let cap = &pool[rng.next_below(pool.len() as u64) as usize];
            let (data, log) = capture(|| server.read(cap).expect("pool file exists"));
            // The client's own copy of the received bytes.
            let cost = log.total() + hw.cpu.memcpy(data.len() as u64);
            hist.record(cost);
            total += cost;
            disk += log.charged_to(disk_clock);
            reads += 1;
        }
    }
    LaneResult { total, disk, reads }
}

fn main() {
    let hw = HwProfile::amoeba_1989();
    println!("ABL10 — aggregate read throughput vs concurrent clients");
    println!("  (cache-hot read-mostly mix: {POOL} pooled {FILE_SIZE}-byte files,");
    println!("   1 mirrored create+delete per {WRITE_EVERY} ops, {OPS} ops/client)");
    println!();
    println!(
        "  {:>8}  {:>10}  {:>12}  {:>9}  {:>9}  {:>9}  {:>10}",
        "Clients", "Makespan", "Reads/s", "Speedup", "p50 (ms)", "p99 (ms)", "Bound by"
    );

    let mut base_rate = 0.0f64;
    let mut reds: Vec<String> = Vec::new();
    for &clients in &[1usize, 2, 4, 8, 16] {
        let (server, disk_clock) = build(hw);
        // Populate and warm the pool: every file cache-resident.
        let pool: Vec<Capability> = (0..POOL)
            .map(|i| {
                server
                    .create(Bytes::from(vec![i as u8; FILE_SIZE]), 2)
                    .expect("pool create")
            })
            .collect();
        for cap in &pool {
            server.read(cap).expect("pool warm-up");
        }

        let hist = Histogram::new();
        let lanes: Vec<LaneResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = &server;
                    let pool = &pool;
                    let disk_clock = &disk_clock;
                    let hist = &hist;
                    let hw = &hw;
                    s.spawn(move || run_lane(server, disk_clock, pool, hw, 0x1000 + c as u64, hist))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let slowest_lane = lanes.iter().map(|l| l.total).max().unwrap_or(Nanos::ZERO);
        let disk_demand = lanes.iter().fold(Nanos::ZERO, |a, l| a + l.disk);
        let makespan = slowest_lane.max(disk_demand);
        let reads: u64 = lanes.iter().map(|l| l.reads).sum();
        let rate = reads as f64 / (makespan.as_ns() as f64 / 1e9);
        if clients == 1 {
            base_rate = rate;
        }
        if rate < base_rate {
            reds.push(format!(
                "{clients} clients read {rate:.0}/s, below the 1-client baseline {base_rate:.0}/s"
            ));
        }
        if clients == 4 && rate < 2.0 * base_rate {
            reds.push(format!(
                "4 clients read {rate:.0}/s, under 2x the 1-client baseline {base_rate:.0}/s"
            ));
        }
        println!(
            "  {:>8}  {:>8.0}ms  {:>12.0}  {:>8.1}x  {:>9.1}  {:>9.1}  {:>10}",
            clients,
            makespan.as_ms_f64(),
            rate,
            rate / base_rate,
            hist.quantile(0.5).as_ms_f64(),
            hist.quantile(0.99).as_ms_f64(),
            if disk_demand > slowest_lane {
                "disk"
            } else {
                "cpu lane"
            }
        );

        if clients == 16 {
            println!();
            println!("  lock acquisitions at 16 clients (contended in parentheses):");
            let stats = server.lock_stats();
            let contended = |name: &str| {
                stats
                    .iter()
                    .find(|(k, _)| *k == format!("lock_contended_{name}"))
                    .map_or(0, |&(_, v)| v)
            };
            for (k, v) in &stats {
                if let Some(name) = k.strip_prefix("lock_") {
                    if !name.starts_with("contended_") {
                        println!("    {:<22} {:>8}  ({})", name, v, contended(name));
                    }
                }
            }
        }
    }
    println!();
    println!("A cache-hit read takes no table lock (the fill that cached its file");
    println!("published it in its inode slot) and charges no disk time, so");
    println!("aggregate read throughput grows with the client count; the");
    println!("occasional mirrored creates are the serial resource that finally");
    println!("binds it.");
    if !reds.is_empty() {
        for r in &reds {
            eprintln!("ABL10 FAILED: {r}");
        }
        std::process::exit(1);
    }
}
