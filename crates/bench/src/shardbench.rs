//! The sharded-service ablation (ABL18): scaling, rebalance, and
//! degraded-shard behaviour of N Bullet servers behind one
//! [`amoeba_rpc::ShardRouter`].
//!
//! Three cell families, each a deterministic function of its seed:
//!
//! * [`run_scaling_suite`] — aggregate *cold* read bandwidth over a
//!   round-robin-placed pool as the shard count grows.  Costs settle in
//!   virtual time through [`Makespan`]: client lanes on one shared CPU
//!   clock, and one disk clock **per shard** (each shard's mirrored pair
//!   is its own spindle).  Sharding wins exactly because the disk demand
//!   splits across spindle sets, and the headline invariant is 8 shards
//!   ≥ 6× the 1-shard bandwidth.
//! * [`run_rebalance`] — moves a deterministic subset of live extents
//!   between shards through [`BulletShards::rebalance`] and proves no
//!   live byte went anywhere but between shards: the placement-
//!   independent digest is unchanged, the per-shard
//!   `shard_rebalance_extents` counters sum to exactly the moves made,
//!   and every pre-move capability still reads back on its new home.
//! * [`run_kill_shard`] — the ABL13-style fault cell: a full client
//!   workload through the router, one shard marked down mid-run.  Its
//!   objects must fail with [`Status::ShardDown`] (distinctly — never
//!   wrong bytes, never `NotFound`), the other N−1 must keep serving
//!   bit-identically, the router's per-shard accounting must match what
//!   the client observed, and recovery must restore every byte.
//!
//! [`ablation`] assembles a matrix of them; [`outcome_table`] renders the
//! cells, and the string is the determinism witness byte-compared across
//! a full replay.

use std::sync::Arc;

use bytes::Bytes;

use amoeba_cap::{shard_of, Capability};
use amoeba_net::SimEthernet;
use amoeba_rpc::{Dispatcher, RpcClient, RpcServer, ShardRouter, Status};
use amoeba_sim::json::Json;
use amoeba_sim::{capture, DetRng, HwProfile, NetProfile, SimClock};
use bullet_core::counters::SHARD_REBALANCE_EXTENTS;
use bullet_core::{
    BulletClient, BulletConfig, BulletRpcServer, BulletServer, BulletShards, ShardSlot,
};

use crate::ablation::{Invariant, Outcome, Scale, Trailer};
use crate::rig::{paper_config, sim_mirror, Makespan};

/// The shard counts the on-push scaling suite sweeps.
pub const SCALING_COUNTS: [u32; 4] = [1, 2, 4, 8];
/// Files in the scaling pool (placed round-robin, so every shard holds
/// an equal slice).
const POOL: usize = 96;
/// Size of each pool file.
const FILE_SIZE: usize = 32 * 1024;
/// Client lanes issuing reads in parallel (CPU side).
const LANES: usize = 8;
/// Required speedup per shard: N shards must deliver at least
/// `N * SCALING_FLOOR` times the 1-shard bandwidth (6x at 8 shards, the
/// ISSUE's acceptance bar).
const SCALING_FLOOR: f64 = 0.75;

/// The outcome of one ABL18 cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Cell family: `scaling`, `rebalance`, or `kill-shard`.
    pub cell: &'static str,
    /// Shard count the cell ran with.
    pub shards: u32,
    /// Seed that generated the workload (0 for the seedless scaling rows).
    pub seed: u64,
    /// Client operations issued.
    pub ops: u64,
    /// Name of the headline metric.
    pub metric_name: &'static str,
    /// The headline metric (MB/s, extents moved, ops refused).
    pub metric: f64,
    /// Simulated end time / makespan in milliseconds — the determinism
    /// witness' most sensitive column.
    pub end_ms: f64,
    /// The invariants checked, in order.
    pub invariants: Vec<Invariant>,
}

impl ShardOutcome {
    /// True when every invariant held.
    pub fn green(&self) -> bool {
        self.invariants.iter().all(|i| i.pass)
    }
}

/// Deterministic pool-file fill byte.
fn fill(n: usize) -> u8 {
    (n as u8).wrapping_mul(37).wrapping_add(11)
}

// ---------------------------------------------------------------------
// Scaling.
// ---------------------------------------------------------------------

/// One shard set on latency-modelled disks: a shared CPU clock plus one
/// disk clock per shard.
fn scaling_set(hw: HwProfile, count: u32) -> (BulletShards, Vec<SimClock>) {
    let cpu_clock = SimClock::new();
    let mut disk_clocks = Vec::with_capacity(count as usize);
    let mut servers = Vec::with_capacity(count as usize);
    for i in 0..count {
        let disk_clock = SimClock::new();
        let storage = sim_mirror(2, 1024, 65_536, &disk_clock, hw.disk);
        // `small_test`'s seed keeps the capabilities ABL18 has always minted.
        let cfg = BulletConfig {
            shard: ShardSlot::new(i, count),
            rng_seed: BulletConfig::small_test().rng_seed,
            ..paper_config(cpu_clock.clone(), hw.cpu, 12 << 20)
        };
        servers.push(Arc::new(
            BulletServer::format_on(cfg, storage).expect("formatting succeeds"),
        ));
        disk_clocks.push(disk_clock);
    }
    (
        BulletShards::new(servers).expect("validated shard set"),
        disk_clocks,
    )
}

/// One scaling row: cold aggregate read bandwidth at `count` shards.
fn run_scaling(hw: HwProfile, count: u32) -> (f64, ShardOutcome) {
    let (shards, disk_clocks) = scaling_set(hw, count);

    // Round-robin placement, exactly the router's service-cap policy:
    // every shard ends up holding POOL / count files of its own stripe.
    let caps: Vec<(usize, Capability)> = (0..POOL)
        .map(|n| {
            let home = n % count as usize;
            let cap = shards
                .shard(home)
                .create(Bytes::from(vec![fill(n); FILE_SIZE]), 2)
                .expect("pool create fits");
            (home, cap)
        })
        .collect();
    // Every read below must come off the platters.
    for s in shards.iter() {
        s.clear_cache();
    }

    // LANES client lanes, each reading its slice of the pool once; the
    // disk component of every read is attributed to the owning shard's
    // spindle pair.
    let mut lanes = Makespan::new(LANES, hw.cpu, &disk_clocks);
    let mut mismatches = 0u64;
    let mut reads = 0u64;
    for (n, (home, cap)) in caps.iter().enumerate() {
        assert_eq!(
            shard_of(cap.object.value(), count) as usize,
            *home,
            "striped minting keeps objects routable"
        );
        let (data, log) = capture(|| shards.shard(*home).read(cap).expect("pool file exists"));
        if !data.iter().all(|&b| b == fill(n)) {
            mismatches += 1;
        }
        lanes.charge(n % LANES, *home, &log, data.len());
        reads += 1;
    }

    let makespan = lanes.settle();
    let mbps =
        (reads as f64 * FILE_SIZE as f64 / (1 << 20) as f64) / (makespan.as_ns() as f64 / 1e9);

    let outcome = ShardOutcome {
        cell: "scaling",
        shards: count,
        seed: 0,
        ops: reads,
        metric_name: "read MB/s",
        metric: mbps,
        end_ms: makespan.as_ms_f64(),
        invariants: vec![Invariant::new(
            "every byte read back intact",
            mismatches == 0,
            format!("{mismatches} mismatched files"),
        )],
    };
    (mbps, outcome)
}

/// The scaling suite: one row per entry of `counts` (which must start
/// at 1 — the baseline every speedup is measured against).  Each row
/// past the baseline carries the near-linear-scaling invariant:
/// aggregate bandwidth ≥ `SCALING_FLOOR` × shards × baseline.
pub fn run_scaling_suite(counts: &[u32]) -> Vec<ShardOutcome> {
    assert_eq!(counts.first(), Some(&1), "the suite needs the baseline");
    let hw = HwProfile::amoeba_1989();
    let mut base = 0.0f64;
    counts
        .iter()
        .map(|&count| {
            let (mbps, mut outcome) = run_scaling(hw, count);
            if count == 1 {
                base = mbps;
            } else {
                let need = SCALING_FLOOR * count as f64;
                outcome.invariants.push(Invariant::new(
                    "aggregate bandwidth scales near-linearly",
                    mbps >= need * base,
                    format!(
                        "{:.1} MB/s = {:.2}x baseline (need >= {:.2}x)",
                        mbps,
                        mbps / base,
                        need
                    ),
                ));
            }
            outcome
        })
        .collect()
}

// ---------------------------------------------------------------------
// Rebalance.
// ---------------------------------------------------------------------

/// The rebalance cell: seeded workload onto 4 shards, then every third
/// object migrates one shard to the right.  Proves byte preservation,
/// counter accounting, and pre-move capability routing.
pub fn run_rebalance(seed: u64) -> ShardOutcome {
    const SHARDS: u32 = 4;
    let clock = SimClock::new();
    let mut cfg = BulletConfig::small_test();
    cfg.clock = clock.clone();
    let shards = BulletShards::format(&cfg, SHARDS, 2).expect("shard set formats");

    let mut rng = DetRng::new(seed);
    let mut model: Vec<(Capability, usize)> = Vec::new(); // (cap, current shard)
    for n in 0..60usize {
        let size = 1 + rng.next_below(4000) as usize;
        let home = n % SHARDS as usize;
        let cap = shards
            .shard(home)
            .create(Bytes::from(vec![fill(n); size]), 1)
            .expect("pool create fits");
        model.push((cap, home));
    }
    let digest_before = shards.live_digest().expect("digest");
    let bytes_before = shards.total_live_bytes().expect("bytes");

    let mut moved = 0u64;
    for (n, (cap, at)) in model.iter_mut().enumerate() {
        if n % 3 != 0 {
            continue;
        }
        let to = (*at + 1) % SHARDS as usize;
        shards
            .rebalance(*at, to, cap.object.value())
            .expect("rebalance succeeds");
        *at = to;
        moved += 1;
    }

    let digest_after = shards.live_digest().expect("digest");
    let bytes_after = shards.total_live_bytes().expect("bytes");
    let counted: u64 = (0..SHARDS as usize)
        .map(|i| shards.shard(i).stats().get(SHARD_REBALANCE_EXTENTS))
        .sum();
    let mut misplaced = 0u64;
    let mut mismatches = 0u64;
    for (n, (cap, at)) in model.iter().enumerate() {
        match shards.shard(*at).read(cap) {
            Ok(data) if data.iter().all(|&b| b == fill(n)) => {}
            Ok(_) => mismatches += 1,
            Err(_) => misplaced += 1,
        }
    }

    ShardOutcome {
        cell: "rebalance",
        shards: SHARDS,
        seed,
        ops: model.len() as u64,
        metric_name: "extents moved",
        metric: moved as f64,
        end_ms: clock.now().as_ms_f64(),
        invariants: vec![
            Invariant::new(
                "every live byte preserved",
                digest_after == digest_before && bytes_after == bytes_before,
                format!(
                    "digest {:016x} -> {:016x}, bytes {} -> {}",
                    digest_before, digest_after, bytes_before, bytes_after
                ),
            ),
            Invariant::new(
                "rebalance counters account every move",
                counted == moved,
                format!("counted={counted} moved={moved}"),
            ),
            Invariant::new(
                "every pre-move capability still serves",
                misplaced == 0 && mismatches == 0,
                format!("misplaced={misplaced} mismatches={mismatches}"),
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// Kill-one-shard.
// ---------------------------------------------------------------------

/// The degraded-shard cell: a client workload through the router with
/// one shard (chosen by the seed) marked down mid-run.
pub fn run_kill_shard(seed: u64) -> ShardOutcome {
    const SHARDS: u32 = 4;
    let clock = SimClock::new();
    let mut cfg = BulletConfig::small_test();
    cfg.clock = clock.clone();
    let shards = BulletShards::format(&cfg, SHARDS, 2).expect("shard set formats");
    let router = Arc::new(ShardRouter::new(
        shards
            .iter()
            .map(|s| BulletRpcServer::new(s.clone()) as Arc<dyn RpcServer>)
            .collect(),
    ));
    let net = SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit());
    let dispatcher = Dispatcher::new(net);
    dispatcher.register(router.clone());
    let client = BulletClient::new(RpcClient::new(dispatcher), shards.shard(0).port());

    let mut rng = DetRng::new(seed ^ 0x5a5a);
    let files: Vec<(Capability, Vec<u8>)> = (0..24usize)
        .map(|n| {
            let data = vec![fill(n); 64 + rng.next_below(2000) as usize];
            let cap = client
                .create(Bytes::from(data.clone()), 1)
                .expect("create through the router");
            (cap, data)
        })
        .collect();
    let ops = files.len() as u64 * 3; // creates + degraded sweep + recovery sweep

    let victim = (seed % SHARDS as u64) as usize;
    router.set_down(victim, true);
    let on_victim = |cap: &Capability| shard_of(cap.object.value(), SHARDS) as usize == victim;

    let mut refused = 0u64;
    let mut served = 0u64;
    let mut wrong_status = 0u64;
    let mut mismatches = 0u64;
    for (cap, expect) in &files {
        match (on_victim(cap), client.read(cap)) {
            (true, Err(Status::ShardDown)) => refused += 1,
            (true, _) => wrong_status += 1,
            (false, Ok(data)) if data == *expect => served += 1,
            (false, _) => mismatches += 1,
        }
    }
    let expected_refused = files.iter().filter(|(c, _)| on_victim(c)).count() as u64;

    router.set_down(victim, false);
    let mut recovered = 0u64;
    for (cap, expect) in &files {
        if client.read(cap).is_ok_and(|d| d == *expect) {
            recovered += 1;
        }
    }

    ShardOutcome {
        cell: "kill-shard",
        shards: SHARDS,
        seed,
        ops,
        metric_name: "ops refused",
        metric: refused as f64,
        end_ms: clock.now().as_ms_f64(),
        invariants: vec![
            Invariant::new(
                "down shard fails distinctly",
                refused == expected_refused && wrong_status == 0,
                format!(
                    "refused={refused} expected={expected_refused} wrong_status={wrong_status}"
                ),
            ),
            Invariant::new(
                "survivors serve bit-identically",
                served == files.len() as u64 - expected_refused && mismatches == 0,
                format!("served={served} mismatches={mismatches}"),
            ),
            Invariant::new(
                "router accounting matches the client",
                router.degraded(victim) == refused,
                format!(
                    "router_degraded={} client_refused={refused}",
                    router.degraded(victim)
                ),
            ),
            Invariant::new(
                "recovery restores every byte",
                recovered == files.len() as u64,
                format!("recovered={recovered}/{}", files.len()),
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// The matrix and its rendering.
// ---------------------------------------------------------------------

/// ABL18 — the cell matrix.  [`Scale::Reduced`] is the 1-vs-2 scaling
/// pair plus one rebalance and one kill-shard seed; the full matrix
/// sweeps [`SCALING_COUNTS`] with 3 seeds each, the soak with 10
/// rebalance and 25 kill-shard seeds.
///
/// Criteria: one per cell — every invariant of the cell holds.  The
/// scaling rows past the baseline carry the headline one: `n` shards
/// deliver at least `n × SCALING_FLOOR` times the one-shard bandwidth.
pub fn ablation(scale: Scale) -> Outcome {
    let (counts, rebalance_seeds, kill_seeds): (Vec<u32>, Vec<u64>, Vec<u64>) = match scale {
        Scale::Reduced => (vec![1, 2], vec![1], vec![1]),
        Scale::Full => (SCALING_COUNTS.to_vec(), vec![1, 2, 3], vec![1, 2, 3]),
        Scale::Soak => (
            SCALING_COUNTS.to_vec(),
            (1..=10).collect(),
            (1..=25).collect(),
        ),
    };
    let mut cells = run_scaling_suite(&counts);
    let scaling = cells.len();
    cells.extend(rebalance_seeds.iter().map(|&s| run_rebalance(s)));
    cells.extend(kill_seeds.iter().map(|&s| run_kill_shard(s)));
    // The BENCH summary describes the reduced 1-vs-2 cell only.
    let json = if scale == Scale::Reduced {
        let (base, two) = (cells[0].metric, cells[1].metric);
        let (rebalance, kill) = (&cells[scaling], &cells[scaling + 1]);
        vec![(
            "sharding",
            Json::object([
                ("baseline_read_mb_s", Json::fixed(base, 3)),
                ("two_shard_read_mb_s", Json::fixed(two, 3)),
                ("shard_speedup", Json::fixed(two / base, 3)),
                (
                    "rebalance_extents_moved",
                    Json::num(rebalance.metric as u64),
                ),
                ("kill_shard_ops_refused", Json::num(kill.metric as u64)),
            ]),
        )]
    } else {
        Vec::new()
    };
    Outcome {
        title: "ABL18 sharded-service ablation".to_string(),
        table: outcome_table(&cells),
        criteria: cells
            .iter()
            .map(|o| {
                let which = format!("shards={} seed {}", o.shards, o.seed);
                Invariant::cell(o.cell, which, &o.invariants)
            })
            .collect(),
        json,
        report_md: String::new(),
        artifact: "ablation_shard.txt",
        trailer: Trailer::GreenCells,
        extras: Vec::new(),
    }
}

/// Renders the cell table.  The string is ABL18's determinism witness:
/// a replayed cell must reproduce its row byte for byte.
pub fn outcome_table(outcomes: &[ShardOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>6} {:>6} {:>6} {:>12} {:<16} {:>10} {:>12}  {}\n",
        "cell", "shards", "seed", "ops", "metric", "", "sim_ms", "invariants", "result"
    ));
    for o in outcomes {
        let held = o.invariants.iter().filter(|i| i.pass).count();
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>6} {:>12.1} {:<16} {:>10.3} {:>9}/{:<2}  {}\n",
            o.cell,
            o.shards,
            o.seed,
            o.ops,
            o.metric,
            o.metric_name,
            o.end_ms,
            held,
            o.invariants.len(),
            if o.green() { "PASS" } else { "FAIL" },
        ));
    }
    for o in outcomes.iter().filter(|o| !o.green()) {
        for i in o.invariants.iter().filter(|i| !i.pass) {
            out.push_str(&format!(
                "  FAILED {} shards={} seed {}: {} ({})\n",
                o.cell, o.shards, o.seed, i.name, i.detail
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_pair_is_green_and_deterministic() {
        // The reduced CI cell: baseline plus one scaled point.
        let a = run_scaling_suite(&[1, 2]);
        assert!(a.iter().all(|o| o.green()), "{}", outcome_table(&a));
        let b = run_scaling_suite(&[1, 2]);
        assert_eq!(outcome_table(&a), outcome_table(&b));
    }

    #[test]
    fn rebalance_cell_is_green_and_deterministic() {
        let a = run_rebalance(1);
        assert!(a.green(), "{}", outcome_table(std::slice::from_ref(&a)));
        let b = run_rebalance(1);
        assert_eq!(
            outcome_table(std::slice::from_ref(&a)),
            outcome_table(std::slice::from_ref(&b))
        );
    }

    #[test]
    fn kill_shard_cell_is_green_and_deterministic() {
        let a = run_kill_shard(1);
        assert!(a.green(), "{}", outcome_table(std::slice::from_ref(&a)));
        let b = run_kill_shard(1);
        assert_eq!(
            outcome_table(std::slice::from_ref(&a)),
            outcome_table(std::slice::from_ref(&b))
        );
    }
}
