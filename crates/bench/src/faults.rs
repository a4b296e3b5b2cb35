//! Seeded fault-injection campaigns (ABL13).
//!
//! Three fault classes, each a deterministic function of its seed on the
//! simulated clock — rerunning a `(class, seed)` cell reproduces the
//! exact fault schedule, byte for byte:
//!
//! * [`FaultClass::MirrorFail`] — a mirrored disk dies mid-workload:
//!   cold reads must fail over to the survivor, creates must degrade to
//!   one replica without failing, and a `resync` after reattach must
//!   leave the replicas bit-identical.
//! * [`FaultClass::CrashRecovery`] — a crash drops unsynced background
//!   writes and a torn inode, then the startup consistency scan runs:
//!   committed (P ≥ 1) files survive bit-identical, P = 0 tail creates
//!   are lost cleanly (never read back as garbage), and the torn inode
//!   is reaped.
//! * [`FaultClass::LossyWire`] — a [`FaultyWire`] drops, delays,
//!   duplicates, and truncates messages while a [`RetryClient`] pushes
//!   a create/read/delete mix through it: every operation must
//!   eventually succeed, contents stay bit-identical, and the at-most-
//!   once cache must keep duplicated CREATEs from allocating twice.
//!
//! [`run_class`] executes one cell and returns a [`CampaignOutcome`];
//! [`ablation`] runs a class × seed matrix of them, and its rendering
//! ([`outcome_table`]) is the determinism witness compared across
//! replays.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use amoeba_cap::{Capability, CAP_WIRE_LEN};
use amoeba_disk::{BlockDevice, FaultyDisk, MirroredDisk, RamDisk, SchedConfig, SchedDisk};
use amoeba_net::SimEthernet;
use amoeba_rpc::fault::{FAULT_REQUEST_DUPS, RPC_GIVEUPS, RPC_RETRIES};
use amoeba_rpc::{Dispatcher, FaultPlan, FaultyWire, RetryClient, RetryPolicy, Status};
use amoeba_sim::json::Json;
use amoeba_sim::{DetRng, HwProfile, SimClock};
use bullet_core::counters::{DEDUP_HITS, FAILOVER_READS, RECOVERY_REPAIRED_INODES};
use bullet_core::table::RepairPolicy;
use bullet_core::{commands, BulletConfig, BulletRpcServer, BulletServer, DiskDescriptor, Inode};

use crate::ablation::{Invariant, Outcome, Scale, Trailer};
use crate::rig::sim_mirror;

/// The on-push seed matrix.
pub const PR_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
/// Seeds per class of the reduced campaign `report --json` embeds.
const REDUCED_SEEDS: [u64; 2] = [1, 2];
/// Seeds per class of the nightly `report --soak` sweep.
const WIDE_SEEDS: std::ops::RangeInclusive<u64> = 1..=25;

/// One fault class of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A mirrored disk fails mid-workload and is later resynced.
    MirrorFail,
    /// A crash drops unsynced writes; the consistency scan recovers.
    CrashRecovery,
    /// A lossy wire under a retrying at-most-once client.
    LossyWire,
}

impl FaultClass {
    /// Every class, in campaign order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::MirrorFail,
        FaultClass::CrashRecovery,
        FaultClass::LossyWire,
    ];

    /// The class's stable table name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::MirrorFail => "mirror-fail",
            FaultClass::CrashRecovery => "crash-recovery",
            FaultClass::LossyWire => "lossy-wire",
        }
    }
}

/// The outcome of one `(class, seed)` campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The fault class exercised.
    pub class: &'static str,
    /// The seed that generated the workload and the fault schedule.
    pub seed: u64,
    /// Client operations issued.
    pub ops_attempted: u64,
    /// Retransmissions the client needed (lossy-wire only).
    pub ops_retried: u64,
    /// Operations that (eventually) succeeded.
    pub ops_succeeded: u64,
    /// Faults injected across the run.
    pub faults_injected: u64,
    /// Simulated end time in milliseconds — part of the determinism
    /// witness: a divergent schedule shows up here first.
    pub end_ms: f64,
    /// The invariants checked, in order.
    pub invariants: Vec<Invariant>,
}

impl CampaignOutcome {
    /// True when every invariant held.
    pub fn green(&self) -> bool {
        self.invariants.iter().all(|i| i.pass)
    }
}

/// A small, fast campaign configuration: 512-byte blocks, 2 MB disks.
fn campaign_config(clock: &SimClock) -> BulletConfig {
    let mut cfg = BulletConfig::small_test();
    cfg.clock = clock.clone();
    cfg
}

/// Runs one campaign cell.  Deterministic: the outcome (including the
/// rendered table row) is a pure function of `(class, seed)`.
pub fn run_class(class: FaultClass, seed: u64) -> CampaignOutcome {
    match class {
        FaultClass::MirrorFail => run_mirror_fail(seed),
        FaultClass::CrashRecovery => run_crash_recovery(seed),
        FaultClass::LossyWire => run_lossy_wire(seed),
    }
}

/// ABL13 — the class × seed campaign matrix: every class over the
/// scale's seed set.
///
/// Criteria: one per cell — every invariant on the cell's checklist
/// holds (no lost or corrupted committed file, replicas bit-identical
/// after resync, no duplicate allocation under retransmission).  The
/// table's `sim_ms` column makes a divergent fault schedule show up in
/// the replay comparison first.
pub fn ablation(scale: Scale) -> Outcome {
    let seeds: Vec<u64> = match scale {
        Scale::Reduced => REDUCED_SEEDS.to_vec(),
        Scale::Full => PR_SEEDS.to_vec(),
        Scale::Soak => WIDE_SEEDS.collect(),
    };
    let cells: Vec<CampaignOutcome> = FaultClass::ALL
        .iter()
        .flat_map(|&c| seeds.iter().map(move |&s| run_class(c, s)))
        .collect();
    let rows = cells.iter().map(|o| {
        Json::object([
            ("class", Json::string(o.class)),
            ("seed", Json::num(o.seed)),
            ("ops_attempted", Json::num(o.ops_attempted)),
            ("ops_retried", Json::num(o.ops_retried)),
            ("ops_succeeded", Json::num(o.ops_succeeded)),
            ("faults_injected", Json::num(o.faults_injected)),
            ("green", Json::num(o.green())),
        ])
    });
    Outcome {
        title: "ABL13 fault-injection campaign".to_string(),
        table: outcome_table(&cells),
        criteria: cells
            .iter()
            .map(|o| Invariant::cell(o.class, format!("seed {}", o.seed), &o.invariants))
            .collect(),
        json: vec![
            ("fault_campaign", Json::Array(rows.collect())),
            (
                "fault_campaign_all_green",
                Json::num(cells.iter().all(CampaignOutcome::green)),
            ),
        ],
        report_md: String::new(),
        artifact: "ablation_faults.txt",
        trailer: Trailer::GreenCells,
        extras: Vec::new(),
    }
}

/// Deterministic file content for workload step `i`.
fn content(rng: &mut DetRng, len: usize) -> Bytes {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    Bytes::from(buf)
}

// ---------------------------------------------------------------------
// Class 1: mirrored-disk failure mid-workload.
// ---------------------------------------------------------------------

fn run_mirror_fail(seed: u64) -> CampaignOutcome {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let cfg = campaign_config(&clock);
    let disks: Vec<Arc<FaultyDisk<SchedDisk<RamDisk>>>> = (0..2)
        .map(|_| {
            Arc::new(FaultyDisk::new(SchedDisk::new(
                RamDisk::new(cfg.block_size, cfg.disk_blocks),
                clock.clone(),
                hw.disk,
                SchedConfig::default(),
            )))
        })
        .collect();
    // The seed decides which physical disk sits in the primary slot;
    // the victim is always the mirror's replica 0, so cold reads are
    // guaranteed to trip over the corpse and fail over.
    let mut rng = DetRng::new(seed ^ 0x6d69_7272);
    let victim = rng.next_below(2) as usize;
    let order = [victim, 1 - victim];
    let storage = MirroredDisk::new(
        order
            .iter()
            .map(|&i| disks[i].clone() as Arc<dyn BlockDevice>)
            .collect(),
    )
    .expect("mirror");
    let server = BulletServer::format_on(cfg, storage).expect("format");
    let mut files: Vec<(Capability, Bytes)> = Vec::new();
    let mut attempted = 0u64;
    let mut succeeded = 0u64;
    let mut mismatches = 0u64;
    let mut degraded_create_failures = 0u64;

    // Phase 1: a healthy workload.
    for _ in 0..12 {
        let len = 1 + rng.next_below(8 * 1024) as usize;
        let data = content(&mut rng, len);
        attempted += 1;
        match server.create(data.clone(), 2) {
            Ok(cap) => {
                succeeded += 1;
                files.push((cap, data));
            }
            Err(_) => mismatches += 1,
        }
    }

    // The primary replica dies.
    disks[victim].fail_now();

    // Phase 2: degraded. Cold reads must fail over; creates must still
    // commit on the survivor.
    server.clear_cache();
    for (cap, expect) in &files {
        attempted += 1;
        match server.read(cap) {
            Ok(got) if got == *expect => succeeded += 1,
            _ => mismatches += 1,
        }
    }
    for _ in 0..6 {
        let len = 1 + rng.next_below(8 * 1024) as usize;
        let data = content(&mut rng, len);
        attempted += 1;
        match server.create(data.clone(), 2) {
            Ok(cap) => {
                succeeded += 1;
                files.push((cap, data));
            }
            Err(_) => degraded_create_failures += 1,
        }
    }

    // Reattach, flush, resync.
    disks[victim].repair();
    server.sync().expect("flush background writes");
    let resync = server
        .storage()
        .resync_replica(0, 64) // the victim sits in the mirror's slot 0
        .map(|()| true)
        .unwrap_or(false);

    // Every committed file must still read bit-identical.
    server.clear_cache();
    for (cap, expect) in &files {
        attempted += 1;
        match server.read(cap) {
            Ok(got) if got == *expect => succeeded += 1,
            _ => mismatches += 1,
        }
    }

    // Replicas must be bit-identical after the resync.
    let bytes_total = (disks[0].num_blocks() * disks[0].block_size() as u64) as usize;
    let mut images: Vec<Vec<u8>> = Vec::new();
    for d in &disks {
        let mut img = vec![0u8; bytes_total];
        d.read_blocks(0, &mut img).expect("replica dump");
        images.push(img);
    }
    let replicas_identical = images[0] == images[1];

    let failovers = server.stats().get(FAILOVER_READS);
    let outcome = CampaignOutcome {
        class: FaultClass::MirrorFail.name(),
        seed,
        ops_attempted: attempted,
        ops_retried: 0,
        ops_succeeded: succeeded,
        faults_injected: 1, // one replica failure
        end_ms: clock.now().as_ms_f64(),
        invariants: vec![
            Invariant::new(
                "no lost committed file",
                mismatches == 0,
                format!("{mismatches} mismatched reads"),
            ),
            Invariant::new(
                "degraded creates succeed",
                degraded_create_failures == 0,
                format!("{degraded_create_failures} failures"),
            ),
            Invariant::new(
                "reads failed over",
                failovers > 0,
                format!("failover_reads={failovers}"),
            ),
            Invariant::new(
                "replicas bit-identical after resync",
                resync && replicas_identical,
                format!("resync_ok={resync} identical={replicas_identical}"),
            ),
        ],
    };
    outcome
}

// ---------------------------------------------------------------------
// Class 2: crash-drop of unsynced writes + startup consistency scan.
// ---------------------------------------------------------------------

fn run_crash_recovery(seed: u64) -> CampaignOutcome {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let mut cfg = campaign_config(&clock);
    cfg.repair = RepairPolicy::ZeroBad;
    let storage = sim_mirror(2, cfg.block_size, cfg.disk_blocks, &clock, hw.disk);
    let server = BulletServer::format_on(cfg.clone(), storage).expect("format");

    let mut rng = DetRng::new(seed ^ 0x6372_6173);
    let mut committed: Vec<(Capability, Bytes, u32)> = Vec::new();
    let mut attempted = 0u64;
    let mut succeeded = 0u64;

    // Committed workload: P-FACTOR 1 and 2 creates, a few deletes.
    for i in 0..12u64 {
        let p = 1 + rng.next_below(2) as u32;
        let len = 1 + rng.next_below(6 * 1024) as usize;
        let data = content(&mut rng, len);
        attempted += 1;
        if let Ok(cap) = server.create(data.clone(), p) {
            succeeded += 1;
            committed.push((cap, data, p));
        }
        if i % 5 == 4 && !committed.is_empty() {
            let gone = committed.remove(rng.next_below(committed.len() as u64) as usize);
            attempted += 1;
            if server.delete(&gone.0).is_ok() {
                succeeded += 1;
            }
        }
    }

    // The volatile tail: P = 0 creates directly before the crash, so
    // their data and inodes are still in the background queues.
    let mut volatile: Vec<Capability> = Vec::new();
    for _ in 0..1 + rng.next_below(3) {
        let len = 1 + rng.next_below(2 * 1024) as usize;
        let data = content(&mut rng, len);
        attempted += 1;
        if let Ok(cap) = server.create(data, 0) {
            succeeded += 1;
            volatile.push(cap);
        }
    }

    // Crash: queued background writes vanish.  A torn inode lands on the
    // platters too — the footprint of a create interrupted mid-commit —
    // pointing past the end of the data area.
    let storage = server.crash();
    let block_size = cfg.block_size;
    let mut block0 = vec![0u8; block_size as usize];
    storage
        .read_blocks(0, &mut block0)
        .expect("read descriptor");
    let desc =
        DiskDescriptor::decode(block0[..16].try_into().expect("16 bytes")).expect("descriptor");
    // The highest inode slot lives at the tail of the last control
    // block; the campaign's workload never grows that far, so it is
    // guaranteed free.
    let torn_block = desc.control_blocks as u64 - 1;
    let torn = Inode {
        random: 0xdead_beef_cafe,
        index: 0,
        start_block: cfg.disk_blocks as u32 - 2,
        size_bytes: block_size * 8, // extends past the data area
    };
    let mut blk = vec![0u8; block_size as usize];
    storage
        .read_blocks(torn_block, &mut blk)
        .expect("read inode block");
    let slot_off = block_size as usize - 16;
    blk[slot_off..slot_off + 16].copy_from_slice(&torn.encode());
    storage
        .write_blocks(torn_block, &blk)
        .expect("plant torn inode");

    // Recovery: the paper's startup sequence under ZeroBad.
    let server = BulletServer::recover(cfg, storage).expect("recover");
    let repaired = server.stats().get(RECOVERY_REPAIRED_INODES);

    let mut mismatches = 0u64;
    for (cap, expect, _p) in &committed {
        attempted += 1;
        match server.read(cap) {
            Ok(got) if got == *expect => succeeded += 1,
            _ => mismatches += 1,
        }
    }
    // P = 0 files are allowed to be gone — but must never read garbage.
    let mut volatile_garbage = 0u64;
    let mut volatile_lost = 0u64;
    for cap in &volatile {
        match server.read(cap) {
            Err(_) => volatile_lost += 1,
            Ok(_) => volatile_garbage += 1, // survived whole: also fine, but
                                            // counted separately below
        }
    }
    // A surviving p=0 file must at least verify its capability; a served
    // read proved cap + content checks, so "garbage" here means only
    // that it unexpectedly survived — tolerated, not an invariant
    // failure.  The invariant is that recovery never *invents* data:
    let live = server.live_files() as u64;
    let expected_live = committed.len() as u64 + volatile_garbage;

    CampaignOutcome {
        class: FaultClass::CrashRecovery.name(),
        seed,
        ops_attempted: attempted,
        ops_retried: 0,
        ops_succeeded: succeeded,
        faults_injected: 1 + volatile_lost, // the crash + each dropped create
        end_ms: clock.now().as_ms_f64(),
        invariants: vec![
            Invariant::new(
                "committed files survive bit-identical",
                mismatches == 0,
                format!("{mismatches} mismatches of {}", committed.len()),
            ),
            Invariant::new(
                "torn inode reaped by the scan",
                repaired >= 1,
                format!("recovery_repaired_inodes={repaired}"),
            ),
            Invariant::new(
                "volatile tail lost cleanly or survived whole",
                volatile_lost + volatile_garbage == volatile.len() as u64,
                format!("lost={volatile_lost} survived={volatile_garbage}"),
            ),
            Invariant::new(
                "live-file census matches",
                live == expected_live,
                format!("live={live} expected={expected_live}"),
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// Class 3: lossy-wire soak under retry + at-most-once.
// ---------------------------------------------------------------------

fn run_lossy_wire(seed: u64) -> CampaignOutcome {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let cfg = campaign_config(&clock);
    let block_size = cfg.block_size as u64;
    let storage = sim_mirror(2, cfg.block_size, cfg.disk_blocks, &clock, hw.disk);
    let server = Arc::new(BulletServer::format_on(cfg, storage).expect("format"));
    let rpc = BulletRpcServer::new(server.clone());
    let net = SimEthernet::with_load(clock.clone(), hw.net, 1.0);
    let dispatcher = Dispatcher::new(net);
    dispatcher.register(rpc.clone());

    let wire = FaultyWire::new(
        dispatcher,
        clock.clone(),
        FaultPlan::lossy(0.8),
        seed ^ 0x7769_7265,
    );
    let client = RetryClient::new(wire.clone(), RetryPolicy::standard(), 1, seed ^ 0x6a69_7474);
    let mut rng = DetRng::new(seed ^ 0x6c6f_7373);

    let service_cap = {
        let mut c = Capability::null();
        c.port = server.port();
        c
    };
    let create = |data: Bytes| -> Result<Capability, Status> {
        let mut params = BytesMut::with_capacity(4);
        params.put_u32(2);
        let reply = client.trans(service_cap, commands::CREATE, params.freeze(), data)?;
        if reply.params.len() < CAP_WIRE_LEN {
            return Err(Status::BadParam);
        }
        Capability::from_wire(&reply.params[..CAP_WIRE_LEN]).map_err(|_| Status::BadParam)
    };

    let mut files: BTreeMap<u64, (Capability, Bytes)> = BTreeMap::new();
    let mut next_id = 0u64;
    let mut attempted = 0u64;
    let mut succeeded = 0u64;
    let mut failures = 0u64;
    let mut mismatches = 0u64;

    for _ in 0..40 {
        let op = rng.next_below(10);
        if op < 4 || files.is_empty() {
            // Create: mostly small, sometimes bigger than one segment so
            // frame faults have something to hit.
            let len = if rng.next_below(5) == 0 {
                (64 * 1024 + 1) + rng.next_below(64 * 1024) as usize
            } else {
                1 + rng.next_below(12 * 1024) as usize
            };
            let data = content(&mut rng, len);
            attempted += 1;
            match create(data.clone()) {
                Ok(cap) => {
                    succeeded += 1;
                    files.insert(next_id, (cap, data));
                    next_id += 1;
                }
                Err(_) => failures += 1,
            }
        } else if op < 8 {
            // Read a random live file and verify its bytes.
            let keys: Vec<u64> = files.keys().copied().collect();
            let key = keys[rng.next_below(keys.len() as u64) as usize];
            let (cap, expect) = files.get(&key).expect("key is live").clone();
            attempted += 1;
            match client.trans(cap, commands::READ, Bytes::new(), Bytes::new()) {
                Ok(reply) if reply.data == expect => succeeded += 1,
                Ok(_) => mismatches += 1,
                Err(_) => failures += 1,
            }
        } else {
            // Delete a random live file.
            let keys: Vec<u64> = files.keys().copied().collect();
            let key = keys[rng.next_below(keys.len() as u64) as usize];
            let (cap, _) = files.remove(&key).expect("key is live");
            attempted += 1;
            match client.trans(cap, commands::DELETE, Bytes::new(), Bytes::new()) {
                Ok(_) => succeeded += 1,
                Err(_) => failures += 1,
            }
        }
    }

    // After the storm: every live file must read back bit-identical.
    for (cap, expect) in files.values() {
        attempted += 1;
        match client.trans(*cap, commands::READ, Bytes::new(), Bytes::new()) {
            Ok(reply) if reply.data == *expect => succeeded += 1,
            Ok(_) => mismatches += 1,
            Err(_) => failures += 1,
        }
    }

    // No duplicate allocation: the server holds exactly the expected
    // files, and the data-area census matches the expected footprint.
    server.sync().expect("flush");
    let live = server.live_files() as u64;
    let expected_live = files.len() as u64;
    let frag = server.disk_frag_report();
    let expected_used: u64 = files
        .values()
        .map(|(_, d)| (d.len() as u64).div_ceil(block_size).max(1))
        .sum();
    let census_ok = frag.total - frag.free == expected_used;

    let dedup_hits = rpc.dedup_stats().get(DEDUP_HITS);
    let dup_faults = wire.stats().get(FAULT_REQUEST_DUPS);
    let giveups = client.stats().get(RPC_GIVEUPS);

    CampaignOutcome {
        class: FaultClass::LossyWire.name(),
        seed,
        ops_attempted: attempted,
        ops_retried: client.stats().get(RPC_RETRIES),
        ops_succeeded: succeeded,
        faults_injected: wire.faults_injected(),
        end_ms: clock.now().as_ms_f64(),
        invariants: vec![
            Invariant::new(
                "every op eventually succeeds",
                failures == 0 && giveups == 0,
                format!("failures={failures} giveups={giveups}"),
            ),
            Invariant::new(
                "contents bit-identical",
                mismatches == 0,
                format!("{mismatches} mismatches"),
            ),
            Invariant::new(
                "no duplicate allocation",
                live == expected_live && census_ok,
                format!(
                    "live={live} expected={expected_live} used_blocks={} expected_blocks={expected_used}",
                    frag.total - frag.free
                ),
            ),
            Invariant::new(
                "duplicates collapsed by dedup",
                dedup_hits >= dup_faults,
                format!("dedup_hits={dedup_hits} duplicate_faults={dup_faults}"),
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

/// Renders the per-fault-class outcome table.  The string is the
/// campaign's determinism witness: a replayed `(class, seed)` cell must
/// reproduce its rows byte for byte.
pub fn outcome_table(outcomes: &[CampaignOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>6} {:>6} {:>8} {:>6} {:>7} {:>10} {:>12}  {}\n",
        "class", "seed", "ops", "retried", "ok", "faults", "sim_ms", "invariants", "result"
    ));
    for o in outcomes {
        let held = o.invariants.iter().filter(|i| i.pass).count();
        out.push_str(&format!(
            "{:<16} {:>6} {:>6} {:>8} {:>6} {:>7} {:>10.3} {:>9}/{:<2}  {}\n",
            o.class,
            o.seed,
            o.ops_attempted,
            o.ops_retried,
            o.ops_succeeded,
            o.faults_injected,
            o.end_ms,
            held,
            o.invariants.len(),
            if o.green() { "PASS" } else { "FAIL" },
        ));
    }
    for o in outcomes.iter().filter(|o| !o.green()) {
        for inv in o.invariants.iter().filter(|i| !i.pass) {
            out.push_str(&format!(
                "  FAILED {} seed {}: {} ({})\n",
                o.class, o.seed, inv.name, inv.detail
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_is_green_and_deterministic_on_seed_1() {
        for class in FaultClass::ALL {
            let a = run_class(class, 1);
            assert!(
                a.green(),
                "{} seed 1 failed: {}",
                class.name(),
                outcome_table(std::slice::from_ref(&a))
            );
            let b = run_class(class, 1);
            assert_eq!(
                outcome_table(std::slice::from_ref(&a)),
                outcome_table(std::slice::from_ref(&b)),
                "{} is not deterministic",
                class.name()
            );
        }
    }
}
