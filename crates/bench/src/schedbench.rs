//! ABL14 — the seek-aware disk-scheduler ablation engine.
//!
//! Drives [`amoeba_disk::ArmSim`] — the single-threaded virtual-time twin
//! of the real [`amoeba_disk::SchedDisk`] — with a closed-loop 8-client
//! mixed workload: each client alternates seek-scattered file reads with
//! sequential segment writes, submitting its next operation as soon as the
//! previous one completes plus a seeded think time.  Because the whole run
//! is a pure function of the seed, the FIFO / SCAN / SPTF comparison is
//! deterministic and byte-identically replayable (the ABL13 invariant,
//! with the request queue in the path).
//!
//! The headline numbers: total seek blocks and aggregate read bandwidth
//! (SCAN/SPTF must beat FIFO on both), p99 operation latency (deadline
//! aging must hold it near FIFO's), and the coalescing on/off knee on
//! sequential creates.

use std::collections::HashMap;

use amoeba_disk::{ArmSim, ReqKind, SchedConfig, SchedPolicy, Service};
use amoeba_sim::json::Json;
use amoeba_sim::{DetRng, DiskProfile, Nanos};

use crate::ablation::{Invariant, Outcome, Trailer};

/// Disk geometry of the simulated drive (matches the bench rig: 1 KB
/// blocks, 64 MB).
pub const BLOCK_SIZE: u32 = 1024;
/// Blocks on the simulated drive.
pub const DISK_BLOCKS: u64 = 65_536;
/// Concurrent clients in the mixed workload.
pub const CLIENTS: usize = 8;
/// Closed-loop operations each client completes.
pub const OPS_PER_CLIENT: usize = 24;
/// The seed the PR gate runs under.
pub const PR_SEED: u64 = 14;

const FILES_PER_CLIENT: usize = 12;
const FILE_BLOCKS: u64 = 32;
const SEGMENT_BLOCKS: u64 = 8;

/// Aggregate outcome of one policy run of the mixed workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyOutcome {
    /// Policy label (`fifo`/`scan`/`sptf`).
    pub policy: &'static str,
    /// Operations completed (always `CLIENTS * OPS_PER_CLIENT`).
    pub ops: u64,
    /// Physical I/Os issued after coalescing.
    pub issued_ios: u64,
    /// Requests merged into a neighbour's transfer.
    pub coalesced: u64,
    /// Total blocks of arm travel.
    pub seek_blocks: u64,
    /// Requests granted by deadline aging over the policy pick.
    pub promotions: u64,
    /// Highest queue depth observed.
    pub depth_max: u64,
    /// Aggregate read bandwidth over the run, MB/s (simulated).
    pub read_mb_s: f64,
    /// Median operation latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile operation latency, ms.
    pub p99_ms: f64,
    /// Virtual time to drain the whole workload, ms.
    pub makespan_ms: f64,
}

/// One policy run: the aggregate outcome plus the full service log (the
/// per-request queue-trace artifact).
#[derive(Debug, Clone)]
pub struct MixedRun {
    /// Aggregate numbers.
    pub outcome: PolicyOutcome,
    /// Every physical I/O, in service order.
    pub services: Vec<Service>,
}

struct Client {
    rng: DetRng,
    /// First blocks of this client's read set, scattered over the disk.
    files: Vec<u64>,
    /// Sequential-write cursor (each client owns a private band).
    write_cursor: u64,
    write_base: u64,
    ops_done: usize,
    /// Request ids of the operation in flight (empty = idle).
    outstanding: Vec<u64>,
    op_arrival: Nanos,
    op_is_read: bool,
    op_bytes: u64,
}

impl Client {
    fn new(id: usize, seed: u64) -> Client {
        let mut rng = DetRng::new(seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(id as u64 + 1)));
        let files = (0..FILES_PER_CLIENT)
            .map(|_| rng.next_below(DISK_BLOCKS - FILE_BLOCKS))
            .collect();
        // Private 2048-block write band per client in the upper half.
        let write_base = DISK_BLOCKS / 2 + id as u64 * 2048;
        Client {
            rng,
            files,
            write_cursor: write_base,
            write_base,
            ops_done: 0,
            outstanding: Vec::new(),
            op_arrival: Nanos::ZERO,
            op_is_read: false,
            op_bytes: 0,
        }
    }

    /// Submits this client's next operation at `arrival`: 3-in-4 a
    /// scattered file read, 1-in-4 a sequential segment write.
    fn submit_op(&mut self, sim: &mut ArmSim, arrival: Nanos) {
        self.op_arrival = arrival;
        self.op_is_read = self.rng.next_below(4) < 3;
        let (kind, base) = if self.op_is_read {
            let file = self.files[self.rng.next_below(self.files.len() as u64) as usize];
            (ReqKind::Read, file)
        } else {
            let base = self.write_cursor;
            self.write_cursor += FILE_BLOCKS;
            if self.write_cursor + FILE_BLOCKS > self.write_base + 2048 {
                self.write_cursor = self.write_base;
            }
            (ReqKind::Write, base)
        };
        self.op_bytes = FILE_BLOCKS * BLOCK_SIZE as u64;
        for seg in 0..(FILE_BLOCKS / SEGMENT_BLOCKS) {
            let id = sim.submit(kind, base + seg * SEGMENT_BLOCKS, SEGMENT_BLOCKS, arrival);
            self.outstanding.push(id);
        }
    }

    fn think(&mut self) -> Nanos {
        Nanos::from_us(self.rng.next_below(5_000))
    }
}

/// Runs the 8-client closed-loop mixed workload under one scheduler
/// configuration.  Pure function of `(cfg, seed)`.
///
/// # Panics
///
/// Panics only on internal bookkeeping bugs.
pub fn run_mixed(cfg: SchedConfig, seed: u64) -> MixedRun {
    let mut sim = ArmSim::new(cfg, DiskProfile::scsi_1989(), BLOCK_SIZE, DISK_BLOCKS);
    let mut clients: Vec<Client> = (0..CLIENTS).map(|i| Client::new(i, seed)).collect();
    let mut owner: HashMap<u64, usize> = HashMap::new();

    // Stagger the opening ops slightly so arrival order is interesting.
    for (i, c) in clients.iter_mut().enumerate() {
        c.submit_op(&mut sim, Nanos::from_us(i as u64 * 300));
        for &id in &c.outstanding {
            owner.insert(id, i);
        }
    }

    let mut latencies: Vec<Nanos> = Vec::new();
    let mut read_bytes = 0u64;
    let mut services = Vec::new();
    while let Some(sv) = sim.service_one() {
        for &id in &sv.ids {
            let ci = owner.remove(&id).expect("every request has an owner");
            let c = &mut clients[ci];
            c.outstanding.retain(|&x| x != id);
            if c.outstanding.is_empty() {
                // Operation complete: record it, think, go again.
                latencies.push(sv.end.saturating_sub(c.op_arrival));
                if c.op_is_read {
                    read_bytes += c.op_bytes;
                }
                c.ops_done += 1;
                if c.ops_done < OPS_PER_CLIENT {
                    let next = sv.end + c.think();
                    c.submit_op(&mut sim, next);
                    for &nid in &c.outstanding {
                        owner.insert(nid, ci);
                    }
                }
            }
        }
        services.push(sv);
    }
    assert!(owner.is_empty(), "all requests served");

    latencies.sort_unstable();
    let pct = |p: usize| -> f64 {
        amoeba_sim::exact_quantile(&latencies, p)
            .expect("run produced latencies")
            .as_ms_f64()
    };
    let makespan = sim.now();
    let st = sim.stats();
    MixedRun {
        outcome: PolicyOutcome {
            policy: cfg.policy.label(),
            ops: latencies.len() as u64,
            issued_ios: st.issued,
            coalesced: st.coalesced,
            seek_blocks: st.seek_blocks,
            promotions: st.promotions,
            depth_max: st.depth_max,
            read_mb_s: read_bytes as f64 / (1 << 20) as f64 / makespan.as_secs_f64(),
            p50_ms: pct(50),
            p99_ms: pct(99),
            makespan_ms: makespan.as_ms_f64(),
        },
        services,
    }
}

/// Deadline-aging bound the ablation runs under.  The closed-loop
/// workload saturates the disk (median queue wait in the hundreds of
/// milliseconds), so the bound sits above the *typical* wait — aging
/// should catch genuine starvation, not re-impose FIFO on every grant.
/// (The server rig keeps the tighter [`SchedConfig::default`] bound; its
/// queues are shallow.)
pub const ABL_DEADLINE_MS: u64 = 350;

/// The three-policy comparison the ABL14 table and the `report --json`
/// gate are built from: coalescing on, the [`ABL_DEADLINE_MS`] aging
/// bound.
pub fn run_policies(seed: u64) -> Vec<MixedRun> {
    [SchedPolicy::Fifo, SchedPolicy::Scan, SchedPolicy::Sptf]
        .into_iter()
        .map(|policy| {
            run_mixed(
                SchedConfig {
                    policy,
                    coalesce: true,
                    deadline: Nanos::from_ms(ABL_DEADLINE_MS),
                },
                seed,
            )
        })
        .collect()
}

/// One row of the coalescing knee: sequential creates issued in
/// `segment_blocks`-sized requests, with and without coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KneeRow {
    /// Request granularity in blocks.
    pub segment_blocks: u64,
    /// Physical I/Os issued with coalescing on.
    pub issued_on: u64,
    /// Physical I/Os issued with coalescing off.
    pub issued_off: u64,
}

/// Sweeps the coalescing knee: 4 concurrent sequential 64-block creates,
/// split into segments of each size.  Without coalescing the issued I/O
/// count grows as segments shrink; with it the scheduler merges each
/// create back into one transfer.
pub fn coalesce_knee() -> Vec<KneeRow> {
    const STREAMS: u64 = 4;
    const STREAM_BLOCKS: u64 = 64;
    let run = |segment: u64, coalesce: bool| -> u64 {
        let mut sim = ArmSim::new(
            SchedConfig {
                policy: SchedPolicy::Scan,
                coalesce,
                deadline: Nanos::ZERO,
            },
            DiskProfile::scsi_1989(),
            BLOCK_SIZE,
            DISK_BLOCKS,
        );
        for s in 0..STREAMS {
            let base = 10_000 + s * 4_096;
            for seg in 0..(STREAM_BLOCKS / segment) {
                sim.submit(ReqKind::Write, base + seg * segment, segment, Nanos::ZERO);
            }
        }
        while sim.service_one().is_some() {}
        sim.stats().issued
    };
    [1u64, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|segment_blocks| KneeRow {
            segment_blocks,
            issued_on: run(segment_blocks, true),
            issued_off: run(segment_blocks, false),
        })
        .collect()
}

/// Renders the policy comparison as a fixed-width table — the byte
/// string the replay gate compares.
pub fn outcome_table(runs: &[MixedRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:>6} {:>5} {:>7} {:>9} {:>11} {:>9} {:>6} {:>9} {:>8} {:>8} {:>9}\n",
        "policy",
        "ops",
        "ios",
        "coalesced",
        "seek_blocks",
        "promoted",
        "depth",
        "read_mb_s",
        "p50_ms",
        "p99_ms",
        "span_ms"
    ));
    for r in runs {
        let o = &r.outcome;
        out.push_str(&format!(
            "  {:>6} {:>5} {:>7} {:>9} {:>11} {:>9} {:>6} {:>9.2} {:>8.2} {:>8.2} {:>9.1}\n",
            o.policy,
            o.ops,
            o.issued_ios,
            o.coalesced,
            o.seek_blocks,
            o.promotions,
            o.depth_max,
            o.read_mb_s,
            o.p50_ms,
            o.p99_ms,
            o.makespan_ms
        ));
    }
    out
}

/// Renders the knee sweep as a fixed-width table.
pub fn knee_table(rows: &[KneeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:>14} {:>11} {:>12}\n",
        "segment_blocks", "coalesce_on", "coalesce_off"
    ));
    for r in rows {
        out.push_str(&format!(
            "  {:>14} {:>11} {:>12}\n",
            r.segment_blocks, r.issued_on, r.issued_off
        ));
    }
    out
}

/// How far above FIFO's the better seek-aware p99 may sit: seek-first
/// ordering trades some tail for throughput, and deadline aging must keep
/// that trade bounded — it may not starve the unlucky corner of the disk.
pub const P99_BOUND: f64 = 1.25;

/// ABL14 — the three-policy comparison plus the coalescing knee, one
/// cell at every scale (`report --json` embeds exactly this run).
///
/// Criteria:
///
/// * SCAN and SPTF both beat FIFO — strictly — on total seek blocks and
///   on aggregate read bandwidth (a tie means the scheduler did nothing);
/// * the better seek-aware p99 stays within [`P99_BOUND`] of FIFO's;
/// * coalescing never issues more physical I/Os than running without it;
/// * at 8-block segments, the server's streaming granularity, it issues
///   at most half as many.
///
/// Extra artifact: the per-I/O queue trace of all three policy runs.
pub fn ablation() -> Outcome {
    let runs = run_policies(PR_SEED);
    let knee = coalesce_knee();
    let (fifo, scan, sptf) = (&runs[0].outcome, &runs[1].outcome, &runs[2].outcome);
    let best_p99 = scan.p99_ms.min(sptf.p99_ms);
    let k8 = knee
        .iter()
        .find(|r| r.segment_blocks == 8)
        .expect("the knee sweeps 8-block segments");
    let more: Vec<u64> = knee
        .iter()
        .filter(|r| r.issued_on > r.issued_off)
        .map(|r| r.segment_blocks)
        .collect();
    let criteria = vec![
        Invariant::new(
            "SCAN and SPTF travel fewer seek blocks than FIFO",
            scan.seek_blocks < fifo.seek_blocks && sptf.seek_blocks < fifo.seek_blocks,
            format!(
                "fifo {} scan {} sptf {}",
                fifo.seek_blocks, scan.seek_blocks, sptf.seek_blocks
            ),
        ),
        Invariant::new(
            "SCAN and SPTF read faster than FIFO",
            scan.read_mb_s > fifo.read_mb_s && sptf.read_mb_s > fifo.read_mb_s,
            format!(
                "fifo {:.2} scan {:.2} sptf {:.2} MB/s",
                fifo.read_mb_s, scan.read_mb_s, sptf.read_mb_s
            ),
        ),
        Invariant::new(
            "deadline aging bounds the seek-aware p99",
            best_p99 <= fifo.p99_ms * P99_BOUND,
            format!(
                "fifo {:.2} ms, best seek-aware {best_p99:.2} ms (bound {:.2})",
                fifo.p99_ms,
                fifo.p99_ms * P99_BOUND
            ),
        ),
        Invariant::new(
            "coalescing never issues more I/Os",
            more.is_empty(),
            format!("segment sizes issuing more with it on: {more:?}"),
        ),
        Invariant::new(
            "8-block segments coalesce at least 2x",
            k8.issued_on * 2 <= k8.issued_off,
            format!("on {} off {}", k8.issued_on, k8.issued_off),
        ),
    ];
    let mut members = vec![("seed".to_string(), Json::num(PR_SEED))];
    for o in [fifo, scan, sptf] {
        members.extend([
            (
                format!("{}_seek_blocks", o.policy),
                Json::num(o.seek_blocks),
            ),
            (
                format!("{}_read_mb_s", o.policy),
                Json::fixed(o.read_mb_s, 3),
            ),
            (format!("{}_p99_ms", o.policy), Json::fixed(o.p99_ms, 3)),
        ]);
    }
    members.extend([
        (
            "coalesce_on_ios_8_block".to_string(),
            Json::num(k8.issued_on),
        ),
        (
            "coalesce_off_ios_8_block".to_string(),
            Json::num(k8.issued_off),
        ),
    ]);
    let trace = runs
        .iter()
        .flat_map(|run| run.services.iter().map(|sv| (run.outcome.policy, sv)))
        .map(|(policy, sv)| trace_row(policy, sv) + "\n")
        .collect();
    Outcome {
        title: format!("ABL14 seek-aware disk scheduling (seed {PR_SEED})"),
        table: format!(
            "{}coalescing knee\n{}",
            outcome_table(&runs),
            knee_table(&knee)
        ),
        criteria,
        json: vec![("scheduler", Json::Object(members))],
        report_md: String::new(),
        artifact: "ablation_scheduler.txt",
        trailer: Trailer::RedCriteria,
        extras: vec![("ablation_scheduler_queue.jsonl", trace)],
    }
}

/// Serializes one service as a queue-trace JSONL row.
pub fn trace_row(policy: &str, sv: &Service) -> String {
    let ids: Vec<String> = sv.ids.iter().map(|i| i.to_string()).collect();
    format!(
        "{{\"policy\":\"{}\",\"kind\":\"{}\",\"first_block\":{},\"blocks\":{},\"start_us\":{},\"end_us\":{},\"seek_blocks\":{},\"promoted\":{},\"ids\":[{}]}}",
        policy,
        match sv.kind {
            ReqKind::Read => "read",
            ReqKind::Write => "write",
        },
        sv.first_block,
        sv.blocks,
        sv.start.as_us(),
        sv.end.as_us(),
        sv.seek_blocks,
        sv.promoted,
        ids.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_workload_is_deterministic() {
        let a = outcome_table(&run_policies(PR_SEED));
        let b = outcome_table(&run_policies(PR_SEED));
        assert_eq!(a, b);
    }

    #[test]
    fn scan_and_sptf_beat_fifo_on_seeks_and_bandwidth() {
        let runs = run_policies(PR_SEED);
        let (fifo, scan, sptf) = (&runs[0].outcome, &runs[1].outcome, &runs[2].outcome);
        assert_eq!(fifo.policy, "fifo");
        assert!(
            scan.seek_blocks < fifo.seek_blocks && sptf.seek_blocks < fifo.seek_blocks,
            "seek blocks: fifo {} scan {} sptf {}",
            fifo.seek_blocks,
            scan.seek_blocks,
            sptf.seek_blocks
        );
        assert!(
            scan.read_mb_s > fifo.read_mb_s && sptf.read_mb_s > fifo.read_mb_s,
            "read MB/s: fifo {:.2} scan {:.2} sptf {:.2}",
            fifo.read_mb_s,
            scan.read_mb_s,
            sptf.read_mb_s
        );
    }

    #[test]
    fn deadline_aging_bounds_tail_latency() {
        let runs = run_policies(PR_SEED);
        let fifo_p99 = runs[0].outcome.p99_ms;
        let best_p99 = runs[1].outcome.p99_ms.min(runs[2].outcome.p99_ms);
        assert!(
            best_p99 <= fifo_p99 * 1.25,
            "p99: fifo {fifo_p99:.2} ms, best seek-aware {best_p99:.2} ms"
        );
    }

    #[test]
    fn coalescing_collapses_sequential_creates() {
        let rows = coalesce_knee();
        for r in &rows {
            assert!(
                r.issued_on <= r.issued_off,
                "coalescing must not issue more I/Os: {r:?}"
            );
        }
        // At 8-block segments (the server's streaming granularity) the
        // knee is wide open: far fewer physical I/Os.
        let r8 = rows.iter().find(|r| r.segment_blocks == 8).unwrap();
        assert!(
            r8.issued_on * 2 <= r8.issued_off,
            "8-block segments should coalesce at least 2x: {r8:?}"
        );
    }

    #[test]
    fn every_op_completes() {
        for run in run_policies(PR_SEED) {
            assert_eq!(run.outcome.ops, (CLIENTS * OPS_PER_CLIENT) as u64);
        }
    }
}
