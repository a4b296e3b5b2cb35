//! ABL15 — the log-structured create path: group commit, batched extent
//! allocation, and idle-time log migration.
//!
//! The headline storm: 32 concurrent 16 KB creates, all arriving at
//! t = 0 and served by a two-way mirrored pair of seek-modelled disks.
//! Without the log each create is its own mirrored data write plus an
//! inode write-through — ~32 physical I/O chains, served serially by the
//! arm.  With the log the storm collapses into a couple of sequential,
//! checksummed record appends (byte-capped at 256 KB per record) plus
//! one deduplicated inode-block write per record, so the last create
//! finishes orders of magnitude sooner.
//!
//! A second storm draws its sizes from the Zipf popularity-skewed
//! small-file generator ([`small_file_storm`]) — the size mix the
//! literature says create traffic actually has.

use bytes::Bytes;

use amoeba_sim::json::Json;
use amoeba_sim::{exact_quantile, HwProfile, Nanos};

use crate::ablation::{Invariant, Outcome, Scale, Trailer};
use crate::rig::BulletRig;
use crate::workload::small_file_storm;

/// The PR's pinned seed (it only shapes the Zipf storm's sizes).
const PR_SEED: u64 = 0xab15;
/// Files in the headline storm.
const STORM_FILES: usize = 32;
/// Size of each headline-storm file.
const STORM_SIZE: usize = 16 * 1024;
/// Files in the Zipf storm.
const ZIPF_FILES: usize = 64;

/// One storm's measured outcome.
struct StormOutcome {
    storm: &'static str,
    batched: bool,
    /// Completion time of the i-th create, measured from storm start
    /// (all creates arrive at t = 0; the disk serves them from there).
    completions: Vec<Nanos>,
    /// Physical write I/Os across both replicas, storm only.
    disk_writes: u64,
    /// `log_appends` across the storm (0 in baseline mode).
    log_appends: u64,
    /// `group_commit_flushes` across the storm.
    flushes: u64,
    /// Payload sizes, for the trace artifact.
    sizes: Vec<usize>,
}

impl StormOutcome {
    fn mode(&self) -> &'static str {
        if self.batched {
            "batched"
        } else {
            "baseline"
        }
    }

    fn p99(&self) -> Nanos {
        let mut c = self.completions.clone();
        c.sort_unstable();
        exact_quantile(&c, 99).expect("storm produced completions")
    }

    fn total(&self) -> Nanos {
        self.completions
            .iter()
            .copied()
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

/// Ages the disk in place: fills it with large direct-path files, then
/// frees every other one in the *far* half.  The surviving free space
/// sits far from the inode table, so a subsequent per-file create pays
/// the realistic seek round-trip (data area ↔ inode table) an aged
/// first-fit disk exacts — while the group-commit log, whose window is
/// contiguous by construction, keeps appending sequentially.  A fresh
/// empty disk would flatter the baseline: first-fit would pack the storm
/// right next to the inode table, where seeks are nearly free.
fn age_disk(rig: &BulletRig) {
    // Bigger than `LOG_BATCH_MAX_BYTES`, so fillers take the direct path in
    // both modes and the aging I/O pattern is identical.
    const FILLER: usize = 512 * 1024;
    let mut caps = Vec::new();
    while let Ok(cap) = rig.server.create(Bytes::from(vec![0xfe; FILLER]), 2) {
        caps.push(cap);
    }
    let half = caps.len() / 2;
    for cap in caps.iter().skip(half).step_by(2) {
        rig.server.delete(cap).expect("filler delete");
    }
}

/// Runs one storm on a fresh rig (aged first if `aged`): `sizes[i]`
/// bytes for create `i`, fill byte = index.  In batched mode the storm
/// goes through `create_batch` (the deterministic group-commit entry
/// point); in baseline mode each create is a separate call — the disk
/// arm serves the resulting I/O chains serially, which is exactly what
/// 32 concurrent arrivals see.
fn run_storm(storm: &'static str, sizes: &[usize], batched: bool, aged: bool) -> StormOutcome {
    let rig = BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |cfg| {
        if batched {
            cfg.log_blocks = 4096; // 4 MB window at 1 KB blocks
        }
    });
    if aged {
        age_disk(&rig);
    }
    let files: Vec<Bytes> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| Bytes::from(vec![i as u8; n]))
        .collect();
    let writes0 = rig.sched_stats().disk_writes;
    let appends0 = rig.server.stats().get("log_appends");
    let flushes0 = rig.server.stats().get("group_commit_flushes");
    let t0 = rig.clock.now();
    let (caps, completions) = if batched {
        let caps = rig
            .server
            .create_batch(files, 2)
            .expect("batched storm fits the rig");
        // Every batched create completes no later than the whole call:
        // charge each file the full storm duration (a conservative upper
        // bound — most finished with an earlier chunk).
        let done = rig.clock.now() - t0;
        (caps, vec![done; sizes.len()])
    } else {
        let mut caps = Vec::with_capacity(files.len());
        let mut completions = Vec::with_capacity(files.len());
        for data in files {
            caps.push(rig.server.create(data, 2).expect("create fits the rig"));
            completions.push(rig.clock.now() - t0);
        }
        (caps, completions)
    };
    // Read-back: every file byte-identical (grouped files are readable
    // straight out of the log window).
    for (i, cap) in caps.iter().enumerate() {
        let data = rig.server.read(cap).expect("storm file reads back");
        assert_eq!(data.len(), sizes[i], "file {i} size");
        assert!(
            data.iter().all(|&b| b == i as u8),
            "file {i} content intact"
        );
    }
    StormOutcome {
        storm,
        batched,
        completions,
        disk_writes: rig.sched_stats().disk_writes - writes0,
        log_appends: rig.server.stats().get("log_appends") - appends0,
        flushes: rig.server.stats().get("group_commit_flushes") - flushes0,
        sizes: sizes.to_vec(),
    }
}

fn outcome_table(matrix: &[StormOutcome]) -> String {
    let mut t =
        String::from("storm     mode      files  appends  flushes  writes  p99_ms   total_ms\n");
    for o in matrix {
        t.push_str(&format!(
            "{:<9} {:<9} {:>5}  {:>7}  {:>7}  {:>6}  {:>7.2}  {:>8.2}\n",
            o.storm,
            o.mode(),
            o.completions.len(),
            o.log_appends,
            o.flushes,
            o.disk_writes,
            o.p99().as_ms_f64(),
            o.total().as_ms_f64(),
        ));
    }
    t
}

/// ABL15 — the create storms, baseline vs batched.  [`Scale::Reduced`]
/// runs the headline storm on a fresh disk and judges the I/O collapse
/// only (latency on an unaged disk would flatter the baseline, see
/// `age_disk`); the full cell ages the disk first and adds the Zipf
/// storm and the latency criterion.
///
/// Criteria (every file also reads back byte-identical, asserted inside
/// the run):
///
/// * the 32 × 16 KB storm commits in at most 4 log appends — two 256 KB
///   byte-capped records, with room for a split, not one per file;
/// * batched physical write I/Os are at most ¼ of the baseline's;
/// * full only: the batched storm *completes entirely* in under half
///   the baseline's p99 create latency — the batched side's per-file
///   bound is the whole storm's duration, so every batched create,
///   including the last, beats 2× on p99;
/// * full only: the Zipf storm averages at least 8 files per append.
///
/// Extra artifact: one JSONL row per storm create (mode, index, size,
/// completion time).
pub fn ablation(scale: Scale) -> Outcome {
    let aged = scale != Scale::Reduced;
    let headline = vec![STORM_SIZE; STORM_FILES];
    let mut matrix = vec![
        run_storm("headline", &headline, false, aged),
        run_storm("headline", &headline, true, aged),
    ];
    let (base, batched) = (&matrix[0], &matrix[1]);
    let mut criteria = vec![
        Invariant::new(
            "the headline storm commits in at most 4 log appends",
            batched.log_appends <= 4,
            format!("{} appends", batched.log_appends),
        ),
        Invariant::new(
            "batched physical writes are at most a quarter of the baseline's",
            batched.disk_writes * 4 <= base.disk_writes,
            format!(
                "baseline {} batched {}",
                base.disk_writes, batched.disk_writes
            ),
        ),
    ];
    let json = Json::object([
        ("storm_files", Json::num(STORM_FILES)),
        ("storm_file_bytes", Json::num(STORM_SIZE)),
        ("baseline_writes", Json::num(base.disk_writes)),
        ("batched_writes", Json::num(batched.disk_writes)),
        ("log_appends", Json::num(batched.log_appends)),
        ("group_commit_flushes", Json::num(batched.flushes)),
    ]);
    if aged {
        criteria.push(Invariant::new(
            "every batched create beats half the baseline p99",
            batched.total().as_ns() * 2 <= base.p99().as_ns(),
            format!(
                "baseline p99 {:.2} ms, batched total {:.2} ms",
                base.p99().as_ms_f64(),
                batched.total().as_ms_f64()
            ),
        ));
        let zipf: Vec<usize> = small_file_storm(PR_SEED, ZIPF_FILES, 1024, 32 * 1024)
            .into_iter()
            .map(|s| s as usize)
            .collect();
        matrix.push(run_storm("zipf", &zipf, false, aged));
        matrix.push(run_storm("zipf", &zipf, true, aged));
        let appends = matrix[3].log_appends;
        criteria.push(Invariant::new(
            "the Zipf storm averages at least 8 files per append",
            appends > 0 && ZIPF_FILES as u64 >= 8 * appends,
            format!(
                "{ZIPF_FILES} files in {appends} appends ({} flushes)",
                matrix[3].flushes
            ),
        ));
    }
    let mut trace = String::new();
    for o in &matrix {
        for (i, (c, s)) in o.completions.iter().zip(&o.sizes).enumerate() {
            trace.push_str(&format!(
                "{{\"storm\":\"{}\",\"mode\":\"{}\",\"file\":{i},\"bytes\":{s},\
                 \"completion_ns\":{}}}\n",
                o.storm,
                o.mode(),
                c.as_ns()
            ));
        }
    }
    Outcome {
        title: format!("ABL15 group-commit create path (seed {PR_SEED:#x})"),
        table: outcome_table(&matrix),
        criteria,
        json: vec![("group_commit", json)],
        report_md: String::new(),
        artifact: "ablation_groupcommit.txt",
        trailer: Trailer::RedCriteria,
        extras: vec![("ablation_groupcommit_trace.jsonl", trace)],
    }
}
