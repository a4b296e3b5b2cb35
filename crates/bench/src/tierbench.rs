//! The tiered-storage ablation cells (ABL19): aged Zipf population,
//! demotion to the WORM archive, recall-on-read, and the hot-set p99
//! interference gate.
//!
//! One [`TierConfig`] describes a cell: `files` whole files are created
//! from the `small_file_storm` size distribution, the first `hot` of
//! them form the working set, and everything else goes cold through one
//! aging sweep.  The run then drains the maintenance scheduler — with
//! tiering on, that demotes every cold file to the archive — measures
//! the tier balance at that steady state, byte-verifies the whole
//! population (cold reads come straight off the archive and schedule
//! recalls), and finally times `reads` Zipf-skewed hot-set reads while
//! maintenance ticks interleave with the traffic.  The idleness gate is
//! configured to *admit* maintenance between reads (`maint_idle_request_delta`
//! above the inter-tick request count), so recalls and re-demotions
//! genuinely contend with the foreground: the p99 produced here is the
//! number the ISSUE's 1.15× interference gate judges.
//!
//! The same cell with `tiering: false` is the baseline: identical
//! population, aging, tick cadence, and read sequence on an
//! archive-less server, so the comparison isolates the tier machinery.

use amoeba_cap::Capability;
use amoeba_disk::BlockDevice;
use amoeba_sim::json::Json;
use amoeba_sim::{exact_quantile, HwProfile, Nanos};
use bullet_core::counters;
use bullet_core::CompactTick;
use bytes::Bytes;

use crate::ablation::{Invariant, Outcome, Scale, Trailer};
use crate::rig::BulletRig;
use crate::workload::{small_file_storm, ZipfSampler};

/// Seed the committed ABL19 artifact was generated with.
pub const TIER_SEED: u64 = 0xab19;

/// Archive capacity in blocks: 4× the fast tier's 65 536 blocks, the
/// ISSUE's minimum capacity ratio.
pub const ARCHIVE_BLOCKS: u64 = 4 * 65_536;

/// Requests the idleness gate tolerates between ticks.  The measured
/// loop ticks every 8 reads, so maintenance is *admitted* under load —
/// the interference the p99 gate exists to bound.
const IDLE_DELTA: u64 = 16;

/// Job increments per admitted tick.
const MOVES_PER_TICK: u32 = 2;

/// One ABL19 cell: a population, a working set, and a read budget.
#[derive(Debug, Clone, Copy)]
pub struct TierConfig {
    /// Deterministic seed for sizes and the Zipf read sequence.
    pub seed: u64,
    /// Total files created.
    pub files: usize,
    /// Leading files that form the hot working set.
    pub hot: usize,
    /// Timed hot-set reads in the measurement phase.
    pub reads: usize,
    /// Whether the archive tier (and demotion/recall) is enabled.
    pub tiering: bool,
}

impl TierConfig {
    /// The reduced cell `report --json` runs (one pair per report).
    pub fn small(seed: u64, tiering: bool) -> TierConfig {
        TierConfig {
            seed,
            files: 96,
            hot: 16,
            reads: 240,
            tiering,
        }
    }

    /// The full cell `report ablation_tiering` runs.
    pub fn full(seed: u64, tiering: bool) -> TierConfig {
        TierConfig {
            seed,
            files: 256,
            hot: 32,
            reads: 600,
            tiering,
        }
    }
}

/// Everything a cell measures; byte-comparable across replay runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierOutcome {
    /// Whether tiering was enabled for this cell.
    pub tiering: bool,
    /// Total files created.
    pub files: u64,
    /// Hot working-set size.
    pub hot_files: u64,
    /// Files resident on the archive at the post-aging steady state.
    pub archived_files: u64,
    /// Bytes of file data on the archive at that point.
    pub archive_bytes: u64,
    /// Bytes of live file data still on the fast tier at that point.
    pub fast_bytes: u64,
    /// Archive device capacity in blocks (0 with tiering off).
    pub archive_capacity_blocks: u64,
    /// Fast-tier data-area capacity in blocks.
    pub fast_capacity_blocks: u64,
    /// Total demotions over the whole run.
    pub demotions: u64,
    /// Total recalls completed over the whole run.
    pub promotions: u64,
    /// Maintenance ticks that ran a job increment.
    pub maintenance_ticks: u64,
    /// Ticks the idleness gate turned away.
    pub preemptions: u64,
    /// Median timed hot-set read.
    pub hot_p50: Nanos,
    /// 99th-percentile timed hot-set read — the interference gate input.
    pub hot_p99: Nanos,
}

fn fill(tag: usize, len: usize) -> Bytes {
    Bytes::from([tag as u8, (len / 7) as u8].repeat(len / 2 + 1)[..len].to_vec())
}

fn drain(rig: &BulletRig) {
    loop {
        if let CompactTick::Idle = rig.server.compact_tick().expect("maintenance tick") {
            return;
        }
    }
}

/// Runs one cell.  Deterministic: same config ⇒ byte-identical outcome.
pub fn run_tier(cfg: &TierConfig) -> TierOutcome {
    assert!(cfg.hot > 0 && cfg.hot <= cfg.files, "hot set within files");
    let tiering = cfg.tiering;
    let rig = BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |c| {
        c.maint_idle_request_delta = IDLE_DELTA;
        c.maint_moves_per_tick = MOVES_PER_TICK;
        if tiering {
            c.archive_blocks = ARCHIVE_BLOCKS;
            c.tier_high_water_pct = 0; // demote every cold file
        }
    });
    let sizes = small_file_storm(cfg.seed, cfg.files, 2048, 64 * 1024);
    let caps: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            rig.server
                .create(fill(i, n as usize), 2)
                .expect("population create fits the rig")
        })
        .collect();

    // Age the population.  The hot set stays referenced (read back into
    // cache and touched, the aging daemon's view of a live working set);
    // everything else drops out of cache and goes one age step cold.
    rig.server.clear_cache();
    for cap in caps.iter().take(cfg.hot) {
        rig.server.read(cap).expect("hot warm-up read");
        rig.server.touch(cap).expect("hot touch");
    }
    rig.server.age_all().expect("aging sweep");
    drain(&rig);

    // Tier balance at the demoted steady state.
    let (desc, rows) = rig.server.describe_layout();
    let data_end = desc.data_end();
    let archived_files = rows
        .iter()
        .filter(|r| r.start_block as u64 >= data_end)
        .count() as u64;
    let archive_bytes: u64 = rows
        .iter()
        .filter(|r| r.start_block as u64 >= data_end)
        .map(|r| r.size_bytes as u64)
        .sum();
    let fast_bytes: u64 = rows
        .iter()
        .filter(|r| (r.start_block as u64) < data_end)
        .map(|r| r.size_bytes as u64)
        .sum();

    // Demotion is byte-identical: every file reads back exactly, the
    // archived ones straight off the WORM device (each such read
    // schedules a recall the measurement-phase ticks will work off).
    for (i, cap) in caps.iter().enumerate() {
        assert_eq!(
            rig.server.read(cap).expect("post-demotion read"),
            fill(i, sizes[i] as usize),
            "file {i} corrupted by demotion"
        );
    }

    // Timed hot-set reads under maintenance pressure.  Periodic cache
    // clears keep the reads honest (disk, not pure RAM); touching the
    // hot set right after marks it live again so the demotion policy
    // chases only genuinely cold files while recalls/re-demotions run
    // between reads.
    let mut zipf = ZipfSampler::new(cfg.seed ^ 0x2199, cfg.hot, 1.1);
    let mut lat: Vec<Nanos> = Vec::with_capacity(cfg.reads);
    for k in 0..cfg.reads {
        if k % 40 == 0 {
            rig.server.clear_cache();
            for cap in caps.iter().take(cfg.hot) {
                rig.server.touch(cap).expect("hot touch");
            }
        }
        let i = zipf.sample();
        let t0 = rig.clock.now();
        let data = rig.server.read(&caps[i]).expect("hot read");
        lat.push(rig.clock.now() - t0);
        assert_eq!(data.len(), sizes[i] as usize, "hot file {i} truncated");
        if k % 8 == 4 {
            rig.server.compact_tick().expect("interleaved tick");
        }
    }
    drain(&rig);

    // Promotion is byte-identical too: after the recalls triggered
    // above have completed, the whole population still reads exact.
    for (i, cap) in caps.iter().enumerate() {
        assert_eq!(
            rig.server.read(cap).expect("post-recall read"),
            fill(i, sizes[i] as usize),
            "file {i} corrupted by recall"
        );
    }

    lat.sort_unstable();
    let stats = rig.server.stats();
    TierOutcome {
        tiering,
        files: cfg.files as u64,
        hot_files: cfg.hot as u64,
        archived_files,
        archive_bytes,
        fast_bytes,
        archive_capacity_blocks: rig
            .server
            .archive_device()
            .map_or(0, |dev| dev.num_blocks()),
        fast_capacity_blocks: desc.data_blocks as u64,
        demotions: stats.get(counters::TIER_DEMOTIONS),
        promotions: stats.get(counters::TIER_PROMOTIONS),
        maintenance_ticks: stats.get(counters::MAINTENANCE_TICKS),
        preemptions: stats.get(counters::COMPACTION_PREEMPTIONS),
        hot_p50: exact_quantile(&lat, 50).expect("timed reads exist"),
        hot_p99: exact_quantile(&lat, 99).expect("timed reads exist"),
    }
}

/// Renders the baseline/tiered pair; the replay gate compares these
/// strings byte-for-byte across runs.
fn outcome_table(matrix: &[TierOutcome]) -> String {
    let mut t = format!(
        "  {:>8}  {:>5}  {:>8}  {:>11}  {:>10}  {:>6}  {:>6}  {:>6}  {:>9}  {:>9}\n",
        "Mode",
        "Files",
        "Archived",
        "ArchBytes",
        "FastBytes",
        "Demote",
        "Recall",
        "Preempt",
        "p50 (ms)",
        "p99 (ms)"
    );
    for o in matrix {
        t.push_str(&format!(
            "  {:>8}  {:>5}  {:>8}  {:>11}  {:>10}  {:>6}  {:>6}  {:>6}  {:>9.2}  {:>9.2}\n",
            if o.tiering { "tiered" } else { "baseline" },
            o.files,
            o.archived_files,
            o.archive_bytes,
            o.fast_bytes,
            o.demotions,
            o.promotions,
            o.preemptions,
            o.hot_p50.as_ms_f64(),
            o.hot_p99.as_ms_f64(),
        ));
    }
    t
}

/// How far above the archive-less baseline's the tiered hot-set p99 may
/// sit: recalls and re-demotions are admitted between the timed reads,
/// and this is the interference the foreground is allowed to notice.
pub const HOT_P99_BOUND: f64 = 1.15;

/// ABL19 — the aged-population pair, archive-less baseline vs tiered:
/// [`TierConfig::small`] at [`Scale::Reduced`], [`TierConfig::full`]
/// otherwise; [`Scale::Soak`] is the nightly aging soak instead (see
/// `soak`).
///
/// Criteria (demotion and recall are also byte-identical, asserted
/// inside the run after each migration wave):
///
/// * at least 80 % of the population is archive-resident at the
///   post-aging steady state — everything outside the working set went
///   cold, and the scheduler must have found it;
/// * the archive then holds at least 4× the fast tier's live bytes, on a
///   device of at least 4× the fast tier's data area (the capacity ratio
///   that makes a WORM tier worth having);
/// * the migration counters are alive: a demotion per archived file, at
///   least one completed recall;
/// * the tiered hot-set p99 stays within [`HOT_P99_BOUND`] of the
///   baseline's.
pub fn ablation(scale: Scale) -> Outcome {
    let cell: fn(u64, bool) -> TierConfig = match scale {
        Scale::Reduced => TierConfig::small,
        Scale::Full => TierConfig::full,
        Scale::Soak => return soak(TIER_SEED),
    };
    let matrix = [
        run_tier(&cell(TIER_SEED, false)),
        run_tier(&cell(TIER_SEED, true)),
    ];
    let (base, tier) = (&matrix[0], &matrix[1]);
    let p99_ratio = tier.hot_p99.as_ns() as f64 / base.hot_p99.as_ns() as f64;
    let criteria = vec![
        Invariant::new(
            "at least 80 % of the aged population is archived",
            tier.archived_files * 5 >= tier.files * 4,
            format!("{} of {} files", tier.archived_files, tier.files),
        ),
        Invariant::new(
            "the archive holds at least 4x the fast tier's bytes",
            tier.archive_bytes >= 4 * tier.fast_bytes,
            format!(
                "{} archive bytes vs {} fast-resident",
                tier.archive_bytes, tier.fast_bytes
            ),
        ),
        Invariant::new(
            "the archive's capacity is at least 4x the fast data area",
            tier.archive_capacity_blocks >= 4 * tier.fast_capacity_blocks,
            format!(
                "{} vs {} blocks",
                tier.archive_capacity_blocks, tier.fast_capacity_blocks
            ),
        ),
        Invariant::new(
            "the migration counters are alive",
            tier.demotions >= tier.archived_files && tier.promotions >= 1,
            format!("{} demotions, {} recalls", tier.demotions, tier.promotions),
        ),
        Invariant::new(
            "migrations do not disturb the hot-set p99",
            p99_ratio <= HOT_P99_BOUND,
            format!(
                "tiered {:.2} ms vs baseline {:.2} ms",
                tier.hot_p99.as_ms_f64(),
                base.hot_p99.as_ms_f64()
            ),
        ),
    ];
    let json = Json::object([
        ("files", Json::num(tier.files)),
        ("hot_files", Json::num(tier.hot_files)),
        ("archived_files", Json::num(tier.archived_files)),
        ("archive_bytes", Json::num(tier.archive_bytes)),
        ("fast_bytes", Json::num(tier.fast_bytes)),
        (
            "archive_capacity_blocks",
            Json::num(tier.archive_capacity_blocks),
        ),
        ("fast_capacity_blocks", Json::num(tier.fast_capacity_blocks)),
        ("tier_demotions", Json::num(tier.demotions)),
        ("tier_promotions", Json::num(tier.promotions)),
        (
            "hot_p99_baseline_ms",
            Json::fixed(base.hot_p99.as_ms_f64(), 3),
        ),
        (
            "hot_p99_tiered_ms",
            Json::fixed(tier.hot_p99.as_ms_f64(), 3),
        ),
        ("hot_p99_ratio", Json::fixed(p99_ratio, 4)),
    ]);
    Outcome {
        title: format!("ABL19 tiered storage (seed {TIER_SEED:#x})"),
        table: outcome_table(&matrix),
        criteria,
        json: vec![("tiering", json)],
        report_md: String::new(),
        artifact: "ablation_tiering.txt",
        trailer: Trailer::RedCriteria,
        extras: Vec::new(),
    }
}

/// Soak rounds (one aging sweep each).
const SOAK_ROUNDS: usize = 24;
/// Files created per soak round.
const SOAK_FILES_PER_ROUND: usize = 40;
/// Tracked survivors byte-verified per soak round.
const SOAK_VERIFIES_PER_ROUND: usize = 6;
/// Fast-tier high-water mark the soak holds occupancy under (percent).
const SOAK_HIGH_WATER_PCT: u32 = 5;

/// The nightly aging soak: [`SOAK_ROUNDS`] rounds of create / verify /
/// age churn against a tight high-water mark.  The table is the
/// per-round occupancy log; a verify read that comes back wrong panics.
///
/// Criteria: after every round's maintenance drain, demotion kept
/// fast-tier occupancy at or under [`SOAK_HIGH_WATER_PCT`]; and the soak
/// demoted at all (otherwise the mark was never reached and the first
/// criterion proves nothing).
fn soak(seed: u64) -> Outcome {
    let rig = BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |c| {
        c.archive_blocks = ARCHIVE_BLOCKS;
        c.tier_high_water_pct = SOAK_HIGH_WATER_PCT;
        c.maint_moves_per_tick = 8;
    });
    let max_age = 8u32; // BulletConfig::max_age in the rig
                        // Every live file ever created: (cap, expected bytes, birth round).
    let mut tracked: Vec<(Capability, Bytes, usize)> = Vec::new();
    let mut log = String::new();
    let mut breaches: Vec<usize> = Vec::new();
    for round in 0..SOAK_ROUNDS {
        let sizes = small_file_storm(
            seed ^ (0x50a0 + round as u64),
            SOAK_FILES_PER_ROUND,
            16 * 1024,
            128 * 1024,
        );
        for (i, &n) in sizes.iter().enumerate() {
            let data = fill(round * SOAK_FILES_PER_ROUND + i, n as usize);
            let cap = rig.server.create(data.clone(), 2).expect("soak create");
            tracked.push((cap, data, round));
        }
        // Byte-verify a Zipf-skewed handful of survivors; cold picks are
        // served off the archive and schedule recalls for the drain.
        let mut zipf = ZipfSampler::new(seed ^ (0xbeef + round as u64), tracked.len(), 1.1);
        for _ in 0..SOAK_VERIFIES_PER_ROUND {
            let pick = tracked.len() - 1 - zipf.sample(); // favour recent files
            let (cap, expected, _) = &tracked[pick];
            assert_eq!(
                &rig.server.read(cap).expect("soak verify read"),
                expected,
                "soak round {round}: file corrupted in tier churn"
            );
        }
        rig.server.clear_cache();
        // The aging daemon's sweep; files expire after max_age sweeps.
        let expired_now = |birth: usize| (round - birth + 1) as u32 >= max_age;
        let expected_expired = tracked.iter().filter(|t| expired_now(t.2)).count() as u64;
        let expired = rig.server.age_all().expect("aging sweep");
        assert_eq!(
            expired, expected_expired,
            "soak round {round}: expiry count diverged from the model"
        );
        tracked.retain(|t| !expired_now(t.2));
        drain(&rig);
        let report = rig.server.disk_frag_report();
        let used = report.total - report.free;
        let green = used * 100 <= report.total * SOAK_HIGH_WATER_PCT as u64;
        log.push_str(&format!(
            "  round {round:>2}: live {:>4}, fast occupancy {used:>5}/{} blocks ({:.1} %) {}\n",
            tracked.len(),
            report.total,
            100.0 * used as f64 / report.total as f64,
            if green { "ok" } else { "ABOVE HIGH WATER" }
        ));
        if !green {
            breaches.push(round);
        }
    }
    let demotions = rig.server.stats().get(counters::TIER_DEMOTIONS);
    let promotions = rig.server.stats().get(counters::TIER_PROMOTIONS);
    log.push_str(&format!(
        "  totals: {demotions} demotions, {promotions} recalls, {} live files\n",
        tracked.len()
    ));
    Outcome {
        title: format!("ABL19 aging soak (seed {seed:#x})"),
        table: log,
        criteria: vec![
            Invariant::new(
                "fast-tier occupancy stays at or under the high-water mark",
                breaches.is_empty(),
                format!("{SOAK_HIGH_WATER_PCT} % mark; rounds above it: {breaches:?}"),
            ),
            Invariant::new(
                "the high-water policy demotes",
                demotions > 0,
                format!("{demotions} demotions"),
            ),
        ],
        json: Vec::new(),
        report_md: String::new(),
        artifact: "ablation_tiering_soak.txt",
        trailer: Trailer::RedCriteriaOnly,
        extras: Vec::new(),
    }
}
