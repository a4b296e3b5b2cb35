//! ABL16 — the virtual-time event-engine cache ablation.
//!
//! The other multi-client rigs (ABL10/ABL14/ABL15) run 8–32 clients —
//! enough to load the disks, nowhere near enough to put real eviction
//! pressure on the RAM cache.  This rig drives the *actual*
//! [`bullet_core::FileCache`] with the server's 1989 op costs on an
//! [`amoeba_sim::EventQueue`]: each of 10,000+ simulated clients is a
//! tiny state machine whose next wake-up is one heap entry, popped in
//! virtual-time order by a single real thread.  A run over a million
//! files completes in a couple of wall-clock seconds and is a pure
//! function of its seed — the timeline digest and every counter replay
//! byte-identically.
//!
//! # Cost model
//!
//! Per read: request wire time ([`amoeba_sim::NetProfile::one_way`]) + the
//! fixed 250 µs request service ([`amoeba_sim::CpuProfile::request`]), then
//! on a miss one disk I/O ([`amoeba_sim::DiskProfile::io_time`]) against
//! the file's home disk —
//! disks are the contended resource, modelled as per-disk FIFO queues
//! (`max(arrival, disk_free)`), with the arm position carried between
//! I/Os so seek distance is real — then the reply copy
//! ([`amoeba_sim::CpuProfile::memcpy`]) and reply wire time.  CPU and wire are
//! charged per-op but not queued: the rig models the paper's
//! multi-threaded server as storage-bound, so hit-rate differences show
//! up undiluted in p99 and makespan.
//!
//! # Workloads
//!
//! * `zipf` — every client draws file ranks from the PR 6
//!   [`ZipfSampler`] (θ = 1.0) over the whole file population.
//! * `scan` — same, except 10 % of the clients are *scanners*: each op
//!   streams [`SCAN_BURST`] sequential never-reused files from the cold
//!   half of the population through the cache.  One-touch traffic is
//!   exactly what LRU cannot tell from the working set and what the
//!   segmented policies filter (probation / A1in absorb it).

use amoeba_sim::json::Json;
use amoeba_sim::{DetRng, EventQueue, Histogram, HwProfile, Nanos, Telemetry};
use bullet_core::{counters, ClientAccounting, EvictionPolicy, FileCache};
use bytes::Bytes;

use crate::ablation::{Invariant, Outcome, Scale, Trailer};
use crate::workload::{SizeDistribution, ZipfSampler};

/// Simulated clients in the PR-gate configuration.
pub const CLIENTS: usize = 10_000;
/// Files in the simulated volume (PR-gate configuration).
pub const FILES: u64 = 1_000_000;
/// Closed-loop operations each client completes.
pub const OPS_PER_CLIENT: u32 = 40;
/// RAM cache capacity the ablation squeezes the policies through.
/// Sized so the [`RNODE_SLOTS`] slot table binds before the bytes do
/// (mean file ≈ 3.3 KB ⇒ 8192 residents ≈ 27 MB): the ablation studies
/// *which files* each policy keeps, not byte-fragmentation compaction,
/// and a slot-bound cache keeps the first-fit arena out of the replay's
/// inner loop.
pub const CACHE_BYTES: u64 = 40 << 20;
/// Rnode slots in the gate configuration.
pub const RNODE_SLOTS: usize = 8_192;
/// Independent disks behind the cache (round-robin by file id).
pub const DISKS: usize = 8;
/// Blocks per simulated disk (1 KB blocks — 2 GB drives).
pub const DISK_BLOCKS: u64 = 1 << 21;
/// Sequential cold files one scanner op streams through the cache.
pub const SCAN_BURST: u32 = 8;
/// Scanner share of the client population in the `scan` workload.
pub const SCAN_DENOM: usize = 10;
/// The seed the PR gate runs under.
pub const PR_SEED: u64 = 16;
/// Seed of the reduced matrix `report --json` embeds (the seed the unit
/// tests below validate scan resistance at small scale under).
pub const REDUCED_SEED: u64 = 5;

/// The committed scan-resistance margin: best(SLRU, 2Q) must beat LRU's
/// scan hit-rate by at least this much (absolute hit-rate delta).
/// Measured at the PR seed: SLRU 0.3152 vs LRU 0.2761, a delta of
/// ≈ 0.039 — about 30 % above this bound (the reduced cell measures
/// 0.069).  The matrix is a pure function of the seed, so the gate is
/// deterministic, not statistical.
pub const SCAN_MARGIN: f64 = 0.03;

/// Zipf-parity band: without scan pollution no policy may fall more than
/// this far below LRU's hit rate (the ABL9 null result must survive
/// scale — scan resistance may not cost the common case).
pub const ZIPF_PARITY: f64 = 0.05;

/// A mid-run fault burst: a lossy wire plus one failed mirror replica,
/// active over a virtual-time window (the ABL17 degradation injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBurst {
    /// Virtual time the burst opens.
    pub start: Nanos,
    /// Virtual time the burst closes.
    pub end: Nanos,
    /// Inside the window, one request in `drop_denom` loses its packet
    /// and eats [`retry_delay`](Self::retry_delay).
    pub drop_denom: u64,
    /// Fixed retransmission penalty per dropped request.
    pub retry_delay: Nanos,
    /// Inside the window, reads homed on this disk fail over to its
    /// mirror neighbour `(d + 1) % DISKS`, piling backlog onto it.
    pub failed_disk: usize,
    /// Seed of the dedicated fault RNG (never consumed outside the
    /// window, so a clean run's draws are untouched).
    pub seed: u64,
}

/// One ablation cell: a policy under a workload at a scale.
#[derive(Debug, Clone)]
pub struct EvsimConfig {
    /// Eviction policy under test.
    pub policy: EvictionPolicy,
    /// `"zipf"` or `"scan"`.
    pub workload: &'static str,
    /// Simulated client population.
    pub clients: usize,
    /// Files in the volume.
    pub files: u64,
    /// Ops per client.
    pub ops_per_client: u32,
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Rnode slots.
    pub rnode_slots: usize,
    /// Base seed.
    pub seed: u64,
    /// Flight-recorder handle ([`Telemetry::off`] by default).  Sampling
    /// never advances virtual time, so an enabled run's timeline digest
    /// equals the disabled run's — the ABL17 overhead gate.
    pub telemetry: Telemetry,
    /// Optional mid-run fault burst (`None` by default — byte-identical
    /// to the pre-fault rig).
    pub fault: Option<FaultBurst>,
    /// Per-client accounting ([`ClientAccounting::off`] by default).
    pub accounting: ClientAccounting,
}

impl EvsimConfig {
    /// The PR-gate cell for one policy/workload pair.
    pub fn gate(policy: EvictionPolicy, workload: &'static str, seed: u64) -> EvsimConfig {
        EvsimConfig {
            policy,
            workload,
            clients: CLIENTS,
            files: FILES,
            ops_per_client: OPS_PER_CLIENT,
            cache_bytes: CACHE_BYTES,
            rnode_slots: RNODE_SLOTS,
            seed,
            telemetry: Telemetry::off(),
            fault: None,
            accounting: ClientAccounting::off(),
        }
    }

    /// A small cell for unit tests (hundreds of clients, tens of
    /// thousands of files; same structure, milliseconds of wall clock).
    pub fn small(policy: EvictionPolicy, workload: &'static str, seed: u64) -> EvsimConfig {
        EvsimConfig {
            policy,
            workload,
            clients: 400,
            files: 40_000,
            ops_per_client: 25,
            cache_bytes: 1 << 20,
            rnode_slots: 512,
            seed,
            telemetry: Telemetry::off(),
            fault: None,
            accounting: ClientAccounting::off(),
        }
    }

    fn scanners(&self) -> usize {
        if self.workload == "scan" {
            self.clients / SCAN_DENOM
        } else {
            0
        }
    }
}

/// Aggregate outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EvsimOutcome {
    /// Policy label.
    pub policy: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Clients simulated.
    pub clients: usize,
    /// Files in the volume.
    pub files: u64,
    /// File reads completed (scanner bursts count each file).
    pub reads: u64,
    /// Cache hits among them.
    pub hits: u64,
    /// Hit rate over the whole run.
    pub hit_rate: f64,
    /// Median op latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile op latency, ms.
    pub p99_ms: f64,
    /// Virtual time to drain the run, seconds.
    pub makespan_s: f64,
    /// Cache evictions.
    pub evictions: u64,
    /// Probation/A1in promotions + ghost readmissions (scan filter hits).
    pub scan_promotions: u64,
    /// Events the engine processed.
    pub events: u64,
    /// Requests that lost their packet to the fault burst's lossy wire
    /// (0 without a [`FaultBurst`]).
    pub retries: u64,
    /// Miss reads rerouted off the burst's failed disk (0 without one).
    pub failovers: u64,
    /// FNV-1a digest of the (seq, time, client, file, hit) timeline.
    pub digest: u64,
}

/// One point of the hit-rate-over-time curve artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Reads completed when the window closed.
    pub reads: u64,
    /// Hit rate within the window.
    pub window_hit_rate: f64,
}

/// One cell's run: the aggregate plus its hit-rate curve.
#[derive(Debug, Clone)]
pub struct EvsimRun {
    /// Aggregate numbers.
    pub outcome: EvsimOutcome,
    /// Windowed hit-rate curve (window = [`CURVE_WINDOW`] reads).
    pub curve: Vec<CurvePoint>,
}

/// Reads per hit-rate-curve window.
pub const CURVE_WINDOW: u64 = 16_384;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(digest: u64, word: u64) -> u64 {
    let mut d = digest;
    for byte in word.to_le_bytes() {
        d ^= byte as u64;
        d = d.wrapping_mul(FNV_PRIME);
    }
    d
}

enum ClientKind {
    /// Draws from the shared Zipf sampler.
    Zipf,
    /// Streams sequential cold files; the cursor wraps in the cold half.
    Scanner { cursor: u64 },
}

struct Client {
    kind: ClientKind,
    ops_done: u32,
    think: amoeba_sim::DetRng,
}

/// Runs one cell.  Pure function of the config — identical configs yield
/// identical outcomes, digests, and curves.
///
/// # Panics
///
/// Panics only on internal bookkeeping bugs (e.g. a file bigger than the
/// cache, impossible under the 64 KB size cap).
pub fn run(cfg: &EvsimConfig) -> EvsimRun {
    let hw = HwProfile::amoeba_1989();

    // Per-file sizes: the cited log-normal (median 1 KB, 99 % < 64 KB).
    let mut dist = SizeDistribution::unix_1984(cfg.seed ^ 0x512e, 64 * 1024);
    let file_sizes: Vec<u32> = (0..cfg.files).map(|_| dist.sample() as u32).collect();
    // All payloads are slices of one shared buffer: a cache insert is a
    // refcount bump, so 10k clients over 1M files cost no allocations.
    let backing = Bytes::from(vec![0u8; 64 * 1024]);

    let mut zipf = ZipfSampler::new(cfg.seed ^ 0x21bf, cfg.files as usize, 1.0);
    let mut cache =
        FileCache::with_policy_seeded(cfg.cache_bytes, cfg.rnode_slots, cfg.policy, cfg.seed);

    let scanners = cfg.scanners();
    let cold_base = cfg.files / 2;
    let mut clients: Vec<Client> = (0..cfg.clients)
        .map(|i| {
            let mut think = amoeba_sim::DetRng::new(
                cfg.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)),
            );
            let kind = if i < scanners {
                // Scanners start scattered through the cold half so their
                // sweeps do not trivially overlap.
                let offset = think.next_below(cfg.files / 2);
                ClientKind::Scanner {
                    cursor: cold_base + offset,
                }
            } else {
                ClientKind::Zipf
            };
            Client {
                kind,
                ops_done: 0,
                think,
            }
        })
        .collect();

    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..cfg.clients {
        // Staggered ramp: arrivals spread over the first ~40 ms.
        q.schedule(Nanos::from_us((i as u64 % 997) * 40), i as u32);
    }

    let mut disk_free = [Nanos::ZERO; DISKS];
    let mut disk_head = [0u64; DISKS];
    let hist = Histogram::new();
    let mut digest = FNV_OFFSET;
    let mut seq = 0u64;
    let (mut reads, mut hits) = (0u64, 0u64);
    let (mut window_reads, mut window_hits) = (0u64, 0u64);
    let mut curve = Vec::new();
    let mut makespan = Nanos::ZERO;
    // Dedicated fault RNG: drawn only inside the burst window, so the
    // clean run's timeline never sees it.
    let mut fault_rng = DetRng::new(cfg.fault.map_or(0, |f| f.seed ^ 0xfa17));
    let (mut retries, mut failovers) = (0u64, 0u64);

    while let Some((t, ci)) = q.pop() {
        // Flight recorder: once per period, the event at the head of the
        // queue samples every disk's backlog and the cache level.  The
        // recorder never touches `when`, so the timeline digest of an
        // instrumented run equals the bare run's — measured by ABL17.
        if cfg.telemetry.tick(t) {
            for (d, free) in disk_free.iter().enumerate() {
                cfg.telemetry.gauge(
                    counters::GAUGE_EVSIM_DISK_BACKLOG_US,
                    d as u32,
                    t,
                    free.saturating_sub(t).as_us(),
                );
            }
            cfg.telemetry
                .gauge(counters::GAUGE_CACHE_USED_BYTES, 0, t, cache.used_bytes());
            cfg.telemetry
                .counter_delta(counters::GAUGE_EVSIM_RETRIES, 0, t, retries);
            cfg.telemetry.sample_counters(
                t,
                cache.stats(),
                &[counters::CACHE_HITS, counters::CACHE_MISSES],
            );
        }
        let c = &mut clients[ci as usize];
        let burst = match c.kind {
            ClientKind::Zipf => 1,
            ClientKind::Scanner { .. } => SCAN_BURST,
        };
        let mut when = t;
        for _ in 0..burst {
            let file = match &mut c.kind {
                ClientKind::Zipf => zipf.sample() as u64,
                ClientKind::Scanner { cursor } => {
                    let f = *cursor;
                    *cursor += 1;
                    if *cursor >= cfg.files {
                        *cursor = cold_base;
                    }
                    f
                }
            };
            let size = file_sizes[file as usize] as u64;
            // Request packet + fixed request service.
            when = when + hw.net.one_way(64) + hw.cpu.request();
            // Lossy wire inside the fault window: the request packet is
            // lost and the client's RPC layer eats one retry delay.
            if let Some(b) = &cfg.fault {
                if when >= b.start && when < b.end && fault_rng.next_below(b.drop_denom) == 0 {
                    when += b.retry_delay;
                    retries += 1;
                    cfg.accounting.charge(ci as u64, |u| u.retries += 1);
                }
            }
            let hit = cache.get(file as u32).is_some();
            if !hit {
                // Miss: one I/O against the file's home disk, FIFO behind
                // whatever that disk is already committed to.
                let mut d = (file % DISKS as u64) as usize;
                // Mirror failure inside the window: reads homed on the
                // failed replica reroute to its neighbour, whose queue
                // absorbs both populations.
                if let Some(b) = &cfg.fault {
                    if when >= b.start && when < b.end && d == b.failed_disk {
                        d = (d + 1) % DISKS;
                        failovers += 1;
                    }
                }
                let target = (file / DISKS as u64).wrapping_mul(9973) % (DISK_BLOCKS - 64);
                let start = when.max(disk_free[d]);
                let io = hw.disk.io_time(disk_head[d], target, DISK_BLOCKS, size);
                disk_free[d] = start + io;
                disk_head[d] = target;
                when = start + io;
                cache
                    .insert(file as u32, backing.slice(..size as usize))
                    .expect("64 KB cap < cache capacity");
            }
            // Reply: arena→buffer copy + the payload on the wire.
            when = when + hw.cpu.memcpy(size) + hw.net.one_way(size);

            reads += 1;
            window_reads += 1;
            if hit {
                hits += 1;
                window_hits += 1;
            }
            cfg.accounting.charge(ci as u64, |u| {
                u.requests += 1;
                u.bytes_read += size;
                if hit {
                    u.cache_hits += 1;
                } else {
                    u.cache_misses += 1;
                    u.disk_ios += 1;
                }
            });
            for word in [seq, when.as_ns(), ci as u64, file, hit as u64] {
                digest = fnv1a(digest, word);
            }
            seq += 1;
            if window_reads == CURVE_WINDOW {
                curve.push(CurvePoint {
                    reads,
                    window_hit_rate: window_hits as f64 / window_reads as f64,
                });
                window_reads = 0;
                window_hits = 0;
            }
        }
        hist.record(when.saturating_sub(t));
        makespan = makespan.max(when);
        c.ops_done += 1;
        if c.ops_done < cfg.ops_per_client {
            q.schedule(when + Nanos::from_us(c.think.next_below(40_000)), ci);
        }
    }
    if window_reads > 0 {
        curve.push(CurvePoint {
            reads,
            window_hit_rate: window_hits as f64 / window_reads as f64,
        });
    }

    let cs = cache.stats();
    EvsimRun {
        outcome: EvsimOutcome {
            policy: cfg.policy.label(),
            workload: cfg.workload,
            clients: cfg.clients,
            files: cfg.files,
            reads,
            hits,
            hit_rate: hits as f64 / reads.max(1) as f64,
            p50_ms: hist.quantile(0.50).as_ms_f64(),
            p99_ms: hist.quantile(0.99).as_ms_f64(),
            makespan_s: makespan.as_secs_f64(),
            evictions: cs.get(counters::CACHE_EVICTIONS),
            scan_promotions: cs.get(counters::CACHE_SCAN_PROMOTIONS)
                + cs.get(counters::CACHE_GHOST_HITS),
            events: q.scheduled(),
            retries,
            failovers,
            digest,
        },
        curve,
    }
}

/// The four policies the ablation compares, in table order.
pub const POLICIES: [EvictionPolicy; 4] = [
    EvictionPolicy::Lru,
    EvictionPolicy::Fifo,
    EvictionPolicy::SegmentedLru,
    EvictionPolicy::TwoQ,
];

/// ABL16 — every policy × {zipf, scan}: the 10k-client gate cells, or at
/// [`Scale::Reduced`] the small cells (400 clients over 40k files,
/// milliseconds each).  `clients` overrides the population.
///
/// Criteria:
///
/// * scale: every client completes every op, and (full only) the run is
///   at least 10k clients over 500k files on the one event heap;
/// * scan resistance: the better of SegmentedLRU/2Q beats LRU's hit rate
///   under scan injection by at least [`SCAN_MARGIN`];
/// * Zipf parity: every policy stays within [`ZIPF_PARITY`] of LRU;
/// * tail latency: the better segmented policy's scan p99 does not
///   exceed LRU's (fewer misses ⇒ shorter disk queues).
///
/// The table embeds each run's FNV-1a timeline digest, so a single
/// reordered event anywhere in ~10M flips the replay comparison.  Extra
/// artifact: the windowed hit-rate curves.
pub fn ablation(scale: Scale) -> Outcome {
    let reduced = scale == Scale::Reduced;
    let seed = if reduced { REDUCED_SEED } else { PR_SEED };
    let cfgs: Vec<EvsimConfig> = ["zipf", "scan"]
        .into_iter()
        .flat_map(|workload| POLICIES.map(|policy| (policy, workload)))
        .map(|(policy, workload)| {
            if reduced {
                EvsimConfig::small(policy, workload, seed)
            } else {
                EvsimConfig::gate(policy, workload, seed)
            }
        })
        .collect();
    let runs: Vec<EvsimRun> = cfgs.iter().map(run).collect();
    let (zipf, scan) = runs.split_at(POLICIES.len());
    let rate = |cell: &[EvsimRun], policy: usize| cell[policy].outcome.hit_rate;

    let (min_clients, min_files) = if reduced { (0, 0) } else { (10_000, 500_000) };
    let short: Vec<String> = cfgs
        .iter()
        .zip(&runs)
        .filter(|(cfg, r)| {
            let ops = cfg.ops_per_client as u64;
            let scanners = cfg.scanners() as u64;
            let expect = (cfg.clients as u64 - scanners) * ops + scanners * ops * SCAN_BURST as u64;
            r.outcome.reads != expect
        })
        .map(|(cfg, r)| format!("{}/{}", cfg.workload, r.outcome.policy))
        .collect();
    // POLICIES order: 0 lru, 1 fifo, 2 slru, 3 2q.
    let (lru_scan, best_scan) = (rate(scan, 0), rate(scan, 2).max(rate(scan, 3)));
    let behind: Vec<&str> = zipf
        .iter()
        .filter(|r| r.outcome.hit_rate + ZIPF_PARITY < rate(zipf, 0))
        .map(|r| r.outcome.policy)
        .collect();
    let (lru_p99, best_p99) = (
        scan[0].outcome.p99_ms,
        scan[2].outcome.p99_ms.min(scan[3].outcome.p99_ms),
    );
    let criteria = vec![
        Invariant::new(
            "every client completes every op at the demanded scale",
            short.is_empty() && cfgs[0].clients >= min_clients && cfgs[0].files >= min_files,
            format!(
                "{} clients over {} files (need {min_clients} over {min_files}); \
                 cells short of reads: {short:?}",
                cfgs[0].clients, cfgs[0].files
            ),
        ),
        Invariant::new(
            "a segmented policy beats LRU under scan injection",
            best_scan >= lru_scan + SCAN_MARGIN,
            format!("lru {lru_scan:.4}, best segmented {best_scan:.4}, required +{SCAN_MARGIN}"),
        ),
        Invariant::new(
            "scan resistance costs nothing under pure Zipf",
            behind.is_empty(),
            format!(
                "lru {:.4}; more than {ZIPF_PARITY} below it: {behind:?}",
                rate(zipf, 0)
            ),
        ),
        Invariant::new(
            "fewer scan misses shorten the disk queues",
            best_p99 <= lru_p99,
            format!("scan p99: lru {lru_p99:.1} ms, best segmented {best_p99:.1} ms"),
        ),
    ];

    let (lz, ls) = (&zipf[0].outcome, &scan[0].outcome);
    let mut hit_rates: Vec<(String, Json)> = runs
        .iter()
        .map(|r| &r.outcome)
        .map(|o| {
            (
                format!("{}_{}_hit_rate", o.policy, o.workload),
                Json::fixed(o.hit_rate, 4),
            )
        })
        .collect();
    hit_rates.push((
        "scan_margin".to_string(),
        Json::fixed(best_scan - lru_scan, 4),
    ));
    let curves = runs
        .iter()
        .flat_map(|r| r.curve.iter().map(|p| curve_row(&r.outcome, p) + "\n"))
        .collect();
    Outcome {
        title: format!(
            "ABL16 cache replacement at event-engine scale (seed {seed}, {} clients)",
            lz.clients
        ),
        table: outcome_table(&runs),
        criteria,
        json: vec![
            (
                "evsim",
                Json::object([
                    ("seed", Json::num(seed)),
                    ("clients", Json::num(lz.clients)),
                    ("files", Json::num(lz.files)),
                    ("events", Json::num(lz.events)),
                    ("zipf_reads", Json::num(lz.reads)),
                    ("scan_reads", Json::num(ls.reads)),
                ]),
            ),
            ("cache_policy", Json::Object(hit_rates)),
        ],
        report_md: String::new(),
        artifact: "ablation_evsim.txt",
        trailer: Trailer::RedCriteria,
        extras: vec![("ablation_evsim_curve.jsonl", curves)],
    }
}

/// Renders the matrix as a fixed-width table — the byte string the
/// replay gate compares.
pub fn outcome_table(runs: &[EvsimRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:>8} {:>6} {:>9} {:>7} {:>8} {:>9} {:>8} {:>9} {:>7} {:>18}\n",
        "workload",
        "policy",
        "reads",
        "hit%",
        "p50_ms",
        "p99_ms",
        "span_s",
        "evicted",
        "promo",
        "digest"
    ));
    for r in runs {
        let o = &r.outcome;
        out.push_str(&format!(
            "  {:>8} {:>6} {:>9} {:>6.2}% {:>8.2} {:>9.1} {:>8.1} {:>9} {:>7} {:>18}\n",
            o.workload,
            o.policy,
            o.reads,
            100.0 * o.hit_rate,
            o.p50_ms,
            o.p99_ms,
            o.makespan_s,
            o.evictions,
            o.scan_promotions,
            format!("{:016x}", o.digest),
        ));
    }
    out
}

/// Serializes one curve point as a JSONL row for the artifact upload.
pub fn curve_row(o: &EvsimOutcome, p: &CurvePoint) -> String {
    format!(
        "{{\"workload\":\"{}\",\"policy\":\"{}\",\"reads\":{},\"window_hit_rate\":{:.4}}}",
        o.workload, o.policy, p.reads, p.window_hit_rate
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_runs(workload: &'static str) -> Vec<EvsimRun> {
        POLICIES
            .iter()
            .map(|&p| run(&EvsimConfig::small(p, workload, 5)))
            .collect()
    }

    #[test]
    fn replay_is_byte_identical() {
        let a = outcome_table(&small_runs("scan"));
        let b = outcome_table(&small_runs("scan"));
        assert_eq!(a, b);
    }

    #[test]
    fn every_client_completes_every_op() {
        for r in small_runs("zipf") {
            let o = &r.outcome;
            assert_eq!(o.reads, 400 * 25, "zipf clients read once per op");
        }
        for r in small_runs("scan") {
            let o = &r.outcome;
            // 10% scanners burst SCAN_BURST reads per op.
            let scanners = 400 / SCAN_DENOM as u64;
            let expect = (400 - scanners) * 25 + scanners * 25 * SCAN_BURST as u64;
            assert_eq!(o.reads, expect);
        }
    }

    #[test]
    fn zipf_hit_rates_are_sane_and_policies_comparable() {
        let runs = small_runs("zipf");
        for r in &runs {
            assert!(
                (0.15..0.95).contains(&r.outcome.hit_rate),
                "{} zipf hit rate {:.2} out of plausible range",
                r.outcome.policy,
                r.outcome.hit_rate
            );
        }
        // Without scans the four policies should be within shouting
        // distance of each other (the ABL9 null result, at scale).
        let rates: Vec<f64> = runs.iter().map(|r| r.outcome.hit_rate).collect();
        let spread = rates.iter().cloned().fold(f64::MIN, f64::max)
            - rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.15, "zipf spread {spread:.2} suspiciously wide");
    }

    #[test]
    fn scan_resistant_policies_beat_lru_under_scan() {
        let runs = small_runs("scan");
        let get = |label: &str| {
            runs.iter()
                .find(|r| r.outcome.policy == label)
                .unwrap()
                .outcome
                .hit_rate
        };
        let lru = get("lru");
        let best = get("slru").max(get("2q"));
        assert!(
            best > lru,
            "scan resistance absent: lru {lru:.3} vs best segmented {best:.3}"
        );
    }

    #[test]
    fn digests_differ_across_policies() {
        let runs = small_runs("scan");
        let mut digests: Vec<u64> = runs.iter().map(|r| r.outcome.digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(
            digests.len(),
            runs.len(),
            "policies produced identical timelines"
        );
    }

    #[test]
    fn curve_covers_the_run() {
        let r = run(&EvsimConfig::small(EvictionPolicy::Lru, "zipf", 5));
        assert!(!r.curve.is_empty());
        assert_eq!(r.curve.last().unwrap().reads, r.outcome.reads);
        for p in &r.curve {
            assert!((0.0..=1.0).contains(&p.window_hit_rate));
        }
    }

    #[test]
    fn telemetry_never_perturbs_the_timeline() {
        let bare = run(&EvsimConfig::small(EvictionPolicy::TwoQ, "scan", 5));
        let mut cfg = EvsimConfig::small(EvictionPolicy::TwoQ, "scan", 5);
        cfg.telemetry = Telemetry::on(Nanos::from_ms(5), 256);
        cfg.accounting = ClientAccounting::on();
        let instrumented = run(&cfg);
        assert_eq!(bare.outcome.digest, instrumented.outcome.digest);
        assert_eq!(bare.outcome.p99_ms, instrumented.outcome.p99_ms);
        // ... but it did record: every disk produced a backlog series.
        for d in 0..DISKS as u32 {
            assert!(
                !cfg.telemetry
                    .series(counters::GAUGE_EVSIM_DISK_BACKLOG_US, d)
                    .is_empty(),
                "disk {d} never sampled"
            );
        }
        assert!(!cfg.accounting.is_empty());
    }

    #[test]
    fn fault_burst_shows_up_and_replays_identically() {
        let mut cfg = EvsimConfig::small(EvictionPolicy::Lru, "zipf", 5);
        let clean = run(&EvsimConfig::small(EvictionPolicy::Lru, "zipf", 5));
        cfg.fault = Some(FaultBurst {
            start: Nanos::from_ms(200),
            end: Nanos::from_ms(600),
            drop_denom: 4,
            retry_delay: Nanos::from_ms(2),
            failed_disk: 3,
            seed: 5,
        });
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.outcome.digest, b.outcome.digest, "faulty run not pure");
        assert_ne!(a.outcome.digest, clean.outcome.digest);
        assert!(a.outcome.retries > 0, "lossy wire never fired");
        assert!(a.outcome.failovers > 0, "failed disk never rerouted");
        assert_eq!(clean.outcome.retries, 0);
        assert_eq!(clean.outcome.failovers, 0);
    }

    #[test]
    fn accounting_ranks_scanners_as_top_offenders() {
        let mut cfg = EvsimConfig::small(EvictionPolicy::Lru, "scan", 5);
        cfg.accounting = ClientAccounting::on();
        run(&cfg);
        // Clients 0..39 are the scanners (400 / SCAN_DENOM): they read
        // SCAN_BURST cold files per op, so they dominate the cost board.
        let scanners = 400 / SCAN_DENOM;
        let top = cfg.accounting.top_k(5);
        assert_eq!(top.len(), 5);
        for (client, usage) in &top {
            assert!(
                (*client as usize) < scanners,
                "non-scanner {client} out-spent the scanners"
            );
            assert!(usage.disk_ios > 0);
        }
    }

    #[test]
    fn events_are_counted() {
        let r = run(&EvsimConfig::small(EvictionPolicy::Lru, "zipf", 5));
        // One event per op per client (closed loop): exactly clients*ops.
        assert_eq!(r.outcome.events, 400 * 25);
    }
}
