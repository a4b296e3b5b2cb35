//! Regenerates the entire evaluation in one run: every experiment of
//! [`bullet_bench::ablation::REGISTRY`] is run twice and judged, every
//! artifact under `results/` is rewritten, and
//! `results/REPORT.md` — Figs. 2–3, the §4 claim scorecard, and one row
//! per experiment — is rendered from the same outcomes.  Exits non-zero
//! on any red criterion or diverged replay; afterwards `git diff --
//! results/` shows exactly what went stale.
//!
//! Given registry names it runs only those experiments, the same way,
//! and writes only their artifacts; `--soak` runs them at their nightly
//! widening instead.  An unknown name or flag lists the registry's names
//! and exits 2.
//!
//! ```text
//! cargo run --release -p bullet-bench --bin report
//! cargo run --release -p bullet-bench --bin report -- ablation_faults
//! cargo run --release -p bullet-bench --bin report -- --soak ablation_faults ablation_shard
//! ```
//!
//! With `--json [PATH]` it instead writes the machine-readable benchmark
//! to `PATH` (default `BENCH_pr2.json`), led by a `"schema_version"`:
//!
//! * `sizes[]` — per file size, the mean latency and bandwidth of the
//!   streaming transfers (pipeline off and on) plus p50/p95/p99 latency
//!   percentiles per operation, from repeated traced runs through
//!   [`amoeba_sim::trace::op_histograms`];
//! * one keyed section per `reduced` cell of the registry (ABL13–19 at
//!   their reduced scale) — which keys, and which criteria judge them,
//!   is stated by each ablation's own function;
//! * `zone_frag[]` — the per-zone data-area fragmentation after a
//!   deterministic churn.
//!
//! It refuses to write (non-zero exit, naming the criterion) when a
//! reduced ablation is red.  The baseline's one gate is byte equality:
//! CI regenerates it and ends on `git diff --exit-code`, and tier-1 runs
//! this binary into a scratch file and compares.

use std::process::ExitCode;

use amoeba_rpc::DEFAULT_SEGMENT;
use amoeba_sim::json::Json;
use amoeba_sim::trace::{op_histograms, size_class};
use amoeba_sim::Nanos;
use bullet_bench::ablation::{self, Outcome};
use bullet_bench::rig::BulletRig;
use bullet_bench::sweeps::{stream_rig, ONE_SEGMENT, STREAM_SIZES};
use bullet_bench::table::bandwidth_kb_s;
use bullet_bench::tracebench::traced_rig;
use bullet_core::FragReport;
use bytes::Bytes;

struct StreamRow {
    size: usize,
    warm_read: Nanos,
    cold_seq: Nanos,
    cold_pipe: Nanos,
    create: Nanos,
}

fn measure_streaming() -> Vec<StreamRow> {
    STREAM_SIZES
        .iter()
        .map(|&size| StreamRow {
            size,
            warm_read: stream_rig(DEFAULT_SEGMENT).measure_read(size),
            cold_seq: stream_rig(ONE_SEGMENT).measure_cold_read(size),
            cold_pipe: stream_rig(DEFAULT_SEGMENT).measure_cold_read(size),
            create: stream_rig(DEFAULT_SEGMENT).measure_create(size, 2),
        })
        .collect()
}

/// p50/p95/p99 of one operation × size class, from the span histograms.
struct Percentiles {
    p50: Nanos,
    p95: Nanos,
    p99: Nanos,
}

struct PctRow {
    size: usize,
    warm_read: Percentiles,
    cold_pipe: Percentiles,
    create: Percentiles,
}

/// Repetitions per operation × size for the percentile histograms.
const REPS: usize = 7;

/// Reads the `(op, size-class)` histogram accumulated on the rig's tracer
/// since the last `clear()`.
fn quantiles(rig: &BulletRig, op: &str, size: usize) -> Percentiles {
    let hists = op_histograms(&rig.tracer.snapshot());
    let h = hists
        .get(&(op, size_class(size as u64)))
        .expect("the traced ops recorded spans");
    Percentiles {
        p50: h.quantile(0.50),
        p95: h.quantile(0.95),
        p99: h.quantile(0.99),
    }
}

/// Measures the latency percentiles: `REPS` warm reads, cold pipelined
/// reads, and mirrored creates per size, server-side op-span durations
/// bucketed by `op_histograms`.
fn measure_percentiles() -> Vec<PctRow> {
    STREAM_SIZES
        .iter()
        .map(|&size| {
            let rig = traced_rig();
            let cap = rig
                .client
                .create(Bytes::from(vec![0xa5; size]), 2)
                .expect("create fits the rig");
            rig.client.read(&cap).expect("locate + cache warm-up");

            rig.tracer.clear();
            for _ in 0..REPS {
                rig.client.read(&cap).expect("warm read");
            }
            let warm_read = quantiles(&rig, "read", size);

            rig.tracer.clear();
            for _ in 0..REPS {
                rig.server.clear_cache();
                rig.client.read(&cap).expect("cold read");
            }
            let cold_pipe = quantiles(&rig, "read", size);
            rig.client.delete(&cap).expect("cleanup");

            rig.tracer.clear();
            for _ in 0..REPS {
                let c = rig
                    .client
                    .create(Bytes::from(vec![0x5a; size]), 2)
                    .expect("measured create");
                rig.client.delete(&c).expect("cleanup");
            }
            let create = quantiles(&rig, "create", size);
            PctRow {
                size,
                warm_read,
                cold_pipe,
                create,
            }
        })
        .collect()
}

/// Zones the data-area fragmentation report is split into.
const FRAG_ZONES: u32 = 8;

/// A deterministic create/delete churn on a fresh rig, then the
/// per-zone fragmentation snapshot of the data area.
fn measure_zone_frag() -> Vec<FragReport> {
    let rig = BulletRig::paper_1989();
    let caps: Vec<_> = (0..24)
        .map(|i| {
            rig.client
                .create(Bytes::from(vec![i as u8; 8192]), 2)
                .expect("churn create fits the rig")
        })
        .collect();
    for (i, cap) in caps.iter().enumerate() {
        if i % 3 == 1 {
            rig.client.delete(cap).expect("churn delete");
        }
    }
    rig.server.disk_zone_frag(FRAG_ZONES)
}

/// Everything one `--json` run measured.
struct Fresh {
    rows: Vec<StreamRow>,
    pcts: Vec<PctRow>,
    zones: Vec<FragReport>,
    ablations: Vec<Outcome>,
}

fn measure_all() -> Fresh {
    eprintln!("measuring streaming transfers (one segment vs 64 KB segments)…");
    let rows = measure_streaming();
    eprintln!("measuring latency percentiles ({REPS} reps per op × size, traced rigs)…");
    let pcts = measure_percentiles();
    let zones = measure_zone_frag();
    let ablations = ablation::REGISTRY
        .iter()
        .filter(|experiment| experiment.reduced)
        .map(|experiment| {
            let outcome = (experiment.at)(ablation::Scale::Reduced);
            eprintln!("ran {} (reduced)", outcome.title);
            outcome
        })
        .collect();
    Fresh {
        rows,
        pcts,
        zones,
        ablations,
    }
}

/// The document: the header, one `sizes[]` object per size (delays in
/// milliseconds, latency percentiles, cold-read bandwidths), then what
/// the ablations declare — keyed sections first, row tables after the
/// zone table.
fn render_json(fresh: &Fresh) -> String {
    let ms = |t: Nanos| Json::fixed(t.as_ms_f64(), 3);
    let sizes = fresh.rows.iter().zip(&fresh.pcts).map(|(r, p)| {
        assert_eq!(r.size, p.size, "row tables stay aligned");
        Json::object([
            ("bytes", Json::num(r.size)),
            ("warm_read_ms", ms(r.warm_read)),
            ("cold_read_sequential_ms", ms(r.cold_seq)),
            ("cold_read_pipelined_ms", ms(r.cold_pipe)),
            ("create_ms", ms(r.create)),
            ("warm_read_p50_ms", ms(p.warm_read.p50)),
            ("warm_read_p95_ms", ms(p.warm_read.p95)),
            ("warm_read_p99_ms", ms(p.warm_read.p99)),
            ("cold_read_pipelined_p50_ms", ms(p.cold_pipe.p50)),
            ("cold_read_pipelined_p99_ms", ms(p.cold_pipe.p99)),
            ("create_p50_ms", ms(p.create.p50)),
            ("create_p99_ms", ms(p.create.p99)),
            (
                "cold_read_sequential_kb_s",
                Json::fixed(bandwidth_kb_s(r.size, r.cold_seq), 1),
            ),
            (
                "cold_read_pipelined_kb_s",
                Json::fixed(bandwidth_kb_s(r.size, r.cold_pipe), 1),
            ),
        ])
    });
    let zones = fresh.zones.iter().enumerate().map(|(i, z)| {
        Json::object([
            ("zone", Json::num(i)),
            ("total", Json::num(z.total)),
            ("free", Json::num(z.free)),
            ("largest_hole", Json::num(z.largest_hole)),
            ("hole_count", Json::num(z.hole_count)),
            (
                "external_fragmentation",
                Json::fixed(z.external_fragmentation, 4),
            ),
        ])
    });
    let (sections, tables): (Vec<_>, Vec<_>) = fresh
        .ablations
        .iter()
        .flat_map(|o| o.json.iter().cloned())
        .partition(|(_, value)| matches!(value, Json::Object(_)));
    let mut doc = vec![
        ("schema_version", Json::num(1)),
        ("benchmark", Json::string("bullet streaming transfers")),
        ("segment_size", Json::num(DEFAULT_SEGMENT)),
        ("sizes", Json::array(sizes)),
    ];
    doc.extend(sections);
    doc.push(("zone_frag", Json::array(zones)));
    doc.extend(tables);
    Json::object(doc).render()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.iter().any(|a| a == "--json") {
        return ablation::report(&args);
    }
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("BENCH_pr2.json", String::as_str);
    let fresh = measure_all();
    match ablation::write_baseline(path, &render_json(&fresh), &fresh.ablations) {
        Ok(()) => {
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report --json failed: {e}");
            ExitCode::FAILURE
        }
    }
}
