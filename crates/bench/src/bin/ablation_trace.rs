//! Ablation ABL12 — span-tracing decomposition of the streaming paths.
//!
//! Re-runs the two ABL11 headliners — the cold pipelined 1 MB READ and
//! the mirrored 1 MB CREATE — with the simulated-clock span tracer on,
//! and decomposes each end-to-end delay into its span tree: RPC locate
//! and residual wire charges, per-segment pipeline lanes (disk, wire,
//! memcpy), mirrored replica writes, cache events, and lock
//! acquisitions.  Three invariants gate the run (non-zero exit on
//! violation):
//!
//! 1. the root `rpc.trans` span covers exactly the measured end-to-end
//!    simulated delay;
//! 2. the union of the tree's *leaf* spans equals the root duration —
//!    every charged nanosecond is attributed to exactly one leaf
//!    (overlap counted once, and no gap hides an unattributed charge);
//! 3. tracing is free: an identically-configured rig with tracing
//!    disabled charges bit-identical simulated time.
//!
//! Artifacts: `results/ablation_trace.jsonl` (one span per line) and
//! `results/ablation_trace.trace.json` (Chrome trace-event format — load
//! it at <https://ui.perfetto.dev> to see the lane overlap).
//!
//! ```text
//! cargo run -p bullet-bench --bin ablation_trace
//! ```

use amoeba_sim::trace::{lane_utilization, leaf_coverage, leaf_spans};
use amoeba_sim::{HwProfile, Nanos, SpanRecord, TraceConfig};
use bullet_bench::rig::BulletRig;
use bytes::Bytes;

const MB: usize = 1 << 20;

fn traced_rig() -> BulletRig {
    BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |cfg| {
        cfg.trace = TraceConfig::enabled(cfg.clock.clone());
    })
}

/// Prints the span tree under `id`, skipping zero-width instants (lock
/// and cache events) but counting them per parent.
fn print_tree(spans: &[SpanRecord], id: u64, depth: usize) {
    let s = spans.iter().find(|s| s.id == id).expect("span exists");
    let mut tag = String::new();
    for key in ["lane", "segment", "replica", "op", "bytes"] {
        if let Some(v) = s.attr(key) {
            use amoeba_sim::AttrValue;
            let rendered = match v {
                AttrValue::U64(n) => format!("{key}={n}"),
                AttrValue::Bool(b) => format!("{key}={b}"),
                AttrValue::Str(t) => format!("{key}={t}"),
            };
            tag.push(' ');
            tag.push_str(&rendered);
        }
    }
    let instants = spans
        .iter()
        .filter(|c| c.parent == Some(id) && c.duration() == Nanos::ZERO)
        .count();
    if instants > 0 {
        tag.push_str(&format!(" (+{instants} instants)"));
    }
    println!(
        "  {:indent$}{:<24} {:>9.3} ms  [{:>9.3} .. {:>9.3}]{}",
        "",
        s.name,
        s.duration().as_ms_f64(),
        s.start.as_ms_f64(),
        s.end.as_ms_f64(),
        tag,
        indent = depth * 2,
    );
    for c in spans.iter().filter(|c| c.parent == Some(id)) {
        if c.duration() > Nanos::ZERO {
            print_tree(spans, c.id, depth + 1);
        }
    }
}

/// Checks invariants 1 and 2 for the last root span of `spans`, printing
/// the decomposition; returns the number of violations.
fn decompose(title: &str, spans: &[SpanRecord], elapsed: Nanos) -> u32 {
    let root = spans
        .iter()
        .rfind(|s| s.parent.is_none() && s.name == "rpc.trans")
        .expect("the transaction records a root span");
    let mut violations = 0;
    println!("  {title}: end-to-end {:.3} ms", elapsed.as_ms_f64());
    println!();
    print_tree(spans, root.id, 1);
    println!();
    if root.duration() != elapsed {
        eprintln!(
            "  VIOLATION: root span {:.3} ms != measured {:.3} ms",
            root.duration().as_ms_f64(),
            elapsed.as_ms_f64()
        );
        violations += 1;
    }
    let covered = leaf_coverage(spans, root.id);
    let leaves = leaf_spans(spans, root.id).len();
    println!(
        "  leaf coverage: {leaves} leaves cover {:.3} ms of {:.3} ms",
        covered.as_ms_f64(),
        root.duration().as_ms_f64()
    );
    if covered != root.duration() {
        eprintln!("  VIOLATION: leaf spans do not tile the root — unattributed time");
        violations += 1;
    }
    let lanes = lane_utilization(spans, root.id);
    if !lanes.is_empty() {
        println!("  lane utilization (busy / end-to-end):");
        for l in &lanes {
            println!(
                "    {:<12} {:>9.3} ms  {:>5.1}%",
                l.lane,
                l.busy.as_ms_f64(),
                l.utilization * 100.0
            );
        }
    }
    println!();
    violations
}

fn main() {
    let mut violations = 0u32;
    println!("ABL12 — simulated-clock span tracing on the streaming paths (1 MB, 64 KB segments)");
    println!();

    let rig = traced_rig();
    let cap = rig
        .client
        .create(Bytes::from(vec![0x11; MB]), 2)
        .expect("create fits the rig");
    rig.client.read(&cap).expect("locate + cache warm-up");
    rig.server.clear_cache();

    rig.tracer.clear();
    let t0 = rig.clock.now();
    rig.client.read(&cap).expect("measured cold read");
    let cold_read = rig.clock.now() - t0;
    violations += decompose("cold pipelined READ", &rig.tracer.snapshot(), cold_read);

    // The create tree is appended to the same tracer so one pair of
    // artifacts carries both decompositions.
    let t0 = rig.clock.now();
    let cap2 = rig
        .client
        .create(Bytes::from(vec![0x22; MB]), 2)
        .expect("measured create");
    let create = rig.clock.now() - t0;
    let spans = rig.tracer.snapshot();
    violations += decompose("mirrored CREATE (P=2)", &spans, create);

    let jsonl = rig.tracer.export_jsonl();
    let chrome = rig.tracer.export_chrome();
    // Both artifacts must be well-formed JSON — checked here rather than
    // by an external tool, so the gate travels with the binary.
    for (what, line) in jsonl.lines().enumerate() {
        if let Err(e) = bullet_bench::check::json_valid(line) {
            eprintln!("  VIOLATION: ablation_trace.jsonl line {}: {e}", what + 1);
            violations += 1;
            break;
        }
    }
    if let Err(e) = bullet_bench::check::json_valid(&chrome) {
        eprintln!("  VIOLATION: ablation_trace.trace.json: {e}");
        violations += 1;
    }
    bullet_bench::ablation::write_results(&[
        ("ablation_trace.jsonl", &jsonl),
        ("ablation_trace.trace.json", &chrome),
    ])
    .expect("results/ is writable");
    println!(
        "  wrote results/ablation_trace.jsonl ({} spans) and results/ablation_trace.trace.json (both JSON-validated)",
        spans.len()
    );
    rig.client.delete(&cap2).expect("cleanup");
    rig.client.delete(&cap).expect("cleanup");

    // Invariant 3: tracing must not change what the run costs.
    let run = |traced: bool| {
        let rig = BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |cfg| {
            if traced {
                cfg.trace = TraceConfig::enabled(cfg.clock.clone());
            }
        });
        let cap = rig
            .client
            .create(Bytes::from(vec![0x33; MB]), 2)
            .expect("create");
        rig.client.read(&cap).expect("warm read");
        rig.server.clear_cache();
        rig.client.read(&cap).expect("cold read");
        rig.client.delete(&cap).expect("delete");
        rig.clock.now()
    };
    let (off, on) = (run(false), run(true));
    println!(
        "  disabled-tracing identity: off {:.3} ms, on {:.3} ms",
        off.as_ms_f64(),
        on.as_ms_f64()
    );
    if off != on {
        eprintln!("  VIOLATION: tracing changed the simulated cost");
        violations += 1;
    }
    println!();
    println!("The pipeline lanes make the overlap visible: on the cold read the");
    println!("disk lane stays busy while the wire lane streams the previous");
    println!("segment, and the leaf-coverage identity proves the decomposition");
    println!("accounts for every simulated nanosecond of the delay.");

    if violations > 0 {
        eprintln!("ABL12 FAILED: {violations} violation(s)");
        std::process::exit(1);
    }
}
