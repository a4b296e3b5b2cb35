//! ABL12 — span-tracing decomposition of the streaming paths.
//!
//! Re-runs the two ABL11 headliners — the cold pipelined 1 MB READ and
//! the mirrored 1 MB CREATE — with the simulated-clock span tracer on,
//! and decomposes each end-to-end delay into its span tree: RPC locate
//! and residual wire charges, per-segment pipeline lanes (disk, wire,
//! memcpy), mirrored replica writes, cache events, and lock
//! acquisitions.

use amoeba_sim::json;
use amoeba_sim::trace::{lane_utilization, leaf_coverage, leaf_spans};
use amoeba_sim::{AttrValue, HwProfile, Nanos, SpanRecord, Tracer};
use bytes::Bytes;

use crate::ablation::{Invariant, Outcome};
use crate::rig::BulletRig;
use crate::table::Text;

const MB: usize = 1 << 20;

/// The paper rig with the span tracer on — identical charged time
/// (asserted by `tests/trace.rs`), plus a span tree to decompose.
pub fn traced_rig() -> BulletRig {
    BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |cfg| {
        cfg.trace = Tracer::on(cfg.clock.clone());
    })
}

/// Renders the span tree under `id`, skipping zero-width instants (lock
/// and cache events) but counting them per parent.
fn render_tree(t: &mut Text, spans: &[SpanRecord], id: u64, depth: usize) {
    let s = spans.iter().find(|s| s.id == id).expect("span exists");
    let mut tag = String::new();
    for key in ["lane", "segment", "replica", "op", "bytes"] {
        if let Some(v) = s.attr(key) {
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
    writeln!(
        t,
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
            render_tree(t, spans, c.id, depth + 1);
        }
    }
}

/// Renders the decomposition of the last root span of `spans` and checks
/// two identities on it, pushing `title` onto `reds[0]` if the root
/// `rpc.trans` span is not exactly the measured end-to-end delay, and
/// onto `reds[1]` if the union of the tree's *leaf* spans is not the root
/// duration (a charged nanosecond attributed to no leaf, or to two).
fn decompose(
    t: &mut Text,
    reds: &mut [Vec<String>; 2],
    title: &str,
    spans: &[SpanRecord],
    elapsed: Nanos,
) {
    let root = spans
        .iter()
        .rfind(|s| s.parent.is_none() && s.name == "rpc.trans")
        .expect("the transaction records a root span");
    writeln!(t, "  {title}: end-to-end {:.3} ms", elapsed.as_ms_f64());
    writeln!(t);
    render_tree(t, spans, root.id, 1);
    writeln!(t);
    if root.duration() != elapsed {
        reds[0].push(title.to_string());
    }
    let covered = leaf_coverage(spans, root.id);
    let leaves = leaf_spans(spans, root.id).len();
    writeln!(
        t,
        "  leaf coverage: {leaves} leaves cover {:.3} ms of {:.3} ms",
        covered.as_ms_f64(),
        root.duration().as_ms_f64()
    );
    if covered != root.duration() {
        reds[1].push(title.to_string());
    }
    let lanes = lane_utilization(spans, root.id);
    if !lanes.is_empty() {
        writeln!(t, "  lane utilization (busy / end-to-end):");
        for l in &lanes {
            writeln!(
                t,
                "    {:<12} {:>9.3} ms  {:>5.1}%",
                l.lane,
                l.busy.as_ms_f64(),
                l.utilization * 100.0
            );
        }
    }
    writeln!(t);
}

/// Simulated time of one create / warm read / cold read / delete cycle,
/// with or without the tracer.
fn cycle_cost(traced: bool) -> Nanos {
    let rig = if traced {
        traced_rig()
    } else {
        BulletRig::paper_1989()
    };
    let cap = rig
        .client
        .create(Bytes::from(vec![0x33; MB]), 2)
        .expect("create");
    rig.client.read(&cap).expect("warm read");
    rig.server.clear_cache();
    rig.client.read(&cap).expect("cold read");
    rig.client.delete(&cap).expect("delete");
    rig.clock.now()
}

/// ABL12.  Extras: `ablation_trace.jsonl` (one span per line) and
/// `ablation_trace.trace.json` (Chrome trace-event format — load it at
/// <https://ui.perfetto.dev> to see the lane overlap).
pub fn ablation() -> Outcome {
    let mut reds = [Vec::new(), Vec::new()];
    let mut t = Text::titled(
        "ABL12 — simulated-clock span tracing on the streaming paths (1 MB, 64 KB segments)",
    );
    writeln!(t);

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
    let spans = rig.tracer.snapshot();
    decompose(&mut t, &mut reds, "cold pipelined READ", &spans, cold_read);

    // The create tree is appended to the same tracer so one pair of
    // artifacts carries both decompositions.
    let t0 = rig.clock.now();
    rig.client
        .create(Bytes::from(vec![0x22; MB]), 2)
        .expect("measured create");
    let create = rig.clock.now() - t0;
    let spans = rig.tracer.snapshot();
    decompose(&mut t, &mut reds, "mirrored CREATE (P=2)", &spans, create);

    let jsonl = rig.tracer.export_jsonl();
    let chrome = rig.tracer.export_chrome();
    // Both artifacts must be well-formed JSON — checked here rather than
    // by an external tool, so the gate travels with the experiment.
    let bad_line = jsonl
        .lines()
        .enumerate()
        .find_map(|(at, line)| Some((at, json::valid(line).err()?)));
    let malformed: Vec<String> = [
        bad_line.map(|(at, e)| format!("ablation_trace.jsonl line {}: {e}", at + 1)),
        json::valid(&chrome)
            .err()
            .map(|e| format!("ablation_trace.trace.json: {e}")),
    ]
    .into_iter()
    .flatten()
    .collect();
    writeln!(
        t,
        "  wrote results/ablation_trace.jsonl ({} spans) and results/ablation_trace.trace.json (both JSON-validated)",
        spans.len()
    );

    let (off, on) = (cycle_cost(false), cycle_cost(true));
    writeln!(
        t,
        "  disabled-tracing identity: off {:.3} ms, on {:.3} ms",
        off.as_ms_f64(),
        on.as_ms_f64()
    );
    t.0 += "\nThe pipeline lanes make the overlap visible: on the cold read the
disk lane stays busy while the wire lane streams the previous
segment, and the leaf-coverage identity proves the decomposition
accounts for every simulated nanosecond of the delay.
";
    let criteria = vec![
        Invariant::rows("the root span covers exactly the measured delay", &reds[0]),
        Invariant::rows(
            "the leaf spans tile the root: no unattributed time",
            &reds[1],
        ),
        Invariant::rows("both exports are well-formed JSON", &malformed),
        // An identically-configured rig with tracing disabled must charge
        // bit-identical simulated time.
        Invariant::new(
            "tracing is free",
            off == on,
            format!("off {off} vs on {on}"),
        ),
    ];
    Outcome {
        extras: vec![
            ("ablation_trace.jsonl", jsonl),
            ("ablation_trace.trace.json", chrome),
        ],
        ..Outcome::plain("ablation_trace.txt", &t, criteria)
    }
}
