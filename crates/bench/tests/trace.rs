//! The tracer's two external contracts: it is *free* when disabled
//! (bit-identical simulated time whether or not spans are recorded), and
//! its exports are well-formed (the Chrome trace-event file is a JSON
//! array of complete events, the JSONL file one object per line).

use amoeba_sim::{json, HwProfile, Nanos, Tracer};
use bullet_bench::rig::BulletRig;

/// A rig with the span tracer recording into `rig.tracer`.
fn traced_rig() -> BulletRig {
    BulletRig::with_config(2, HwProfile::amoeba_1989(), 12 << 20, |cfg| {
        cfg.trace = Tracer::on(cfg.clock.clone());
    })
}

/// Runs the three standard measurements on one rig and returns the raw
/// delays plus the final clock reading.
fn measure_all(rig: &BulletRig, size: usize) -> (Nanos, Nanos, Nanos, Nanos) {
    let warm = rig.measure_read(size);
    let cold = rig.measure_cold_read(size);
    let create = rig.measure_create(size, 2);
    (warm, cold, create, rig.clock.now())
}

#[test]
fn tracing_is_free_identical_simulated_time() {
    for &size in &[1usize, 4 << 10, 64 << 10, 1 << 20] {
        let off = BulletRig::paper_1989();
        let on = traced_rig();
        assert!(!off.tracer.enabled());
        assert!(on.tracer.enabled());
        let a = measure_all(&off, size);
        let b = measure_all(&on, size);
        assert_eq!(a, b, "size {size}: tracing changed the simulated cost");
    }
}

#[test]
fn traced_rig_records_op_spans_and_untraced_records_none() {
    let on = traced_rig();
    on.measure_read(4096);
    let spans = on.tracer.snapshot();
    assert!(spans.iter().any(|s| s.name == "rpc.trans"));
    assert!(spans.iter().any(|s| s.name == "bullet.read"));
    assert!(spans.iter().any(|s| s.name == "bullet.create"));

    let off = BulletRig::paper_1989();
    off.measure_read(4096);
    assert!(off.tracer.snapshot().is_empty());
}

#[test]
fn chrome_export_is_a_well_formed_event_array() {
    let rig = traced_rig();
    rig.measure_cold_read(256 << 10);
    let chrome = rig.tracer.export_chrome();
    let trimmed = chrome.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'));
    assert!(chrome.contains("\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":\"X\""), "no complete events");
    assert_eq!(json::valid(&chrome), Ok(()));

    let jsonl = rig.tracer.export_jsonl();
    assert_eq!(jsonl.lines().count(), rig.tracer.snapshot().len());
    for line in jsonl.lines() {
        assert_eq!(json::valid(line), Ok(()), "{line}");
        assert!(line.starts_with("{\"id\":") && line.contains("\"name\":"));
    }
}
