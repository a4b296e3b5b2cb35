//! Simulated-clock span tracing: where every simulated microsecond goes.
//!
//! The cost model argues in *decompositions* — fixed RPC overhead vs
//! per-byte disk and wire terms — but counters and end-to-end deltas show
//! only totals.  A [`Tracer`] records **spans**: named intervals of
//! simulated time that open and close at [`SimClock`] nanos, nest into a
//! tree (per thread, via an implicit span stack), and carry typed
//! [`AttrValue`] attributes (operation, object, byte count, segment index,
//! cache hit/miss, replica id, pipeline lane).  The whole Bullet data path
//! is instrumented: RPC dispatch, server operations, cache lookups and
//! inserts, pipeline lanes segment by segment, and mirrored disk writes.
//!
//! Three consumers sit on top of the raw spans:
//!
//! * [`leaf_coverage`] — the union of the leaf spans under a root: when it
//!   equals the root's own duration, every simulated nanosecond of the
//!   operation is attributed to a concrete leaf cost (the `ablation_trace`
//!   invariant);
//! * [`lane_utilization`] — the fraction of a root span each pipeline lane
//!   was busy, making overlap and stalls quantitative;
//! * [`op_histograms`] — per-operation × size-class latency
//!   [`Histogram`]s from spans tagged with `op`/`bytes` attributes.
//!
//! Two exporters: [`Tracer::export_jsonl`] (one span object per line) and
//! [`Tracer::export_chrome`] (Chrome trace-event JSON, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev); pipeline
//! lanes and disk replicas appear as named tracks).
//!
//! Tracing is **zero-cost when disabled**: a disabled tracer never reads
//! the clock, allocates, or takes a lock — and an *enabled* tracer never
//! *advances* the clock, so tracing on or off, the simulated numbers are
//! bit-identical (asserted by `crates/bench/tests/trace.rs`).
//!
//! # Example
//!
//! ```
//! use amoeba_sim::{Nanos, SimClock, Tracer};
//!
//! let clock = SimClock::new();
//! let tracer = Tracer::on(clock.clone());
//! {
//!     let mut op = tracer.span("op.read");
//!     op.attr("bytes", 4096u64);
//!     let _disk = tracer.span("disk.read");
//!     clock.advance(Nanos::from_ms(20));
//! }
//! let spans = tracer.snapshot();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].name, "op.read");
//! assert_eq!(spans[1].parent, Some(spans[0].id));
//! assert_eq!(spans[1].duration(), Nanos::from_ms(20));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{Nanos, SimClock};
use crate::json::Json;
use crate::stats::Histogram;

/// A typed span attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned count (bytes, segment index, replica id, object number).
    U64(u64),
    /// A flag (cache hit, lock contended).
    Bool(bool),
    /// A static label (operation name, lane name).
    Str(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// The value as a u64 if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a static string if it is one.
    pub fn as_str(&self) -> Option<&'static str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn json(&self) -> Json {
        match self {
            AttrValue::U64(v) => Json::num(v),
            AttrValue::Bool(b) => Json::num(b),
            AttrValue::Str(s) => Json::string(s),
        }
    }
}

/// One closed span: a named interval of simulated time with attributes.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the tracer (monotonic, in open order).
    pub id: u64,
    /// The span open on the same thread when this one opened, if any.
    pub parent: Option<u64>,
    /// The span name (see the taxonomy table in `DESIGN.md` §9).
    pub name: &'static str,
    /// Simulated open time.
    pub start: Nanos,
    /// Simulated close time.
    pub end: Nanos,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// The span's simulated duration.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn attrs_json(&self) -> Json {
        Json::object(self.attrs.iter().map(|(k, v)| (*k, v.json())))
    }
}

#[derive(Debug)]
struct TracerInner {
    clock: SimClock,
    spans: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
}

thread_local! {
    /// The open-span stack of this thread: (tracer identity, span id).
    /// Parent lookup scans from the top for the same tracer, so several
    /// tracers interleave safely on one thread.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder (see the module docs).  Cloning shares the buffer;
/// the default tracer is disabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A disabled tracer: every call is a no-op that never reads the
    /// clock, allocates, or locks.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer timestamping spans off `clock`.
    pub fn on(clock: SimClock) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                spans: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// True if spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The tracer's clock reading (zero when disabled).
    pub fn now(&self) -> Nanos {
        self.inner.as_ref().map_or(Nanos::ZERO, |i| i.clock.now())
    }

    fn ident(inner: &Arc<TracerInner>) -> usize {
        Arc::as_ptr(inner) as usize
    }

    fn current_parent(inner: &Arc<TracerInner>) -> Option<u64> {
        let me = Tracer::ident(inner);
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _)| *t == me)
                .map(|(_, id)| *id)
        })
    }

    /// Opens a span at the current simulated time.  The span closes (and
    /// is recorded) when the returned guard drops; while it is open, spans
    /// opened on the same thread nest under it.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = Tracer::current_parent(inner);
        SPAN_STACK.with(|s| s.borrow_mut().push((Tracer::ident(inner), id)));
        SpanGuard {
            inner: Some(GuardInner {
                tracer: inner.clone(),
                id,
                parent,
                name,
                start: inner.clock.now(),
                attrs: Vec::new(),
                fixed: None,
            }),
        }
    }

    /// Records a zero-duration span (an event) at the current simulated
    /// time, nested under the currently open span.
    pub fn instant(&self, name: &'static str, attrs: &[(&'static str, AttrValue)]) {
        let Some(inner) = &self.inner else { return };
        let now = inner.clock.now();
        self.record_at(name, now, now, attrs);
    }

    /// Records a span with explicit simulated times, nested under the
    /// currently open span.  The building block for components that
    /// *compute* a schedule rather than replay it — parallel mirrored
    /// writes place every replica lane at the same start, and the
    /// [`crate::Pipeline`] places stage spans at their recurrence times.
    pub fn record_at(
        &self,
        name: &'static str,
        start: Nanos,
        end: Nanos,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = Tracer::current_parent(inner);
        inner.spans.lock().push(SpanRecord {
            id,
            parent,
            name,
            start,
            end,
            attrs: attrs.to_vec(),
        });
    }

    /// A watermark for [`shift_since`](Self::shift_since): spans recorded
    /// from now on have ids `>=` the returned mark.
    pub fn mark(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.next_id.load(Ordering::Relaxed))
    }

    /// Shifts every span recorded since `mark` by `delta_ns` (saturating
    /// at zero).  Used by schedule-computing callers: work executed under
    /// [`crate::clock::capture`] records spans at its sequential-replay
    /// position, and the scheduler slides them to their true overlapped
    /// position once the recurrence has placed the stage.
    pub fn shift_since(&self, mark: u64, delta_ns: i64) {
        let Some(inner) = &self.inner else { return };
        if delta_ns == 0 {
            return;
        }
        let shift = |t: Nanos| -> Nanos {
            let v = t.as_ns() as i128 + delta_ns as i128;
            Nanos(v.clamp(0, u64::MAX as i128) as u64)
        };
        for s in inner.spans.lock().iter_mut() {
            if s.id >= mark {
                s.start = shift(s.start);
                s.end = shift(s.end);
            }
        }
    }

    /// Snapshot of every closed span, sorted by id (open order).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = inner.spans.lock().clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Discards every recorded span (between measured operations).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().clear();
        }
    }

    /// Exports the recorded spans as JSON Lines: one span object per line
    /// with `id`, `parent`, `name`, `start_ns`, `end_ns`, and `attrs`.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            let record = Json::object([
                ("id", Json::num(s.id)),
                (
                    "parent",
                    s.parent.map_or(Json::Raw("null".to_string()), Json::num),
                ),
                ("name", Json::string(s.name)),
                ("start_ns", Json::num(s.start.as_ns())),
                ("end_ns", Json::num(s.end.as_ns())),
                ("attrs", s.attrs_json()),
            ]);
            out.push_str(&record.compact());
            out.push('\n');
        }
        out
    }

    /// Exports Chrome trace-event JSON (`chrome://tracing` / Perfetto).
    ///
    /// Spans become complete (`"ph":"X"`) events with microsecond
    /// timestamps.  Track assignment makes overlap visible: spans carrying
    /// a `lane` attribute get one named track per lane, spans carrying a
    /// `replica` attribute one track per replica, and everything else (the
    /// request tree) the `server` track.  Zero-duration spans become
    /// instant (`"ph":"i"`) events.
    pub fn export_chrome(&self) -> String {
        let spans = self.snapshot();
        // Track 0 is the request tree; lanes and replicas get their own.
        let mut tracks: Vec<String> = vec!["server".to_string()];
        let mut tid_of = |s: &SpanRecord| -> usize {
            let label = if let Some(lane) = s.attr("lane").and_then(|v| v.as_str()) {
                format!("lane: {lane}")
            } else if let Some(r) = s.attr("replica").and_then(|v| v.as_u64()) {
                format!("replica {r}")
            } else {
                return 0;
            };
            match tracks.iter().position(|t| *t == label) {
                Some(i) => i,
                None => {
                    tracks.push(label);
                    tracks.len() - 1
                }
            }
        };
        let mut events = Vec::new();
        for s in &spans {
            let tid = tid_of(s);
            let ts = s.start.as_ns() as f64 / 1000.0;
            let args = s.attrs_json().compact();
            if s.duration() == Nanos::ZERO {
                events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    s.name
                ));
            } else {
                let dur = s.duration().as_ns() as f64 / 1000.0;
                events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    s.name
                ));
            }
        }
        for (tid, label) in tracks.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

struct GuardInner {
    tracer: Arc<TracerInner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Nanos,
    attrs: Vec<(&'static str, AttrValue)>,
    /// Explicit (start, end) override set by [`SpanGuard::close_at`].
    fixed: Option<(Nanos, Nanos)>,
}

/// An open span; closes and records when dropped (also on panic).
#[must_use = "a span closes when the guard drops"]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl SpanGuard {
    /// Attaches an attribute.  No-op on a disabled tracer.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(g) = &mut self.inner {
            g.attrs.push((key, value.into()));
        }
    }

    /// Overrides the recorded interval with explicit simulated times (for
    /// schedule-computing callers; see [`Tracer::record_at`]).  The span
    /// still closes when the guard drops.
    pub fn close_at(&mut self, start: Nanos, end: Nanos) {
        if let Some(g) = &mut self.inner {
            g.fixed = Some((start, end));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(g) = self.inner.take() else { return };
        let me = Tracer::ident(&g.tracer);
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(t, id)| t == me && id == g.id) {
                s.remove(pos);
            }
        });
        let (start, end) = g.fixed.unwrap_or((g.start, g.tracer.clock.now()));
        g.tracer.spans.lock().push(SpanRecord {
            id: g.id,
            parent: g.parent,
            name: g.name,
            start,
            end,
            attrs: g.attrs,
        });
    }
}

// ---------------------------------------------------------------------
// Analysis: span-tree queries the ablations and the report build on.
// ---------------------------------------------------------------------

/// Ids of `root` and every span beneath it.
fn subtree_ids(spans: &[SpanRecord], root: u64) -> Vec<u64> {
    let mut ids = vec![root];
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        for s in spans {
            if s.parent == Some(id) {
                ids.push(s.id);
                frontier.push(s.id);
            }
        }
    }
    ids
}

/// The leaf spans in the subtree under `root`, inclusive of `root` itself
/// if it is one.  A leaf has no child that takes time: zero-width instants
/// (lock acquisitions, scheduler grants) annotate their parent without
/// subdividing it, so a span whose only children are instants still owns
/// its whole interval.
pub fn leaf_spans(spans: &[SpanRecord], root: u64) -> Vec<&SpanRecord> {
    let ids = subtree_ids(spans, root);
    spans
        .iter()
        .filter(|s| ids.contains(&s.id))
        .filter(|s| {
            !spans
                .iter()
                .any(|c| c.parent == Some(s.id) && c.end > c.start)
        })
        .collect()
}

/// Total simulated time covered by the union of intervals (gaps between
/// spans are not counted; overlap is counted once).
pub fn union_coverage(intervals: &mut [(Nanos, Nanos)]) -> Nanos {
    intervals.sort();
    let mut covered = 0u64;
    let mut cursor = Nanos::ZERO;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        if e > s {
            covered += (e - s).as_ns();
            cursor = e;
        }
        cursor = cursor.max(e);
    }
    Nanos(covered)
}

/// The union of the leaf spans under `root`: the simulated time the
/// operation can account for, leaf by leaf.  When this equals the root
/// span's duration, the decomposition is complete — every nanosecond of
/// the operation belongs to a concrete leaf cost.
pub fn leaf_coverage(spans: &[SpanRecord], root: u64) -> Nanos {
    let mut intervals: Vec<(Nanos, Nanos)> = leaf_spans(spans, root)
        .iter()
        .map(|s| (s.start, s.end))
        .collect();
    union_coverage(&mut intervals)
}

/// Busy time and utilization of each pipeline lane under `root`.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUsage {
    /// The lane name (the `lane` attribute of its spans).
    pub lane: &'static str,
    /// Summed busy time of the lane's spans.
    pub busy: Nanos,
    /// `busy` as a fraction of the root span's duration.
    pub utilization: f64,
}

/// Per-lane busy summary under `root`: how much of the root span each
/// `lane`-tagged span family was busy.  A lane near 1.0 is the transfer's
/// bottleneck; the gap below 1.0 is fill/drain ramp plus stalls.
pub fn lane_utilization(spans: &[SpanRecord], root: u64) -> Vec<LaneUsage> {
    let Some(root_span) = spans.iter().find(|s| s.id == root) else {
        return Vec::new();
    };
    let total = root_span.duration().as_ns().max(1) as f64;
    let ids = subtree_ids(spans, root);
    let mut by_lane: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| ids.contains(&s.id)) {
        if let Some(lane) = s.attr("lane").and_then(|v| v.as_str()) {
            *by_lane.entry(lane).or_insert(0) += s.duration().as_ns();
        }
    }
    by_lane
        .into_iter()
        .map(|(lane, busy)| LaneUsage {
            lane,
            busy: Nanos(busy),
            utilization: busy as f64 / total,
        })
        .collect()
}

/// The size-class label for a byte count, the granularity of the
/// per-operation latency histograms (aligned with the benchmark sizes).
pub fn size_class(bytes: u64) -> &'static str {
    match bytes {
        0..=1024 => "1K",
        1025..=4096 => "4K",
        4097..=65_536 => "64K",
        65_537..=262_144 => "256K",
        262_145..=1_048_576 => "1M",
        _ => ">1M",
    }
}

/// Builds per-(operation, size-class) latency histograms from every span
/// carrying an `op` string attribute; the size class comes from the
/// span's `bytes` attribute (0 if absent).  Keys sort by op then class.
pub fn op_histograms(spans: &[SpanRecord]) -> BTreeMap<(&'static str, &'static str), Histogram> {
    let mut out: BTreeMap<(&'static str, &'static str), Histogram> = BTreeMap::new();
    for s in spans {
        let Some(op) = s.attr("op").and_then(|v| v.as_str()) else {
            continue;
        };
        let class = size_class(s.attr("bytes").and_then(|v| v.as_u64()).unwrap_or(0));
        out.entry((op, class)).or_default().record(s.duration());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::capture;

    fn on() -> (SimClock, Tracer) {
        let clock = SimClock::new();
        let tracer = Tracer::on(clock.clone());
        (clock, tracer)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        {
            let mut s = t.span("x");
            s.attr("k", 1u64);
        }
        t.instant("y", &[]);
        t.record_at("z", Nanos(0), Nanos(5), &[]);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.export_jsonl(), "");
    }

    #[test]
    fn spans_nest_and_time() {
        let (clock, t) = on();
        {
            let mut outer = t.span("outer");
            outer.attr("op", "read");
            clock.advance(Nanos(10));
            {
                let _inner = t.span("inner");
                clock.advance(Nanos(30));
            }
            clock.advance(Nanos(5));
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.start, Nanos(10));
        assert_eq!(inner.duration(), Nanos(30));
        assert_eq!(outer.duration(), Nanos(45));
        assert_eq!(outer.attr("op"), Some(&AttrValue::Str("read")));
    }

    #[test]
    fn spans_inside_capture_see_pending_time() {
        let (clock, t) = on();
        let ((), log) = capture(|| {
            let _s = t.span("captured");
            clock.advance(Nanos(40));
        });
        drop(log); // never committed: the clock stays at zero...
        assert_eq!(clock.now(), Nanos::ZERO);
        // ...but the span recorded the deferred charge as its duration.
        assert_eq!(t.snapshot()[0].duration(), Nanos(40));
    }

    #[test]
    fn shift_since_moves_later_spans_only() {
        let (clock, t) = on();
        {
            let _a = t.span("a");
            clock.advance(Nanos(10));
        }
        let mark = t.mark();
        {
            let _b = t.span("b");
            clock.advance(Nanos(10));
        }
        t.shift_since(mark, 100);
        let spans = t.snapshot();
        assert_eq!(spans[0].start, Nanos(0)); // a untouched
        assert_eq!(spans[1].start, Nanos(110)); // b shifted
        t.shift_since(mark, -1000); // clamps at zero
        assert_eq!(t.snapshot()[1].start, Nanos::ZERO);
    }

    #[test]
    fn record_at_nests_under_open_span() {
        let (_clock, t) = on();
        {
            let _op = t.span("op");
            t.record_at(
                "manual",
                Nanos(3),
                Nanos(9),
                &[("replica", AttrValue::U64(1))],
            );
        }
        let spans = t.snapshot();
        let manual = spans.iter().find(|s| s.name == "manual").unwrap();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(manual.parent, Some(op.id));
        assert_eq!(manual.duration(), Nanos(6));
    }

    #[test]
    fn leaf_coverage_ignores_interior_spans() {
        let (clock, t) = on();
        {
            let _root = t.span("root");
            {
                let _a = t.span("a");
                // An instant inside `a` annotates it; `a` stays a leaf.
                t.instant("granted", &[]);
                clock.advance(Nanos(10));
            }
            {
                let _b = t.span("b");
                clock.advance(Nanos(20));
            }
        }
        let spans = t.snapshot();
        let root_id = spans.iter().find(|s| s.name == "root").unwrap().id;
        // Leaves a and b tile the root exactly (the instant is a third,
        // zero-width leaf).
        assert_eq!(leaf_coverage(&spans, root_id), Nanos(30));
        assert_eq!(leaf_spans(&spans, root_id).len(), 3);
    }

    #[test]
    fn union_coverage_merges_overlap_and_skips_gaps() {
        let mut iv = vec![
            (Nanos(0), Nanos(10)),
            (Nanos(5), Nanos(15)),  // overlaps the first
            (Nanos(20), Nanos(30)), // gap 15..20 uncounted
        ];
        assert_eq!(union_coverage(&mut iv), Nanos(25));
    }

    #[test]
    fn lane_utilization_sums_by_lane() {
        let (clock, t) = on();
        {
            let _root = t.span("pipe");
            t.record_at(
                "seg",
                Nanos(0),
                Nanos(40),
                &[("lane", AttrValue::Str("disk"))],
            );
            t.record_at(
                "seg",
                Nanos(10),
                Nanos(50),
                &[("lane", AttrValue::Str("wire"))],
            );
            t.record_at(
                "seg",
                Nanos(40),
                Nanos(80),
                &[("lane", AttrValue::Str("disk"))],
            );
            clock.advance(Nanos(100));
        }
        let spans = t.snapshot();
        let root_id = spans.iter().find(|s| s.name == "pipe").unwrap().id;
        let lanes = lane_utilization(&spans, root_id);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].lane, "disk");
        assert_eq!(lanes[0].busy, Nanos(80));
        assert!((lanes[0].utilization - 0.8).abs() < 1e-9);
        assert_eq!(lanes[1].lane, "wire");
        assert_eq!(lanes[1].busy, Nanos(40));
    }

    #[test]
    fn size_classes_bucket_benchmark_sizes() {
        assert_eq!(size_class(0), "1K");
        assert_eq!(size_class(1024), "1K");
        assert_eq!(size_class(1025), "4K");
        assert_eq!(size_class(65_536), "64K");
        assert_eq!(size_class(1 << 20), "1M");
        assert_eq!(size_class((1 << 20) + 1), ">1M");
    }

    #[test]
    fn op_histograms_key_on_op_and_class() {
        let (clock, t) = on();
        for bytes in [1024u64, 1024, 1 << 20] {
            let mut s = t.span("op.read");
            s.attr("op", "read");
            s.attr("bytes", bytes);
            clock.advance(Nanos::from_us(bytes));
            drop(s);
        }
        let h = op_histograms(&t.snapshot());
        assert_eq!(h.len(), 2);
        assert_eq!(h[&("read", "1K")].count(), 2);
        assert_eq!(h[&("read", "1M")].count(), 1);
    }

    #[test]
    fn exporters_emit_every_span() {
        let (clock, t) = on();
        {
            let mut s = t.span("op");
            s.attr("bytes", 7u64);
            clock.advance(Nanos::from_us(3));
            t.instant("lock", &[("contended", AttrValue::Bool(false))]);
            t.record_at(
                "seg",
                Nanos(0),
                Nanos(1000),
                &[("lane", AttrValue::Str("disk"))],
            );
        }
        let jsonl = t.export_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"name\":\"op\""));
        assert!(jsonl.contains("\"bytes\":7"));
        let chrome = t.export_chrome();
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\"")); // the lock instant
        assert!(chrome.contains("lane: disk")); // named track metadata
                                                // Disabled tracers export valid, empty documents.
        let empty = Tracer::off().export_chrome();
        assert!(empty.contains("traceEvents"));
    }

    #[test]
    fn trace_config_round_trip() {
        assert!(!Tracer::off().enabled());
        assert!(!Tracer::default().enabled());
        let on = Tracer::on(SimClock::new());
        assert!(on.enabled());
        // Clones share the span buffer.
        let t2 = on.clone();
        {
            let _s = on.span("x");
        }
        assert_eq!(t2.snapshot().len(), 1);
    }

    #[test]
    fn threads_keep_separate_stacks() {
        let (clock, t) = on();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let t = t.clone();
                let clock = clock.clone();
                s.spawn(move || {
                    let _op = t.span("op");
                    let _inner = t.span("inner");
                    clock.advance(Nanos(5));
                });
            }
        });
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        // Each inner parents to an op recorded by the same thread, never
        // to the other thread's op.
        for inner in spans.iter().filter(|s| s.name == "inner") {
            let parent = spans.iter().find(|s| Some(s.id) == inner.parent).unwrap();
            assert_eq!(parent.name, "op");
        }
    }
}
