//! Ring-buffer time series on the simulated clock: the flight recorder.
//!
//! Counters ([`crate::Stats`]) answer *how many since boot* and spans
//! ([`crate::Tracer`]) answer *how long did this one op take* — neither
//! can answer *what was the server doing over the last N seconds*.  A
//! [`Telemetry`] handle records **time series**: fixed-capacity ring
//! buffers of `(simulated time, value)` samples, one ring per named
//! series (optionally per instance, e.g. one per disk).  Two sample
//! kinds:
//!
//! * **gauges** — a level sampled periodically (queue depth, arm
//!   position, cache occupancy, allocator free space), recorded with
//!   [`Telemetry::gauge`];
//! * **counter deltas** — the increase of a monotone counter since the
//!   previous sampling tick ([`Telemetry::counter_delta`]), turning the
//!   cumulative [`crate::Stats`] table into rates.
//!
//! Memory is constant: each ring holds at most `capacity` samples and
//! overwrites its oldest (counting the overwrites), so a million-op run
//! keeps the *tail* of every timeline — a flight recorder, not an
//! unbounded log.  After the first sample of a series, recording never
//! allocates.
//!
//! Sampling cadence is pulled, not pushed: hot paths call
//! [`Telemetry::tick`] with the current simulated time, which returns
//! `true` at most once per sampling period — the caller then reads its
//! gauges and records them.  A disabled handle ([`Telemetry::off`], the
//! default) never reads a clock, allocates, or takes a lock, and an
//! enabled one never *advances* the simulated clock, so — exactly like
//! the [`crate::trace`] contract — telemetry on or off, the simulated
//! timeline is bit-identical (ABL17 proves it by digest).
//!
//! An SLO watchdog rides on the recording path: committed thresholds
//! (a ceiling per series) are evaluated as samples arrive, and crossings emit
//! structured [`SloEvent`]s (degraded/recovered) into a bounded buffer —
//! the machine-readable "the server is in trouble *now*" signal ABL17
//! consumes.
//!
//! # Example
//!
//! ```
//! use amoeba_sim::{Nanos, Telemetry};
//!
//! let t = Telemetry::on(Nanos::from_ms(10), 1024);
//! t.watch("queue ceiling", "disk_queue_depth", 8);
//! let mut now = Nanos::ZERO;
//! for depth in [2u64, 3, 12, 4] {
//!     now = now + Nanos::from_ms(10);
//!     if t.tick(now) {
//!         t.gauge("disk_queue_depth", 0, now, depth);
//!     }
//! }
//! assert_eq!(t.series("disk_queue_depth", 0).len(), 4);
//! let events = t.slo_events();
//! assert_eq!(events.len(), 2); // degraded at depth 12, recovered at 4
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::Nanos;
use crate::stats::Stats;

/// What a series records: a sampled level or a per-period counter delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// A level read at each sampling tick (queue depth, occupancy).
    Gauge,
    /// The increase of a monotone counter since the previous tick.
    Delta,
}

impl SeriesKind {
    /// Stable lower-case label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Delta => "delta",
        }
    }
}

/// One sample: a value at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Simulated time the sample was taken.
    pub at: Nanos,
    /// The sampled value (level for gauges, increase for deltas).
    pub value: u64,
}

#[derive(Debug)]
struct Ring {
    name: &'static str,
    instance: u32,
    kind: SeriesKind,
    /// Previous cumulative total, for [`SeriesKind::Delta`] rings.
    last_total: u64,
    /// Pre-allocated storage; once full, `pos` wraps and overwrites.
    samples: Vec<Sample>,
    /// Next write position once the ring is full.
    pos: usize,
    /// Samples overwritten after the ring filled.
    dropped: u64,
}

impl Ring {
    fn new(name: &'static str, instance: u32, kind: SeriesKind, capacity: usize) -> Ring {
        Ring {
            name,
            instance,
            kind,
            last_total: 0,
            samples: Vec::with_capacity(capacity.max(1)),
            pos: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, s: Sample) {
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(s);
        } else {
            self.samples[self.pos] = s;
            self.pos = (self.pos + 1) % self.samples.len();
            self.dropped += 1;
        }
    }

    /// Samples in time order (oldest surviving first).
    fn ordered(&self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.samples.len());
        out.extend_from_slice(&self.samples[self.pos..]);
        out.extend_from_slice(&self.samples[..self.pos]);
        out
    }
}

/// Whether an [`SloEvent`] opened or closed a degradation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// The watched value crossed above its ceiling.
    Degraded,
    /// A previously degraded series dropped back under its ceiling.
    Recovered,
}

impl SloKind {
    /// Stable lower-case label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SloKind::Degraded => "degraded",
            SloKind::Recovered => "recovered",
        }
    }
}

/// One structured degradation event emitted by the watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloEvent {
    /// Simulated time of the sample that crossed the threshold.
    pub at: Nanos,
    /// Opened or closed a degradation window.
    pub kind: SloKind,
    /// The committed threshold's name (e.g. `"queue ceiling"`).
    pub slo: &'static str,
    /// The series that crossed.
    pub series: &'static str,
    /// The series instance (disk number etc.).
    pub instance: u32,
    /// The offending sample value.
    pub value: u64,
    /// The committed ceiling it crossed.
    pub ceiling: u64,
}

#[derive(Debug)]
struct SloSpec {
    slo: &'static str,
    series: &'static str,
    ceiling: u64,
}

/// Bound on retained [`SloEvent`]s; later events are counted, not kept.
const SLO_EVENT_CAP: usize = 4096;

/// The SLO watchdog state: committed thresholds plus the currently
/// degraded `(spec, instance)` pairs, so each window emits exactly one
/// degraded and one recovered event however many samples land inside it.
#[derive(Debug, Default)]
struct SloWatchdogState {
    specs: Vec<SloSpec>,
    active: Vec<(usize, u32)>,
    events: Vec<SloEvent>,
    suppressed: u64,
}

impl SloWatchdogState {
    fn emit(&mut self, e: SloEvent) {
        if self.events.len() < SLO_EVENT_CAP {
            self.events.push(e);
        } else {
            self.suppressed += 1;
        }
    }

    fn observe(&mut self, series: &'static str, instance: u32, at: Nanos, value: u64) {
        for i in 0..self.specs.len() {
            if self.specs[i].series != series {
                continue;
            }
            let ceiling = self.specs[i].ceiling;
            let key = (i, instance);
            let active = self.active.contains(&key);
            if value > ceiling && !active {
                self.active.push(key);
                self.emit(SloEvent {
                    at,
                    kind: SloKind::Degraded,
                    slo: self.specs[i].slo,
                    series,
                    instance,
                    value,
                    ceiling,
                });
            } else if value <= ceiling && active {
                self.active.retain(|k| *k != key);
                self.emit(SloEvent {
                    at,
                    kind: SloKind::Recovered,
                    slo: self.specs[i].slo,
                    series,
                    instance,
                    value,
                    ceiling,
                });
            }
        }
    }
}

#[derive(Debug)]
struct TelemetryInner {
    period: Nanos,
    capacity: usize,
    /// First simulated nanosecond at which [`Telemetry::tick`] fires next.
    next_due: AtomicU64,
    rings: Mutex<Vec<Ring>>,
    watchdog: Mutex<SloWatchdogState>,
}

/// The flight recorder handle (see the module docs).  Cloning shares the
/// rings; the default handle is disabled.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// A disabled recorder: every call is a no-op that never reads a
    /// clock, allocates, or locks, and [`tick`](Self::tick) is always
    /// `false` — the instrumented layers do no gauge reads at all.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled recorder sampling every `period` of simulated time,
    /// keeping the most recent `capacity` samples per series.
    pub fn on(period: Nanos, capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                period: Nanos(period.as_ns().max(1)),
                capacity: capacity.max(1),
                next_due: AtomicU64::new(0),
                rings: Mutex::new(Vec::new()),
                watchdog: Mutex::new(SloWatchdogState::default()),
            })),
        }
    }

    /// True if samples are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sampling period ([`Nanos::ZERO`] when disabled).
    pub fn period(&self) -> Nanos {
        self.inner.as_ref().map_or(Nanos::ZERO, |i| i.period)
    }

    /// Returns `true` at most once per sampling period: the caller that
    /// wins the tick reads its gauges and records them at `now`.  On a
    /// disabled handle this is one branch — no clock, no lock.
    pub fn tick(&self, now: Nanos) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let ns = now.as_ns();
        inner
            .next_due
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |due| {
                (ns >= due).then_some(ns.saturating_add(inner.period.as_ns()))
            })
            .is_ok()
    }

    /// Records a gauge sample and runs it past the watchdog.
    pub fn gauge(&self, name: &'static str, instance: u32, at: Nanos, value: u64) {
        self.record(name, instance, SeriesKind::Gauge, at, value);
    }

    /// Records the increase of a monotone counter since the previous call
    /// for this series (the first call records the total itself, from an
    /// implicit zero).  The *delta* is what lands in the ring and what
    /// the watchdog sees — a rate per sampling period.
    pub fn counter_delta(&self, name: &'static str, instance: u32, at: Nanos, total: u64) {
        let Some(inner) = &self.inner else { return };
        let delta = {
            let mut rings = inner.rings.lock();
            let ring = Telemetry::ring_mut(&mut rings, name, instance, SeriesKind::Delta, inner);
            let delta = total.saturating_sub(ring.last_total);
            ring.last_total = total;
            ring.push(Sample { at, value: delta });
            delta
        };
        inner.watchdog.lock().observe(name, instance, at, delta);
    }

    /// Records counter deltas for every named counter in `stats`, all
    /// under instance 0 — the periodic "rates" half of a sampling tick.
    pub fn sample_counters(&self, at: Nanos, stats: &Stats, names: &[&'static str]) {
        if self.inner.is_none() {
            return;
        }
        for name in names {
            self.counter_delta(name, 0, at, stats.get(name));
        }
    }

    fn record(&self, name: &'static str, instance: u32, kind: SeriesKind, at: Nanos, value: u64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut rings = inner.rings.lock();
            let ring = Telemetry::ring_mut(&mut rings, name, instance, kind, inner);
            ring.push(Sample { at, value });
        }
        inner.watchdog.lock().observe(name, instance, at, value);
    }

    fn ring_mut<'a>(
        rings: &'a mut Vec<Ring>,
        name: &'static str,
        instance: u32,
        kind: SeriesKind,
        inner: &TelemetryInner,
    ) -> &'a mut Ring {
        // Linear scan: the series population is small (tens) and fixed
        // after warm-up, and sampling runs once per period, not per op.
        let idx = match rings
            .iter()
            .position(|r| r.name == name && r.instance == instance)
        {
            Some(i) => i,
            None => {
                rings.push(Ring::new(name, instance, kind, inner.capacity));
                rings.len() - 1
            }
        };
        &mut rings[idx]
    }

    /// Registers a committed threshold: samples of `series` (any
    /// instance) above `ceiling` open a degradation window.
    pub fn watch(&self, slo: &'static str, series: &'static str, ceiling: u64) {
        let Some(inner) = &self.inner else { return };
        inner.watchdog.lock().specs.push(SloSpec {
            slo,
            series,
            ceiling,
        });
    }

    /// Every watchdog event so far, in emission order.
    pub fn slo_events(&self) -> Vec<SloEvent> {
        self.inner
            .as_ref()
            .map_or(Vec::new(), |i| i.watchdog.lock().events.clone())
    }

    /// The samples of one series in time order (empty if unknown).
    pub fn series(&self, name: &str, instance: u32) -> Vec<Sample> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .rings
            .lock()
            .iter()
            .find(|r| r.name == name && r.instance == instance)
            .map_or(Vec::new(), Ring::ordered)
    }

    /// `(name, instance, kind, live samples, overwritten samples)` for
    /// every series, sorted by name then instance.
    pub fn series_index(&self) -> Vec<(&'static str, u32, SeriesKind, usize, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<_> = inner
            .rings
            .lock()
            .iter()
            .map(|r| (r.name, r.instance, r.kind, r.samples.len(), r.dropped))
            .collect();
        out.sort();
        out
    }

    /// Exports every ring as JSON Lines: one object per sample with
    /// `series`, `instance`, `kind`, `t_ns`, and `v`, ordered by series
    /// name, instance, then time — the flight-recorder dump format.
    pub fn export_jsonl(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut rings: Vec<(&'static str, u32, SeriesKind, Vec<Sample>)> = inner
            .rings
            .lock()
            .iter()
            .map(|r| (r.name, r.instance, r.kind, r.ordered()))
            .collect();
        rings.sort_by_key(|(name, instance, _, _)| (*name, *instance));
        let mut out = String::new();
        for (name, instance, kind, samples) in rings {
            for s in samples {
                let _ = writeln!(
                    out,
                    "{{\"series\":\"{name}\",\"instance\":{instance},\"kind\":\"{}\",\"t_ns\":{},\"v\":{}}}",
                    kind.label(),
                    s.at.as_ns(),
                    s.value
                );
            }
        }
        out
    }

    /// Chrome trace counter events (`"ph":"C"`), one per sample: loaded
    /// beside a span trace in Perfetto, each series renders as a counter
    /// track under the spans.  Instances become `name[i]` track names.
    pub fn chrome_counter_events(&self) -> Vec<String> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut rings: Vec<(&'static str, u32, Vec<Sample>)> = inner
            .rings
            .lock()
            .iter()
            .map(|r| (r.name, r.instance, r.ordered()))
            .collect();
        rings.sort_by_key(|(name, instance, _)| (*name, *instance));
        let mut events = Vec::new();
        let multi: Vec<&'static str> = {
            let mut seen: Vec<&'static str> = Vec::new();
            let mut multi = Vec::new();
            for (name, _, _) in &rings {
                if seen.contains(name) {
                    if !multi.contains(name) {
                        multi.push(name);
                    }
                } else {
                    seen.push(name);
                }
            }
            multi
        };
        for (name, instance, samples) in &rings {
            let track = if multi.contains(name) {
                format!("{name}[{instance}]")
            } else {
                (*name).to_string()
            };
            for s in samples {
                events.push(format!(
                    "{{\"name\":\"{track}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"args\":{{\"{name}\":{}}}}}",
                    s.at.as_ns() as f64 / 1000.0,
                    s.value
                ));
            }
        }
        events
    }

    /// The counter events wrapped as one standalone Chrome trace JSON
    /// document (Perfetto-loadable on its own).
    pub fn export_chrome(&self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            self.chrome_counter_events().join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_does_nothing() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        assert!(!t.tick(Nanos::from_ms(99)));
        t.gauge("g", 0, Nanos::ZERO, 7);
        t.counter_delta("c", 0, Nanos::ZERO, 7);
        t.watch("slo", "g", 1);
        assert!(t.series("g", 0).is_empty());
        assert!(t.slo_events().is_empty());
        assert!(t.series_index().is_empty());
        assert_eq!(t.export_jsonl(), "");
        assert!(t.chrome_counter_events().is_empty());
    }

    #[test]
    fn tick_fires_once_per_period() {
        let t = Telemetry::on(Nanos::from_ms(10), 16);
        assert!(t.tick(Nanos::ZERO), "first tick fires immediately");
        assert!(!t.tick(Nanos::from_ms(5)));
        assert!(!t.tick(Nanos::from_ms(9)));
        assert!(t.tick(Nanos::from_ms(10)));
        assert!(!t.tick(Nanos::from_ms(19)));
        // A long quiet gap yields one tick, not a backlog of catch-ups.
        assert!(t.tick(Nanos::from_ms(500)));
        assert!(!t.tick(Nanos::from_ms(505)));
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_overwrites() {
        let t = Telemetry::on(Nanos::from_us(1), 4);
        for i in 0..10u64 {
            t.gauge("depth", 0, Nanos::from_us(i), i);
        }
        let tail = t.series("depth", 0);
        assert_eq!(tail.len(), 4);
        assert_eq!(
            tail.iter().map(|s| s.value).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest samples overwritten, order preserved"
        );
        let index = t.series_index();
        assert_eq!(index, vec![("depth", 0, SeriesKind::Gauge, 4, 6)]);
    }

    #[test]
    fn counter_deltas_turn_totals_into_rates() {
        let t = Telemetry::on(Nanos::from_ms(1), 16);
        let stats = Stats::new();
        stats.add("reads", 5);
        t.sample_counters(Nanos::from_ms(1), &stats, &["reads"]);
        stats.add("reads", 12);
        t.sample_counters(Nanos::from_ms(2), &stats, &["reads"]);
        t.sample_counters(Nanos::from_ms(3), &stats, &["reads"]);
        let s = t.series("reads", 0);
        assert_eq!(s.iter().map(|x| x.value).collect::<Vec<_>>(), [5, 12, 0]);
    }

    #[test]
    fn instances_are_distinct_series() {
        let t = Telemetry::on(Nanos::from_ms(1), 8);
        t.gauge("depth", 0, Nanos::from_ms(1), 1);
        t.gauge("depth", 1, Nanos::from_ms(1), 9);
        assert_eq!(t.series("depth", 0).len(), 1);
        assert_eq!(t.series("depth", 1)[0].value, 9);
    }

    #[test]
    fn watchdog_emits_one_event_pair_per_window() {
        let t = Telemetry::on(Nanos::from_ms(1), 64);
        t.watch("queue ceiling", "depth", 8);
        for (ms, v) in [(1u64, 2u64), (2, 12), (3, 30), (4, 8), (5, 3), (6, 1)] {
            t.gauge("depth", 0, Nanos::from_ms(ms), v);
        }
        let events = t.slo_events();
        assert_eq!(events.len(), 2, "one degraded + one recovered: {events:?}");
        assert_eq!(events[0].kind, SloKind::Degraded);
        assert_eq!(events[0].at, Nanos::from_ms(2));
        assert_eq!(events[0].value, 12);
        assert_eq!(events[0].ceiling, 8);
        assert_eq!(events[1].kind, SloKind::Recovered);
        assert_eq!(events[1].at, Nanos::from_ms(4));
    }

    #[test]
    fn watchdog_tracks_instances_independently() {
        let t = Telemetry::on(Nanos::from_ms(1), 64);
        t.watch("queue ceiling", "depth", 4);
        t.gauge("depth", 0, Nanos::from_ms(1), 9);
        t.gauge("depth", 1, Nanos::from_ms(1), 1);
        t.gauge("depth", 1, Nanos::from_ms(2), 7);
        let degraded: Vec<u32> = t
            .slo_events()
            .iter()
            .filter(|e| e.kind == SloKind::Degraded)
            .map(|e| e.instance)
            .collect();
        assert_eq!(degraded, vec![0, 1]);
    }

    #[test]
    fn exports_are_ordered_and_shaped() {
        let t = Telemetry::on(Nanos::from_ms(1), 8);
        t.gauge("depth", 1, Nanos::from_ms(2), 5);
        t.gauge("depth", 0, Nanos::from_ms(1), 3);
        t.counter_delta("reads", 0, Nanos::from_ms(1), 4);
        let jsonl = t.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"series\":\"depth\"") && lines[0].contains("\"instance\":0"));
        assert!(lines[1].contains("\"instance\":1"));
        assert!(lines[2].contains("\"kind\":\"delta\""));
        let chrome = t.export_chrome();
        assert!(chrome.contains("\"ph\":\"C\""));
        // Multi-instance series get disambiguated track names.
        assert!(chrome.contains("\"name\":\"depth[0]\""));
        assert!(chrome.contains("\"name\":\"depth[1]\""));
        assert!(chrome.contains("\"name\":\"reads\""));
    }

    #[test]
    fn clones_share_the_recorder() {
        let a = Telemetry::on(Nanos::from_ms(1), 8);
        let b = a.clone();
        b.gauge("depth", 0, Nanos::from_ms(1), 2);
        assert_eq!(a.series("depth", 0).len(), 1);
        // Only one clone wins each tick.
        assert!(a.tick(Nanos::from_ms(1)));
        assert!(!b.tick(Nanos::from_ms(1)));
    }

    #[test]
    fn config_mirrors_the_trace_switch() {
        assert!(!Telemetry::off().enabled());
        assert!(!Telemetry::default().enabled());
        let on = Telemetry::on(Nanos::from_ms(10), 256);
        assert!(on.enabled());
        assert_eq!(on.period(), Nanos::from_ms(10));
    }
}
