//! Pipelined settlement: overlapping stages of a segmented transfer.
//!
//! A large transfer split into segments flows through a fixed set of
//! *stage lanes* (disk read, wire transmit, …).  Within one segment the
//! stages are sequential — a segment cannot be transmitted before it has
//! been read — but across segments each lane is an independent resource:
//! while segment *k* is on the wire, segment *k+1* can be on the disk
//! arm.  The classic pipeline recurrence captures both constraints:
//!
//! ```text
//! finish[k][s] = max(finish[k][s-1], finish[k-1][s]) + cost[k][s]
//! ```
//!
//! The makespan (finish of the last segment's last stage) is therefore at
//! most the sequential sum of every stage cost, and at least the busiest
//! single lane's total — steady-state throughput is set by
//! max(stage costs) with a fill/drain ramp at either end.
//!
//! [`Pipeline::walk`] is the one segment loop: it cuts a transfer into
//! segments and hands each to the caller, whose [`Pipeline::stage`] calls
//! run under [`capture`] and record their costs into the recurrence.  On
//! settlement the charged clocks advance by the *makespan* instead of the
//! sequential sum, prorated per clock by its share of the total charge
//! (exact when all stages charge one shared clock — the usual case in
//! this workspace).
//!
//! The model assumes a segment finished by lane *s* can always be buffered
//! until lane *s+1* is free (no back-pressure).  That is the honest model
//! here: every Bullet transfer stages through a full-size contiguous
//! extent in the RAM cache, so the buffer between the disk lane and the
//! wire lane is the cache arena itself.
//!
//! # Example
//!
//! ```
//! use amoeba_sim::{Nanos, Pipeline, SimClock, Tracer};
//!
//! let clock = SimClock::new();
//! // 4 segments of 64 bytes, each read off the disk and then sent.
//! let makespan = Pipeline::walk(&Tracer::off(), &["disk", "wire"], 256, 64, |pipe, _, _| {
//!     pipe.stage(0, || clock.advance(Nanos(10))); // disk lane
//!     pipe.stage(1, || clock.advance(Nanos(8))); // wire lane
//!     Ok::<(), ()>(())
//! });
//! // 4 disk reads back-to-back, then the last wire transmit drains:
//! assert_eq!(makespan, Ok(Nanos(48)));
//! assert_eq!(clock.now(), Nanos(48)); // not the sequential 72
//! ```

use crate::clock::{capture, Nanos, SimClock};
use crate::trace::Tracer;

/// A pipelined multi-stage transfer being costed (see the module docs).
///
/// [`Pipeline::walk`] begins each segment and settles the pipeline when
/// the walk ends, on success or on the first error alike, so charges are
/// never lost on error paths; the caller runs [`Pipeline::stage`] once
/// per stage of each segment, in lane order.
#[derive(Debug, Default)]
pub struct Pipeline {
    /// Relative finish time of the last item each lane processed.
    lane_ready: Vec<u64>,
    /// Per-lane sum of stage costs (the steady-state lower bound).
    lane_totals: Vec<u64>,
    /// Finish time of the current segment's previous stage.
    seg_prev: u64,
    /// Finish time of the latest stage overall.
    makespan: u64,
    /// Sum of every stage cost (what sequential execution would charge).
    sequential: u64,
    /// Accumulated per-clock charges from all captured stages.
    charges: Vec<(SimClock, u64)>,
    settled: bool,
    /// Span recorder for per-segment lane spans (disabled by default).
    tracer: Tracer,
    /// Display names for the lanes, indexed by lane number.
    lane_names: &'static [&'static str],
    /// Simulated time the pipeline started (the recurrence origin).
    base: Nanos,
    /// Segments begun so far (the current segment is `segments - 1`).
    segments: u64,
}

impl Pipeline {
    /// Walks a transfer of `total` units in segments of `seg` units (the
    /// last one short), calling `step(pipe, off, end)` for each segment
    /// `[off, end)` to run its stages, and returns the makespan.  A
    /// zero-length transfer begins no segment.
    ///
    /// Stages record one span each on `tracer`, named by `lanes` and
    /// tagged with `lane` and `segment` attributes.  The recurrence
    /// *computes* the overlapped schedule rather than replaying it, so
    /// each stage span is placed at its recurrence start time — the union
    /// of the lane spans tiles exactly the window from the walk's start to
    /// its makespan, with every overlap and stall visible.  Spans recorded
    /// *inside* a stage (e.g. mirrored-write replica lanes) are shifted
    /// along with it.
    ///
    /// # Errors
    ///
    /// The first error `step` returns ends the walk; the time the stages
    /// run so far spent is still charged (their recurrence, settled).
    ///
    /// # Panics
    ///
    /// If `seg` is zero.
    pub fn walk<E>(
        tracer: &Tracer,
        lanes: &'static [&'static str],
        total: u64,
        seg: u64,
        mut step: impl FnMut(&mut Pipeline, u64, u64) -> Result<(), E>,
    ) -> Result<Nanos, E> {
        assert!(seg > 0, "a pipeline segment holds at least one unit");
        let mut pipe = Pipeline::with_trace(tracer.clone(), lanes);
        let mut off = 0;
        while off < total {
            let end = (off + seg).min(total);
            pipe.begin_segment();
            // An early return drops `pipe`, which settles it.
            step(&mut pipe, off, end)?;
            off = end;
        }
        Ok(pipe.finish())
    }

    fn new() -> Pipeline {
        Pipeline::default()
    }

    /// A pipeline recording its stage spans on `tracer` (see
    /// [`walk`](Self::walk)).
    fn with_trace(tracer: Tracer, lane_names: &'static [&'static str]) -> Pipeline {
        let base = tracer.now();
        let mut pipe = Pipeline::new();
        pipe.tracer = tracer;
        pipe.lane_names = lane_names;
        pipe.base = base;
        pipe
    }

    /// Starts the next segment: its first stage may begin as soon as the
    /// lane is free, with no dependency on later stages of earlier
    /// segments.
    fn begin_segment(&mut self) {
        self.seg_prev = 0;
        self.segments += 1;
    }

    /// Runs one stage of the current segment on `lane`, deferring its
    /// simulated-time charges into the pipeline, and returns its result.
    ///
    /// Stages of one segment must be issued in lane order (lane 0 first);
    /// the recurrence starts this stage at the later of "its lane is
    /// free" and "the previous stage of this segment finished".
    pub fn stage<T>(&mut self, lane: usize, f: impl FnOnce() -> T) -> T {
        if lane >= self.lane_ready.len() {
            self.lane_ready.resize(lane + 1, 0);
            self.lane_totals.resize(lane + 1, 0);
        }
        // Open the lane span before running the stage so spans recorded
        // inside `f` nest under it; its true interval is only known once
        // the recurrence places the stage, so it closes via `close_at`.
        let traced = self.tracer.enabled();
        let (entry, guard, mark) = if traced {
            let name = self.lane_names.get(lane).copied().unwrap_or("stage");
            let mut g = self.tracer.span(name);
            g.attr("lane", name);
            g.attr("segment", self.segments.saturating_sub(1));
            (self.tracer.now(), Some(g), self.tracer.mark())
        } else {
            (Nanos::ZERO, None, 0)
        };
        let (out, log) = capture(f);
        let cost = log.total().as_ns();
        for (clock, charged) in log.into_entries() {
            match self
                .charges
                .iter_mut()
                .find(|(c, _)| SimClock::ptr_eq(c, &clock))
            {
                Some((_, total)) => *total += charged.as_ns(),
                None => self.charges.push((clock, charged.as_ns())),
            }
        }
        let start = self.lane_ready[lane].max(self.seg_prev);
        let finish = start + cost;
        if let Some(mut g) = guard {
            // Place the lane span at its recurrence schedule, and slide
            // any spans the stage recorded (they were timestamped at the
            // sequential-replay position) into the same window.
            let abs_start = self.base + Nanos(start);
            g.close_at(abs_start, self.base + Nanos(finish));
            drop(g);
            self.tracer
                .shift_since(mark, abs_start.as_ns() as i64 - entry.as_ns() as i64);
        }
        self.lane_ready[lane] = finish;
        self.lane_totals[lane] += cost;
        self.seg_prev = finish;
        self.makespan = self.makespan.max(finish);
        self.sequential += cost;
        out
    }

    /// The elapsed time of the overlapped execution so far.
    pub fn makespan(&self) -> Nanos {
        Nanos(self.makespan)
    }

    /// What strictly sequential execution of the same stages would charge.
    pub fn sequential_total(&self) -> Nanos {
        Nanos(self.sequential)
    }

    /// The busiest lane's total cost (the steady-state lower bound on the
    /// makespan).
    pub fn max_lane_total(&self) -> Nanos {
        Nanos(self.lane_totals.iter().copied().max().unwrap_or(0))
    }

    /// Settles the pipeline: advances the charged clocks by the makespan
    /// (prorated per clock by its share of the total charge) and returns
    /// the makespan.
    fn finish(mut self) -> Nanos {
        self.settle();
        Nanos(self.makespan)
    }

    fn settle(&mut self) {
        if self.settled {
            return;
        }
        self.settled = true;
        let total: u64 = self.charges.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return;
        }
        // Prorate the makespan over the clocks by charge share; the
        // rounding remainder goes to the most-charged clock so that the
        // advances sum to the makespan exactly.
        let mut advances: Vec<u64> = self
            .charges
            .iter()
            .map(|(_, c)| (self.makespan as u128 * *c as u128 / total as u128) as u64)
            .collect();
        let distributed: u64 = advances.iter().sum();
        if let Some(biggest) = (0..advances.len()).max_by_key(|&i| self.charges[i].1) {
            advances[biggest] += self.makespan - distributed;
        }
        for ((clock, _), adv) in self.charges.iter().zip(advances) {
            clock.advance(Nanos(adv));
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_lane_pipeline_overlaps() {
        let c = SimClock::new();
        let mut pipe = Pipeline::new();
        for _ in 0..4 {
            pipe.begin_segment();
            pipe.stage(0, || c.advance(Nanos(10)));
            pipe.stage(1, || c.advance(Nanos(8)));
        }
        assert_eq!(pipe.sequential_total(), Nanos(72));
        assert_eq!(pipe.max_lane_total(), Nanos(40));
        let makespan = pipe.finish();
        // Disk lane saturates (4×10), then the last transmit drains (+8).
        assert_eq!(makespan, Nanos(48));
        assert_eq!(c.now(), Nanos(48));
    }

    #[test]
    fn makespan_bounded_by_sequential_and_max_lane() {
        let c = SimClock::new();
        let costs = [(7u64, 13u64), (20, 3), (5, 5), (11, 17)];
        let mut pipe = Pipeline::new();
        for (disk, wire) in costs {
            pipe.begin_segment();
            pipe.stage(0, || c.advance(Nanos(disk)));
            pipe.stage(1, || c.advance(Nanos(wire)));
        }
        let seq = pipe.sequential_total();
        let lane = pipe.max_lane_total();
        let makespan = pipe.finish();
        assert!(makespan <= seq, "{makespan} > sequential {seq}");
        assert!(makespan >= lane, "{makespan} < busiest lane {lane}");
        assert_eq!(c.now(), makespan);
    }

    #[test]
    fn single_segment_degenerates_to_sequential() {
        let c = SimClock::new();
        let mut pipe = Pipeline::new();
        pipe.begin_segment();
        pipe.stage(0, || c.advance(Nanos(10)));
        pipe.stage(1, || c.advance(Nanos(8)));
        assert_eq!(pipe.finish(), Nanos(18));
        assert_eq!(c.now(), Nanos(18));
    }

    #[test]
    fn wire_bound_pipeline_drains_on_wire() {
        let c = SimClock::new();
        let mut pipe = Pipeline::new();
        for _ in 0..3 {
            pipe.begin_segment();
            pipe.stage(0, || c.advance(Nanos(4)));
            pipe.stage(1, || c.advance(Nanos(10)));
        }
        // Fill (first read, 4) then the wire lane saturates (3×10).
        assert_eq!(pipe.finish(), Nanos(34));
    }

    #[test]
    fn stage_results_pass_through() {
        let c = SimClock::new();
        let mut pipe = Pipeline::new();
        pipe.begin_segment();
        let v = pipe.stage(0, || {
            c.advance(Nanos(1));
            42
        });
        assert_eq!(v, 42);
        pipe.finish();
    }

    #[test]
    fn drop_settles_charges() {
        let c = SimClock::new();
        {
            let mut pipe = Pipeline::new();
            pipe.begin_segment();
            pipe.stage(0, || c.advance(Nanos(25)));
            // Dropped without finish() — e.g. an error return mid-transfer.
        }
        assert_eq!(c.now(), Nanos(25));
    }

    #[test]
    fn multi_clock_advances_sum_to_makespan() {
        let disk = SimClock::new();
        let net = SimClock::new();
        let mut pipe = Pipeline::new();
        for _ in 0..5 {
            pipe.begin_segment();
            pipe.stage(0, || disk.advance(Nanos(30)));
            pipe.stage(1, || net.advance(Nanos(10)));
        }
        let makespan = pipe.finish();
        assert_eq!(makespan, Nanos(160));
        assert_eq!(disk.now() + net.now(), makespan);
        // Shares reflect the charge ratio (3:1) within rounding.
        assert!(disk.now() > net.now());
    }

    #[test]
    fn nests_inside_an_outer_capture() {
        let c = SimClock::new();
        let ((), log) = capture(|| {
            let mut pipe = Pipeline::new();
            for _ in 0..2 {
                pipe.begin_segment();
                pipe.stage(0, || c.advance(Nanos(10)));
                pipe.stage(1, || c.advance(Nanos(6)));
            }
            assert_eq!(pipe.finish(), Nanos(26));
        });
        assert_eq!(c.now(), Nanos::ZERO);
        assert_eq!(log.total(), Nanos(26));
    }

    #[test]
    fn empty_pipeline_is_free() {
        let pipe = Pipeline::new();
        assert_eq!(pipe.finish(), Nanos::ZERO);
    }

    #[test]
    fn traced_pipeline_places_spans_on_the_recurrence() {
        let c = SimClock::new();
        c.advance(Nanos(1000)); // pipeline starts mid-simulation
        let tracer = Tracer::on(c.clone());
        let mut pipe = Pipeline::with_trace(tracer.clone(), &["disk", "wire"]);
        for _ in 0..3 {
            pipe.begin_segment();
            pipe.stage(0, || c.advance(Nanos(10)));
            pipe.stage(1, || c.advance(Nanos(8)));
        }
        let makespan = pipe.finish();
        assert_eq!(makespan, Nanos(38));
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 6);
        // Disk lane back-to-back from the base; wire lane waits for each
        // segment's read, overlapping the next read.
        let at = |name: &str, seg: u64| {
            spans
                .iter()
                .find(|s| s.name == name && s.attr("segment").and_then(|v| v.as_u64()) == Some(seg))
                .unwrap()
        };
        assert_eq!(
            (at("disk", 0).start, at("disk", 0).end),
            (Nanos(1000), Nanos(1010))
        );
        assert_eq!(
            (at("disk", 2).start, at("disk", 2).end),
            (Nanos(1020), Nanos(1030))
        );
        assert_eq!(
            (at("wire", 0).start, at("wire", 0).end),
            (Nanos(1010), Nanos(1018))
        );
        assert_eq!(
            (at("wire", 2).start, at("wire", 2).end),
            (Nanos(1030), Nanos(1038))
        );
        // The union of the lane spans tiles [base, base + makespan].
        let mut iv: Vec<(Nanos, Nanos)> = spans.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(crate::trace::union_coverage(&mut iv), makespan);
    }

    #[test]
    fn traced_pipeline_shifts_child_spans_with_their_stage() {
        let c = SimClock::new();
        let tracer = Tracer::on(c.clone());
        let mut pipe = Pipeline::with_trace(tracer.clone(), &["disk", "wire"]);
        for _ in 0..2 {
            pipe.begin_segment();
            pipe.stage(0, || c.advance(Nanos(10)));
            pipe.stage(1, || {
                // A span recorded inside the stage (like a replica write).
                let _child = tracer.span("inner");
                c.advance(Nanos(6));
            });
        }
        pipe.finish();
        let spans = tracer.snapshot();
        // Segment 1's wire stage starts at the recurrence time 20 (wire
        // free at 16, but the segment's disk read finishes at 20); the
        // child recorded inside it must sit in the same window.
        let wire1 = spans
            .iter()
            .find(|s| s.name == "wire" && s.attr("segment").and_then(|v| v.as_u64()) == Some(1))
            .unwrap();
        assert_eq!((wire1.start, wire1.end), (Nanos(20), Nanos(26)));
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "inner" && s.parent == Some(wire1.id))
            .collect();
        assert_eq!(children.len(), 1);
        assert_eq!((children[0].start, children[0].end), (Nanos(20), Nanos(26)));
    }

    #[test]
    fn walk_of_zero_units_begins_no_segment() {
        let c = SimClock::new();
        let walked = Pipeline::walk(&Tracer::off(), &[], 0, 64, |_, _, _| -> Result<(), ()> {
            c.advance(Nanos(1));
            panic!("a zero-length transfer has no segment");
        });
        assert_eq!(walked, Ok(Nanos::ZERO));
        assert_eq!(c.now(), Nanos::ZERO);
    }

    #[test]
    fn walk_cuts_ceil_total_over_seg_segments_the_last_short() {
        let mut seen = Vec::new();
        let walked = Pipeline::walk(&Tracer::off(), &[], 10, 4, |pipe, off, end| {
            seen.push((pipe.segments, off, end));
            Ok::<(), ()>(())
        });
        assert_eq!(walked, Ok(Nanos::ZERO));
        assert_eq!(seen, [(1, 0, 4), (2, 4, 8), (3, 8, 10)]);
        let count = |total: u64, seg: u64| {
            let mut n = 0u64;
            let _ = Pipeline::walk(&Tracer::off(), &[], total, seg, |_, _, _| {
                n += 1;
                Ok::<(), ()>(())
            });
            n
        };
        for (total, seg) in [(1, 1), (64, 64), (65, 64), (128, 64), (1 << 20, 65_536)] {
            assert_eq!(count(total, seg), total.div_ceil(seg), "{total} / {seg}");
        }
    }

    #[test]
    fn walk_returns_the_first_error_and_charges_the_stages_run() {
        let c = SimClock::new();
        let mut segments = 0;
        let walked = Pipeline::walk(&Tracer::off(), &[], 5, 1, |pipe, off, _| {
            segments += 1;
            pipe.stage(0, || c.advance(Nanos(10)));
            if off == 2 {
                return Err("segment 2");
            }
            pipe.stage(1, || c.advance(Nanos(8)));
            Ok(())
        });
        assert_eq!(walked, Err("segment 2"));
        assert_eq!(segments, 3, "the walk stops at the failing segment");
        // Disk 0 [0,10], wire 0 [10,18], disk 1 [10,20], wire 1 [20,28],
        // disk 2 [20,30]: the recurrence, not the sequential 46.
        assert_eq!(c.now(), Nanos(30));
    }

    #[test]
    fn untraced_pipeline_times_match_traced() {
        let run = |traced: bool| {
            let c = SimClock::new();
            let t = if traced {
                Tracer::on(c.clone())
            } else {
                Tracer::off()
            };
            let mut pipe = Pipeline::with_trace(t, &["a", "b"]);
            for _ in 0..4 {
                pipe.begin_segment();
                pipe.stage(0, || c.advance(Nanos(7)));
                pipe.stage(1, || c.advance(Nanos(11)));
            }
            pipe.finish();
            c.now()
        };
        assert_eq!(run(false), run(true));
    }
}
