//! The contiguous-extent allocator for the data area.
//!
//! "By scanning the inodes it can figure out which parts of disk are free.
//! It uses this information to build a free list in RAM. … For this we use
//! a first fit strategy." (§3)
//!
//! The same allocator manages the RAM cache arena (with byte-sized units),
//! so external fragmentation — the cost the paper consciously accepts — is
//! real in both places, and compaction ("every morning at say 3 am") is
//! implemented as a move plan over the live extents.

use std::collections::BTreeMap;

use crate::BulletError;

/// A single relocation step of a compaction plan: copy `len` units from
/// `from` to `to` (`to < from` always, so applying the moves in order is
/// safe even for overlapping source/target ranges when done unit-wise
/// front-to-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Source start unit.
    pub from: u64,
    /// Destination start unit.
    pub to: u64,
    /// Length in units.
    pub len: u64,
}

/// Fragmentation snapshot of an allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragReport {
    /// Units managed in total.
    pub total: u64,
    /// Units currently free.
    pub free: u64,
    /// Size of the largest free hole.
    pub largest_hole: u64,
    /// Number of distinct holes.
    pub hole_count: u64,
    /// External fragmentation: `1 - largest_hole / free` (0 when free
    /// space is one hole; → 1 as free space shatters).
    pub external_fragmentation: f64,
}

/// A first-fit extent allocator over the half-open unit range
/// `[range_start, range_end)`.
///
/// Units are disk blocks for the data area and bytes for the RAM cache.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    range_start: u64,
    range_end: u64,
    /// Holes keyed by start unit → length.
    holes: BTreeMap<u64, u64>,
    /// Cached sum of hole lengths, so [`free_units`](Self::free_units) is
    /// O(1) — the cache insert loop polls it once per eviction.
    free: u64,
    /// Upper bound on the largest hole length.  Never below the true
    /// maximum, so `len > max_hole_ub` proves no hole fits and a failing
    /// first-fit probe costs O(1) instead of a full scan.  Tightened to
    /// the exact maximum whenever a probe does scan everything and fail.
    max_hole_ub: u64,
}

impl ExtentAllocator {
    /// An allocator whose whole range is one free hole.
    ///
    /// # Panics
    ///
    /// Panics if `range_end < range_start`.
    pub fn new(range_start: u64, range_end: u64) -> ExtentAllocator {
        assert!(range_end >= range_start, "inverted range");
        let mut holes = BTreeMap::new();
        if range_end > range_start {
            holes.insert(range_start, range_end - range_start);
        }
        ExtentAllocator {
            range_start,
            range_end,
            holes,
            free: range_end - range_start,
            max_hole_ub: range_end - range_start,
        }
    }

    /// Rebuilds an allocator from the extents already in use (the start-up
    /// scan of the inode table).
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] if extents overlap or leave the range —
    /// the paper's start-up consistency check ("to make sure that files do
    /// not overlap").
    pub fn from_used(
        range_start: u64,
        range_end: u64,
        used: &[(u64, u64)],
    ) -> Result<ExtentAllocator, BulletError> {
        let mut sorted: Vec<(u64, u64)> = used.iter().copied().filter(|&(_, l)| l > 0).collect();
        sorted.sort_unstable();
        let mut alloc = ExtentAllocator {
            range_start,
            range_end,
            holes: BTreeMap::new(),
            free: 0,
            max_hole_ub: 0,
        };
        let mut cursor = range_start;
        for &(start, len) in &sorted {
            let end = start.checked_add(len).ok_or_else(|| {
                BulletError::Corrupt(format!("extent at {start} overflows the address space"))
            })?;
            if start < cursor {
                return Err(BulletError::Corrupt(format!(
                    "extent at {start} overlaps the previous extent or the control area"
                )));
            }
            if end > range_end {
                return Err(BulletError::Corrupt(format!(
                    "extent [{start}, {end}) leaves the data area (end {range_end})"
                )));
            }
            if start > cursor {
                alloc.holes.insert(cursor, start - cursor);
            }
            cursor = end;
        }
        if cursor < range_end {
            alloc.holes.insert(cursor, range_end - cursor);
        }
        alloc.free = alloc.holes.values().sum();
        alloc.max_hole_ub = alloc.holes.values().copied().max().unwrap_or(0);
        Ok(alloc)
    }

    /// Allocates `len` contiguous units, first-fit.  Returns the start
    /// unit, or `None` if no hole is large enough.
    pub fn alloc(&mut self, len: u64) -> Option<u64> {
        if len == 0 || len > self.max_hole_ub {
            // `max_hole_ub` never underestimates, so this rejection is
            // exactly what the full scan would conclude.
            return None;
        }
        let mut seen_max = 0u64;
        let found = self.holes.iter().find(|&(_, &l)| {
            seen_max = seen_max.max(l);
            l >= len
        });
        let Some((&start, &hole_len)) = found else {
            // The scan visited every hole: the bound is now exact, and
            // further probes this large fail in O(1) until a free or a
            // compaction grows a hole.
            self.max_hole_ub = seen_max;
            return None;
        };
        self.holes.remove(&start);
        self.free -= len;
        if hole_len > len {
            self.holes.insert(start + len, hole_len - len);
        }
        Some(start)
    }

    /// Allocates one extent per entry of `lens` in a single pass — the
    /// group-commit batch path, which holds the allocator lock exactly
    /// once for the whole batch instead of once per file.
    ///
    /// The batch is first placed as **one contiguous run** of
    /// `lens.iter().sum()` units, first-fit (so the files land physically
    /// adjacent and the arm writes them with one positioning), then
    /// carved into per-file extents front to back.  When no hole can take
    /// the whole run, each extent is placed individually — a batch never
    /// fails where the per-file path would have succeeded.
    ///
    /// Returns the start unit of each extent, in `lens` order, or `None`
    /// if any extent cannot be placed; on `None` the allocator state is
    /// unchanged (partial placements are rolled back).
    pub fn alloc_batch(&mut self, lens: &[u64]) -> Option<Vec<u64>> {
        if lens.is_empty() || lens.contains(&0) {
            return None;
        }
        let total: u64 = lens.iter().copied().try_fold(0u64, u64::checked_add)?;
        // Fast path: the whole batch as one contiguous run.
        if let Some(run) = self.alloc(total) {
            let mut starts = Vec::with_capacity(lens.len());
            let mut cursor = run;
            for &len in lens {
                starts.push(cursor);
                cursor += len;
            }
            return Some(starts);
        }
        // Fragmented fallback: place each extent individually.
        let mut starts: Vec<u64> = Vec::with_capacity(lens.len());
        for &len in lens {
            match self.alloc(len) {
                Some(s) => starts.push(s),
                None => {
                    // Roll back what the batch already took.
                    for (j, &s) in starts.iter().enumerate() {
                        self.free(s, lens[j])
                            .expect("rollback frees what alloc took");
                    }
                    return None;
                }
            }
        }
        Some(starts)
    }

    /// Removes `[at, at + len)` from the hole `[start, start + hole_len)`,
    /// reinserting the remainders on either side.
    fn carve(&mut self, start: u64, hole_len: u64, at: u64, len: u64) {
        debug_assert!(at >= start && at + len <= start + hole_len);
        self.free -= len;
        self.holes.remove(&start);
        if at > start {
            self.holes.insert(start, at - start);
        }
        let tail = (start + hole_len) - (at + len);
        if tail > 0 {
            self.holes.insert(at + len, tail);
        }
    }

    /// Claims the specific extent `[start, start + len)`, which must lie
    /// entirely inside one free hole.  Incremental compaction uses this to
    /// take the exact destination of a planned move.
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] if any part of the extent is not free.
    pub fn reserve(&mut self, start: u64, len: u64) -> Result<(), BulletError> {
        if len == 0 {
            return Ok(());
        }
        let end = start
            .checked_add(len)
            .ok_or_else(|| BulletError::Corrupt("reserved extent overflows".into()))?;
        let hole = self
            .holes
            .range(..=start)
            .next_back()
            .map(|(&s, &l)| (s, l));
        match hole {
            Some((hstart, hlen)) if start >= hstart && end <= hstart + hlen => {
                self.carve(hstart, hlen, start, len);
                Ok(())
            }
            _ => Err(BulletError::Corrupt(format!(
                "reserved extent [{start}, {end}) is not free"
            ))),
        }
    }

    /// Frees the extent `[start, start + len)`, coalescing with adjacent
    /// holes.
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] on double frees, overlaps, or frees
    /// outside the managed range (these indicate server bugs or disk
    /// corruption and must not be silently absorbed).
    pub fn free(&mut self, start: u64, len: u64) -> Result<(), BulletError> {
        if len == 0 {
            return Ok(());
        }
        let end = start
            .checked_add(len)
            .ok_or_else(|| BulletError::Corrupt("freed extent overflows".into()))?;
        if start < self.range_start || end > self.range_end {
            return Err(BulletError::Corrupt(format!(
                "freed extent [{start}, {end}) outside managed range"
            )));
        }
        // Check against the following hole.
        if let Some((&nstart, _)) = self.holes.range(start..).next() {
            if nstart < end {
                return Err(BulletError::Corrupt(format!(
                    "freed extent [{start}, {end}) overlaps hole at {nstart}"
                )));
            }
        }
        // Check against the preceding hole.
        if let Some((&pstart, &plen)) = self.holes.range(..start).next_back() {
            if pstart + plen > start {
                return Err(BulletError::Corrupt(format!(
                    "freed extent [{start}, {end}) overlaps hole at {pstart}"
                )));
            }
        }
        // Insert and coalesce.
        let mut new_start = start;
        let mut new_len = len;
        if let Some((&pstart, &plen)) = self.holes.range(..start).next_back() {
            if pstart + plen == start {
                self.holes.remove(&pstart);
                new_start = pstart;
                new_len += plen;
            }
        }
        if let Some(&nlen) = self.holes.get(&end) {
            self.holes.remove(&end);
            new_len += nlen;
        }
        self.holes.insert(new_start, new_len);
        self.free += len;
        self.max_hole_ub = self.max_hole_ub.max(new_len);
        Ok(())
    }

    /// Units currently free.
    pub fn free_units(&self) -> u64 {
        self.free
    }

    /// The managed range.
    pub fn range(&self) -> (u64, u64) {
        (self.range_start, self.range_end)
    }

    /// Fragmentation snapshot.
    pub fn report(&self) -> FragReport {
        let free = self.free_units();
        let largest = self.holes.values().copied().max().unwrap_or(0);
        FragReport {
            total: self.range_end - self.range_start,
            free,
            largest_hole: largest,
            hole_count: self.holes.len() as u64,
            external_fragmentation: if free == 0 {
                0.0
            } else {
                1.0 - largest as f64 / free as f64
            },
        }
    }

    /// Fragmentation snapshot of each of `zones` equal slices of the
    /// range (the last zone absorbs the remainder).  Holes spanning a
    /// zone boundary are clipped to each side, so per-zone `free` sums to
    /// the allocator's total free count.
    pub fn zone_reports(&self, zones: u32) -> Vec<FragReport> {
        let zones = u64::from(zones.max(1));
        let total = self.range_end - self.range_start;
        if total == 0 {
            return vec![self.report(); zones as usize];
        }
        let zone_len = total.div_ceil(zones);
        (0..zones)
            .map(|z| {
                let zstart = self.range_start + z * zone_len;
                let zend = (zstart + zone_len).min(self.range_end);
                let mut free = 0u64;
                let mut largest = 0u64;
                let mut count = 0u64;
                // Holes starting before the zone can still reach into it.
                let from = self
                    .holes
                    .range(..zstart)
                    .next_back()
                    .map(|(&s, _)| s)
                    .unwrap_or(zstart);
                for (&s, &l) in self.holes.range(from..zend) {
                    let clipped = (s + l).min(zend).saturating_sub(s.max(zstart));
                    if clipped > 0 {
                        free += clipped;
                        largest = largest.max(clipped);
                        count += 1;
                    }
                }
                FragReport {
                    total: zend.saturating_sub(zstart),
                    free,
                    largest_hole: largest,
                    hole_count: count,
                    external_fragmentation: if free == 0 {
                        0.0
                    } else {
                        1.0 - largest as f64 / free as f64
                    },
                }
            })
            .collect()
    }

    /// Computes the moves that pack the given live extents leftward from
    /// the start of the range (the "3 a.m." compaction).  `used` is
    /// `(start, len)` pairs; the result pairs each with its destination.
    /// Extents already in place produce no move.  The allocator itself is
    /// *not* modified — apply the moves to storage, update the inodes, then
    /// call [`rebuild_after_compaction`](Self::rebuild_after_compaction).
    pub fn plan_compaction(&self, used: &[(u64, u64)]) -> Vec<Move> {
        let mut sorted: Vec<(u64, u64)> = used.iter().copied().filter(|&(_, l)| l > 0).collect();
        sorted.sort_unstable();
        let mut cursor = self.range_start;
        let mut moves = Vec::new();
        for (start, len) in sorted {
            if start != cursor {
                moves.push(Move {
                    from: start,
                    to: cursor,
                    len,
                });
            }
            cursor += len;
        }
        moves
    }

    /// Resets the allocator to the packed layout produced by applying a
    /// compaction plan over extents totalling `used_units`.
    pub fn rebuild_after_compaction(&mut self, used_units: u64) {
        self.holes.clear();
        let free_start = self.range_start + used_units;
        self.free = self.range_end.saturating_sub(free_start);
        self.max_hole_ub = self.free;
        if free_start < self.range_end {
            self.holes.insert(free_start, self.range_end - free_start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_first_fit_order() {
        let mut a = ExtentAllocator::new(10, 110);
        assert_eq!(a.alloc(10), Some(10));
        assert_eq!(a.alloc(20), Some(20));
        a.free(10, 10).unwrap();
        // First fit: the freshly freed leading hole is chosen again.
        assert_eq!(a.alloc(5), Some(10));
        // A request too big for the leading hole skips to the tail hole.
        assert_eq!(a.alloc(50), Some(40));
    }

    #[test]
    fn alloc_zero_and_too_big() {
        let mut a = ExtentAllocator::new(0, 10);
        assert_eq!(a.alloc(0), None);
        assert_eq!(a.alloc(11), None);
        assert_eq!(a.alloc(10), Some(0));
        assert_eq!(a.alloc(1), None);
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut a = ExtentAllocator::new(0, 100);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        let z = a.alloc(10).unwrap();
        assert_eq!((x, y, z), (0, 10, 20));
        a.free(x, 10).unwrap();
        a.free(z, 10).unwrap();
        // [0,10) plus [20,100) (z coalesced with the tail hole).
        assert_eq!(a.report().hole_count, 2);
        a.free(y, 10).unwrap();
        let r = a.report();
        assert_eq!(r.hole_count, 1, "all holes must merge: {r:?}");
        assert_eq!(r.free, 100);
        assert_eq!(r.largest_hole, 100);
        assert_eq!(r.external_fragmentation, 0.0);
    }

    #[test]
    fn double_free_detected() {
        let mut a = ExtentAllocator::new(0, 100);
        let x = a.alloc(10).unwrap();
        a.free(x, 10).unwrap();
        assert!(a.free(x, 10).is_err());
        assert!(a.free(95, 10).is_err()); // leaves the range
        assert!(a.free(x, 0).is_ok()); // zero-length free is a no-op
    }

    #[test]
    fn from_used_builds_holes_between_files() {
        let a = ExtentAllocator::from_used(10, 100, &[(20, 5), (40, 10)]).unwrap();
        let r = a.report();
        assert_eq!(r.free, 90 - 15);
        assert_eq!(r.hole_count, 3); // [10,20) [25,40) [50,100)
    }

    #[test]
    fn from_used_rejects_overlap_and_escape() {
        assert!(ExtentAllocator::from_used(0, 100, &[(10, 10), (15, 10)]).is_err());
        assert!(ExtentAllocator::from_used(10, 100, &[(5, 10)]).is_err());
        assert!(ExtentAllocator::from_used(0, 100, &[(95, 10)]).is_err());
        assert!(ExtentAllocator::from_used(0, 100, &[(u64::MAX, 2)]).is_err());
    }

    #[test]
    fn fragmentation_report_tracks_shattering() {
        let mut a = ExtentAllocator::new(0, 100);
        let mut extents = Vec::new();
        for _ in 0..10 {
            extents.push(a.alloc(10).unwrap());
        }
        // Free every other extent: five 10-unit holes.
        for &e in extents.iter().step_by(2) {
            a.free(e, 10).unwrap();
        }
        let r = a.report();
        assert_eq!(r.free, 50);
        assert_eq!(r.largest_hole, 10);
        assert_eq!(r.hole_count, 5);
        assert!(r.external_fragmentation > 0.7);
        // A 20-unit file no longer fits even though 50 units are free —
        // exactly the failure compaction repairs.
        assert_eq!(a.alloc(20), None);
    }

    #[test]
    fn compaction_plan_packs_left() {
        let mut a = ExtentAllocator::new(0, 100);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        let z = a.alloc(10).unwrap();
        a.free(x, 10).unwrap();
        a.free(z, 10).unwrap();
        // Only y (at 10) is live; plan moves it to 0.
        let plan = a.plan_compaction(&[(y, 10)]);
        assert_eq!(
            plan,
            vec![Move {
                from: 10,
                to: 0,
                len: 10
            }]
        );
        a.rebuild_after_compaction(10);
        let r = a.report();
        assert_eq!(r.hole_count, 1);
        assert_eq!(r.largest_hole, 90);
        assert_eq!(a.alloc(90), Some(10));
    }

    #[test]
    fn compaction_plan_keeps_inplace_extents() {
        let a = ExtentAllocator::from_used(0, 100, &[(0, 10), (50, 10)]).unwrap();
        let plan = a.plan_compaction(&[(0, 10), (50, 10)]);
        assert_eq!(
            plan,
            vec![Move {
                from: 50,
                to: 10,
                len: 10
            }]
        );
    }

    #[test]
    fn compaction_moves_never_overlap_destinations() {
        let a = ExtentAllocator::from_used(0, 1000, &[(100, 50), (300, 50), (600, 100)]).unwrap();
        let plan = a.plan_compaction(&[(100, 50), (300, 50), (600, 100)]);
        // Destinations are monotone and moves go leftward.
        let mut cursor = 0;
        for m in &plan {
            assert!(m.to >= cursor);
            assert!(m.to < m.from);
            cursor = m.to + m.len;
        }
    }

    #[test]
    fn empty_range_allocator() {
        let mut a = ExtentAllocator::new(5, 5);
        assert_eq!(a.alloc(1), None);
        assert_eq!(a.free_units(), 0);
        assert_eq!(a.report().external_fragmentation, 0.0);
    }

    #[test]
    fn reserve_takes_a_specific_extent() {
        let mut a = ExtentAllocator::new(0, 100);
        a.reserve(40, 10).unwrap();
        // The hole split around the reservation.
        assert_eq!(a.report().hole_count, 2);
        assert_eq!(a.free_units(), 90);
        // Reserving any part of it again fails.
        assert!(a.reserve(45, 2).is_err());
        assert!(a.reserve(35, 10).is_err());
        // Freeing restores one hole.
        a.free(40, 10).unwrap();
        assert_eq!(a.report().hole_count, 1);
        // Reserve at the very edges of a hole works.
        a.reserve(0, 5).unwrap();
        a.reserve(95, 5).unwrap();
        assert_eq!(a.free_units(), 90);
    }

    #[test]
    fn zone_reports_partition_free_space() {
        // Holes: [10,20) [25,40) [50,100) over range [10,100).
        let a = ExtentAllocator::from_used(10, 100, &[(20, 5), (40, 10)]).unwrap();
        let zones = a.zone_reports(3); // slices of 30: [10,40) [40,70) [70,100)
        assert_eq!(zones.len(), 3);
        assert_eq!(zones.iter().map(|z| z.total).sum::<u64>(), 90);
        assert_eq!(zones.iter().map(|z| z.free).sum::<u64>(), a.free_units());
        // Zone 0 holds [10,20) and [25,40): two holes, 25 free.
        assert_eq!((zones[0].free, zones[0].hole_count), (25, 2));
        // The [50,100) hole is clipped across zones 1 and 2.
        assert_eq!((zones[1].free, zones[1].hole_count), (20, 1));
        assert_eq!((zones[2].free, zones[2].hole_count), (30, 1));
        assert_eq!(zones[2].external_fragmentation, 0.0);
    }

    #[test]
    fn alloc_batch_is_contiguous_when_a_run_fits() {
        let mut a = ExtentAllocator::new(0, 1000);
        let starts = a.alloc_batch(&[10, 20, 5]).unwrap();
        // One run carved front to back: each extent abuts the previous.
        assert_eq!(starts, vec![0, 10, 30]);
        assert_eq!(a.free_units(), 1000 - 35);
    }

    #[test]
    fn alloc_batch_falls_back_per_extent_when_fragmented() {
        // Three 10-unit holes, no 30-unit run.
        let mut a = ExtentAllocator::from_used(0, 100, &[(10, 20), (40, 30), (80, 20)]).unwrap();
        assert_eq!(a.clone().alloc(30), None, "no contiguous run by design");
        let starts = a.alloc_batch(&[10, 10, 10]).unwrap();
        assert_eq!(starts, vec![0, 30, 70]);
        assert_eq!(a.free_units(), 0);
    }

    #[test]
    fn alloc_batch_rolls_back_on_failure() {
        let mut a = ExtentAllocator::from_used(0, 100, &[(10, 20), (40, 60)]).unwrap();
        let before = a.free_units();
        // 10 + 10 fits in pieces (holes of 10 at 0 and 30), 11 does not.
        assert_eq!(a.alloc_batch(&[10, 10, 11]), None);
        assert_eq!(a.free_units(), before, "failed batch must roll back");
        assert!(a.alloc_batch(&[10, 10]).is_some());
    }

    #[test]
    fn alloc_batch_rejects_degenerate_input() {
        let mut a = ExtentAllocator::new(0, 100);
        assert_eq!(a.alloc_batch(&[]), None);
        assert_eq!(a.alloc_batch(&[5, 0, 5]), None);
        assert_eq!(a.free_units(), 100);
    }

    /// Applies a compaction plan front-to-back, unit-wise, to a model
    /// "disk" — exactly how the server applies it to real blocks.
    fn apply_moves_unitwise(disk: &mut [u8], plan: &[Move]) {
        for m in plan {
            for i in 0..m.len {
                disk[(m.to + i) as usize] = disk[(m.from + i) as usize];
            }
        }
    }

    #[test]
    fn failed_probe_recovers_after_coalescing_free() {
        // Exercise the fail-fast bound: a failing probe tightens it, a
        // coalescing free must loosen it again or the next alloc would be
        // wrongly rejected in O(1).
        let mut a = ExtentAllocator::new(0, 100);
        let x = a.alloc(40).unwrap();
        let y = a.alloc(40).unwrap();
        assert_eq!(a.alloc(30), None); // scan fails, bound becomes 20
        assert_eq!(a.alloc(25), None); // O(1) rejection via the bound
        a.free(y, 40).unwrap(); // coalesces with the tail: hole of 60
        assert_eq!(a.alloc(55), Some(40));
        a.free(x, 40).unwrap();
        assert_eq!(a.alloc(40), Some(0));
    }

    proptest::proptest! {
        /// The cached free counter and max-hole bound stay honest against
        /// a from-scratch scan across arbitrary alloc/free/reserve walks,
        /// and `alloc` succeeds exactly when a fitting hole exists (the
        /// fail-fast bound never manufactures NoSpace).
        #[test]
        fn cached_accounting_matches_scan(
            ops in proptest::collection::vec((0u8..4, 1u64..40, 0u64..200), 1..120),
        ) {
            let mut a = ExtentAllocator::new(0, 200);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (kind, len, at) in ops {
                match kind {
                    0 => {
                        let fits = a.holes.values().any(|&l| l >= len);
                        match a.alloc(len) {
                            Some(s) => {
                                proptest::prop_assert!(fits, "alloc succeeded with no fitting hole");
                                live.push((s, len));
                            }
                            None => proptest::prop_assert!(!fits, "alloc refused a fitting hole"),
                        }
                    }
                    1 => {
                        if !live.is_empty() {
                            let (s, l) = live.swap_remove(at as usize % live.len());
                            a.free(s, l).unwrap();
                        }
                    }
                    2 => {
                        if a.reserve(at, len).is_ok() {
                            live.push((at, len));
                        }
                    }
                    _ => {
                        let plan = a.plan_compaction(&live);
                        let mut cursor = a.range().0;
                        for e in live.iter_mut() {
                            // Apply the plan's packed layout to the model.
                            e.0 = cursor;
                            cursor += e.1;
                        }
                        drop(plan);
                        let used: u64 = live.iter().map(|&(_, l)| l).sum();
                        a.rebuild_after_compaction(used);
                    }
                }
                let scan_free: u64 = a.holes.values().sum();
                let scan_max = a.holes.values().copied().max().unwrap_or(0);
                proptest::prop_assert_eq!(a.free_units(), scan_free, "free counter drifted");
                proptest::prop_assert!(
                    a.max_hole_ub >= scan_max,
                    "max-hole bound {} below true max {}", a.max_hole_ub, scan_max
                );
                proptest::prop_assert_eq!(a.report().free, scan_free);
            }
        }

        /// The doc-comment claim on [`Move`], held to mechanically:
        /// front-to-back unit-wise application over overlapping source and
        /// target ranges preserves every live extent's bytes.
        #[test]
        fn compaction_plan_preserves_live_bytes(
            lens in proptest::collection::vec(1u64..9, 1..12),
            gaps in proptest::collection::vec(0u64..7, 1..12),
        ) {
            // Lay extents left to right with arbitrary gaps.
            let mut used = Vec::new();
            let mut cursor = 0u64;
            for (i, &len) in lens.iter().enumerate() {
                cursor += gaps[i % gaps.len()];
                used.push((cursor, len));
                cursor += len;
            }
            let total = cursor + 8;
            let a = ExtentAllocator::from_used(0, total, &used).unwrap();

            // Fill each live extent with bytes unique to (extent, offset).
            let mut disk = vec![0xEEu8; total as usize];
            for (i, &(start, len)) in used.iter().enumerate() {
                for off in 0..len {
                    disk[(start + off) as usize] = (i as u8) << 4 | (off as u8);
                }
            }

            let plan = a.plan_compaction(&used);
            // The invariant the unit-wise order rests on: every move goes
            // strictly leftward, destinations monotone non-overlapping.
            let mut cursor = 0u64;
            for m in &plan {
                proptest::prop_assert!(m.to < m.from);
                proptest::prop_assert!(m.to >= cursor);
                cursor = m.to + m.len;
            }
            apply_moves_unitwise(&mut disk, &plan);

            // Every extent's bytes survive at its packed destination.
            let mut dest = 0u64;
            for (i, &(_, len)) in used.iter().enumerate() {
                for off in 0..len {
                    proptest::prop_assert_eq!(
                        disk[(dest + off) as usize],
                        (i as u8) << 4 | (off as u8),
                        "extent {} unit {} corrupted", i, off
                    );
                }
                dest += len;
            }
        }

        /// Batch allocation: extents never overlap each other or the
        /// pre-existing used extents, and free-unit accounting is exact.
        #[test]
        fn alloc_batch_no_overlap_and_exact_accounting(
            lens in proptest::collection::vec(1u64..16, 1..10),
            used_lens in proptest::collection::vec(1u64..8, 0..6),
            gaps in proptest::collection::vec(1u64..12, 1..7),
        ) {
            // Pre-populate the range with used extents to fragment it.
            let mut used = Vec::new();
            let mut cursor = 0u64;
            for (i, &len) in used_lens.iter().enumerate() {
                cursor += gaps[i % gaps.len()];
                used.push((cursor, len));
                cursor += len;
            }
            let total_range = 600u64;
            let mut a = ExtentAllocator::from_used(0, total_range, &used).unwrap();
            let free_before = a.free_units();
            let want: u64 = lens.iter().sum();
            match a.alloc_batch(&lens) {
                Some(starts) => {
                    proptest::prop_assert_eq!(starts.len(), lens.len());
                    // Exact accounting: exactly `want` units left the pool.
                    proptest::prop_assert_eq!(a.free_units(), free_before - want);
                    // No overlap among batch extents or with prior users.
                    let mut all: Vec<(u64, u64)> = used.clone();
                    all.extend(starts.iter().zip(&lens).map(|(&s, &l)| (s, l)));
                    all.sort_unstable();
                    for w in all.windows(2) {
                        proptest::prop_assert!(
                            w[0].0 + w[0].1 <= w[1].0,
                            "extents overlap: {:?}", w
                        );
                    }
                    // Every extent stays in range.
                    for (&s, &l) in starts.iter().zip(&lens) {
                        proptest::prop_assert!(s + l <= total_range);
                    }
                    // Freeing the batch restores the pool exactly.
                    for (&s, &l) in starts.iter().zip(&lens) {
                        a.free(s, l).unwrap();
                    }
                    proptest::prop_assert_eq!(a.free_units(), free_before);
                }
                None => {
                    // Failure leaves the allocator untouched…
                    proptest::prop_assert_eq!(a.free_units(), free_before);
                    // …and the contiguous run must genuinely not fit.
                    proptest::prop_assert!(a.report().largest_hole < want);
                    // The fallback sequence is exactly the per-extent
                    // path, so failure means that fails too.
                    let mut probe = a.clone();
                    let all_fit = lens.iter().all(|&len| probe.alloc(len).is_some());
                    proptest::prop_assert!(!all_fit, "batch failed but per-extent first-fit fits");
                }
            }
        }

        /// When no contiguous run fits but the pieces do, the batch still
        /// succeeds — the per-extent fallback engages.
        #[test]
        fn alloc_batch_survives_fragmentation(
            n in 2usize..8,
        ) {
            // n holes of exactly 10 units, separated by 1-unit used gaps:
            // no run of 20+ exists, but n tens fit.
            let mut used = Vec::new();
            for i in 0..n as u64 {
                used.push((10 + i * 11, 1));
            }
            let end = 10 + n as u64 * 11;
            let mut a = ExtentAllocator::from_used(0, end, &used).unwrap();
            let lens = vec![10u64; n];
            proptest::prop_assert!(a.clone().alloc(20).is_none());
            let starts = a.alloc_batch(&lens);
            proptest::prop_assert!(starts.is_some(), "fallback must engage");
            // n + 1 holes of 10 existed; the batch consumed n of them.
            proptest::prop_assert_eq!(a.free_units(), 10);
        }
    }
}
