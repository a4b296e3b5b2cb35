//! Size-tiered candidate selection for the demotion rank of idle-time
//! maintenance (see
//! [`BulletServer::compact_tick`](crate::BulletServer::compact_tick)):
//! demote from the densest size class first, the compaction idiom of
//! size-tiered storage engines.

/// Size-tiered candidate selection over `(id, size)` pairs: sort by size,
/// grow a bucket while the next size stays within 1.5× the bucket's
/// running average, and pick from the most-populated bucket — the
/// size-tiered compaction idiom, turned into a demotion policy (the
/// densest size class yields the most reclaimed space per unit of
/// archive-stream interference).  Fully deterministic: equal-population
/// buckets resolve to the smaller-sized one, and within the winning
/// bucket the lowest id wins.
pub fn size_tiered_pick(candidates: &[(u32, u64)]) -> Option<u32> {
    if candidates.is_empty() {
        return None;
    }
    let mut sorted: Vec<(u64, u32)> = candidates.iter().map(|&(id, size)| (size, id)).collect();
    sorted.sort_unstable();
    let mut best_len = 0usize;
    let mut best_pick = 0u32;
    let mut start = 0usize;
    let mut sum = 0u64;
    for k in 0..=sorted.len() {
        // Close the current bucket at the end of the list, or when the
        // next size escapes 1.5× the running average (integer form:
        // 2·size > 3·avg).
        let close = k == sorted.len() || {
            let n = (k - start) as u64;
            n > 0 && 2 * sorted[k].0 > 3 * (sum / n).max(1)
        };
        if close && k > start {
            let len = k - start;
            if len > best_len {
                best_len = len;
                best_pick = sorted[start..k]
                    .iter()
                    .map(|&(_, id)| id)
                    .min()
                    .expect("bucket is non-empty");
            }
            start = k;
            sum = 0;
        }
        if k < sorted.len() {
            sum += sorted[k].0;
        }
    }
    Some(best_pick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_tiered_pick_prefers_the_densest_bucket() {
        // Three small files of similar size, two large ones: the small
        // bucket wins, and the lowest id within it is chosen.
        let candidates = [(7, 100), (3, 110), (9, 96), (1, 5_000), (2, 5_100)];
        assert_eq!(size_tiered_pick(&candidates), Some(3));
        // Flip the densities: the large bucket wins.
        let candidates = [(7, 100), (1, 5_000), (2, 5_100), (4, 4_900)];
        assert_eq!(size_tiered_pick(&candidates), Some(1));
    }

    #[test]
    fn size_tiered_pick_edge_cases() {
        assert_eq!(size_tiered_pick(&[]), None);
        assert_eq!(size_tiered_pick(&[(5, 0)]), Some(5));
        // Equal-population buckets resolve to the smaller-sized one.
        let candidates = [(8, 10), (6, 11), (2, 900), (4, 910)];
        assert_eq!(size_tiered_pick(&candidates), Some(6));
    }
}
