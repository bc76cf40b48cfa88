//! Order statistics and interval arithmetic for the metric reductions.

/// The `p`-quantile (0 ≤ p ≤ 1) of `xs` by the nearest-rank rule: the
/// smallest sample with at least `p·len` samples at or below it. `None`
/// for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `xs` (nearest rank), or 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(0.0)
}

/// Total length covered by the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Length of the part of `inner`'s union that lies inside `outer`'s
/// union. `outer` must be sorted and pairwise disjoint.
pub fn covered_within(inner: &mut [(u64, u64)], outer: &[(u64, u64)]) -> u64 {
    inner.sort_unstable();
    let mut clipped = Vec::new();
    let mut first = 0;
    for &(s, e) in inner.iter() {
        // Spans arrive by start time, so outer intervals that end before
        // this span starts are behind every later span too.
        while first < outer.len() && outer[first].1 <= s {
            first += 1;
        }
        for &(os, oe) in outer[first..].iter().take_while(|o| o.0 < e) {
            let (lo, hi) = (s.max(os), e.min(oe));
            if lo < hi {
                clipped.push((lo, hi));
            }
        }
    }
    union_len(&mut clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
        assert_eq!(percentile(&xs, 0.9), Some(9.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn unions_merge_overlaps() {
        assert_eq!(union_len(&mut [(5, 10), (0, 2), (1, 3), (9, 12)]), 10);
        let outer = [(0, 4), (10, 20)];
        assert_eq!(covered_within(&mut [(2, 12), (3, 5)], &outer), 4);
    }
}
