//! Percentiles, medians, the run-to-run spread the bounds are set
//! against, and interval arithmetic for span self times.

/// Nearest-rank percentile of an ascending-sorted sample; 0 for an
/// empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn sort(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sort(values.to_vec());
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The timing rule of the benchmark: compute the statistic inside each
/// timed segment, report the median of the per-segment values. One
/// stalled segment (the sandbox shows 40-200 ms whole-process stalls)
/// moves one value, not the result. Segments without samples are left
/// out.
pub fn median_of_segments<F: Fn(&[f64]) -> f64>(segments: &[Vec<f64>], stat: F) -> f64 {
    let per_segment: Vec<f64> = segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stat(s))
        .collect();
    median(&per_segment)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `--repeat` judges spreads the way the driver does.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sort(values.to_vec());
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (q3 - q1) / m.abs()
}

/// A half-open time interval in microseconds.
pub type Interval = (f64, f64);

/// Total length covered by `intervals`, overlaps counted once.
pub fn union_us(intervals: &[Interval]) -> f64 {
    let mut sorted: Vec<Interval> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (start, end) in sorted {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of it its child
/// spans cover (children are clipped to the parent, overlapping
/// children count once).
pub fn self_time_us(parent: Interval, children: &[Interval]) -> f64 {
    let clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .collect();
    (parent.1 - parent.0) - union_us(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 51.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_stalled_segment_does_not_move_the_median_of_segments() {
        let calm: Vec<f64> = (0..100).map(|i| 1000.0 + i as f64).collect();
        let mut stalled = calm.clone();
        stalled.extend(std::iter::repeat_n(150_000.0, 30));
        let p99 = |s: &[f64]| percentile(&sort(s.to_vec()), 0.99);
        let all_calm = vec![calm.clone(), calm.clone(), calm.clone(), calm.clone()];
        let one_stall = vec![calm.clone(), stalled, calm.clone(), calm];
        assert_eq!(
            median_of_segments(&all_calm, p99),
            median_of_segments(&one_stall, p99)
        );
        // an empty segment is left out, not counted as zero
        assert_eq!(
            median_of_segments(&[vec![], vec![5.0], vec![7.0]], |s| s[0]),
            6.0
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_us(&[(0.0, 10.0), (5.0, 15.0), (20.0, 25.0)]), 20.0);
        assert_eq!(union_us(&[(3.0, 3.0), (9.0, 4.0)]), 0.0);
        assert_eq!(union_us(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // request [0, 100): scheduler [10, 90) holds two shard runs
        // that overlap each other, [20, 50) and [40, 70), and one of
        // them sticks out of the parent on purpose
        let request = (0.0, 100.0);
        let scheduler = (10.0, 90.0);
        let shard_runs = [(20.0, 50.0), (40.0, 70.0), (85.0, 120.0)];
        assert_eq!(self_time_us(request, &[scheduler]), 20.0);
        // 80 long, children cover [20,70) and [85,90) = 55
        assert_eq!(self_time_us(scheduler, &shard_runs), 25.0);
        // a leaf's self time is its duration
        assert_eq!(self_time_us((20.0, 50.0), &[]), 30.0);
    }
}
