//! The benchmark's own arithmetic: medians, quartiles, percentiles and
//! the regression-bound rule. Unit-tested because every number the
//! benchmark prints goes through here.

/// Median of the values (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a bug in the
/// caller, not a value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default *exclusive* method), so a spread computed
/// here matches one computed by a driver in Python. Fewer than two
/// samples have no spread: all three are the sample itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // Exclusive method: position i·(n+1)/4 on a 1-based axis,
        // clamped so the interpolation stays inside the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`0 < q ≤ 1`) of an ascending slice: the
/// sample of rank `⌈q·n⌉`.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The fastest observation of every step over the reps of one job:
/// `reps[r][s]` is step `s` of rep `r`, and step `s` does the same work
/// in every rep. Interference only ever lengthens a step, and it would
/// have to hit the same step of every rep to get through, so what is
/// left is the program's own step-time distribution, its tail included.
/// Steps a shorter rep did not reach are dropped.
pub fn fastest_per_step(reps: &[&[u64]]) -> Vec<u64> {
    let n = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .filter_map(|s| reps.iter().map(|r| r[s]).min())
        .collect()
}

/// Percentile `q` of every window of `window` consecutive samples of
/// each lane (a lane shorter than one window is one window; a trailing
/// part-window is dropped).
pub fn window_percentiles(lanes: &[&[u64]], window: usize, q: f64) -> Vec<u64> {
    let of = |w: &[u64]| {
        let mut w = w.to_vec();
        w.sort_unstable();
        percentile_sorted(&w, q)
    };
    lanes
        .iter()
        .filter(|lane| !lane.is_empty())
        .flat_map(|lane| {
            let size = window.min(lane.len());
            lane.chunks_exact(size).map(of)
        })
        .collect()
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By how much `second` is worse than `first`, in the metric's own unit
/// (negative when it improved).
pub fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    }
}

/// The `max(relative, absolute)` bound rule of the noise self-test: a
/// metric may worsen by `rel_bound` of the first value or by
/// `abs_floor`, whichever is larger. (`BENCHMARK.json` carries only the
/// relative part; the floor keeps a 3 ms `setup_s` from failing on a
/// millisecond of jitter.)
pub fn allowed_worsening(first: f64, rel_bound: f64, abs_floor: f64) -> f64 {
    (rel_bound * first.abs()).max(abs_floor)
}

/// True when `second` is within the bound of `first`.
pub fn within_bound(
    better: Better,
    first: f64,
    second: f64,
    rel_bound: f64,
    abs_floor: f64,
) -> bool {
    worse_by(better, first, second) <= allowed_worsening(first, rel_bound, abs_floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((m - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, m, q3) = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert_eq!((q1, m, q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, m, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, m, q3), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[5, 9], 0.5), 5);
        assert_eq!(percentile_sorted(&[5, 9], 0.51), 9);
        assert_eq!(percentile_sorted(&[42], 0.99), 42);
    }

    #[test]
    fn fastest_per_step_is_the_columnwise_minimum() {
        let (a, b, c): (&[u64], &[u64], &[u64]) = (&[5, 9, 7, 1], &[6, 2, 8], &[4, 3, 9, 9]);
        assert_eq!(fastest_per_step(&[a, b, c]), vec![4, 2, 7]);
        assert_eq!(fastest_per_step(&[a]), a.to_vec());
        assert!(fastest_per_step(&[]).is_empty());
        assert!(fastest_per_step(&[a, &[]]).is_empty());
    }

    #[test]
    fn window_percentiles_cut_each_lane_apart() {
        let a: Vec<u64> = vec![1, 9, 5, 2, 8, 4, 7];
        let b: Vec<u64> = vec![3, 6];
        // Windows [1,9,5], [2,8,4] (7 dropped) and the short lane whole.
        assert_eq!(window_percentiles(&[&a, &b], 3, 0.5), vec![5, 4, 3]);
        assert_eq!(window_percentiles(&[&a, &b], 3, 1.0), vec![9, 8, 6]);
        assert!(window_percentiles(&[&[]], 3, 0.5).is_empty());
    }

    #[test]
    fn bound_rule_takes_the_larger_allowance() {
        // 10 % of 0.003 s is 0.3 ms; the 50 ms floor wins.
        assert!(within_bound(Better::Lower, 0.003, 0.040, 0.10, 0.05));
        assert!(!within_bound(Better::Lower, 0.003, 0.060, 0.10, 0.05));
        // 10 % of 200 it/s is 20; no floor.
        assert!(within_bound(Better::Higher, 200.0, 181.0, 0.10, 0.0));
        assert!(!within_bound(Better::Higher, 200.0, 179.0, 0.10, 0.0));
        // An improvement is always inside the bound.
        assert!(within_bound(Better::Higher, 200.0, 400.0, 0.0, 0.0));
        assert!(within_bound(Better::Lower, 1.0, 0.5, 0.0, 0.0));
        // A zero bound admits only no change.
        assert!(within_bound(Better::Lower, 1.5, 1.5, 0.0, 0.0));
        assert!(!within_bound(Better::Lower, 1.5, 1.5000001, 0.0, 0.0));
    }
}
