//! Sample arithmetic: nearest-rank percentiles, the "ten samples beyond"
//! rule, quartiles and relative spread.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
/// `p` in (0, 100]; an empty sample has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail of an ascending-sorted sample: its `cap`-th percentile, or
/// — when fewer than ten samples lie beyond that — the highest
/// percentile that still has ten samples beyond it (rank `n − 10`).
/// Below 20 samples not even the median has ten beyond it; the median is
/// returned anyway and the sample count, printed beside every timing,
/// tells the reader. Returns `(value, percentile actually used)`.
pub fn tail(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = tail_rank(n, cap);
    Some((sorted[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// 1-based nearest rank behind [`tail`].
fn tail_rank(n: usize, cap: f64) -> usize {
    let median = n.div_ceil(2);
    let capped = ((cap / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    capped.min(n.saturating_sub(10)).max(median)
}

/// Sorts a sample in place and returns it, for the percentile calls.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank.
pub fn median(v: &[f64]) -> Option<f64> {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Mean of a sample; `None` when empty.
pub fn mean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        // Position (i+1)·(n+1)/4 in 1-based ranks; the lower neighbour is
        // clamped into the sample and the line through it and the next
        // value is followed even beyond them, as Python does.
        let m = (i + 1) * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// The driver's steadiness measure: the distance between the first and
/// third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    if q2 == 0.0 {
        return None;
    }
    Some((q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 10.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 200 samples: p95 is the 190th value, ten lie beyond it.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), Some(190.0));
    }

    #[test]
    fn ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|x| x as f64).collect() };
        // Enough samples: the cap itself (p95 of 200 is the 190th value).
        assert_eq!(tail(&ramp(200), 95.0), Some((190.0, 95.0)));
        assert_eq!(tail(&ramp(1000), 95.0), Some((950.0, 95.0)));
        // Too few for the cap: rank n − 10.
        assert_eq!(tail(&ramp(100), 95.0), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(40), 95.0), Some((30.0, 75.0)));
        assert_eq!(tail(&ramp(33), 95.0).unwrap().0, 23.0);
        // Too few even for the median: the median, flagged by the count.
        assert_eq!(tail(&ramp(20), 95.0), Some((10.0, 50.0)));
        assert_eq!(tail(&ramp(5), 95.0), Some((3.0, 60.0)));
        assert_eq!(tail(&[], 95.0), None);
        // The rule itself, and continuity in n: the rank never jumps.
        for n in 20..400usize {
            let rank = tail_rank(n, 95.0);
            assert!(n - rank >= 10, "n={n} rank={rank}");
            assert!(tail_rank(n + 1, 95.0) - rank <= 1, "n={n}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
