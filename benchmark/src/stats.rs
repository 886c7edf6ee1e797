//! Order statistics for timing samples.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`, or `None` when
/// fewer than `min_beyond` samples lie beyond the reported rank — a tail
/// percentile resting on a handful of samples is not reported at all.
pub fn percentile(samples: &[u64], q: f64, min_beyond: usize) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank out of range");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < min_beyond {
        return None;
    }
    let mut v = samples.to_vec();
    let (_, value, _) = v.select_nth_unstable(rank - 1);
    Some(Percentile {
        value: *value as f64,
        samples: n,
        beyond,
    })
}

/// Time-weighted percentile `q` of pause lengths: the pause a request
/// arriving at a uniformly random instant *of paused time* finds itself
/// in. Each sample weighs as much as it lasts, so a thousand
/// sub-millisecond pauses do not hide the one that lasted a second, and
/// the result sits inside whichever cluster of pauses holds that share of
/// the time rather than on the boundary between two clusters.
pub fn time_weighted_percentile(samples: &[u64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank out of range");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let target = q * v.iter().sum::<u64>() as f64;
    let mut cumulative = 0.0;
    let index = v.iter().position(|&s| {
        cumulative += s as f64;
        cumulative >= target
    })?;
    Some(Percentile {
        value: v[index] as f64,
        samples: v.len(),
        beyond: v.len() - 1 - index,
    })
}

/// Percentile `q` of samples observed only at multiples of `width`: a
/// sample of value `v` happened somewhere in `(v - width, v]` (a structure
/// seen gone after a collector quantum was reclaimed during it), so the
/// rank is interpolated inside that bin — the grouped-data percentile.
/// Without this a median over thousands of structures would still jump by
/// a whole quantum between seeds.
pub fn grouped_percentile(samples: &[u64], q: f64, width: u64) -> Option<f64> {
    let rank = percentile(samples, q, 0)?;
    let bin = rank.value as u64;
    let below = samples.iter().filter(|&&s| s < bin).count() as f64;
    let inside = samples.iter().filter(|&&s| s == bin).count() as f64;
    let target = q * samples.len() as f64;
    Some(bin as f64 - width as f64 * (1.0 - (target - below) / inside))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let p90 = percentile(&samples, 0.9, 10).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        assert_eq!(percentile(&samples, 0.5, 0).unwrap().value, 50.0);
        assert_eq!(percentile(&samples, 1.0, 0).unwrap().value, 100.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<u64> = (1..=100).collect();
        // p90 of 100 samples has exactly 10 beyond it: 10 passes, 11 not.
        assert!(percentile(&samples, 0.9, 10).is_some());
        assert!(percentile(&samples, 0.9, 11).is_none());
        // 299 samples leave 29 beyond p90; 300 leave 30.
        let short: Vec<u64> = (0..299).collect();
        let enough: Vec<u64> = (0..300).collect();
        assert!(percentile(&short, 0.9, 30).is_none());
        assert_eq!(percentile(&enough, 0.9, 30).unwrap().beyond, 30);
        assert!(percentile(&[], 0.5, 0).is_none());
    }

    #[test]
    fn time_weighted_percentile_follows_the_time_not_the_count() {
        // Five rounds of a wave: one 900 ms storm, four 1 ms quiet rounds.
        // By count the median pause is 1 ms; by time it is the storm.
        let wave = [1u64, 1, 900, 1, 1];
        assert_eq!(percentile(&wave, 0.5, 0).unwrap().value, 1.0);
        let p50 = time_weighted_percentile(&wave, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (900.0, 5, 0));
        // Equal pauses: weighting changes nothing.
        let flat: Vec<u64> = vec![7; 100];
        assert_eq!(time_weighted_percentile(&flat, 0.9).unwrap().beyond, 10);
        // Two clusters, 60 % of the time in the short one: the median is a
        // short pause, the 90th percentile a long one.
        let mut mix = vec![100u64; 6];
        mix.extend([400]);
        assert_eq!(time_weighted_percentile(&mix, 0.5).unwrap().value, 100.0);
        assert_eq!(time_weighted_percentile(&mix, 0.9).unwrap().value, 400.0);
        assert!(time_weighted_percentile(&[], 0.5).is_none());
    }

    #[test]
    fn grouped_percentile_interpolates_inside_the_bin() {
        // 4 samples in (0,1], 100 in (1,2]: the median sits 48/100 of the
        // way through the second bin.
        let mut samples = vec![1_000u64; 4];
        samples.extend(vec![2_000u64; 100]);
        let p50 = grouped_percentile(&samples, 0.5, 1_000).unwrap();
        assert!((p50 - 1_480.0).abs() < 1e-9, "{p50}");
        // A lone bin: the median is its midpoint, the top rank its edge.
        assert_eq!(grouped_percentile(&[10, 10], 0.5, 10), Some(5.0));
        assert_eq!(grouped_percentile(&[10, 10], 1.0, 10), Some(10.0));
        assert_eq!(grouped_percentile(&[], 0.5, 10), None);
    }
}
