//! Order statistics for the benchmark's samples.

/// The median (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them; with fewer than two values both are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Highest percentile `tail_ms` reports.  On a 2-vCPU host the serve
/// workloads' p99 moved 14-20% between runs (rare multi-millisecond stalls)
/// and their p95 7-9%.
const TAIL_CAP: f64 = 0.95;
/// Lowest percentile `tail_ms` reports; below it the sample is too small
/// to leave ten samples beyond anything that is still a tail.
const TAIL_FLOOR: f64 = 0.75;

/// The tail percentile: the highest percentile with at least ten samples
/// beyond it, capped at p95.  Returns the fraction and the nearest-rank
/// sample, or `None` when that percentile would fall below p75 (fewer than
/// 40 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let q = (1.0 - 10.0 / n as f64).min(TAIL_CAP);
    (q >= TAIL_FLOOR).then(|| (q, nearest_rank(values, q)))
}

/// The value reported as `tail_ms`: [`tail`] when the sample supports
/// one, otherwise the upper quartile.  Returns a label and the value.
pub fn reported_tail(values: &[f64]) -> (String, f64) {
    let (q, v) = tail(values).unwrap_or((TAIL_FLOOR, nearest_rank(values, TAIL_FLOOR)));
    (format!("p{}", (q * 100.0).round()), v)
}

/// The nearest-rank `q` quantile (`0 < q <= 1`).
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    let rank = ((q * s.len() as f64) - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_selection_follows_the_sample_count() {
        assert_eq!(tail(&ramp(8)), None, "n = 8 has no tail");
        assert_eq!(tail(&ramp(39)), None, "p74 is not a tail");
        assert_eq!(reported_tail(&ramp(8)), ("p75".to_string(), 6.0));
        let (q, v) = tail(&ramp(50)).expect("n = 50 has a tail");
        assert!((q - 0.80).abs() < 1e-12);
        assert_eq!(v, 40.0, "p80 of 1..=50 leaves exactly ten samples beyond");
        assert_eq!(reported_tail(&ramp(50)).0, "p80");
        let (q, v) = tail(&ramp(200)).expect("n = 200 has a tail");
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(v, 190.0);
        let (q, _) = tail(&ramp(1000)).expect("n = 1000 has a tail");
        assert!((q - 0.95).abs() < 1e-12, "capped at p95");
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
