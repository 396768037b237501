//! Order statistics over repeat samples.

/// Median, quartiles and sample count of one metric over a run's
/// repeats. The quartiles follow Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so the spread printed here is
/// the spread a reader recomputes from the samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = quartiles_sorted(&sorted);
        Some(Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by Python's exclusive method. A single
/// sample is its own quartiles (Python raises there instead).
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation
/// between closest ranks; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let median = |v: &[f64]| Summary::of(v).map(|s| s.median);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        let s = Summary::of(&[5.0, 1.0, 9.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 5.0, 9.0));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[4.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }

    #[test]
    fn a_single_sample_is_its_own_summary() {
        let s = Summary::of(&[7.5]).expect("non-empty");
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.5, 7.5, 7.5));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(percentile(&[10.0, 0.0, 5.0], 100.0), Some(10.0));
        assert_eq!(percentile(&[10.0, 0.0, 5.0], 0.0), Some(0.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
