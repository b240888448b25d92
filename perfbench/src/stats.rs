//! Order statistics for the reported metrics.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail latency: the highest percentile with at least ten samples beyond
/// it. With fewer than 21 samples no such percentile reaches the median,
/// and the median is reported instead (percentile 50).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n >= 21 {
        let i = n - 11;
        Tail {
            value: sorted[i],
            percentile: 100.0 * i as f64 / (n - 1) as f64,
            beyond: n - 1 - i,
        }
    } else {
        Tail {
            value: median(values),
            percentile: 50.0,
            beyond: n / 2,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
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
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 89.0);
        assert_eq!(t.beyond, 10);
        let few: Vec<f64> = (0..7).map(f64::from).collect();
        assert_eq!(tail(&few).value, 3.0);
        assert_eq!(tail(&few).percentile, 50.0);
    }
}
