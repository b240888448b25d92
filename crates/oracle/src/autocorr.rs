//! The pre-FFT period detector: the same inter-arrival fast path as
//! `sixscope_analysis::autocorr::PeriodDetector::detect`, but the general
//! path re-evaluates the autocorrelation as an O(n) scan per candidate lag
//! instead of computing it once via Wiener–Khinchin. The two must agree on
//! the discrete decision (detected or not, and the period).

use sixscope_analysis::autocorr::{Period, PeriodDetector};
use sixscope_types::{SimDuration, SimTime};

/// Detects a stable period in session start times, or `None`.
pub fn detect(det: &PeriodDetector, starts: &[SimTime]) -> Option<Period> {
    if starts.len() < det.min_sessions {
        return None;
    }
    let mut times: Vec<u64> = starts.iter().map(|t| t.as_secs()).collect();
    times.sort_unstable();
    let t0 = times[0];
    let span = times[times.len() - 1] - t0;
    if span == 0 {
        return None;
    }
    let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    let mut sorted_gaps = gaps.clone();
    sorted_gaps.sort_by(|a, b| a.partial_cmp(b).expect("gaps are finite"));
    let median = sorted_gaps[sorted_gaps.len() / 2];
    if median > 0.0 && gaps.len() >= 2 {
        let consistent = gaps
            .iter()
            .filter(|&&g| {
                let k = (g / median).round().max(1.0);
                (g - k * median).abs() <= 0.2 * median
            })
            .count();
        let share = consistent as f64 / gaps.len() as f64;
        if share >= 0.7 {
            return Some(Period {
                period: SimDuration::secs(median.round() as u64),
                score: share,
            });
        }
    }
    // General path: binary activity series + autocorrelation.
    let bucket = det.bucket.as_secs().max(1);
    let n_buckets = (span / bucket + 1) as usize;
    if n_buckets < 8 {
        return None;
    }
    let mut series = vec![0.0f64; n_buckets];
    for t in &times {
        series[((t - t0) / bucket) as usize] = 1.0;
    }
    let mean = series.iter().sum::<f64>() / n_buckets as f64;
    for v in &mut series {
        *v -= mean;
    }
    let denom: f64 = series.iter().map(|v| v * v).sum();
    if denom == 0.0 {
        return None;
    }
    let max_lag = n_buckets / 2;
    let acf = |lag: usize| -> f64 {
        let num: f64 = (0..n_buckets - lag)
            .map(|i| series[i] * series[i + lag])
            .sum();
        num / denom
    };
    // Find the best local-max lag.
    let mut best: Option<(usize, f64)> = None;
    for lag in 2..max_lag {
        let c = acf(lag);
        if c >= det.min_score
            && c > acf(lag - 1)
            && c >= acf(lag + 1)
            && best.is_none_or(|(_, bc)| c > bc)
        {
            best = Some((lag, c));
        }
    }
    let (lag, score) = best?;
    // Validate: the doubled lag must also correlate (a repeating
    // pattern, not a one-off coincidence).
    if 2 * lag < max_lag && acf(2 * lag) < det.min_score * 0.5 {
        return None;
    }
    Some(Period {
        period: SimDuration::secs(lag as u64 * bucket),
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Start trains with a known answer, through both detector paths: the
    /// inter-arrival fast path (daily, weekly, hourly at fine buckets) and
    /// the autocorrelation path (alternating 4 h / 7 h gaps, which no
    /// single median gap explains, repeating every 11 hours).
    #[test]
    fn reference_agrees_with_the_fft_detector_on_both_paths() {
        let hours = |h: u64| SimTime::from_secs(h * 3600);
        let alternating: Vec<SimTime> = (0..60)
            .flat_map(|i| [hours(i * 11), hours(i * 11 + 4)])
            .collect();
        let fine = PeriodDetector {
            bucket: SimDuration::mins(10),
            ..Default::default()
        };
        let cases: [(PeriodDetector, Vec<SimTime>, Option<SimDuration>); 5] = [
            (
                PeriodDetector::default(),
                (0..20).map(|d| hours(d * 24)).collect(),
                Some(SimDuration::hours(24)),
            ),
            (
                PeriodDetector::default(),
                (0..12).map(|w| hours(w * 24 * 7)).collect(),
                Some(SimDuration::weeks(1)),
            ),
            (
                fine,
                (0..30).map(hours).collect(),
                Some(SimDuration::hours(1)),
            ),
            (
                PeriodDetector::default(),
                alternating,
                Some(SimDuration::hours(11)),
            ),
            (
                PeriodDetector::default(),
                [0u64, 3, 50, 51, 200, 310, 311, 700, 1100, 1111]
                    .into_iter()
                    .map(hours)
                    .collect(),
                None,
            ),
        ];
        for (det, starts, want) in cases {
            let fast = det.detect(&starts).map(|p| p.period);
            let slow = detect(&det, &starts).map(|p| p.period);
            assert_eq!(slow, want, "reference on {starts:?}");
            assert_eq!(fast, slow, "FFT detector on {starts:?}");
        }
    }
}
