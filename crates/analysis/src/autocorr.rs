//! Period detection by autocorrelation (after Breitenbach et al.).
//!
//! The temporal taxonomy (§5.1) calls a recurrent scanner *periodic* when a
//! stable period exists between its scan sessions, and *intermittent*
//! otherwise. We detect periods by (1) bucketizing session start times into
//! a binary activity series, (2) computing the normalized autocorrelation
//! function, and (3) looking for a dominant lag whose multiples also
//! correlate — the "repeating pattern" criterion of that method.

use crate::nist::fft_in_place;
use sixscope_types::{SimDuration, SimTime};

/// Result of period detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Period {
    /// The detected period.
    pub period: SimDuration,
    /// Autocorrelation score at that lag, in `[0, 1]`.
    pub score: f64,
}

/// Configuration for the detector.
#[derive(Debug, Clone, Copy)]
pub struct PeriodDetector {
    /// Bucket width for the activity series (default: 1 hour).
    pub bucket: SimDuration,
    /// Minimum autocorrelation score to accept a period.
    pub min_score: f64,
    /// Minimum number of sessions to even attempt detection; the paper
    /// requires periodic scanners to "appear more than twice".
    pub min_sessions: usize,
}

impl Default for PeriodDetector {
    fn default() -> Self {
        PeriodDetector {
            bucket: SimDuration::hours(1),
            min_score: 0.5,
            min_sessions: 3,
        }
    }
}

impl PeriodDetector {
    /// Detects a stable period in session start times, or `None`.
    pub fn detect(&self, starts: &[SimTime]) -> Option<Period> {
        if starts.len() < self.min_sessions {
            return None;
        }
        let mut times: Vec<u64> = starts.iter().map(|t| t.as_secs()).collect();
        times.sort_unstable();
        let t0 = times[0];
        let span = times[times.len() - 1] - t0;
        if span == 0 {
            return None;
        }
        // Fast path on inter-arrival gaps: a periodic scanner's gaps are
        // (near-)integer multiples of a base period — exact multiples
        // whenever sessions drop out (withdrawal days, single-prefix picks
        // that miss the telescope). Take the median gap as the period
        // candidate and require most gaps to sit within 20% of *some*
        // multiple of it; exponential/intermittent gap trains fail this
        // overwhelmingly.
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
        // General path: binary activity series + autocorrelation. The full
        // ACF is computed once via Wiener–Khinchin — FFT the zero-padded
        // series, take the power spectrum, FFT again — instead of three
        // O(n) scans per candidate lag. Padding to ≥ n + max_lag zeros
        // makes the circular correlation linear over the lags we read.
        let bucket = self.bucket.as_secs().max(1);
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
        let nfft = (2 * n_buckets).next_power_of_two();
        let mut re = vec![0.0f64; nfft];
        let mut im = vec![0.0f64; nfft];
        re[..n_buckets].copy_from_slice(&series);
        fft_in_place(&mut re, &mut im);
        for k in 0..nfft {
            re[k] = re[k] * re[k] + im[k] * im[k];
            im[k] = 0.0;
        }
        // The power spectrum is real and even, so a forward transform is
        // its own inverse up to the 1/nfft scale.
        fft_in_place(&mut re, &mut im);
        let inv = 1.0 / nfft as f64;
        let acf = |lag: usize| -> f64 { re[lag] * inv / denom };
        // Find the best local-max lag.
        let mut best: Option<(usize, f64)> = None;
        for lag in 2..max_lag {
            let c = acf(lag);
            if c >= self.min_score
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
        if 2 * lag < max_lag && acf(2 * lag) < self.min_score * 0.5 {
            return None;
        }
        Some(Period {
            period: SimDuration::secs(lag as u64 * bucket),
            score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::hours(h)
    }

    #[test]
    fn perfectly_periodic_daily_scanner() {
        let starts: Vec<SimTime> = (0..20).map(|d| t(d * 24)).collect();
        let p = PeriodDetector::default()
            .detect(&starts)
            .expect("period found");
        assert_eq!(p.period, SimDuration::hours(24));
        assert!(p.score > 0.8);
    }

    #[test]
    fn jittered_period_still_detected() {
        // Daily with ±30 min jitter.
        let jitter = [13i64, -25, 7, 30, -12, 4, -28, 19, 0, 11, -6, 22, -17, 9, 3];
        let starts: Vec<SimTime> = jitter
            .iter()
            .enumerate()
            .map(|(d, j)| SimTime::from_secs((d as i64 * 86_400 + j * 60).max(0) as u64))
            .collect();
        let p = PeriodDetector::default()
            .detect(&starts)
            .expect("period found");
        let hours = p.period.as_secs() as f64 / 3600.0;
        assert!((hours - 24.0).abs() < 1.5, "period was {hours} h");
    }

    #[test]
    fn irregular_sessions_have_no_period() {
        // Gaps drawn to be wildly irregular.
        let hours = [0u64, 3, 50, 51, 200, 310, 311, 700, 1100, 1111];
        let starts: Vec<SimTime> = hours.iter().map(|&h| t(h)).collect();
        assert!(PeriodDetector::default().detect(&starts).is_none());
    }

    #[test]
    fn too_few_sessions_is_never_periodic() {
        // Two sessions exactly 24 h apart: paper requires > 2 appearances.
        let starts = vec![t(0), t(24)];
        assert!(PeriodDetector::default().detect(&starts).is_none());
    }

    #[test]
    fn identical_timestamps_are_not_periodic() {
        let starts = vec![t(5); 10];
        assert!(PeriodDetector::default().detect(&starts).is_none());
    }

    #[test]
    fn weekly_period() {
        let starts: Vec<SimTime> = (0..12).map(|w| t(w * 24 * 7)).collect();
        let p = PeriodDetector::default().detect(&starts).expect("period");
        assert_eq!(p.period, SimDuration::weeks(1));
    }

    #[test]
    fn hourly_period_with_fine_buckets() {
        let det = PeriodDetector {
            bucket: SimDuration::mins(10),
            ..Default::default()
        };
        let starts: Vec<SimTime> = (0..30).map(|i| SimTime::from_secs(i * 3600)).collect();
        let p = det.detect(&starts).expect("period");
        assert_eq!(p.period, SimDuration::hours(1));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut starts: Vec<SimTime> = (0..15).map(|d| t(d * 24)).collect();
        starts.reverse();
        assert!(PeriodDetector::default().detect(&starts).is_some());
    }
}
