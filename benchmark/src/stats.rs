//! Percentiles, medians, and the per-window summaries every metric is built from.

use std::time::Duration;

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending slice, nearest-rank: the
/// smallest sample with at least a share `p` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered sample (mean of the two middle values when even).
///
/// # Panics
///
/// Panics on an empty slice.
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

/// What one measured window observed. A window's metrics are computed from
/// this alone, so windows never share samples.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations issued (for an open loop: requests that came due).
    pub attempted: u64,
    /// Operations that were shed or resolved to an error.
    pub failed: u64,
    /// Operations that completed with an output that did not match its reference.
    pub mismatched: u64,
    /// Wall time from the window's first issue to its last completion.
    pub elapsed: Duration,
    /// Time of every completed, correct operation, in milliseconds.
    pub op_ms: Vec<f64>,
}

impl Window {
    /// Counts one operation that completed in `took`, with a correct result or not.
    pub fn record(&mut self, took: Duration, correct: bool) {
        self.attempted += 1;
        if correct {
            self.op_ms.push(took.as_secs_f64() * 1e3);
        } else {
            self.mismatched += 1;
        }
    }

    /// Completed, correct operations per second.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed - self.mismatched) as f64 / self.elapsed.as_secs_f64()
    }

    /// The `p`-quantile of the window's operation times.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut sorted = self.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

/// One metric of one run: the value reported, and the per-window (or
/// per-set-up) values it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub windows: Vec<f64>,
}

impl Summary {
    /// The median of repeated measurements of one thing (set-ups).
    pub fn median_of(values: Vec<f64>) -> Summary {
        Summary {
            value: median(&values),
            windows: values,
        }
    }

    /// The quartile of the windows on the metric's good side: the lower
    /// quartile of a time, the upper quartile of a rate. Whatever else runs on
    /// the host only ever slows a window down, for seconds at a stretch, so
    /// the median window of a run says as much about the neighbours as about
    /// the code. The good quartile still needs a quarter of the windows to
    /// agree — it is not the best of N — and on the host this was written on
    /// it repeats from run to run about 1.5 times as closely as the median.
    pub fn good_quartile_of(windows: Vec<f64>, lower_is_better: bool) -> Summary {
        let mut sorted = windows.clone();
        sorted.sort_by(f64::total_cmp);
        Summary {
            value: percentile(&sorted, if lower_is_better { 0.25 } else { 0.75 }),
            windows,
        }
    }

    /// A metric read once per run.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            windows: vec![value],
        }
    }

    /// Lower quartile, median and upper quartile of the windows.
    pub fn quartiles(&self) -> [f64; 3] {
        let mut sorted = self.windows.clone();
        sorted.sort_by(f64::total_cmp);
        [0.25, 0.5, 0.75].map(|p| percentile(&sorted, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn reported_value_is_the_good_quartile_not_the_best_window() {
        // Fifteen windows: one lucky, three disturbed.
        let times: Vec<f64> = [
            7.0, 10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9, 11.0, 15.0, 30.0, 90.0,
        ]
        .into_iter()
        .rev()
        .collect();
        let time = Summary::good_quartile_of(times.clone(), true);
        assert_eq!(time.value, 10.2);
        assert_eq!(time.quartiles(), [10.2, 10.6, 11.0]);
        let rate = Summary::good_quartile_of(times, false);
        assert_eq!(rate.value, 11.0);
        assert_eq!(Summary::median_of(vec![3.0, 1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn window_counts_only_correct_completions_as_throughput() {
        let w = Window {
            attempted: 100,
            failed: 15,
            mismatched: 5,
            elapsed: Duration::from_secs(2),
            op_ms: (1..=80).map(f64::from).rev().collect(),
        };
        assert_eq!(w.ops_per_s(), 40.0);
        assert_eq!(w.percentile_ms(0.5), 40.0);
        assert_eq!(w.percentile_ms(0.9), 72.0);
    }
}
