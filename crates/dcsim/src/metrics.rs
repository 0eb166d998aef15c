//! Metrics primitives for experiment output.
//!
//! The experiment harness reports the quantities the paper reasons about —
//! link utilizations, switch throughput, pod decision times, route-update
//! counts — through these types. Everything stores raw samples (simulations
//! here are small enough that exactness beats streaming sketches) and
//! computes summaries on demand.

use crate::time::SimTime;

/// A monotonically increasing event count (e.g. "route updates issued").
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// An out-of-order [`TimeSeries::try_record`]: the attempted timestamp
/// precedes the last recorded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeTravel {
    /// Timestamp of the series' last point.
    pub last: SimTime,
    /// The earlier timestamp the caller attempted to record.
    pub attempted: SimTime,
}

impl std::fmt::Display for TimeTravel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TimeSeries timestamps must be non-decreasing (last {:?}, attempted {:?})",
            self.last, self.attempted
        )
    }
}

impl std::error::Error for TimeTravel {}

/// A time-stamped series of observations of one quantity.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    clamped: u64,
}

impl TimeSeries {
    /// New empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` at time `t`, requiring non-decreasing timestamps.
    /// An out-of-order timestamp returns [`TimeTravel`] and records
    /// nothing.
    pub fn try_record(&mut self, t: SimTime, value: f64) -> Result<(), TimeTravel> {
        if let Some(&(last, _)) = self.points.last() {
            if t < last {
                return Err(TimeTravel { last, attempted: t });
            }
        }
        self.points.push((t, value));
        Ok(())
    }

    /// Record `value` at time `t`. An out-of-order timestamp is clamped
    /// forward to the last recorded one (the value is kept, ordering is
    /// preserved) and counted in [`TimeSeries::clamped`] — time-series
    /// consumers (`time_weighted_mean`, `first_at_or_below`) require
    /// monotone time, but a misbehaving caller should degrade a metric,
    /// not abort a run. Callers that want the strict contract use
    /// [`TimeSeries::try_record`].
    pub fn record(&mut self, t: SimTime, value: f64) {
        if let Err(tt) = self.try_record(t, value) {
            self.points.push((tt.last, value));
            self.clamped += 1;
        }
    }

    /// How many [`TimeSeries::record`] calls arrived out of order and had
    /// their timestamp clamped forward.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Maximum recorded value, if any.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// First time at which the value is `<= threshold`, searching points
    /// recorded at or after `from`. Used for "time-to-relief" measurements.
    pub fn first_at_or_below(&self, from: SimTime, threshold: f64) -> Option<SimTime> {
        self.points
            .iter()
            .find(|&&(t, v)| t >= from && v <= threshold)
            .map(|&(t, _)| t)
    }

    /// Time-weighted mean over the recorded span (each value holds until
    /// the next sample). Returns `None` with fewer than two points.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut acc = 0.0;
        let mut span = 0.0;
        for w in self.points.windows(2) {
            let dt = (w[1].0 - w[0].0).as_secs_f64();
            acc += w[0].1 * dt;
            span += dt;
        }
        if span > 0.0 {
            Some(acc / span)
        } else {
            // All samples at the same instant: fall back to plain mean.
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }
}

/// A bag of scalar samples with percentile summaries (e.g. per-pod decision
/// times across a run).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// New empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation. Non-finite values are a caller bug.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite sample");
        self.values.push(v);
    }

    /// Extend with many observations.
    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        for v in vs {
            self.record(v);
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Summary statistics, or `None` if empty.
    pub fn summary(&self) -> Option<Summary> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Some(Summary {
            count: n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        })
    }
}

/// Percentile of an already-sorted slice using the nearest-rank method.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Summary statistics of a [`Samples`] set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// Jain's fairness index over a set of loads: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly balanced; `1/n` means all load on one element. The
/// paper's balancing claims (links, switches, pods) are reported with this
/// index alongside max/mean ratios.
pub fn jains_fairness(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let sumsq: f64 = loads.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0; // all zero: trivially balanced
    }
    (sum * sum) / (loads.len() as f64 * sumsq)
}

/// Max/mean ratio of a set of loads (1.0 = perfectly balanced). Returns
/// 1.0 for empty or all-zero inputs.
pub fn max_mean_ratio(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean == 0.0 {
        return 1.0;
    }
    let max = loads.iter().cloned().fold(f64::MIN, f64::max);
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn timeseries_max_last_and_relief() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(0), 0.9);
        ts.record(SimTime::from_secs(1), 1.2);
        ts.record(SimTime::from_secs(2), 0.7);
        ts.record(SimTime::from_secs(3), 0.6);
        assert_eq!(ts.max(), Some(1.2));
        assert_eq!(ts.last(), Some(0.6));
        assert_eq!(
            ts.first_at_or_below(SimTime::from_secs(1), 0.8),
            Some(SimTime::from_secs(2))
        );
        assert_eq!(ts.first_at_or_below(SimTime::from_secs(0), 0.1), None);
    }

    #[test]
    fn timeseries_time_weighted_mean() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(0), 1.0);
        ts.record(SimTime::from_secs(1), 3.0);
        ts.record(SimTime::from_secs(3), 0.0);
        // 1.0 for 1s, then 3.0 for 2s → (1 + 6) / 3
        let m = ts.time_weighted_mean().unwrap();
        assert!((m - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn timeseries_try_record_rejects_time_travel() {
        let mut ts = TimeSeries::new();
        ts.try_record(SimTime::from_secs(2), 1.0).unwrap();
        let err = ts.try_record(SimTime::from_secs(1), 1.0).unwrap_err();
        assert_eq!(err.last, SimTime::from_secs(2));
        assert_eq!(err.attempted, SimTime::from_secs(1));
        assert_eq!(ts.len(), 1, "rejected point must not be recorded");
        assert!(err.to_string().contains("non-decreasing"));
    }

    #[test]
    fn timeseries_record_clamps_time_travel() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(2), 1.0);
        ts.record(SimTime::from_secs(1), 7.0);
        ts.record(SimTime::from_secs(3), 2.0);
        assert_eq!(ts.clamped(), 1);
        // Value kept, timestamp clamped to the previous point's.
        assert_eq!(
            ts.points(),
            &[
                (SimTime::from_secs(2), 1.0),
                (SimTime::from_secs(2), 7.0),
                (SimTime::from_secs(3), 2.0),
            ]
        );
        // Monotonicity preserved for downstream consumers.
        assert!(ts.points().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn summary_of_known_set() {
        let mut s = Samples::new();
        s.extend([4.0, 1.0, 3.0, 2.0, 5.0]);
        let sum = s.summary().unwrap();
        assert_eq!(sum.count, 5);
        assert!((sum.mean - 3.0).abs() < 1e-12);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 5.0);
        assert_eq!(sum.p50, 3.0);
        assert_eq!(sum.p99, 5.0);
    }

    #[test]
    fn empty_samples_have_no_summary() {
        assert!(Samples::new().summary().is_none());
    }

    #[test]
    fn fairness_extremes() {
        assert!((jains_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jains_fairness(&[4.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jains_fairness(&[]), 1.0);
        assert_eq!(jains_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn max_mean_basics() {
        assert!((max_mean_ratio(&[2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((max_mean_ratio(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
        assert_eq!(max_mean_ratio(&[]), 1.0);
    }

    proptest! {
        #[test]
        fn prop_fairness_bounds(loads in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            let f = jains_fairness(&loads);
            let n = loads.len() as f64;
            prop_assert!(f >= 1.0 / n - 1e-9);
            prop_assert!(f <= 1.0 + 1e-9);
        }

        #[test]
        fn prop_percentiles_ordered(vals in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = Samples::new();
            s.extend(vals);
            let sum = s.summary().unwrap();
            prop_assert!(sum.min <= sum.p50);
            prop_assert!(sum.p50 <= sum.p95);
            prop_assert!(sum.p95 <= sum.p99);
            prop_assert!(sum.p99 <= sum.max);
            prop_assert!(sum.min <= sum.mean && sum.mean <= sum.max);
        }

        #[test]
        fn prop_max_mean_at_least_one(loads in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            prop_assert!(max_mean_ratio(&loads) >= 1.0 - 1e-9);
        }
    }
}
