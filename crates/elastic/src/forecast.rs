//! Per-application demand forecasting.
//!
//! §I motivates elasticity with demand that "is often hard to predict in
//! advance" — yet much of it *is* predictable at epoch granularity: the
//! diurnal swing is smooth, and even flash crowds ramp over several
//! control epochs (§IV.B) before peaking. A forecaster that sees the ramp
//! lets the control plane provision *before* the overload instead of
//! reacting to it.
//!
//! One predictor, [`Predictor`]: Holt's double exponential smoothing
//! (level + trend) with fixed smoothing factors α = 0.5 (level) and
//! β = 0.3 (trend). The trend term extrapolates ramps, which is what
//! catches a flash crowd early. Its state is three scalars and its update
//! O(1), so 300,000 apps fit in one epoch tick without allocating.
//!
//! All predictions are clamped non-negative. Everything is deterministic:
//! no RNG, no wall clock, no allocation after construction.

/// Holt level smoothing factor.
const HOLT_ALPHA: f64 = 0.5;
/// Holt trend smoothing factor.
const HOLT_BETA: f64 = 0.3;

/// One demand stream's Holt state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Predictor {
    /// Smoothed level.
    level: f64,
    /// Smoothed per-epoch trend.
    trend: f64,
    /// Observations so far, saturating at 2 (0 = empty, 1 = level only,
    /// 2+ = level and trend live).
    seen: u8,
}

impl Predictor {
    /// Record one epoch's observed demand (clamped non-negative).
    pub fn observe(&mut self, demand: f64) {
        let d = if demand.is_finite() {
            demand.max(0.0)
        } else {
            0.0
        };
        match self.seen {
            0 => {
                self.level = d;
                self.seen = 1;
            }
            1 => {
                self.trend = d - self.level;
                self.level = d;
                self.seen = 2;
            }
            _ => {
                let prev = self.level;
                self.level = HOLT_ALPHA * d + (1.0 - HOLT_ALPHA) * (prev + self.trend);
                self.trend = HOLT_BETA * (self.level - prev) + (1.0 - HOLT_BETA) * self.trend;
            }
        }
    }

    /// Predicted demand `horizon` epochs ahead; always finite and `>= 0`.
    /// Before any observation the prediction is 0 (provision nothing for
    /// an app that has never shown demand).
    pub fn predict(&self, horizon: u32) -> f64 {
        let p = if self.seen == 0 {
            0.0
        } else {
            self.level + self.trend * horizon as f64
        };
        if p.is_finite() {
            p.max(0.0)
        } else {
            0.0
        }
    }
}

/// A bank of predictors over a fixed index space (pods, access links):
/// one [`Predictor`] per slot, observed and predicted as a vector.
///
/// The per-app forecasters predict *demand streams*; this aggregates at
/// the infrastructure level instead — per-pod utilization, per-link
/// demand — which is what lets the global manager pre-position weight
/// shifts and VIP transfers (§IV.B) before a hotspot materializes.
/// Grow-only: `observe` resizes to the widest vector seen (pods can be
/// created at runtime; they are never destroyed).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupForecaster {
    preds: Vec<Predictor>,
}

impl GroupForecaster {
    /// A bank of `n` fresh predictors.
    pub fn new(n: usize) -> Self {
        GroupForecaster {
            preds: vec![Predictor::default(); n],
        }
    }

    /// Record one epoch's observation vector, growing the bank if the
    /// vector is wider than the current slot count (never shrinking — a
    /// slot's history survives even if a later vector is shorter).
    pub fn observe(&mut self, values: &[f64]) {
        if self.preds.len() < values.len() {
            self.preds.resize(values.len(), Predictor::default());
        }
        for (p, &v) in self.preds.iter_mut().zip(values) {
            p.observe(v);
        }
    }

    /// Predicted value per slot, `horizon` epochs ahead; finite, `>= 0`.
    pub fn predict(&self, horizon: u32) -> Vec<f64> {
        self.preds.iter().map(|p| p.predict(horizon)).collect()
    }
}

/// Running mean absolute percentage error of one-step forecasts.
///
/// Epochs with (near-)zero actual demand are skipped — APE is undefined
/// there, and 300k-app workloads have long tails of idle apps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MapeAccumulator {
    sum_ape: f64,
    n: u64,
}

impl MapeAccumulator {
    /// Record one (predicted, actual) pair.
    pub fn record(&mut self, predicted: f64, actual: f64) {
        if actual.abs() < 1e-9 || !predicted.is_finite() || !actual.is_finite() {
            return;
        }
        self.sum_ape += ((predicted - actual) / actual).abs();
        self.n += 1;
    }

    /// Mean absolute percentage error as a fraction (0.1 = 10%), or
    /// `None` before any sample.
    pub fn mape(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum_ape / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holt_converges_to_constant() {
        let mut p = Predictor::default();
        for _ in 0..200 {
            p.observe(42.0);
        }
        assert!((p.predict(1) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn holt_tracks_linear_ramp() {
        let mut p = Predictor::default();
        for i in 0..100 {
            p.observe(10.0 + 3.0 * i as f64);
        }
        // After a long ramp, level ≈ last obs and trend ≈ slope, so the
        // h-step forecast extrapolates the line.
        let expect = 10.0 + 3.0 * 102.0;
        assert!((p.predict(3) - expect).abs() < 1.0, "got {}", p.predict(3));
    }

    #[test]
    fn holt_predicts_above_current_during_ramp() {
        let mut p = Predictor::default();
        for i in 0..10 {
            p.observe(100.0 * i as f64);
        }
        assert!(p.predict(3) > p.predict(0));
    }

    #[test]
    fn predictions_never_negative() {
        let mut p = Predictor::default();
        assert_eq!(p.predict(5), 0.0, "before data");
        for d in [100.0, 10.0, 1.0, 0.0, 0.0, 0.0] {
            p.observe(d);
        }
        // The trend is steeply negative here; the prediction clamps.
        assert!(p.predict(10) >= 0.0, "went negative");
    }

    #[test]
    fn non_finite_observations_ignored_safely() {
        let mut p = Predictor::default();
        p.observe(f64::NAN);
        p.observe(f64::INFINITY);
        p.observe(-5.0);
        assert!(p.predict(3).is_finite());
        assert!(p.predict(3) >= 0.0);
    }

    #[test]
    fn group_forecaster_tracks_each_slot_independently() {
        let mut g = GroupForecaster::new(2);
        for i in 0..50 {
            g.observe(&[10.0, 5.0 * i as f64]);
        }
        let p = g.predict(1);
        assert!((p[0] - 10.0).abs() < 1e-6, "flat slot drifted: {}", p[0]);
        assert!(p[1] > 5.0 * 49.0, "ramping slot not extrapolated: {}", p[1]);
    }

    #[test]
    fn group_forecaster_grows_with_wider_observations() {
        let mut g = GroupForecaster::new(1);
        g.observe(&[1.0]);
        g.observe(&[1.0, 7.0, 3.0]); // a pod was created mid-run
        assert_eq!(g.predict(0).len(), 3);
        g.observe(&[1.0, 7.0]); // shorter vector: slot 2 keeps its state
        let p = g.predict(0);
        assert_eq!(p.len(), 3);
        assert!(p[2] > 0.0);
    }

    #[test]
    fn mape_accumulates() {
        let mut m = MapeAccumulator::default();
        assert_eq!(m.mape(), None);
        m.record(110.0, 100.0); // 10%
        m.record(90.0, 100.0); // 10%
        m.record(123.0, 0.0); // skipped
        assert!((m.mape().unwrap() - 0.1).abs() < 1e-12);
    }
}
