//! Per-application demand forecasting.
//!
//! §I motivates elasticity with demand that "is often hard to predict in
//! advance" — yet much of it *is* predictable at epoch granularity: the
//! diurnal swing is smooth, and even flash crowds ramp over several
//! control epochs (§IV.B) before peaking. A forecaster that sees the ramp
//! lets the control plane provision *before* the overload instead of
//! reacting to it.
//!
//! Three predictors, all O(1) state and O(1) update so 300,000 apps fit
//! in one epoch tick without allocating:
//!
//! * [`ForecastMethod::Ewma`] — exponentially weighted moving average;
//!   level only, best for noisy but stationary demand.
//! * [`ForecastMethod::Holt`] — Holt's double exponential smoothing
//!   (level + trend); extrapolates ramps, which is what catches a flash
//!   crowd early.
//! * [`ForecastMethod::PeakOverWindow`] — max of the last *w*
//!   observations; a conservative envelope for bursty demand.
//!
//! All predictions are clamped non-negative. Everything is deterministic:
//! no RNG, no wall clock, no allocation after construction.

/// Hard cap on the peak-over-window length, so the predictor's ring
/// buffer can live inline (no per-app heap allocation).
pub const MAX_PEAK_WINDOW: usize = 16;

/// Which predictor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastMethod {
    /// Exponentially weighted moving average (level only).
    Ewma,
    /// Holt double exponential smoothing (level + trend).
    Holt,
    /// Maximum over a sliding window of recent observations.
    PeakOverWindow,
}

/// Forecaster configuration (one per platform; predictors are per app).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastConfig {
    /// The prediction method.
    pub method: ForecastMethod,
    /// EWMA smoothing factor in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Holt level smoothing factor in `(0, 1]`.
    pub holt_alpha: f64,
    /// Holt trend smoothing factor in `(0, 1]`.
    pub holt_beta: f64,
    /// Window length for peak-over-window, in `1..=MAX_PEAK_WINDOW`.
    pub peak_window: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig {
            method: ForecastMethod::Holt,
            ewma_alpha: 0.3,
            holt_alpha: 0.5,
            holt_beta: 0.3,
            peak_window: 6,
        }
    }
}

impl ForecastConfig {
    /// Validate, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err("ewma_alpha must be in (0, 1]".into());
        }
        if !(self.holt_alpha > 0.0 && self.holt_alpha <= 1.0) {
            return Err("holt_alpha must be in (0, 1]".into());
        }
        if !(self.holt_beta > 0.0 && self.holt_beta <= 1.0) {
            return Err("holt_beta must be in (0, 1]".into());
        }
        if self.peak_window == 0 || self.peak_window > MAX_PEAK_WINDOW {
            return Err(format!("peak_window must be in 1..={MAX_PEAK_WINDOW}"));
        }
        Ok(())
    }
}

/// One application's predictor state.
#[derive(Debug, Clone, PartialEq)]
pub enum Predictor {
    /// EWMA state.
    Ewma {
        /// Smoothed level (negative before the first observation).
        level: f64,
        /// Smoothing factor.
        alpha: f64,
    },
    /// Holt state.
    Holt {
        /// Smoothed level.
        level: f64,
        /// Smoothed per-epoch trend.
        trend: f64,
        /// Level smoothing factor.
        alpha: f64,
        /// Trend smoothing factor.
        beta: f64,
        /// Observations so far, saturating at 2 (0 = empty, 1 = level
        /// only, 2+ = level and trend live).
        seen: u8,
    },
    /// Peak-over-window state: an inline ring buffer.
    Peak {
        /// Recent observations (only the first `len` of the logical ring
        /// are valid).
        window: [f64; MAX_PEAK_WINDOW],
        /// Next write position.
        head: u8,
        /// Valid entries, `<= cap`.
        len: u8,
        /// Configured window length.
        cap: u8,
    },
}

impl Predictor {
    /// Fresh predictor for one app.
    pub fn new(cfg: &ForecastConfig) -> Self {
        match cfg.method {
            ForecastMethod::Ewma => Predictor::Ewma {
                level: -1.0,
                alpha: cfg.ewma_alpha,
            },
            ForecastMethod::Holt => Predictor::Holt {
                level: 0.0,
                trend: 0.0,
                alpha: cfg.holt_alpha,
                beta: cfg.holt_beta,
                seen: 0,
            },
            ForecastMethod::PeakOverWindow => Predictor::Peak {
                window: [0.0; MAX_PEAK_WINDOW],
                head: 0,
                len: 0,
                cap: cfg.peak_window.clamp(1, MAX_PEAK_WINDOW) as u8,
            },
        }
    }

    /// Record one epoch's observed demand (clamped non-negative).
    pub fn observe(&mut self, demand: f64) {
        let d = if demand.is_finite() {
            demand.max(0.0)
        } else {
            0.0
        };
        match self {
            Predictor::Ewma { level, alpha } => {
                if *level < 0.0 {
                    *level = d;
                } else {
                    *level = *alpha * d + (1.0 - *alpha) * *level;
                }
            }
            Predictor::Holt {
                level,
                trend,
                alpha,
                beta,
                seen,
            } => match *seen {
                0 => {
                    *level = d;
                    *seen = 1;
                }
                1 => {
                    *trend = d - *level;
                    *level = d;
                    *seen = 2;
                }
                _ => {
                    let prev = *level;
                    *level = *alpha * d + (1.0 - *alpha) * (prev + *trend);
                    *trend = *beta * (*level - prev) + (1.0 - *beta) * *trend;
                }
            },
            Predictor::Peak {
                window,
                head,
                len,
                cap,
            } => {
                window[*head as usize] = d;
                *head = (*head + 1) % *cap;
                *len = (*len + 1).min(*cap);
            }
        }
    }

    /// Predicted demand `horizon` epochs ahead; always finite and `>= 0`.
    /// Before any observation the prediction is 0 (provision nothing for
    /// an app that has never shown demand).
    pub fn predict(&self, horizon: u32) -> f64 {
        let p = match self {
            Predictor::Ewma { level, .. } => level.max(0.0),
            Predictor::Holt {
                level, trend, seen, ..
            } => {
                if *seen == 0 {
                    0.0
                } else {
                    level + trend * horizon as f64
                }
            }
            Predictor::Peak { window, len, .. } => {
                window[..*len as usize].iter().copied().fold(0.0, f64::max)
            }
        };
        if p.is_finite() {
            p.max(0.0)
        } else {
            0.0
        }
    }

    /// Most recent smoothed level (0 before any observation).
    pub fn level(&self) -> f64 {
        self.predict(0)
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
    cfg: ForecastConfig,
    preds: Vec<Predictor>,
}

impl GroupForecaster {
    /// A bank of `n` fresh predictors.
    pub fn new(cfg: ForecastConfig, n: usize) -> Self {
        GroupForecaster {
            cfg,
            preds: (0..n).map(|_| Predictor::new(&cfg)).collect(),
        }
    }

    /// Number of tracked slots.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the bank tracks no slots.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Grow the bank to at least `n` slots (never shrinks — a slot's
    /// history survives even if a later observation vector is shorter).
    pub fn resize(&mut self, n: usize) {
        while self.preds.len() < n {
            self.preds.push(Predictor::new(&self.cfg));
        }
    }

    /// Record one epoch's observation vector, growing the bank if the
    /// vector is wider than the current slot count.
    pub fn observe(&mut self, values: &[f64]) {
        self.resize(values.len());
        for (p, &v) in self.preds.iter_mut().zip(values) {
            p.observe(v);
        }
    }

    /// Predicted value per slot, `horizon` epochs ahead; finite, `>= 0`.
    pub fn predict(&self, horizon: u32) -> Vec<f64> {
        self.preds.iter().map(|p| p.predict(horizon)).collect()
    }

    /// Prediction for one slot (0 for out-of-range slots).
    pub fn predict_one(&self, idx: usize, horizon: u32) -> f64 {
        self.preds.get(idx).map_or(0.0, |p| p.predict(horizon))
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

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
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

    fn cfg(method: ForecastMethod) -> ForecastConfig {
        ForecastConfig {
            method,
            ..ForecastConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        ForecastConfig::default().validate().unwrap();
        let c = ForecastConfig {
            ewma_alpha: 0.0,
            ..ForecastConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ForecastConfig {
            peak_window: MAX_PEAK_WINDOW + 1,
            ..ForecastConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut p = Predictor::new(&cfg(ForecastMethod::Ewma));
        for _ in 0..200 {
            p.observe(42.0);
        }
        assert!((p.predict(1) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn holt_tracks_linear_ramp() {
        let mut p = Predictor::new(&cfg(ForecastMethod::Holt));
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
        let mut p = Predictor::new(&cfg(ForecastMethod::Holt));
        for i in 0..10 {
            p.observe(100.0 * i as f64);
        }
        assert!(p.predict(3) > p.level());
    }

    #[test]
    fn peak_window_is_max_of_recent() {
        let mut c = cfg(ForecastMethod::PeakOverWindow);
        c.peak_window = 3;
        let mut p = Predictor::new(&c);
        for d in [5.0, 50.0, 7.0, 6.0] {
            p.observe(d);
        }
        // Window of 3: [50, 7, 6] → 50.
        assert_eq!(p.predict(1), 50.0);
        p.observe(8.0); // [7, 6, 8] → 50 evicted
        assert_eq!(p.predict(1), 8.0);
    }

    #[test]
    fn predictions_never_negative() {
        for m in [
            ForecastMethod::Ewma,
            ForecastMethod::Holt,
            ForecastMethod::PeakOverWindow,
        ] {
            let mut p = Predictor::new(&cfg(m));
            assert_eq!(p.predict(5), 0.0, "{m:?} before data");
            for d in [100.0, 10.0, 1.0, 0.0, 0.0, 0.0] {
                p.observe(d);
            }
            // Holt's trend is steeply negative here; prediction clamps.
            assert!(p.predict(10) >= 0.0, "{m:?} went negative");
        }
    }

    #[test]
    fn non_finite_observations_ignored_safely() {
        let mut p = Predictor::new(&cfg(ForecastMethod::Holt));
        p.observe(f64::NAN);
        p.observe(f64::INFINITY);
        p.observe(-5.0);
        assert!(p.predict(3).is_finite());
        assert!(p.predict(3) >= 0.0);
    }

    #[test]
    fn group_forecaster_tracks_each_slot_independently() {
        let mut g = GroupForecaster::new(ForecastConfig::default(), 2);
        for i in 0..50 {
            g.observe(&[10.0, 5.0 * i as f64]);
        }
        let p = g.predict(1);
        assert!((p[0] - 10.0).abs() < 1e-6, "flat slot drifted: {}", p[0]);
        assert!(p[1] > 5.0 * 49.0, "ramping slot not extrapolated: {}", p[1]);
        assert_eq!(g.predict_one(0, 1), p[0]);
        assert_eq!(g.predict_one(99, 1), 0.0);
    }

    #[test]
    fn group_forecaster_grows_with_wider_observations() {
        let mut g = GroupForecaster::new(ForecastConfig::default(), 1);
        g.observe(&[1.0]);
        g.observe(&[1.0, 7.0, 3.0]); // a pod was created mid-run
        assert_eq!(g.len(), 3);
        g.observe(&[1.0, 7.0]); // shorter vector: slot 2 keeps its state
        assert_eq!(g.len(), 3);
        assert!(g.predict_one(2, 0) > 0.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn mape_accumulates() {
        let mut m = MapeAccumulator::default();
        assert_eq!(m.mape(), None);
        m.record(110.0, 100.0); // 10%
        m.record(90.0, 100.0); // 10%
        m.record(123.0, 0.0); // skipped
        assert_eq!(m.count(), 2);
        assert!((m.mape().unwrap() - 0.1).abs() < 1e-12);
    }
}
