//! # elastic — predictive elasticity control plane
//!
//! The paper's control loop (§III–§IV) is purely *reactive*: pod and
//! global managers observe utilization each epoch and actuate knobs after
//! thresholds are crossed. This crate adds the *proactive* complement —
//! "elastic Internet applications" (§I) whose demand, while spiky, has
//! forecastable structure at epoch granularity:
//!
//! * [`forecast`] — per-app demand predictors (EWMA, Holt
//!   double-exponential with trend, peak-over-window), deterministic and
//!   allocation-free per tick so 300k apps fit in one epoch; plus
//!   [`GroupForecaster`] banks for infrastructure-level streams (per-pod
//!   utilization, per-link demand) that the global manager feeds its
//!   water-filling reweights ([`waterfill_weights`]) from.
//! * [`autoscaler`] — a target-tracking controller converting forecasts
//!   into desired capacity, with hysteresis bands and per-direction
//!   cooldowns, emitting proactive knob requests (deploy/replicate
//!   §IV.D, VM slice adjust §IV.E, RIP reweight §IV.F).
//! * [`arbiter`] — the §V.B policy-conflict resolver: competing requests
//!   are deduplicated, scale-out/scale-in conflicts cancelled, and the
//!   survivors ranked by the agility ladder (E7) and cost before the
//!   platform feeds them through the serialized VIP/RIP queue (§III.C).
//!
//! The crate is platform-agnostic: it consumes [`AppObservation`]s and
//! produces [`KnobRequest`]s, and never touches simulator state. The
//! `megadc` platform wires it in behind `PlatformConfig::elastic`
//! (disabled by default — the reactive-only baseline is unchanged).
//!
//! ```
//! use elastic::{AppObservation, ElasticConfig, ElasticController};
//!
//! let mut ctl = ElasticController::new(ElasticConfig::proactive(), 2);
//! // App 0 ramping against capacity 1.0; app 1 idle.
//! for epoch in 0..10 {
//!     let obs = [
//!         AppObservation {
//!             demand: 0.2 * epoch as f64,
//!             capacity: 1.0,
//!             instances: 1,
//!             slice: 1.0,
//!             min_slice: 0.4,
//!             max_slice: 2.0,
//!         },
//!         AppObservation::default(),
//!     ];
//!     let actions = ctl.tick(&obs);
//!     if !actions.is_empty() {
//!         // The ramp was caught before capacity was exceeded.
//!         assert!(actions.iter().all(|a| a.action.app() == 0));
//!     }
//! }
//! assert!(ctl.epochs() == 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod autoscaler;
pub mod forecast;

pub use arbiter::{
    headroom_pressure, waterfill_weights, Agility, Arbiter, ArbiterConfig, ArbiterStats,
    KnobRequest, ProposedAction,
};
pub use autoscaler::{AppObservation, AppScaler, AutoscalerConfig};
pub use forecast::{ForecastConfig, ForecastMethod, GroupForecaster, MapeAccumulator, Predictor};

/// Top-level configuration of the proactive control plane; embeds into
/// `PlatformConfig` (and so must stay `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElasticConfig {
    /// Master switch. `false` (the default) keeps the platform purely
    /// reactive, byte-for-byte identical to the pre-elastic behaviour.
    pub enabled: bool,
    /// Demand forecasting.
    pub forecast: ForecastConfig,
    /// Target-tracking control law.
    pub autoscaler: AutoscalerConfig,
    /// Conflict resolution and per-epoch caps.
    pub arbiter: ArbiterConfig,
}

impl ElasticConfig {
    /// The default proactive configuration (everything on).
    pub fn proactive() -> Self {
        ElasticConfig {
            enabled: true,
            ..ElasticConfig::default()
        }
    }

    /// Validate, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.forecast.validate()?;
        self.autoscaler.validate()?;
        self.arbiter.validate()?;
        Ok(())
    }
}

/// Cumulative controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Epochs ticked.
    pub epochs: u64,
    /// Raw requests proposed by the autoscaler (pre-arbitration).
    pub proposed: u64,
    /// Requests admitted by the arbiter.
    pub admitted: u64,
}

/// The assembled proactive controller: one [`AppScaler`] per application,
/// one [`Arbiter`], one forecast-quality score.
#[derive(Debug)]
pub struct ElasticController {
    cfg: ElasticConfig,
    scalers: Vec<AppScaler>,
    arbiter: Arbiter,
    mape: MapeAccumulator,
    stats: ControllerStats,
}

impl ElasticController {
    /// New controller for `num_apps` applications. Panics if the config
    /// is invalid (validate at the platform boundary first).
    pub fn new(cfg: ElasticConfig, num_apps: usize) -> Self {
        cfg.validate().expect("valid ElasticConfig");
        ElasticController {
            cfg,
            scalers: (0..num_apps)
                .map(|_| AppScaler::new(&cfg.forecast))
                .collect(),
            arbiter: Arbiter::new(cfg.arbiter),
            mape: MapeAccumulator::default(),
            stats: ControllerStats::default(),
        }
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &ElasticConfig {
        &self.cfg
    }

    /// Applications managed.
    pub fn num_apps(&self) -> usize {
        self.scalers.len()
    }

    /// Epochs ticked so far.
    pub fn epochs(&self) -> u64 {
        self.stats.epochs
    }

    /// Cumulative controller statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Mean absolute percentage error of the one-step forecasts so far.
    pub fn mape(&self) -> Option<f64> {
        self.mape.mape()
    }

    /// Preload one app's predictor with a historical demand series
    /// (oldest first) without emitting actions.
    pub fn warm_up(&mut self, app: u32, series: &[f64]) {
        let scaler = &mut self.scalers[app as usize];
        for &d in series {
            scaler.warm(d);
        }
    }

    /// Run one control epoch over all apps. `observations` must be
    /// indexed by app id and cover every app. Returns the arbitrated,
    /// agility-ordered action list.
    pub fn tick(&mut self, observations: &[AppObservation]) -> Vec<KnobRequest> {
        assert_eq!(
            observations.len(),
            self.scalers.len(),
            "one observation per app"
        );
        let mut proposed = Vec::new();
        for (app, (scaler, obs)) in self.scalers.iter_mut().zip(observations).enumerate() {
            // Score last epoch's one-step forecast against this actual.
            if self.stats.epochs > 0 {
                self.mape.record(scaler.last_prediction(), obs.demand);
            }
            scaler.tick(app as u32, obs, &self.cfg.autoscaler, &mut proposed);
        }
        self.stats.proposed += proposed.len() as u64;
        let admitted = self.arbiter.arbitrate(proposed);
        self.stats.admitted += admitted.len() as u64;
        self.stats.epochs += 1;
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_obs(n: usize, epoch: usize) -> Vec<AppObservation> {
        (0..n)
            .map(|a| AppObservation {
                demand: if a == 0 { 0.5 * epoch as f64 } else { 0.1 },
                capacity: 2.0,
                instances: 2,
                slice: 1.0,
                min_slice: 0.4,
                max_slice: 2.0,
            })
            .collect()
    }

    #[test]
    fn controller_ticks_all_apps_and_scores_mape() {
        let mut ctl = ElasticController::new(ElasticConfig::proactive(), 4);
        for e in 0..20 {
            ctl.tick(&ramp_obs(4, e));
        }
        assert_eq!(ctl.epochs(), 20);
        assert!(ctl.mape().is_some());
        // The ramping app produced actions; the steady ones stayed quiet.
        assert!(ctl.stats().admitted > 0);
    }

    #[test]
    fn disabled_config_still_validates() {
        ElasticConfig::default().validate().unwrap();
        assert!(!ElasticConfig::default().enabled);
        assert!(ElasticConfig::proactive().enabled);
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut ctl = ElasticController::new(ElasticConfig::proactive(), 8);
            let mut all = Vec::new();
            for e in 0..30 {
                all.extend(ctl.tick(&ramp_obs(8, e)));
            }
            all
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_up_makes_first_tick_predictive() {
        let mut cold = ElasticController::new(ElasticConfig::proactive(), 1);
        let mut warm = ElasticController::new(ElasticConfig::proactive(), 1);
        warm.warm_up(0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let obs = [AppObservation {
            demand: 6.0,
            capacity: 10.0,
            instances: 5,
            slice: 2.0,
            min_slice: 0.4,
            max_slice: 2.0,
        }];
        // Warm controller extrapolates the ramp beyond capacity; the cold
        // one sees a single sample and stays quiet.
        let warm_actions = warm.tick(&obs);
        let cold_actions = cold.tick(&obs);
        assert!(warm_actions.len() >= cold_actions.len());
    }

    #[test]
    #[should_panic(expected = "one observation per app")]
    fn observation_length_mismatch_panics() {
        let mut ctl = ElasticController::new(ElasticConfig::proactive(), 3);
        ctl.tick(&ramp_obs(2, 0));
    }
}
