//! # elastic — predictive elasticity control plane
//!
//! The paper's control loop (§III–§IV) is purely *reactive*: pod and
//! global managers observe utilization each epoch and actuate knobs after
//! thresholds are crossed. This crate adds the *proactive* complement —
//! "elastic Internet applications" (§I) whose demand, while spiky, has
//! forecastable structure at epoch granularity:
//!
//! * [`forecast`] — per-app demand prediction with Holt's double
//!   exponential smoothing (level + trend, α = 0.5, β = 0.3),
//!   deterministic and allocation-free per tick so 300k apps fit in one
//!   epoch; plus [`GroupForecaster`] banks for infrastructure-level
//!   streams (per-pod utilization, per-link demand) that the global
//!   manager feeds its water-filling reweights ([`waterfill_weights`])
//!   from.
//! * [`autoscaler`] — a target-tracking controller converting forecasts
//!   into desired capacity, with fixed hysteresis bands and
//!   per-direction cooldowns, emitting proactive knob requests
//!   (deploy/replicate §IV.D, VM slice adjust §IV.E, RIP reweight
//!   §IV.F).
//! * [`arbiter`] — the §V.B policy-conflict resolver: each epoch's
//!   requests are ranked by the agility ladder (E7) and cost and cut to
//!   the per-epoch caps before the platform feeds them through the
//!   serialized VIP/RIP queue (§III.C). The autoscaler never proposes two
//!   requests of one kind, or a scale-out beside a retire, for one app,
//!   so that sort is all the arbitration it needs.
//!
//! The crate is platform-agnostic: it consumes [`AppObservation`]s and
//! produces [`KnobRequest`]s, and never touches simulator state. The
//! `megadc` platform wires it in behind `PlatformConfig::elastic`
//! (disabled by default — the reactive-only baseline is unchanged).
//!
//! ```
//! use elastic::{AppObservation, ElasticController};
//!
//! let mut ctl = ElasticController::new(2);
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
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod autoscaler;
pub mod forecast;

pub use arbiter::{headroom_pressure, waterfill_weights, KnobRequest, ProposedAction};
pub use autoscaler::{AppObservation, AppScaler};
pub use forecast::{GroupForecaster, MapeAccumulator, Predictor};

/// Top-level configuration of the proactive control plane; embeds into
/// `PlatformConfig` (and so must stay `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElasticConfig {
    /// Master switch. `false` (the default) keeps the platform purely
    /// reactive, byte-for-byte identical to the pre-elastic behaviour.
    pub enabled: bool,
}

impl ElasticConfig {
    /// The proactive configuration (the plane switched on).
    pub fn proactive() -> Self {
        ElasticConfig { enabled: true }
    }
}

/// The assembled proactive controller: one [`AppScaler`] per application,
/// the arbitration step, one forecast-quality score.
#[derive(Debug)]
pub struct ElasticController {
    scalers: Vec<AppScaler>,
    mape: MapeAccumulator,
    epochs: u64,
}

impl ElasticController {
    /// New controller for `num_apps` applications.
    pub fn new(num_apps: usize) -> Self {
        ElasticController {
            scalers: vec![AppScaler::default(); num_apps],
            mape: MapeAccumulator::default(),
            epochs: 0,
        }
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
        arbiter::arbitrate(self.propose(observations))
    }

    /// Score last epoch's forecasts and run every app's autoscaler: the
    /// epoch's requests before arbitration.
    fn propose(&mut self, observations: &[AppObservation]) -> Vec<KnobRequest> {
        assert_eq!(
            observations.len(),
            self.scalers.len(),
            "one observation per app"
        );
        let mut proposed = Vec::new();
        for (app, (scaler, obs)) in self.scalers.iter_mut().zip(observations).enumerate() {
            // Score last epoch's one-step forecast against this actual.
            if self.epochs > 0 {
                self.mape.record(scaler.last_prediction(), obs.demand);
            }
            scaler.tick(app as u32, obs, &mut proposed);
        }
        self.epochs += 1;
        proposed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::reference::{self, ThreeStepStats};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// Propose one epoch's requests, check that no two share an (app,
    /// rank) and no retire shares an app with a scale-out, and check that
    /// both arbitrations admit the same bits. Returns the one-step
    /// admissions and the reference's statistics.
    fn propose_and_compare(
        ctl: &mut ElasticController,
        obs: &[AppObservation],
    ) -> (Vec<KnobRequest>, ThreeStepStats) {
        let proposed = ctl.propose(obs);
        let mut keys = BTreeSet::new();
        let mut scale_out = BTreeSet::new();
        for r in &proposed {
            let (app, rank) = (r.action.app(), r.action.rank());
            assert!(keys.insert((app, rank)), "two requests for ({app}, {rank})");
            if !matches!(r.action, ProposedAction::Retire { .. }) {
                scale_out.insert(app);
            }
        }
        for r in &proposed {
            if let ProposedAction::Retire { app, .. } = r.action {
                assert!(
                    !scale_out.contains(&app),
                    "retire beside a scale-out: {app}"
                );
            }
        }
        let mut stats = ThreeStepStats::default();
        let three_step = reference::arbitrate(proposed.clone(), &mut stats);
        let one_step = arbiter::arbitrate(proposed);
        assert_eq!(reference::bits(&one_step), reference::bits(&three_step));
        assert_eq!((stats.conflicts_resolved, stats.duplicates_merged), (0, 0));
        (one_step, stats)
    }

    /// One app's observation: demand, capacity (zeroed one time in
    /// four), instances, current slice (at the floor one time in four,
    /// where a scale-in retires).
    fn arb_obs() -> impl Strategy<Value = AppObservation> {
        (0.0f64..30.0, 0.0f64..20.0, 0u32..4, 0u32..10, 0.4f64..2.0).prop_map(
            |(demand, capacity, pick, instances, slice)| AppObservation {
                demand,
                capacity: if pick == 0 { 0.0 } else { capacity },
                instances,
                slice: if pick == 1 { 0.4 } else { slice },
                min_slice: 0.4,
                max_slice: 2.0,
            },
        )
    }

    proptest! {
        #[test]
        fn tick_emits_one_request_per_app_and_rank_and_matches_three_step(
            (apps, obs) in (1usize..40, 1usize..30).prop_flat_map(|(apps, epochs)| {
                (Just(apps), proptest::collection::vec(arb_obs(), apps * epochs))
            }),
        ) {
            let mut ctl = ElasticController::new(apps);
            let mut twin = ElasticController::new(apps);
            for epoch in obs.chunks(apps) {
                let (admitted, _) = propose_and_compare(&mut ctl, epoch);
                prop_assert_eq!(reference::bits(&twin.tick(epoch)), reference::bits(&admitted));
            }
        }
    }

    #[test]
    fn one_step_matches_three_step_when_the_caps_bind() {
        // 200 apps, each ramping from its own epoch on: well over 64
        // requests and 8 deploys in the busiest epochs.
        let mut ctl = ElasticController::new(200);
        let mut capped = 0;
        for e in 0..40 {
            let obs: Vec<AppObservation> = (0..200)
                .map(|a| AppObservation {
                    demand: (e as f64 - (a % 20) as f64).max(0.0) * 2.0,
                    capacity: 4.0,
                    instances: 2,
                    slice: 2.0,
                    min_slice: 0.4,
                    max_slice: 2.0,
                })
                .collect();
            capped += propose_and_compare(&mut ctl, &obs).1.capped;
        }
        assert!(capped > 0, "the caps never bound");
    }

    #[test]
    fn controller_ticks_all_apps_and_scores_mape() {
        let mut ctl = ElasticController::new(4);
        let mut admitted = 0;
        for e in 0..20 {
            admitted += ctl.tick(&ramp_obs(4, e)).len();
        }
        assert!(ctl.mape().is_some());
        // The ramping app produced actions; the steady ones stayed quiet.
        assert!(admitted > 0);
    }

    #[test]
    fn disabled_config_still_validates() {
        assert!(!ElasticConfig::default().enabled);
        assert!(ElasticConfig::proactive().enabled);
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut ctl = ElasticController::new(8);
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
        let mut cold = ElasticController::new(1);
        let mut warm = ElasticController::new(1);
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
        let mut ctl = ElasticController::new(3);
        ctl.tick(&ramp_obs(2, 0));
    }
}
