//! Target-tracking proactive autoscaling.
//!
//! The reactive plane (pod managers + global knobs) provisions against
//! demand it has already *seen*; by the time a flash crowd trips the
//! overload thresholds, clients are being shed. The autoscaler instead
//! tracks a target utilization against the *forecast* demand
//! ([`crate::forecast`]) and emits knob requests while the ramp is still
//! building.
//!
//! Control law per application, once per epoch:
//!
//! * Predicted utilization = forecast(horizon) / provisioned capacity.
//! * Above the **upper hysteresis band**: restore the target by the most
//!   agile means available — reweight toward pod headroom, grow VM
//!   slices (§IV.E), and only then deploy instances (§IV.D), sized so
//!   capacity lands at `forecast / target utilization`.
//! * Below the **lower band**: shrink slices toward the base, then
//!   retire one instance at a time.
//! * **Cooldowns** gate both directions so the controller cannot flap:
//!   scale-out re-arms quickly (under-provisioning loses traffic),
//!   scale-in slowly (§IV.D clones are expensive to re-create).
//!
//! The tuning is fixed: forecast 3 epochs ahead, target utilization 0.7,
//! bands 0.3 and 0.9, cooldowns 2 epochs (scale-out) and 30 (scale-in),
//! at most 4 instances added per action, never fewer than 1 instance.
//!
//! Each tick proposes at most one request per action kind for an app,
//! and all of one direction: the scale-out ladder (reweight, slice grow,
//! deploy) or one scale-in step (slice shrink or retire). The
//! autoscaler proposes; the [`crate::arbiter`] disposes. It never
//! touches platform state itself.

use crate::arbiter::{KnobRequest, ProposedAction};
use crate::forecast::Predictor;

// The reactive plane provisions observed demand × headroom (1.2×),
// parking steady-state utilization near 0.83. The bands sit around that
// point so the proactive plane is quiet in steady state and fires only
// when the *forecast* deviates: target 0.7 provisions slightly ahead of
// the reactive 1.2×, and the 0.9 upper band needs a genuine predicted
// ramp to trip.

/// Utilization the controller provisions toward (capacity lands at
/// `forecast / TARGET_UTILIZATION`).
const TARGET_UTILIZATION: f64 = 0.7;
/// Scale out when predicted utilization exceeds this band.
const UPPER_BAND: f64 = 0.9;
/// Scale in when predicted utilization falls below this band.
const LOWER_BAND: f64 = 0.3;
/// Forecast horizon, control epochs ahead.
const HORIZON_EPOCHS: u32 = 3;
/// Epochs between scale-out actions on one app.
const SCALE_UP_COOLDOWN: u32 = 2;
/// Epochs between scale-in actions on one app.
const SCALE_DOWN_COOLDOWN: u32 = 30;
/// Max instances added to one app per action.
const MAX_STEP_INSTANCES: u32 = 4;
/// Never retire below this many instances.
const MIN_INSTANCES: u32 = 1;

/// What the controller observes about one application each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AppObservation {
    /// Offered CPU demand this epoch, capacity units.
    pub demand: f64,
    /// Provisioned CPU capacity (sum of serving instances' slices).
    pub capacity: f64,
    /// Instance count, including booting clones (so in-flight scale-outs
    /// are not double-counted).
    pub instances: u32,
    /// Representative current per-instance CPU slice.
    pub slice: f64,
    /// Floor for slice shrinking (the platform's base slice).
    pub min_slice: f64,
    /// Ceiling for slice growth (§IV.E hot-adjust limit).
    pub max_slice: f64,
}

/// Per-application controller state.
#[derive(Debug, Clone, Default)]
pub struct AppScaler {
    predictor: Predictor,
    up_cooldown: u32,
    down_cooldown: u32,
    last_prediction: f64,
}

impl AppScaler {
    /// Feed one historical observation without making decisions (warm-up).
    pub fn warm(&mut self, demand: f64) {
        self.predictor.observe(demand);
    }

    /// The one-step-ahead prediction made last epoch (for MAPE scoring
    /// against this epoch's actual).
    pub fn last_prediction(&self) -> f64 {
        self.last_prediction
    }

    /// Run one epoch of control for this app, appending any proposed
    /// actions to `out`: at most one request per action kind, all of one
    /// direction (scale-out or scale-in).
    pub fn tick(&mut self, app: u32, obs: &AppObservation, out: &mut Vec<KnobRequest>) {
        self.predictor.observe(obs.demand);
        self.last_prediction = self.predictor.predict(1);
        let forecast = self.predictor.predict(HORIZON_EPOCHS);
        self.up_cooldown = self.up_cooldown.saturating_sub(1);
        self.down_cooldown = self.down_cooldown.saturating_sub(1);

        let predicted_util = if obs.capacity > 0.0 {
            forecast / obs.capacity
        } else if forecast > 0.0 {
            f64::MAX.sqrt() // uncapacitated demand: maximally urgent
        } else {
            0.0
        };
        let urgency = predicted_util.min(1e9);

        if predicted_util > UPPER_BAND && self.up_cooldown == 0 {
            let desired_capacity = forecast / TARGET_UTILIZATION;
            let instances = obs.instances.max(1);
            // Rung 1: reweighting is free and immediate.
            out.push(KnobRequest {
                action: ProposedAction::Reweight { app },
                urgency,
                cost: 0.1,
            });
            // Rung 2: grow slices toward the per-instance need.
            let needed_slice =
                (desired_capacity / instances as f64).clamp(obs.min_slice, obs.max_slice);
            if needed_slice > obs.slice * 1.01 {
                out.push(KnobRequest {
                    action: ProposedAction::SliceAdjust {
                        app,
                        target_slice: needed_slice,
                    },
                    urgency,
                    cost: 1.0,
                });
            }
            // Rung 3: deploy when even max slices cannot reach the target.
            let max_capacity = instances as f64 * obs.max_slice;
            if desired_capacity > max_capacity {
                let want = (desired_capacity / obs.max_slice).ceil() as u32;
                let extra = want.saturating_sub(instances).clamp(1, MAX_STEP_INSTANCES);
                out.push(KnobRequest {
                    action: ProposedAction::Deploy {
                        app,
                        instances: extra,
                    },
                    urgency,
                    cost: 5.0 * extra as f64,
                });
            }
            self.up_cooldown = SCALE_UP_COOLDOWN;
        } else if predicted_util < LOWER_BAND && self.down_cooldown == 0 && obs.capacity > 0.0 {
            let desired_capacity = forecast / TARGET_UTILIZATION;
            let instances = obs.instances.max(1);
            let needed_slice =
                (desired_capacity / instances as f64).clamp(obs.min_slice, obs.max_slice);
            if obs.slice > obs.min_slice * 1.01 && needed_slice < obs.slice * 0.99 {
                // Shrink slices first: reversible in one epoch.
                out.push(KnobRequest {
                    action: ProposedAction::SliceAdjust {
                        app,
                        target_slice: needed_slice,
                    },
                    urgency,
                    cost: 1.0,
                });
                self.down_cooldown = SCALE_DOWN_COOLDOWN;
            } else if obs.instances > MIN_INSTANCES {
                out.push(KnobRequest {
                    action: ProposedAction::Retire { app, instances: 1 },
                    urgency,
                    cost: 0.5,
                });
                self.down_cooldown = SCALE_DOWN_COOLDOWN;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(demand: f64, capacity: f64, instances: u32) -> AppObservation {
        AppObservation {
            demand,
            capacity,
            instances,
            slice: capacity / instances.max(1) as f64,
            min_slice: 0.4,
            max_slice: 2.0,
        }
    }

    fn is_retire(r: &KnobRequest) -> bool {
        matches!(r.action, ProposedAction::Retire { .. })
    }

    #[test]
    fn steady_demand_at_target_is_quiet() {
        let mut s = AppScaler::default();
        let mut out = Vec::new();
        // Demand 7, capacity 10 → util 0.7 = target, inside both bands;
        // no action, ever.
        for _ in 0..50 {
            s.tick(0, &obs(7.0, 10.0, 5), &mut out);
        }
        assert!(
            out.is_empty(),
            "actions on steady at-target demand: {out:?}"
        );
    }

    #[test]
    fn ramp_triggers_scale_out_ladder() {
        let mut s = AppScaler::default();
        let mut out = Vec::new();
        // Demand ramping hard against fixed capacity 10 with all slices
        // already at max: must eventually propose deployment.
        let mut deployed = false;
        for i in 0..30 {
            let d = 1.0 + i as f64;
            let mut o = obs(d, 10.0, 5);
            o.slice = 2.0; // at max
            s.tick(0, &o, &mut out);
            if out
                .iter()
                .any(|r| matches!(r.action, ProposedAction::Deploy { .. }))
            {
                deployed = true;
                break;
            }
        }
        assert!(deployed, "no deployment proposed against a hard ramp");
        // The ladder also proposed the agile knobs.
        assert!(out
            .iter()
            .any(|r| matches!(r.action, ProposedAction::Reweight { .. })));
    }

    #[test]
    fn slice_growth_preferred_when_sufficient() {
        let mut s = AppScaler::default();
        let mut out = Vec::new();
        // Capacity 2.0 over 5 instances (slice 0.4); demand 2.0 predicts
        // util 1.0 > band, but 5 × max_slice = 10 covers the target
        // easily → slices grow, no deployment.
        for _ in 0..5 {
            s.tick(0, &obs(2.0, 2.0, 5), &mut out);
        }
        assert!(out
            .iter()
            .any(|r| matches!(r.action, ProposedAction::SliceAdjust { .. })));
        assert!(!out
            .iter()
            .any(|r| matches!(r.action, ProposedAction::Deploy { .. })));
    }

    #[test]
    fn cooldown_gates_repeat_scale_out() {
        let mut s = AppScaler::default();
        let mut out = Vec::new();
        let mut o = obs(20.0, 10.0, 5);
        o.slice = 2.0;
        s.tick(0, &o, &mut out);
        let first = out.len();
        assert!(first > 0);
        // Still overloaded, but cooling down until the cooldown runs out.
        for _ in 1..SCALE_UP_COOLDOWN {
            s.tick(0, &o, &mut out);
            assert_eq!(out.len(), first, "acted during cooldown");
        }
        s.tick(0, &o, &mut out);
        assert!(out.len() > first, "cooldown never re-armed");
    }

    #[test]
    fn sustained_low_demand_retires_after_shrink() {
        let mut s = AppScaler::default();
        let mut out = Vec::new();
        // Demand 0.3 on capacity 2 → util 0.15 < lower band. Slices are
        // already at the floor, so the controller retires, then again
        // once the scale-down cooldown has run out.
        for _ in 0..=SCALE_DOWN_COOLDOWN {
            let mut o = obs(0.3, 2.0, 5);
            o.slice = 0.4;
            s.tick(0, &o, &mut out);
        }
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(is_retire));
        // Never below the instance floor: a fresh scaler (no cooldown
        // pending) on one instance at the slice floor stays quiet.
        let mut s = AppScaler::default();
        let mut o = obs(0.01, 0.4, MIN_INSTANCES);
        o.slice = 0.4;
        out.clear();
        for _ in 0..10 {
            s.tick(0, &o, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn zero_capacity_with_demand_is_urgent() {
        let mut s = AppScaler::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            s.tick(0, &obs(5.0, 0.0, 0), &mut out);
        }
        assert!(!out.is_empty());
        assert!(out[0].urgency > 1.0);
    }

    #[test]
    fn warm_up_enables_first_tick_action() {
        // A warmed predictor extrapolates the ramp past the upper band
        // on the very first live tick; a cold one sees a single sample
        // and stays quiet.
        let mut cold = AppScaler::default();
        let mut warm = AppScaler::default();
        for d in [2.0, 4.0, 6.0, 8.0, 10.0] {
            warm.warm(d);
        }
        let (mut warm_out, mut cold_out) = (Vec::new(), Vec::new());
        let o = obs(12.0, 15.0, 10);
        warm.tick(0, &o, &mut warm_out);
        cold.tick(0, &o, &mut cold_out);
        assert!(!warm_out.is_empty(), "warm controller missed the ramp");
        assert!(cold_out.is_empty(), "cold controller acted on one sample");
    }

    #[test]
    fn warm_up_preloads_the_predictor() {
        let mut warm = AppScaler::default();
        for i in 0..10 {
            warm.warm(10.0 * i as f64);
        }
        let cold = AppScaler::default();
        assert!(warm.predictor.predict(3) > cold.predictor.predict(3));
    }
}
