//! Policy-conflict arbitration for proactive knob requests.
//!
//! §V.B names policy conflicts as the core difficulty of multi-knob
//! control: independent policies "may issue conflicting decisions" over
//! the same resources. The reactive plane resolves one such conflict ad
//! hoc (VIP drains own an app's DNS exposure); the proactive plane
//! instead funnels *every* request through this arbiter before anything
//! touches the platform.
//!
//! Arbitration is one deterministic step: requests are ordered by the
//! agility ladder (E7: reweight ≺ slice adjust ≺ deploy ≺ retire, fastest
//! first), then by cost, then by urgency (most urgent first), then by
//! app, and truncated to the per-epoch caps (64 actions, of which at most
//! 8 deployments) so the proactive plane cannot flood the serialized
//! VIP/RIP queue.
//!
//! The producer needs nothing more. [`crate::AppScaler::tick`] proposes
//! at most one request per action kind for an app, all of one direction,
//! so no app ever carries both a scale-out and a retire, nor two requests
//! of one kind. No two requests then tie on (rank, app), so the sort is a
//! total order and its result does not depend on submission order.

use std::cmp::Ordering;

/// Total proactive actions admitted per epoch.
const MAX_ACTIONS_PER_EPOCH: usize = 64;
/// Of those, at most this many deployments (clones are the most
/// expensive action and share the reactive deployment budget).
const MAX_DEPLOYS_PER_EPOCH: usize = 8;

/// A proactive action proposed by the autoscaler for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProposedAction {
    /// Shift RIP weight toward instances in pods with headroom.
    Reweight {
        /// Target application.
        app: u32,
    },
    /// Grow (or shrink) every instance's CPU slice toward a target.
    SliceAdjust {
        /// Target application.
        app: u32,
        /// Desired per-instance CPU slice, capacity units.
        target_slice: f64,
    },
    /// Start additional instances ahead of predicted demand.
    Deploy {
        /// Target application.
        app: u32,
        /// Instances to add.
        instances: u32,
    },
    /// Retire surplus instances after sustained low demand.
    Retire {
        /// Target application.
        app: u32,
        /// Instances to remove.
        instances: u32,
    },
}

impl ProposedAction {
    /// The application this action targets.
    pub fn app(&self) -> u32 {
        match *self {
            ProposedAction::Reweight { app }
            | ProposedAction::SliceAdjust { app, .. }
            | ProposedAction::Deploy { app, .. }
            | ProposedAction::Retire { app, .. } => app,
        }
    }

    /// Agility-ladder rank (§IV, measured by E7), 0 = most agile:
    /// reweight (switch-local, next epoch) ≺ slice adjust
    /// (hypervisor-local, seconds) ≺ deploy (clone + boot + RIP bind,
    /// tens of seconds) ≺ retire (drain + destroy; never urgent).
    pub fn rank(&self) -> u8 {
        match self {
            ProposedAction::Reweight { .. } => 0,
            ProposedAction::SliceAdjust { .. } => 1,
            ProposedAction::Deploy { .. } => 2,
            ProposedAction::Retire { .. } => 3,
        }
    }
}

/// One knob request: an action plus the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobRequest {
    /// The proposed action.
    pub action: ProposedAction,
    /// Predicted utilization driving the request (higher = more urgent).
    pub urgency: f64,
    /// Estimated actuation cost in abstract currency units (clone time,
    /// queue occupancy); used to break agility ties cheapest-first.
    pub cost: f64,
}

/// Order one epoch's requests by agility rank, cost, urgency (descending)
/// and app, then cut them to the per-epoch caps.
pub(crate) fn arbitrate(mut requests: Vec<KnobRequest>) -> Vec<KnobRequest> {
    debug_assert!(
        {
            let mut seen = std::collections::BTreeSet::new();
            requests
                .iter()
                .all(|r| seen.insert((r.action.app(), r.action.rank())))
        },
        "two requests for one (app, rank)"
    );
    // The producer never emits a non-finite cost or urgency, so
    // `partial_cmp` is total here.
    requests.sort_by(|a, b| {
        a.action
            .rank()
            .cmp(&b.action.rank())
            .then(a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal))
            .then(b.urgency.partial_cmp(&a.urgency).unwrap_or(Ordering::Equal))
            .then(a.action.app().cmp(&b.action.app()))
    });
    let mut deploys = 0usize;
    let mut admitted = 0usize;
    requests.retain(|r| {
        if admitted >= MAX_ACTIONS_PER_EPOCH {
            return false;
        }
        if matches!(r.action, ProposedAction::Deploy { .. }) {
            if deploys >= MAX_DEPLOYS_PER_EPOCH {
                return false;
            }
            deploys += 1;
        }
        admitted += 1;
        true
    });
    requests
}

/// Water-filling weight shift: step the current weight vector toward a
/// target proportional to `pressure`, conserving the total exactly.
///
/// `pressure[i]` is how much of the total weight slot `i` *should* carry
/// (any non-negative scale; only ratios matter — see
/// [`headroom_pressure`]). The target for slot `i` is
/// `total · pressure[i] / Σpressure`, and the result moves each weight a
/// fraction `step ∈ [0, 1]` of the way there. Unlike repeated
/// multiplicative hot→cold shifts this law is *self-limiting*: its fixed
/// point is the target itself, so re-applying it every epoch converges
/// instead of overshooting and oscillating.
///
/// Degenerate inputs (empty, non-positive total, zero pressure
/// everywhere, mismatched lengths treated as zero-padded) return the
/// input unchanged.
pub fn waterfill_weights(current: &[f64], pressure: &[f64], step: f64) -> Vec<f64> {
    let total: f64 = current.iter().sum();
    let psum: f64 = pressure.iter().take(current.len()).sum();
    if current.is_empty() || !total.is_finite() || total <= 0.0 || !psum.is_finite() || psum <= 0.0
    {
        return current.to_vec();
    }
    let step = step.clamp(0.0, 1.0);
    let mut out: Vec<f64> = current
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let p = pressure.get(i).copied().unwrap_or(0.0).max(0.0);
            let target = total * p / psum;
            w + step * (target - w)
        })
        .collect();
    // Conserve Σ exactly: each step moves Σ by step·(Σtargets − Σ) = 0
    // analytically, but float error accumulates; renormalize.
    let new_total: f64 = out.iter().sum();
    if new_total > 0.0 {
        let scale = total / new_total;
        for w in &mut out {
            *w *= scale;
        }
    }
    out
}

/// Headroom pressure: how much weight each slot should attract, given
/// its serving capacity and its (predicted) utilization. A slot's
/// pressure is its capacity discounted by how busy it is expected to be,
/// floored at 5% so a momentarily-hot slot is never fully abandoned
/// (mirroring the reactive exposure floor).
pub fn headroom_pressure(capacity: &[f64], predicted_util: &[f64]) -> Vec<f64> {
    capacity
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let u = predicted_util.get(i).copied().unwrap_or(0.0);
            let u = if u.is_finite() { u.max(0.0) } else { 0.0 };
            c.max(0.0) * (1.0 - u).max(0.05)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(action: ProposedAction, urgency: f64, cost: f64) -> KnobRequest {
        KnobRequest {
            action,
            urgency,
            cost,
        }
    }

    #[test]
    fn agility_ladder_is_ordered() {
        let ladder = [
            ProposedAction::Reweight { app: 0 },
            ProposedAction::SliceAdjust {
                app: 0,
                target_slice: 1.0,
            },
            ProposedAction::Deploy {
                app: 0,
                instances: 1,
            },
            ProposedAction::Retire {
                app: 0,
                instances: 1,
            },
        ];
        for w in ladder.windows(2) {
            assert!(w[0].rank() < w[1].rank(), "{w:?}");
        }
    }

    #[test]
    fn ranking_follows_agility_then_cost() {
        let out = arbitrate(vec![
            req(
                ProposedAction::Deploy {
                    app: 1,
                    instances: 1,
                },
                0.99,
                5.0,
            ),
            req(
                ProposedAction::SliceAdjust {
                    app: 2,
                    target_slice: 1.0,
                },
                0.9,
                2.0,
            ),
            req(ProposedAction::Reweight { app: 3 }, 0.86, 0.1),
            req(
                ProposedAction::SliceAdjust {
                    app: 4,
                    target_slice: 1.0,
                },
                0.9,
                1.0,
            ),
        ]);
        assert!(matches!(out[0].action, ProposedAction::Reweight { app: 3 }));
        // Cheaper slice adjust first.
        assert!(matches!(
            out[1].action,
            ProposedAction::SliceAdjust { app: 4, .. }
        ));
        assert!(matches!(
            out[2].action,
            ProposedAction::SliceAdjust { app: 2, .. }
        ));
        assert!(matches!(
            out[3].action,
            ProposedAction::Deploy { app: 1, .. }
        ));
    }

    #[test]
    fn caps_bound_admissions() {
        // 40 reweights, 20 deploys and 20 retires, each on its own
        // (app, rank): 80 requests against the 64-action cap, 20 deploys
        // against the 8-deploy cap.
        let reqs: Vec<KnobRequest> = (0..40)
            .map(|a| req(ProposedAction::Reweight { app: a }, 0.95, 0.1))
            .chain((0..20).map(|a| {
                req(
                    ProposedAction::Deploy {
                        app: a,
                        instances: 1,
                    },
                    0.95,
                    5.0,
                )
            }))
            .chain((40..60).map(|a| {
                req(
                    ProposedAction::Retire {
                        app: a,
                        instances: 1,
                    },
                    0.1,
                    0.5,
                )
            }))
            .collect();
        let out = arbitrate(reqs);
        // The reweights rank first and all fit; the deploy cap admits 8
        // of the 20 deploys; the retires fill the rest of the action cap.
        assert_eq!(out.len(), MAX_ACTIONS_PER_EPOCH);
        let count = |rank: u8| out.iter().filter(|r| r.action.rank() == rank).count();
        assert_eq!(count(0), 40);
        assert_eq!(count(2), MAX_DEPLOYS_PER_EPOCH);
        assert_eq!(count(3), MAX_ACTIONS_PER_EPOCH - 40 - MAX_DEPLOYS_PER_EPOCH);
        // Within a rung the order is by app (equal cost and urgency).
        assert!(matches!(out[0].action, ProposedAction::Reweight { app: 0 }));
        assert!(matches!(
            out[40].action,
            ProposedAction::Deploy { app: 0, .. }
        ));
        assert!(matches!(
            out[48].action,
            ProposedAction::Retire { app: 40, .. }
        ));
    }

    #[test]
    fn waterfill_conserves_total_and_moves_toward_pressure() {
        let cur = [1.0, 1.0, 1.0];
        let pressure = [3.0, 1.0, 0.0];
        let out = waterfill_weights(&cur, &pressure, 0.5);
        let total: f64 = out.iter().sum();
        assert!((total - 3.0).abs() < 1e-9, "total drifted: {total}");
        // Direction: high-pressure slot gains, zero-pressure slot loses.
        assert!(out[0] > cur[0]);
        assert!(out[2] < cur[2]);
        // Half-step lands halfway to the target (2.25, 0.75, 0.0).
        assert!((out[0] - 1.625).abs() < 1e-9);
        assert!((out[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn waterfill_fixed_point_and_identity() {
        // step = 1 jumps to the target, which is then a fixed point.
        let cur = [2.0, 1.0];
        let pressure = [1.0, 2.0];
        let at_target = waterfill_weights(&cur, &pressure, 1.0);
        assert!((at_target[0] - 1.0).abs() < 1e-9);
        assert!((at_target[1] - 2.0).abs() < 1e-9);
        let again = waterfill_weights(&at_target, &pressure, 1.0);
        assert_eq!(at_target, again, "target is not a fixed point");
        // step = 0 is the identity.
        assert_eq!(waterfill_weights(&cur, &pressure, 0.0), cur.to_vec());
    }

    #[test]
    fn waterfill_degenerate_inputs_unchanged() {
        assert!(waterfill_weights(&[], &[], 0.5).is_empty());
        // All-zero pressure: nothing to aim at.
        assert_eq!(
            waterfill_weights(&[1.0, 2.0], &[0.0, 0.0], 0.5),
            vec![1.0, 2.0]
        );
        // Zero current total: nothing to redistribute.
        assert_eq!(
            waterfill_weights(&[0.0, 0.0], &[1.0, 1.0], 0.5),
            vec![0.0, 0.0]
        );
        // Short pressure vector is zero-padded.
        let out = waterfill_weights(&[1.0, 1.0], &[1.0], 1.0);
        assert!((out[0] - 2.0).abs() < 1e-9 && out[1].abs() < 1e-9);
    }

    #[test]
    fn headroom_pressure_floors_hot_slots() {
        let p = headroom_pressure(&[2.0, 4.0, 1.0], &[0.5, 1.2, f64::NAN]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        // Over-utilized slot keeps the 5% floor instead of going negative.
        assert!((p[1] - 4.0 * 0.05).abs() < 1e-12);
        // Non-finite utilization treated as idle.
        assert!((p[2] - 1.0).abs() < 1e-12);
        // Missing utilization entries default to idle.
        let q = headroom_pressure(&[1.0, 1.0], &[0.5]);
        assert!((q[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arbitration_is_deterministic_under_permutation() {
        let reqs = vec![
            req(ProposedAction::Reweight { app: 5 }, 0.9, 0.1),
            req(
                ProposedAction::Deploy {
                    app: 5,
                    instances: 1,
                },
                0.95,
                5.0,
            ),
            req(
                ProposedAction::Retire {
                    app: 7,
                    instances: 1,
                },
                0.1,
                0.0,
            ),
            req(
                ProposedAction::SliceAdjust {
                    app: 2,
                    target_slice: 0.8,
                },
                0.88,
                1.0,
            ),
        ];
        let out_a = arbitrate(reqs.clone());
        let mut rev = reqs;
        rev.reverse();
        let out_b = arbitrate(rev);
        assert_eq!(out_a, out_b);
    }
}

/// The three-step arbitration the one-step [`arbitrate`] replaced, kept
/// as its reference: (1) a scale-out request cancels a retire on the same
/// app, (2) at most one request per (app, rank) survives, the most urgent,
/// (3) the agility sort and the caps. On the autoscaler's output steps 1
/// and 2 never fire, so both forms must agree bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// What steps 1 and 2 removed, and what the caps dropped.
    #[derive(Default)]
    pub(crate) struct ThreeStepStats {
        pub(crate) conflicts_resolved: u64,
        pub(crate) duplicates_merged: u64,
        pub(crate) capped: u64,
    }

    pub(crate) fn arbitrate(
        mut requests: Vec<KnobRequest>,
        stats: &mut ThreeStepStats,
    ) -> Vec<KnobRequest> {
        // Step 1: scale-out cancels scale-in per app.
        // Sort first so the scan below is deterministic regardless of
        // submission order: by app, scale-outs before retires, most
        // urgent first within a kind.
        requests.sort_by(|a, b| {
            a.action
                .app()
                .cmp(&b.action.app())
                .then(a.action.rank().cmp(&b.action.rank()))
                .then(b.urgency.partial_cmp(&a.urgency).expect("finite urgency"))
        });
        let is_scale_out = |r: &KnobRequest| !matches!(r.action, ProposedAction::Retire { .. });
        let mut survivors: Vec<KnobRequest> = Vec::with_capacity(requests.len());
        let mut i = 0;
        while i < requests.len() {
            let app = requests[i].action.app();
            let mut j = i;
            while j < requests.len() && requests[j].action.app() == app {
                j += 1;
            }
            let group = &requests[i..j];
            let has_scale_out = group.iter().any(is_scale_out);
            let mut last_kind: Option<u8> = None;
            for r in group {
                if has_scale_out && !is_scale_out(r) {
                    stats.conflicts_resolved += 1;
                    continue;
                }
                // Step 2: the group is kind-sorted, so duplicates are
                // adjacent; keep the first (most urgent) of each kind.
                let kind = r.action.rank();
                if last_kind == Some(kind) {
                    stats.duplicates_merged += 1;
                    continue;
                }
                last_kind = Some(kind);
                survivors.push(*r);
            }
            i = j;
        }

        // Step 3: rank by agility ladder, then cost, then urgency.
        survivors.sort_by(|a, b| {
            a.action
                .rank()
                .cmp(&b.action.rank())
                .then(a.cost.partial_cmp(&b.cost).expect("finite cost"))
                .then(b.urgency.partial_cmp(&a.urgency).expect("finite urgency"))
                .then(a.action.app().cmp(&b.action.app()))
        });
        let mut admitted = Vec::with_capacity(survivors.len().min(MAX_ACTIONS_PER_EPOCH));
        let mut deploys = 0usize;
        for r in survivors {
            if admitted.len() >= MAX_ACTIONS_PER_EPOCH {
                stats.capped += 1;
                continue;
            }
            if matches!(r.action, ProposedAction::Deploy { .. }) {
                if deploys >= MAX_DEPLOYS_PER_EPOCH {
                    stats.capped += 1;
                    continue;
                }
                deploys += 1;
            }
            admitted.push(r);
        }
        admitted
    }

    /// Every bit of a request list, for exact comparisons.
    pub(crate) fn bits(requests: &[KnobRequest]) -> Vec<(u32, u8, u64, u64, u64)> {
        requests
            .iter()
            .map(|r| {
                let arg = match r.action {
                    ProposedAction::Reweight { .. } => 0,
                    ProposedAction::SliceAdjust { target_slice, .. } => target_slice.to_bits(),
                    ProposedAction::Deploy { instances, .. }
                    | ProposedAction::Retire { instances, .. } => u64::from(instances),
                };
                (
                    r.action.app(),
                    r.action.rank(),
                    arg,
                    r.urgency.to_bits(),
                    r.cost.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn reference_still_cancels_and_dedupes() {
        // The reference is only meaningful if its extra steps work: a
        // hand-built list the autoscaler never produces exercises both.
        let reqs = vec![
            KnobRequest {
                action: ProposedAction::Retire {
                    app: 1,
                    instances: 1,
                },
                urgency: 0.2,
                cost: 0.5,
            },
            KnobRequest {
                action: ProposedAction::Deploy {
                    app: 1,
                    instances: 1,
                },
                urgency: 0.5,
                cost: 5.0,
            },
            KnobRequest {
                action: ProposedAction::Deploy {
                    app: 1,
                    instances: 4,
                },
                urgency: 0.9,
                cost: 5.0,
            },
        ];
        let mut stats = ThreeStepStats::default();
        let out = arbitrate(reqs, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].urgency, 0.9);
        assert_eq!(stats.conflicts_resolved, 1);
        assert_eq!(stats.duplicates_merged, 1);
    }
}
