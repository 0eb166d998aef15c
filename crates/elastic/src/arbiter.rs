//! Policy-conflict arbitration for proactive knob requests.
//!
//! §V.B names policy conflicts as the core difficulty of multi-knob
//! control: independent policies "may issue conflicting decisions" over
//! the same resources. The reactive plane resolves one such conflict ad
//! hoc (VIP drains own an app's DNS exposure); the proactive plane
//! instead funnels *every* request through this arbiter before anything
//! touches the platform.
//!
//! Arbitration is three deterministic steps:
//!
//! 1. **Conflict resolution** — a scale-out request (reweight, slice
//!    grow, deploy) and a scale-in request ([`ProposedAction::Retire`])
//!    for the same app cancel to the scale-out side: availability wins
//!    over cost, matching the paper's bias toward serving demand.
//! 2. **Deduplication** — at most one request per (app, action kind);
//!    the most urgent survives.
//! 3. **Ranking + caps** — survivors are ordered by the agility ladder
//!    (E7: reweight ≺ slice adjust ≺ deploy ≺ retire, fastest first),
//!    then by cost, then urgency, and truncated to the per-epoch caps so
//!    the proactive plane cannot flood the serialized VIP/RIP queue.

/// Rungs of the agility ladder (§IV, measured by E7): how fast each knob
/// takes effect, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Agility {
    /// RIP weight adjustment — switch-local, takes effect next epoch.
    Reweight,
    /// VM slice adjustment — hypervisor-local, seconds.
    SliceAdjust,
    /// Instance deployment — clone + boot + RIP bind, tens of seconds.
    Deploy,
    /// Instance retirement — drain + destroy; never urgent.
    Retire,
}

impl Agility {
    /// Ladder rank, 0 = most agile.
    pub fn rank(self) -> u8 {
        match self {
            Agility::Reweight => 0,
            Agility::SliceAdjust => 1,
            Agility::Deploy => 2,
            Agility::Retire => 3,
        }
    }
}

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

    /// The agility-ladder rung this action sits on.
    pub fn agility(&self) -> Agility {
        match self {
            ProposedAction::Reweight { .. } => Agility::Reweight,
            ProposedAction::SliceAdjust { .. } => Agility::SliceAdjust,
            ProposedAction::Deploy { .. } => Agility::Deploy,
            ProposedAction::Retire { .. } => Agility::Retire,
        }
    }

    /// Whether this action adds capacity (scale-out family).
    pub fn is_scale_out(&self) -> bool {
        !matches!(self, ProposedAction::Retire { .. })
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

/// Arbiter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbiterConfig {
    /// Total proactive actions admitted per epoch.
    pub max_actions_per_epoch: usize,
    /// Of those, at most this many deployments (clones are the most
    /// expensive action and share the reactive deployment budget).
    pub max_deploys_per_epoch: usize,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig {
            max_actions_per_epoch: 64,
            max_deploys_per_epoch: 8,
        }
    }
}

impl ArbiterConfig {
    /// Validate, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_actions_per_epoch == 0 {
            return Err("max_actions_per_epoch must be positive".into());
        }
        if self.max_deploys_per_epoch == 0 {
            return Err("max_deploys_per_epoch must be positive".into());
        }
        Ok(())
    }
}

/// Cumulative arbitration statistics (experiment output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Requests received across all epochs.
    pub submitted: u64,
    /// Requests admitted (returned to the caller).
    pub admitted: u64,
    /// Scale-in requests cancelled by a scale-out conflict on the same
    /// app.
    pub conflicts_resolved: u64,
    /// Duplicate (app, kind) requests collapsed.
    pub duplicates_merged: u64,
    /// Requests dropped by the per-epoch caps.
    pub capped: u64,
}

/// The arbiter: stateless per epoch apart from its statistics.
#[derive(Debug, Default)]
pub struct Arbiter {
    cfg: ArbiterConfig,
    /// Cumulative statistics.
    pub stats: ArbiterStats,
}

impl Arbiter {
    /// New arbiter with the given caps.
    pub fn new(cfg: ArbiterConfig) -> Self {
        Arbiter {
            cfg,
            stats: ArbiterStats::default(),
        }
    }

    /// Resolve one epoch's requests into an ordered, capped action list.
    /// Deterministic: ties break by app id, then by ladder rank.
    pub fn arbitrate(&mut self, mut requests: Vec<KnobRequest>) -> Vec<KnobRequest> {
        self.stats.submitted += requests.len() as u64;

        // Step 1: scale-out cancels scale-in per app.
        // Sort first so the scan below is deterministic regardless of
        // submission order: by app, scale-outs before retires, most
        // urgent first within a kind.
        requests.sort_by(|a, b| {
            a.action
                .app()
                .cmp(&b.action.app())
                .then(a.action.agility().rank().cmp(&b.action.agility().rank()))
                .then(b.urgency.partial_cmp(&a.urgency).expect("finite urgency"))
        });
        let mut survivors: Vec<KnobRequest> = Vec::with_capacity(requests.len());
        let mut i = 0;
        while i < requests.len() {
            let app = requests[i].action.app();
            let mut j = i;
            while j < requests.len() && requests[j].action.app() == app {
                j += 1;
            }
            let group = &requests[i..j];
            let has_scale_out = group.iter().any(|r| r.action.is_scale_out());
            let mut last_kind: Option<u8> = None;
            for r in group {
                if has_scale_out && !r.action.is_scale_out() {
                    self.stats.conflicts_resolved += 1;
                    continue;
                }
                // Step 2: the group is kind-sorted, so duplicates are
                // adjacent; keep the first (most urgent) of each kind.
                let kind = r.action.agility().rank();
                if last_kind == Some(kind) {
                    self.stats.duplicates_merged += 1;
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
                .agility()
                .rank()
                .cmp(&b.action.agility().rank())
                .then(a.cost.partial_cmp(&b.cost).expect("finite cost"))
                .then(b.urgency.partial_cmp(&a.urgency).expect("finite urgency"))
                .then(a.action.app().cmp(&b.action.app()))
        });
        let mut admitted = Vec::with_capacity(survivors.len().min(self.cfg.max_actions_per_epoch));
        let mut deploys = 0usize;
        for r in survivors {
            if admitted.len() >= self.cfg.max_actions_per_epoch {
                self.stats.capped += 1;
                continue;
            }
            if matches!(r.action, ProposedAction::Deploy { .. }) {
                if deploys >= self.cfg.max_deploys_per_epoch {
                    self.stats.capped += 1;
                    continue;
                }
                deploys += 1;
            }
            admitted.push(r);
        }
        self.stats.admitted += admitted.len() as u64;
        admitted
    }
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
        assert!(Agility::Reweight.rank() < Agility::SliceAdjust.rank());
        assert!(Agility::SliceAdjust.rank() < Agility::Deploy.rank());
        assert!(Agility::Deploy.rank() < Agility::Retire.rank());
    }

    #[test]
    fn scale_out_cancels_retire_on_same_app() {
        let mut arb = Arbiter::new(ArbiterConfig::default());
        let out = arb.arbitrate(vec![
            req(
                ProposedAction::Retire {
                    app: 1,
                    instances: 1,
                },
                0.2,
                0.0,
            ),
            req(
                ProposedAction::Deploy {
                    app: 1,
                    instances: 2,
                },
                0.9,
                5.0,
            ),
            req(
                ProposedAction::Retire {
                    app: 2,
                    instances: 1,
                },
                0.1,
                0.0,
            ),
        ]);
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .any(|r| matches!(r.action, ProposedAction::Deploy { app: 1, .. })));
        assert!(out
            .iter()
            .any(|r| matches!(r.action, ProposedAction::Retire { app: 2, .. })));
        assert_eq!(arb.stats.conflicts_resolved, 1);
    }

    #[test]
    fn duplicates_keep_most_urgent() {
        let mut arb = Arbiter::new(ArbiterConfig::default());
        let out = arb.arbitrate(vec![
            req(
                ProposedAction::Deploy {
                    app: 3,
                    instances: 1,
                },
                0.5,
                5.0,
            ),
            req(
                ProposedAction::Deploy {
                    app: 3,
                    instances: 4,
                },
                0.9,
                5.0,
            ),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].urgency, 0.9);
        assert!(matches!(
            out[0].action,
            ProposedAction::Deploy { instances: 4, .. }
        ));
        assert_eq!(arb.stats.duplicates_merged, 1);
    }

    #[test]
    fn ranking_follows_agility_then_cost() {
        let mut arb = Arbiter::new(ArbiterConfig::default());
        let out = arb.arbitrate(vec![
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
        let cfg = ArbiterConfig {
            max_actions_per_epoch: 3,
            max_deploys_per_epoch: 1,
        };
        let mut arb = Arbiter::new(cfg);
        let reqs: Vec<KnobRequest> = (0..10)
            .map(|a| {
                req(
                    ProposedAction::Deploy {
                        app: a,
                        instances: 1,
                    },
                    0.9,
                    5.0,
                )
            })
            .chain(std::iter::once(req(
                ProposedAction::Reweight { app: 10 },
                0.85,
                0.1,
            )))
            .collect();
        let out = arb.arbitrate(reqs);
        // The reweight ranks first (most agile); then one deploy fits the
        // deploy cap and the other nine are dropped by it, leaving the
        // action cap unfilled.
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0].action,
            ProposedAction::Reweight { app: 10 }
        ));
        let deploys = out
            .iter()
            .filter(|r| matches!(r.action, ProposedAction::Deploy { .. }))
            .count();
        assert_eq!(deploys, 1);
        assert_eq!(arb.stats.capped, 9);
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
        let mut a = Arbiter::new(ArbiterConfig::default());
        let mut b = Arbiter::new(ArbiterConfig::default());
        let out_a = a.arbitrate(reqs.clone());
        let mut rev = reqs;
        rev.reverse();
        let out_b = b.arbitrate(rev);
        assert_eq!(out_a, out_b);
    }
}
