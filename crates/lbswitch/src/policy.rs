//! RIP selection.
//!
//! §IV.F: switches "allow programmatic change to the weights they use in
//! their load-balancing algorithms when they distribute the traffic coming
//! to a VIP among the corresponding RIPs". This module provides the
//! per-session discipline (smooth weighted round-robin) and the fluid
//! weight-split used by the aggregate demand model.

/// The sum of the positive weights, in order: the denominator of a
/// weight split (the fluid-model counterpart of per-session weighted
/// round-robin).
pub(crate) fn positive_total(weights: impl Iterator<Item = f64>) -> f64 {
    weights.filter(|&w| w > 0.0).sum()
}

/// The part of `demand` that weight `w` receives out of `total` (see
/// [`positive_total`]). A non-positive weight receives 0; when every
/// weight is non-positive, so does every entry, mirroring a switch with
/// all RIPs drained.
pub(crate) fn weight_share(w: f64, demand: f64, total: f64) -> f64 {
    if w > 0.0 {
        demand * w / total
    } else {
        0.0
    }
}

/// State for smooth weighted round-robin (the nginx algorithm): on each
/// pick, every entry's current score increases by its weight; the highest
/// score wins and is decremented by the total weight. Produces the most
/// evenly interleaved weight-proportional sequence.
#[derive(Debug, Clone, Default)]
pub struct WrrState {
    current: Vec<f64>,
}

impl WrrState {
    /// Fresh state (scores reset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pick the next index for the given weights. Entries with weight
    /// `<= 0` are never picked. Returns `None` if no entry is pickable.
    ///
    /// The state self-heals if the entry count changes (e.g. a RIP was
    /// added or removed): scores reset, which is what a real switch does
    /// on reconfiguration.
    pub fn pick(&mut self, weights: &[f64]) -> Option<usize> {
        if self.current.len() != weights.len() {
            self.current = vec![0.0; weights.len()];
        }
        let total: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            self.current[i] += w;
            if best.is_none_or(|b| self.current[i] > self.current[b]) {
                best = Some(i);
            }
        }
        let b = best.expect("total > 0 implies a pickable entry");
        self.current[b] -= total;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Split `demand` over `weights` with the two primitives, as
    /// `LbSwitch::vip_split` does.
    fn split_by_weight(weights: &[f64], demand: f64) -> Vec<f64> {
        let total = positive_total(weights.iter().copied());
        weights
            .iter()
            .map(|&w| weight_share(w, demand, total))
            .collect()
    }

    #[test]
    fn split_is_proportional() {
        let s = split_by_weight(&[1.0, 3.0], 8.0);
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn split_skips_nonpositive_weights() {
        let s = split_by_weight(&[0.0, 2.0, -1.0], 10.0);
        assert_eq!(s[0], 0.0);
        assert!((s[1] - 10.0).abs() < 1e-12);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn split_all_zero_is_all_zero() {
        assert_eq!(split_by_weight(&[0.0, 0.0], 5.0), vec![0.0, 0.0]);
    }

    #[test]
    fn wrr_respects_weights_exactly_over_a_cycle() {
        let weights = [5.0, 1.0, 1.0];
        let mut wrr = WrrState::new();
        let mut counts = [0u32; 3];
        for _ in 0..7 {
            counts[wrr.pick(&weights).unwrap()] += 1;
        }
        assert_eq!(counts, [5, 1, 1]);
    }

    #[test]
    fn wrr_smoothness() {
        // Smooth WRR with {5,1,1} should not emit five consecutive picks
        // of index 0 (that's the point of the smooth variant).
        let weights = [5.0, 1.0, 1.0];
        let mut wrr = WrrState::new();
        let seq: Vec<usize> = (0..7).map(|_| wrr.pick(&weights).unwrap()).collect();
        let max_run = seq
            .windows(2)
            .fold((1usize, 1usize), |(run, best), w| {
                let run = if w[0] == w[1] { run + 1 } else { 1 };
                (run, best.max(run))
            })
            .1;
        assert!(max_run < 5, "sequence {seq:?} not smooth");
    }

    #[test]
    fn wrr_handles_membership_changes() {
        let mut wrr = WrrState::new();
        assert!(wrr.pick(&[1.0, 1.0]).is_some());
        // RIP added: state resets, still works.
        assert!(wrr.pick(&[1.0, 1.0, 1.0]).is_some());
        // All drained: no pick.
        assert_eq!(wrr.pick(&[0.0, 0.0, 0.0]), None);
    }

    proptest! {
        #[test]
        fn prop_split_conserves_demand(
            weights in proptest::collection::vec(0.0f64..10.0, 1..10),
            demand in 0.0f64..1e6,
        ) {
            let s = split_by_weight(&weights, demand);
            let total: f64 = s.iter().sum();
            if weights.iter().any(|&w| w > 0.0) {
                prop_assert!((total - demand).abs() < 1e-6 * demand.max(1.0));
            } else {
                prop_assert_eq!(total, 0.0);
            }
        }

        #[test]
        fn prop_wrr_long_run_proportional(
            weights in proptest::collection::vec(1u32..6, 2..6)
        ) {
            let w: Vec<f64> = weights.iter().map(|&x| x as f64).collect();
            let total: u32 = weights.iter().sum();
            let cycles = 50u32;
            let mut wrr = WrrState::new();
            let mut counts = vec![0u32; w.len()];
            for _ in 0..(total * cycles) {
                counts[wrr.pick(&w).unwrap()] += 1;
            }
            for (i, &c) in counts.iter().enumerate() {
                prop_assert_eq!(c, weights[i] * cycles, "index {}", i);
            }
        }
    }
}
