//! RIP-selection policies.
//!
//! §IV.F: switches "allow programmatic change to the weights they use in
//! their load-balancing algorithms when they distribute the traffic coming
//! to a VIP among the corresponding RIPs". This module provides the three
//! disciplines real CSM-class switches offer, plus the fluid weight-split
//! used by the aggregate demand model.

use dcsim::rng::splitmix64;

/// Which discipline a VIP uses to pick a RIP for a new session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Smooth weighted round-robin (deterministic, proportional).
    #[default]
    WeightedRoundRobin,
    /// Weighted least-connections: pick the RIP minimizing
    /// `active_conns / weight`.
    WeightedLeastConnections,
    /// Hash of the client source: sticky per client, weight-proportional
    /// in aggregate.
    SourceHash,
}

/// Split an aggregate demand proportionally to weights (the fluid-model
/// counterpart of all three per-session disciplines). Zero or negative
/// weights receive nothing; if all weights are zero the split is empty
/// (all-zero), mirroring a switch with all RIPs drained.
pub fn split_by_weight(weights: &[f64], demand: f64) -> Vec<f64> {
    let total: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
    if total <= 0.0 {
        return vec![0.0; weights.len()];
    }
    weights
        .iter()
        .map(|&w| if w > 0.0 { demand * w / total } else { 0.0 })
        .collect()
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

/// Weighted least-connections: index minimizing `conns / weight` (ties by
/// lowest index). Entries with weight `<= 0` are skipped.
pub fn pick_least_connections(weights: &[f64], conns: &[u64]) -> Option<usize> {
    assert_eq!(weights.len(), conns.len());
    weights
        .iter()
        .zip(conns)
        .enumerate()
        .filter(|(_, (&w, _))| w > 0.0)
        .min_by(|(_, (wa, ca)), (_, (wb, cb))| {
            let ra = **ca as f64 / **wa;
            let rb = **cb as f64 / **wb;
            ra.partial_cmp(&rb).expect("finite ratios")
        })
        .map(|(i, _)| i)
}

/// Source-hash selection: deterministic per client key, weight-proportional
/// across keys. Implemented as a weighted pick driven by a hash of the key.
pub fn pick_source_hash(weights: &[f64], client_key: u64) -> Option<usize> {
    let total: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut s = client_key;
    let h = splitmix64(&mut s);
    let point = (h as f64 / u64::MAX as f64) * total;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        acc += w;
        if point < acc {
            return Some(i);
        }
    }
    // Floating-point edge: fall back to the last pickable entry.
    weights.iter().rposition(|&w| w > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn least_conn_balances_by_ratio() {
        // conns/weight: 10/1=10 vs 15/2=7.5 → pick index 1.
        assert_eq!(pick_least_connections(&[1.0, 2.0], &[10, 15]), Some(1));
        // Zero-weight entries skipped even when empty.
        assert_eq!(pick_least_connections(&[0.0, 1.0], &[0, 100]), Some(1));
        assert_eq!(pick_least_connections(&[0.0], &[0]), None);
    }

    #[test]
    fn source_hash_is_sticky() {
        let w = [1.0, 2.0, 3.0];
        for key in [0u64, 17, 123456789] {
            let a = pick_source_hash(&w, key).unwrap();
            let b = pick_source_hash(&w, key).unwrap();
            assert_eq!(a, b, "key {key} not sticky");
        }
    }

    #[test]
    fn source_hash_is_weight_proportional_in_aggregate() {
        let w = [1.0, 3.0];
        let mut counts = [0u32; 2];
        for key in 0..10_000u64 {
            counts[pick_source_hash(&w, key).unwrap()] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "got {frac}");
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

        #[test]
        fn prop_source_hash_in_range(
            weights in proptest::collection::vec(0.0f64..10.0, 1..8),
            key in any::<u64>(),
        ) {
            if let Some(i) = pick_source_hash(&weights, key) {
                prop_assert!(i < weights.len());
                prop_assert!(weights[i] > 0.0);
            } else {
                prop_assert!(weights.iter().all(|&w| w <= 0.0));
            }
        }
    }
}
