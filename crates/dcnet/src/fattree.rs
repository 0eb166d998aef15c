//! Fat-tree topology (Al-Fares, Loukissas, Vahdat — SIGCOMM 2008, the
//! paper's reference \[2\]).
//!
//! A `k`-ary fat-tree built from identical `k`-port switches has:
//!
//! * `k` fabric pods, each with `k/2` edge and `k/2` aggregation switches;
//! * `(k/2)²` core switches;
//! * `k³/4` hosts, each attached to an edge switch;
//! * full bisection bandwidth (oversubscription 1.0) when built from
//!   uniform links.
//!
//! Note: fat-tree "pods" are a property of the physical wiring; the paper's
//! *server pods* are logical groupings decoupled from the wiring (§III.B
//! explicitly relies on that decoupling). The simulator therefore only
//! exposes the aggregate guarantees here.

use crate::topology::Topology;

/// A `k`-ary fat-tree fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    k: usize,
    link_bps_int: u64,
}

impl FatTree {
    /// Build a `k`-ary fat-tree with uniform link rate `link_bps`.
    ///
    /// # Panics
    /// Panics if `k` is not an even integer ≥ 2 (a fat-tree requires an
    /// even port count) or `link_bps` is not a positive whole number of
    /// bits per second.
    pub fn new(k: usize, link_bps: f64) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree requires even k >= 2, got {k}"
        );
        assert!(
            link_bps > 0.0 && link_bps.fract() == 0.0 && link_bps <= u64::MAX as f64,
            "link rate must be a positive whole bits/s"
        );
        FatTree {
            k,
            link_bps_int: link_bps as u64,
        }
    }

    /// Smallest even `k` such that a `k`-ary fat-tree connects at least
    /// `hosts` hosts.
    pub fn for_hosts(hosts: usize, link_bps: f64) -> Self {
        let mut k = 2;
        while k * k * k / 4 < hosts {
            k += 2;
        }
        FatTree::new(k, link_bps)
    }

    /// The arity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of core switches (`(k/2)²`).
    pub fn num_core(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }
}

impl Topology for FatTree {
    fn name(&self) -> String {
        format!("fat-tree(k={})", self.k)
    }

    fn num_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    fn num_switches(&self) -> usize {
        // k pods × (k/2 edge + k/2 agg) + (k/2)^2 core = 5k²/4
        self.k * self.k + self.num_core()
    }

    fn host_link_bps(&self) -> f64 {
        self.link_bps_int as f64
    }

    fn bisection_bandwidth_bps(&self) -> f64 {
        // Full bisection: half the hosts can saturate their NICs across
        // the core.
        (self.num_hosts() as f64 / 2.0) * self.host_link_bps()
    }

    fn flat_addressing(&self) -> bool {
        // With a PortLand-style control plane (paper ref [17]) the fat-tree
        // offers a flat layer-2 address space.
        true
    }

    fn diameter_hops(&self) -> usize {
        // edge → agg → core → agg → edge
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_k4_counts() {
        let t = FatTree::new(4, 1e9);
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.num_core(), 4);
        assert_eq!(t.num_switches(), 20);
    }

    #[test]
    fn k48_is_mega_dc_scale() {
        // The classic datapoint: k=48 fat-tree connects 27,648 hosts.
        let t = FatTree::new(48, 10e9);
        assert_eq!(t.num_hosts(), 27_648);
        assert!((t.oversubscription() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn for_hosts_picks_minimal_k() {
        let t = FatTree::for_hosts(1000, 1e9);
        assert!(t.num_hosts() >= 1000);
        let prev = t.k() - 2;
        assert!(prev * prev * prev / 4 < 1000, "k={} not minimal", t.k());
    }

    #[test]
    fn is_nonblocking() {
        for k in [4, 8, 16, 24] {
            let t = FatTree::new(k, 1e9);
            assert!((t.oversubscription() - 1.0).abs() < 1e-9, "k={k}");
            assert!((t.guaranteed_host_bps() - 1e9).abs() < 1.0, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_rejected() {
        FatTree::new(5, 1e9);
    }

    proptest! {
        #[test]
        fn prop_counts_formulae(k in (1usize..25).prop_map(|x| x * 2)) {
            let t = FatTree::new(k, 1e9);
            prop_assert_eq!(t.num_hosts(), k * k * k / 4);
            prop_assert_eq!(t.num_switches(), 5 * k * k / 4);
        }
    }
}
