//! The topology abstraction the architecture relies on.
//!
//! §III.B: *"recent advances in data center topologies guarantee bandwidth
//! between any host-pair within the data center and provide flat address
//! space to all the hosts. Thus, we place LB switches close to the border
//! and connect them to servers through the L2/L3 switching fabric."*
//!
//! The simulator does not route individual packets through the fabric; what
//! the architecture needs from the fabric is captured by this trait:
//! host counts, the per-host guaranteed (hose-model) bandwidth, the
//! aggregate bisection bandwidth, and the oversubscription ratio. A fabric
//! with oversubscription 1.0 is non-blocking — any traffic matrix in which
//! no host exceeds its NIC rate is feasible, which is exactly the guarantee
//! the paper invokes to let any LB switch load-balance to any server.

/// Abstraction over a datacenter switching fabric.
pub trait Topology {
    /// Human-readable name of the topology instance (e.g. `fat-tree(k=48)`).
    fn name(&self) -> String;

    /// Number of hosts (servers) the fabric connects.
    fn num_hosts(&self) -> usize;

    /// Number of switches in the fabric, across all tiers.
    fn num_switches(&self) -> usize;

    /// Line rate of each host NIC, in bits/second.
    fn host_link_bps(&self) -> f64;

    /// Aggregate bisection bandwidth in bits/second: the capacity between
    /// the two halves of a worst-case bisection of the hosts.
    fn bisection_bandwidth_bps(&self) -> f64;

    /// Oversubscription ratio: worst-case aggregate host demand across the
    /// bisection divided by the bisection bandwidth. 1.0 = non-blocking.
    fn oversubscription(&self) -> f64 {
        let demand = (self.num_hosts() as f64 / 2.0) * self.host_link_bps();
        if self.bisection_bandwidth_bps() == 0.0 {
            f64::INFINITY
        } else {
            demand / self.bisection_bandwidth_bps()
        }
    }

    /// Guaranteed hose-model bandwidth per host in bits/second: the rate
    /// every host can sustain to arbitrary destinations simultaneously.
    /// For a non-blocking fabric this equals the NIC rate.
    fn guaranteed_host_bps(&self) -> f64 {
        self.host_link_bps() / self.oversubscription().max(1.0)
    }

    /// Whether the fabric offers a flat (location-independent) address
    /// space, i.e. a host can be addressed without knowing its physical
    /// position. True for VL2/PortLand-style fabrics; required for the
    /// paper's *logical pods* (§III.B, §IV.C).
    fn flat_addressing(&self) -> bool;

    /// Number of hops on a longest shortest path between two hosts
    /// (diameter in switch hops), used for latency modeling.
    fn diameter_hops(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial non-blocking fabric for trait-default tests.
    struct Flat {
        hosts: usize,
        nic: f64,
    }
    impl Topology for Flat {
        fn name(&self) -> String {
            "flat".into()
        }
        fn num_hosts(&self) -> usize {
            self.hosts
        }
        fn num_switches(&self) -> usize {
            1
        }
        fn host_link_bps(&self) -> f64 {
            self.nic
        }
        fn bisection_bandwidth_bps(&self) -> f64 {
            (self.hosts as f64 / 2.0) * self.nic
        }
        fn flat_addressing(&self) -> bool {
            true
        }
        fn diameter_hops(&self) -> usize {
            1
        }
    }

    #[test]
    fn nonblocking_defaults() {
        let t = Flat {
            hosts: 16,
            nic: 1e9,
        };
        assert!((t.oversubscription() - 1.0).abs() < 1e-12);
        assert!((t.guaranteed_host_bps() - 1e9).abs() < 1.0);
    }

    #[test]
    fn zero_bisection_is_infinitely_oversubscribed() {
        struct Broken;
        impl Topology for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn num_hosts(&self) -> usize {
                2
            }
            fn num_switches(&self) -> usize {
                0
            }
            fn host_link_bps(&self) -> f64 {
                1e9
            }
            fn bisection_bandwidth_bps(&self) -> f64 {
                0.0
            }
            fn flat_addressing(&self) -> bool {
                false
            }
            fn diameter_hops(&self) -> usize {
                0
            }
        }
        assert!(Broken.oversubscription().is_infinite());
        assert_eq!(Broken.guaranteed_host_bps(), 0.0);
    }
}
