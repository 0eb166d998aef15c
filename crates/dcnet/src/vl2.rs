//! VL2 topology (Greenberg et al. — SIGCOMM 2009, the paper's reference
//! \[8\]).
//!
//! VL2 is a folded Clos network of top-of-rack (ToR), aggregation and
//! intermediate switches with Valiant load balancing and a flat layer-2.5
//! address space. With `d_a`-port aggregation and `d_i`-port intermediate
//! switches:
//!
//! * intermediate switches: `d_a / 2`
//! * aggregation switches:  `d_i`
//! * ToR switches:          `d_a · d_i / 4` (each ToR has two aggregation
//!   uplinks)
//! * servers:               `20 · d_a · d_i / 4` (20 servers per ToR in the
//!   reference design; configurable here)
//!
//! VL2's measurement study is also the source of the paper's "external
//! traffic is ~20% of total" figure used in §III.B (our experiment E9);
//! [`Vl2::EXTERNAL_TRAFFIC_FRACTION`] encodes it.

use crate::topology::Topology;

/// A VL2 (folded Clos) fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vl2 {
    da: usize,
    di: usize,
    servers_per_tor: usize,
    server_nic_bps: f64,
    fabric_link_bps: f64,
}

impl Vl2 {
    /// The fraction of datacenter traffic that enters/leaves the DC,
    /// according to the VL2 measurement study cited by the paper (§III.B:
    /// "only about 20% of total amount of traffic").
    pub const EXTERNAL_TRAFFIC_FRACTION: f64 = 0.20;

    /// Build a VL2 fabric.
    ///
    /// * `da` — aggregation switch port count (even, ≥ 2)
    /// * `di` — intermediate switch port count (even, ≥ 2)
    /// * `servers_per_tor` — servers attached to each ToR (reference: 20)
    /// * `server_nic_bps` — server NIC rate (reference: 1 Gbps)
    /// * `fabric_link_bps` — ToR-uplink / fabric link rate (reference: 10 Gbps)
    pub fn new(
        da: usize,
        di: usize,
        servers_per_tor: usize,
        server_nic_bps: f64,
        fabric_link_bps: f64,
    ) -> Self {
        assert!(da >= 2 && da.is_multiple_of(2), "d_a must be even >= 2");
        assert!(di >= 2 && di.is_multiple_of(2), "d_i must be even >= 2");
        assert!(servers_per_tor > 0);
        assert!(server_nic_bps > 0.0 && fabric_link_bps > 0.0);
        Vl2 {
            da,
            di,
            servers_per_tor,
            server_nic_bps,
            fabric_link_bps,
        }
    }

    /// The reference VL2 configuration from the SIGCOMM'09 paper scaled to
    /// hold at least `servers` servers: 20 servers/ToR, 1 Gbps NICs,
    /// 10 Gbps fabric links, `da = di` grown until capacity suffices.
    pub fn for_servers(servers: usize) -> Self {
        let mut d = 4;
        while 20 * d * d / 4 < servers {
            d += 2;
        }
        Vl2::new(d, d, 20, 1e9, 10e9)
    }

    /// Number of intermediate switches (`d_a / 2`).
    pub fn num_intermediate(&self) -> usize {
        self.da / 2
    }

    /// Number of aggregation switches (`d_i`).
    pub fn num_aggregation(&self) -> usize {
        self.di
    }

    /// Number of ToR switches (`d_a · d_i / 4`).
    pub fn num_tor(&self) -> usize {
        self.da * self.di / 4
    }

    /// Servers per ToR switch.
    pub fn servers_per_tor(&self) -> usize {
        self.servers_per_tor
    }
}

impl Topology for Vl2 {
    fn name(&self) -> String {
        format!("vl2(da={},di={})", self.da, self.di)
    }

    fn num_hosts(&self) -> usize {
        self.num_tor() * self.servers_per_tor
    }

    fn num_switches(&self) -> usize {
        self.num_tor() + self.num_aggregation() + self.num_intermediate()
    }

    fn host_link_bps(&self) -> f64 {
        self.server_nic_bps
    }

    fn bisection_bandwidth_bps(&self) -> f64 {
        // The Clos core provides d_i/2 · d_a/2 intermediate-aggregation
        // links in each bisection half... equivalently, each ToR has
        // 2 × fabric_link uplinks shared by its servers; the core itself
        // is non-blocking, so the bisection is the lesser of the ToR
        // uplink aggregate and the server aggregate.
        let tor_uplink_total = self.num_tor() as f64 * 2.0 * self.fabric_link_bps;
        let server_total = self.num_hosts() as f64 * self.server_nic_bps;
        (tor_uplink_total.min(server_total)) / 2.0
    }

    fn flat_addressing(&self) -> bool {
        true // VL2's defining feature: location/application address split.
    }

    fn diameter_hops(&self) -> usize {
        // ToR → Agg → Intermediate → Agg → ToR
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counts() {
        // VL2 paper example uses D_A = D_I = 144-ish class switches; check
        // the formulae on a small instance instead: da=4, di=4.
        let t = Vl2::new(4, 4, 20, 1e9, 10e9);
        assert_eq!(t.num_intermediate(), 2);
        assert_eq!(t.num_aggregation(), 4);
        assert_eq!(t.num_tor(), 4);
        assert_eq!(t.num_hosts(), 80);
        assert_eq!(t.num_switches(), 10);
    }

    #[test]
    fn reference_design_is_nonblocking_for_servers() {
        // 20 × 1 Gbps servers behind 2 × 10 Gbps uplinks: uplinks (20 Gbps)
        // equal server aggregate (20 Gbps) → oversubscription 1.0.
        let t = Vl2::new(8, 8, 20, 1e9, 10e9);
        assert!(
            (t.oversubscription() - 1.0).abs() < 1e-9,
            "got {}",
            t.oversubscription()
        );
    }

    #[test]
    fn oversubscribed_when_tor_uplinks_thin() {
        // 40 servers per ToR on the same uplinks → 2:1 oversubscription.
        let t = Vl2::new(8, 8, 40, 1e9, 10e9);
        assert!((t.oversubscription() - 2.0).abs() < 1e-9);
        assert!((t.guaranteed_host_bps() - 0.5e9).abs() < 1.0);
    }

    #[test]
    fn for_servers_scales_up() {
        let t = Vl2::for_servers(300_000);
        assert!(t.num_hosts() >= 300_000);
        assert!(t.flat_addressing());
    }

    #[test]
    #[should_panic(expected = "d_a must be even")]
    fn odd_da_rejected() {
        Vl2::new(3, 4, 20, 1e9, 10e9);
    }
}
