//! Hard capacity limits of an LB switch.

use dcsim::SimDuration;

/// Capacity limits of one load-balancing switch.
///
/// The defaults ([`SwitchLimits::CISCO_CATALYST`]) are the Cisco Catalyst
/// 6500 CSM parameters the paper assumes throughout (§II); "our approach
/// equally applies to switches with other parameters", hence a struct
/// rather than constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchLimits {
    /// Maximum number of VIPs configurable on the switch.
    pub max_vips: usize,
    /// Maximum number of RIP entries configurable on the switch (across
    /// all VIPs).
    pub max_rips: usize,
    /// Layer-4 switching throughput, bits/s.
    pub capacity_bps: f64,
    /// Packet-processing limit, packets/s.
    pub max_pps: f64,
    /// Concurrent TCP connection limit.
    pub max_connections: u64,
    /// Latency of a programmatic configuration change (add/remove/move a
    /// VIP or RIP, change a weight): "several seconds" per refs \[20\],\[28\].
    pub reconfig_latency: SimDuration,
}

impl SwitchLimits {
    /// The Cisco Catalyst parameters from §II of the paper.
    pub const CISCO_CATALYST: SwitchLimits = SwitchLimits {
        max_vips: 4_000,
        max_rips: 16_000,
        capacity_bps: 4e9,
        max_pps: 1.25e6,
        max_connections: 1_000_000,
        reconfig_latency: SimDuration::from_secs(3),
    };

    /// Sanity-check the limits (used by constructors).
    pub fn validate(&self) {
        assert!(self.max_vips > 0, "max_vips must be positive");
        assert!(self.max_rips > 0, "max_rips must be positive");
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        assert!(self.max_pps > 0.0, "pps limit must be positive");
        assert!(
            self.max_connections > 0,
            "connection limit must be positive"
        );
    }

    /// Minimum number of switches needed for `apps` applications with
    /// `vips_per_app` VIPs and `rips_per_app` RIPs each — the paper's
    /// fabric-sizing formula (§V.A):
    /// `max(⌈A·k / max_vips⌉, ⌈A·r / max_rips⌉)`.
    pub fn switches_required(&self, apps: u64, vips_per_app: u64, rips_per_app: u64) -> u64 {
        let by_vips = (apps * vips_per_app).div_ceil(self.max_vips as u64);
        let by_rips = (apps * rips_per_app).div_ceil(self.max_rips as u64);
        by_vips.max(by_rips)
    }

    /// Aggregate external bandwidth of `n` such switches, bits/s.
    pub fn aggregate_bandwidth_bps(&self, n: u64) -> f64 {
        n as f64 * self.capacity_bps
    }
}

impl Default for SwitchLimits {
    fn default() -> Self {
        Self::CISCO_CATALYST
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalyst_parameters_match_paper() {
        let l = SwitchLimits::CISCO_CATALYST;
        assert_eq!(l.max_vips, 4_000);
        assert_eq!(l.max_rips, 16_000);
        assert!((l.capacity_bps - 4e9).abs() < 1.0);
        assert!((l.max_pps - 1.25e6).abs() < 1.0);
        assert_eq!(l.max_connections, 1_000_000);
    }

    #[test]
    fn paper_sizing_examples() {
        let l = SwitchLimits::CISCO_CATALYST;
        // §III.B: 300,000 apps × 2 VIPs → at least 150 switches.
        assert_eq!(l.switches_required(300_000, 2, 0), 150);
        // §V.A: 300K apps, 3 VIPs, 20 RIPs → max(225, 375) = 375.
        assert_eq!(l.switches_required(300_000, 3, 20), 375);
        // §III.B: 150 switches provide about 600 Gbps aggregate.
        assert!((l.aggregate_bandwidth_bps(150) - 600e9).abs() < 1.0);
    }

    #[test]
    fn sizing_rounds_up() {
        let l = SwitchLimits::CISCO_CATALYST;
        assert_eq!(l.switches_required(1, 1, 1), 1);
        assert_eq!(l.switches_required(4_001, 1, 0), 2);
        assert_eq!(l.switches_required(801, 0, 20), 2); // 16020 RIPs
    }

    #[test]
    #[should_panic(expected = "max_vips")]
    fn validate_catches_zero() {
        let mut l = SwitchLimits::CISCO_CATALYST;
        l.max_vips = 0;
        l.validate();
    }
}
