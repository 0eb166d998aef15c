//! The two-LB-layer architecture (§V.B).
//!
//! Balancing access links steers demand *between VIPs of the same app*;
//! balancing server pods also wants to steer demand between the same VIPs
//! (they are what maps to RIPs). In the single-layer architecture the two
//! policies therefore pull on the same DNS weights — the *policy conflict*
//! of §V.B.
//!
//! The proposed resolution adds a **demand-distribution layer** of LB
//! switches between the access connection layer and the load-balancing
//! layer:
//!
//! * the *external VIPs* of each application live on demand-distribution
//!   switches; selective VIP exposure (DNS + route advertisement) touches
//!   only these;
//! * each external VIP maps to several *middle-layer VIPs* (m-VIPs) on
//!   load-balancing switches, and — to conserve VIP table entries — "all
//!   external VIPs of a given application can map to the same set of
//!   m-VIPs";
//! * each m-VIP maps to a group of RIPs; pod balancing adjusts m-VIP and
//!   RIP weights and never touches DNS.
//!
//! "This benefit comes at the expense of extra load-balancing switches at
//! the demand distribution layer" — quantified by
//! [`demand_distribution_switches`] and experiment E11, together with
//! [`count_single_layer_conflicts`] which measures how often the two
//! policies would fight in the single-layer design.

use lbswitch::{LbSwitch, SwitchError, SwitchId, SwitchLimits, VipAddr};
use std::collections::BTreeMap;

/// A two-layer fabric: external VIPs on demand-distribution (DD) switches,
/// m-VIPs with their RIP groups on load-balancing (LB) switches.
#[derive(Debug)]
pub struct TwoLayerFabric {
    /// Demand-distribution layer (holds external VIPs only).
    pub dd_switches: Vec<LbSwitch>,
    /// Load-balancing layer (holds m-VIPs and their RIPs).
    pub lb_switches: Vec<LbSwitch>,
    /// external VIP → (m-VIP, weight) mapping (the DD switch's "RIP set"
    /// is the m-VIP set; weights steer demand between m-VIPs).
    evip_to_mvips: BTreeMap<VipAddr, Vec<(VipAddr, f64)>>,
    /// m-VIP → hosting LB switch.
    mvip_switch: BTreeMap<VipAddr, SwitchId>,
    /// external VIP → hosting DD switch.
    evip_switch: BTreeMap<VipAddr, SwitchId>,
    next_addr: u32,
}

impl TwoLayerFabric {
    /// Build a fabric with `dd` demand-distribution and `lb`
    /// load-balancing switches, all with the given limits.
    pub fn new(dd: usize, lb: usize, limits: SwitchLimits) -> Self {
        assert!(dd > 0 && lb > 0);
        TwoLayerFabric {
            dd_switches: (0..dd)
                .map(|i| LbSwitch::new(SwitchId(i as u32), limits))
                .collect(),
            lb_switches: (0..lb)
                .map(|i| LbSwitch::new(SwitchId((dd + i) as u32), limits))
                .collect(),
            evip_to_mvips: BTreeMap::new(),
            mvip_switch: BTreeMap::new(),
            evip_switch: BTreeMap::new(),
            next_addr: 0,
        }
    }

    fn fresh_addr(&mut self) -> VipAddr {
        let a = VipAddr(self.next_addr);
        self.next_addr += 1;
        a
    }

    /// Register an application with `n_evips` external VIPs and `n_mvips`
    /// middle-layer VIPs. All external VIPs share the same m-VIP set
    /// (§V.B's conservation rule). Returns `(external VIPs, m-VIPs)`.
    pub fn add_app(
        &mut self,
        n_evips: usize,
        n_mvips: usize,
    ) -> Result<(Vec<VipAddr>, Vec<VipAddr>), SwitchError> {
        assert!(n_evips > 0 && n_mvips > 0);
        // m-VIPs on the least-VIP-loaded LB switches.
        let mut mvips = Vec::with_capacity(n_mvips);
        for _ in 0..n_mvips {
            let mvip = self.fresh_addr();
            let sw = self
                .lb_switches
                .iter_mut()
                .filter(|s| s.vip_slots_free() > 0)
                .min_by_key(|s| s.vip_count())
                .ok_or(SwitchError::VipLimitExceeded)?;
            sw.add_vip(mvip)?;
            self.mvip_switch.insert(mvip, sw.id());
            mvips.push(mvip);
        }
        // External VIPs on the DD layer, each mapping to all m-VIPs. The
        // m-VIP set is installed as the external VIP's RIP set on the DD
        // switch (the paper: m-VIPs are private addresses reachable from
        // the DD layer).
        let mut evips = Vec::with_capacity(n_evips);
        for _ in 0..n_evips {
            let evip = self.fresh_addr();
            let sw = self
                .dd_switches
                .iter_mut()
                .filter(|s| s.vip_slots_free() > 0 && s.rip_slots_free() >= n_mvips)
                .min_by_key(|s| s.vip_count())
                .ok_or(SwitchError::VipLimitExceeded)?;
            sw.add_vip(evip)?;
            for &mvip in &mvips {
                sw.add_rip(evip, lbswitch::RipAddr(mvip.0), 1.0)?;
            }
            self.evip_switch.insert(evip, sw.id());
            self.evip_to_mvips
                .insert(evip, mvips.iter().map(|&m| (m, 1.0)).collect());
            evips.push(evip);
        }
        Ok((evips, mvips))
    }

    /// Add a RIP under an m-VIP (pod-side instance registration).
    pub fn bind_rip(
        &mut self,
        mvip: VipAddr,
        rip: lbswitch::RipAddr,
        weight: f64,
    ) -> Result<(), SwitchError> {
        let sw = self
            .mvip_switch
            .get(&mvip)
            .copied()
            .ok_or(SwitchError::UnknownVip(mvip))?;
        self.lb_switch_mut(sw).add_rip(mvip, rip, weight)
    }

    /// Adjust how an external VIP's demand splits across m-VIPs — the
    /// **pod-balancing** knob in the two-layer design. Never touches DNS
    /// or routes: that is the decoupling.
    pub fn set_mvip_weight(
        &mut self,
        evip: VipAddr,
        mvip: VipAddr,
        weight: f64,
    ) -> Result<(), SwitchError> {
        let entry = self
            .evip_to_mvips
            .get_mut(&evip)
            .ok_or(SwitchError::UnknownVip(evip))?
            .iter_mut()
            .find(|(m, _)| *m == mvip)
            .ok_or(SwitchError::UnknownRip(evip, lbswitch::RipAddr(mvip.0)))?;
        entry.1 = weight;
        let dd = self.evip_switch[&evip];
        self.dd_switch_mut(dd)
            .set_rip_weight(evip, lbswitch::RipAddr(mvip.0), weight)
    }

    fn dd_switch_mut(&mut self, id: SwitchId) -> &mut LbSwitch {
        self.dd_switches
            .iter_mut()
            .find(|s| s.id() == id)
            .expect("DD switch exists")
    }
    fn lb_switch_mut(&mut self, id: SwitchId) -> &mut LbSwitch {
        self.lb_switches
            .iter_mut()
            .find(|s| s.id() == id)
            .expect("LB switch exists")
    }

    /// Route external demand two stages down: per-external-VIP demand →
    /// per-m-VIP demand (DD weights, DD capacity) → per-RIP demand (LB
    /// weights, LB capacity). Returns
    /// `(per-mvip demand, per-rip demand)`.
    pub fn route(
        &mut self,
        evip_demand_bps: &BTreeMap<VipAddr, f64>,
    ) -> (BTreeMap<VipAddr, f64>, BTreeMap<lbswitch::RipAddr, f64>) {
        // Stage 1: DD layer.
        for sw in &mut self.dd_switches {
            sw.set_offered_loads(|v| evip_demand_bps.get(&v).copied().unwrap_or(0.0));
        }
        let mut mvip_demand: BTreeMap<VipAddr, f64> = BTreeMap::new();
        for sw in &self.dd_switches {
            let vips: Vec<VipAddr> = sw.vips().map(|(v, _)| v).collect();
            for v in vips {
                for (rip, bps) in sw.distribute_vip(v).expect("configured") {
                    *mvip_demand.entry(VipAddr(rip.0)).or_insert(0.0) += bps;
                }
            }
        }
        // Stage 2: LB layer.
        for sw in &mut self.lb_switches {
            sw.set_offered_loads(|v| mvip_demand.get(&v).copied().unwrap_or(0.0));
        }
        let mut rip_demand: BTreeMap<lbswitch::RipAddr, f64> = BTreeMap::new();
        for sw in &self.lb_switches {
            let vips: Vec<VipAddr> = sw.vips().map(|(v, _)| v).collect();
            for v in vips {
                for (rip, bps) in sw.distribute_vip(v).expect("configured") {
                    *rip_demand.entry(rip).or_insert(0.0) += bps;
                }
            }
        }
        (mvip_demand, rip_demand)
    }
}

/// Number of extra switches the demand-distribution layer costs:
/// `⌈apps × evips_per_app / max_vips⌉` (each external VIP occupies a DD
/// VIP slot; its m-VIP set occupies DD RIP slots, which bind first when
/// `mvips_per_app > max_rips/max_vips`).
pub fn demand_distribution_switches(
    limits: &SwitchLimits,
    apps: u64,
    evips_per_app: u64,
    mvips_per_app: u64,
) -> u64 {
    let by_vips = (apps * evips_per_app).div_ceil(limits.max_vips as u64);
    let by_rips = (apps * evips_per_app * mvips_per_app).div_ceil(limits.max_rips as u64);
    by_vips.max(by_rips).max(1)
}

/// Count the §V.B policy conflicts a single-layer design would face: VIPs
/// where the access-link policy and the pod policy pull the DNS weight in
/// opposite directions. `vip_pressures` gives, per VIP,
/// `(link_utilization, backing_pod_utilization)`; a conflict is a VIP
/// whose link is below `link_threshold` (link policy wants *more* demand
/// on it) while its pods are above `pod_threshold` (pod policy wants
/// *less*), or vice versa.
pub fn count_single_layer_conflicts(
    vip_pressures: &[(f64, f64)],
    link_threshold: f64,
    pod_threshold: f64,
) -> usize {
    vip_pressures
        .iter()
        .filter(|&&(link, pod)| {
            (link < link_threshold && pod > pod_threshold)
                || (link > link_threshold && pod < pod_threshold)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbswitch::RipAddr;

    fn limits() -> SwitchLimits {
        SwitchLimits {
            max_vips: 8,
            max_rips: 32,
            ..SwitchLimits::CISCO_CATALYST
        }
    }

    #[test]
    fn evips_share_mvip_set() {
        let mut f = TwoLayerFabric::new(2, 2, limits());
        let (evips, mvips) = f.add_app(3, 2).unwrap();
        assert_eq!(evips.len(), 3);
        assert_eq!(mvips.len(), 2);
        // Only 2 m-VIPs were allocated for 3 external VIPs: conservation.
        let lb_vips: usize = f.lb_switches.iter().map(|s| s.vip_count()).sum();
        assert_eq!(lb_vips, 2);
        // Each external VIP's DD switch maps it to both m-VIPs.
        let dd_rips: usize = f.dd_switches.iter().map(|s| s.rip_count()).sum();
        assert_eq!(dd_rips, 3 * 2);
    }

    #[test]
    fn two_stage_routing_conserves_demand() {
        let mut f = TwoLayerFabric::new(1, 2, limits());
        let (evips, mvips) = f.add_app(2, 2).unwrap();
        f.bind_rip(mvips[0], RipAddr(100), 1.0).unwrap();
        f.bind_rip(mvips[1], RipAddr(101), 1.0).unwrap();
        let mut demand = BTreeMap::new();
        demand.insert(evips[0], 1e9);
        demand.insert(evips[1], 0.5e9);
        let (mvip_d, rip_d) = f.route(&demand);
        let total_m: f64 = mvip_d.values().sum();
        let total_r: f64 = rip_d.values().sum();
        assert!((total_m - 1.5e9).abs() < 1e3, "m-VIP total {total_m}");
        assert!((total_r - 1.5e9).abs() < 1e3, "RIP total {total_r}");
        // Equal weights → even split across m-VIPs.
        assert!((mvip_d[&mvips[0]] - 0.75e9).abs() < 1e3);
    }

    #[test]
    fn pod_balancing_shifts_mvips_without_touching_external_side() {
        let mut f = TwoLayerFabric::new(1, 2, limits());
        let (evips, mvips) = f.add_app(2, 2).unwrap();
        f.bind_rip(mvips[0], RipAddr(100), 1.0).unwrap();
        f.bind_rip(mvips[1], RipAddr(101), 1.0).unwrap();
        let mut demand = BTreeMap::new();
        demand.insert(evips[0], 1e9);
        demand.insert(evips[1], 1e9);
        let (before_m, _) = f.route(&demand);
        // Pod policy: shift evip0's demand toward mvip1 (e.g. mvip0's
        // backing pod is hot).
        f.set_mvip_weight(evips[0], mvips[0], 0.25).unwrap();
        f.set_mvip_weight(evips[0], mvips[1], 0.75).unwrap();
        let (after_m, _) = f.route(&demand);
        assert!(after_m[&mvips[1]] > before_m[&mvips[1]]);
        // The external (DNS/link) side is unchanged: per-external-VIP
        // demand is whatever the caller supplies; no exposure changed.
        // Decoupling means total external demand per evip is unchanged:
        let dd_total: f64 = f.dd_switches.iter().map(|s| s.offered_bps()).sum();
        assert!((dd_total - 2e9).abs() < 1e3);
    }

    #[test]
    fn dd_layer_cost_formula() {
        let l = SwitchLimits::CISCO_CATALYST;
        // Paper scale: 300k apps × 3 external VIPs → 225 DD switches by
        // VIP slots; with 2 m-VIPs per app the RIP side needs
        // 300k×3×2/16000 = 113 switches → VIP-bound, 225.
        assert_eq!(demand_distribution_switches(&l, 300_000, 3, 2), 225);
        // With 20 m-VIPs per app the DD RIP tables bind:
        // 300k×3×20/16000 = 1125.
        assert_eq!(demand_distribution_switches(&l, 300_000, 3, 20), 1125);
    }

    #[test]
    fn conflict_counting() {
        let pressures = [
            (0.2, 0.9), // cold link, hot pods → conflict
            (0.9, 0.2), // hot link, cold pods → conflict
            (0.9, 0.9), // both hot → agree (reduce)
            (0.2, 0.2), // both cold → agree (fine)
        ];
        assert_eq!(count_single_layer_conflicts(&pressures, 0.8, 0.8), 2);
        assert_eq!(count_single_layer_conflicts(&[], 0.8, 0.8), 0);
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let mut f = TwoLayerFabric::new(
            1,
            1,
            SwitchLimits {
                max_vips: 1,
                ..limits()
            },
        );
        f.add_app(1, 1).unwrap();
        assert!(f.add_app(1, 1).is_err());
    }
}
