//! The LB switch: VIP/RIP tables, connection tracking and capacity.

use crate::limits::SwitchLimits;
use crate::policy::{positive_total, weight_share, WrrState};
use dcsim::DenseId;
use std::fmt;

/// Identifier of an LB switch in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

/// A virtual IP address: the externally visible address of an application
/// (§II). Opaque index into the platform's VIP address pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VipAddr(pub u32);

/// A real IP address: the internal address of one VM instance (§II; "can
/// be taken from a private address space such as the 10.0.0.0/8 block").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RipAddr(pub u32);

impl DenseId for VipAddr {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        VipAddr(i as u32)
    }
}
impl DenseId for RipAddr {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        RipAddr(i as u32)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lb{}", self.0)
    }
}
impl fmt::Display for VipAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vip{}", self.0)
    }
}
impl fmt::Display for RipAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rip{}", self.0)
    }
}

/// Errors from switch configuration and data-path operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// The switch already holds `max_vips` VIPs.
    VipLimitExceeded,
    /// The switch already holds `max_rips` RIP entries.
    RipLimitExceeded,
    /// The VIP is not configured on this switch.
    UnknownVip(VipAddr),
    /// The RIP is not configured under that VIP.
    UnknownRip(VipAddr, RipAddr),
    /// The VIP is already configured on this switch.
    DuplicateVip(VipAddr),
    /// The RIP is already configured under that VIP.
    DuplicateRip(VipAddr, RipAddr),
    /// The switch is tracking `max_connections` sessions already.
    ConnectionLimitExceeded,
    /// The VIP still has live sessions; it cannot be removed/transferred
    /// (§IV.B: only the original switch knows the session→RIP mapping).
    NotQuiescent(VipAddr, u64),
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::VipLimitExceeded => write!(f, "VIP table full"),
            SwitchError::RipLimitExceeded => write!(f, "RIP table full"),
            SwitchError::UnknownVip(v) => write!(f, "unknown {v}"),
            SwitchError::UnknownRip(v, r) => write!(f, "unknown {r} under {v}"),
            SwitchError::DuplicateVip(v) => write!(f, "{v} already configured"),
            SwitchError::DuplicateRip(v, r) => write!(f, "{r} already configured under {v}"),
            SwitchError::ConnectionLimitExceeded => write!(f, "connection table full"),
            SwitchError::NotQuiescent(v, n) => write!(f, "{v} has {n} live sessions"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// One RIP entry under a VIP.
#[derive(Debug, Clone, PartialEq)]
pub struct RipEntry {
    /// The real IP address.
    pub rip: RipAddr,
    /// Load-balancing weight (§IV.F). Non-negative; 0 = drained.
    pub weight: f64,
    /// Live sessions currently pinned to this RIP.
    pub active_conns: u64,
}

/// Per-VIP configuration on a switch.
#[derive(Debug, Clone, Default)]
pub struct VipConfig {
    /// RIP entries in configuration order.
    pub rips: Vec<RipEntry>,
    /// Offered external load for this VIP, bits/s (set by the fluid model
    /// each epoch).
    pub offered_bps: f64,
    wrr: WrrState,
}

impl VipConfig {
    fn weights(&self) -> Vec<f64> {
        self.rips.iter().map(|r| r.weight).collect()
    }

    /// Live sessions across all RIPs of this VIP.
    pub fn active_conns(&self) -> u64 {
        self.rips.iter().map(|r| r.active_conns).sum()
    }
}

/// A load-balancing switch.
///
/// The switch is a pure mechanism: it enforces its own hard limits and
/// tracks sessions, but all *policy* (which VIP goes where, what the
/// weights should be) lives in the managers of the `megadc` crate, exactly
/// as in the paper where the global manager mediates every configuration
/// change (§III.C).
#[derive(Debug, Clone)]
pub struct LbSwitch {
    id: SwitchId,
    limits: SwitchLimits,
    /// The VIP table's keys, sorted by address (see [`LbSwitch::slot`]).
    /// They are kept apart from the configurations so a lookup reads 4
    /// bytes per probe. The table holds at most `max_vips` entries, so an
    /// insert or removal moves at most that many; both happen only at
    /// build and on VIP transfers.
    vip_addrs: Vec<VipAddr>,
    /// `vip_addrs[i]`'s configuration.
    vip_cfgs: Vec<VipConfig>,
    rip_total: usize,
    total_conns: u64,
    reconfigs: u64,
    /// Invariant: the sum of every VIP's `offered_bps`, re-summed in
    /// address order after every VIP removal and every change to offered
    /// loads (and incremented by a new VIP's +0.0), so it is bit-identical
    /// to a fresh sum.
    offered_total: f64,
}

impl LbSwitch {
    /// Create a switch with the given limits.
    pub fn new(id: SwitchId, limits: SwitchLimits) -> Self {
        limits.validate();
        let mut sw = LbSwitch {
            id,
            limits,
            vip_addrs: Vec::new(),
            vip_cfgs: Vec::new(),
            rip_total: 0,
            total_conns: 0,
            reconfigs: 0,
            offered_total: 0.0,
        };
        // An empty f64 sum is -0.0, not the 0.0 literal above.
        sw.resum_offered();
        sw
    }

    /// Re-establish the `offered_total` invariant.
    fn resum_offered(&mut self) {
        self.offered_total = self.vip_cfgs.iter().map(|c| c.offered_bps).sum();
    }

    /// `Ok(index)` of `vip` in the table, or `Err(index)` where it would
    /// be inserted.
    ///
    /// The platform spreads VIP addresses evenly over its switches, so
    /// the index a linear interpolation between the first and last
    /// address predicts usually holds `vip`: one probe instead of a
    /// binary search's chain of dependent loads. A miss falls back to
    /// the binary search.
    fn slot(&self, vip: VipAddr) -> Result<usize, usize> {
        let addrs = &self.vip_addrs;
        if let (Some(&first), Some(&last)) = (addrs.first(), addrs.last()) {
            if first <= vip && vip <= last && first < last {
                let span = u64::from(last.0 - first.0);
                let guess = u64::from(vip.0 - first.0) * (addrs.len() as u64 - 1) / span;
                if addrs[guess as usize] == vip {
                    return Ok(guess as usize);
                }
            }
        }
        addrs.binary_search(&vip)
    }

    /// Mutable configuration of one VIP.
    fn vip_mut(&mut self, vip: VipAddr) -> Result<&mut VipConfig, SwitchError> {
        match self.slot(vip) {
            Ok(i) => Ok(&mut self.vip_cfgs[i]),
            Err(_) => Err(SwitchError::UnknownVip(vip)),
        }
    }

    /// This switch's id.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// Number of configuration-plane changes applied to this switch so
    /// far: every successful VIP/RIP add or remove, and every weight
    /// update that changed the stored weight's bits (rewriting a weight
    /// with its own value reconfigures nothing). Each is one serialized
    /// reconfiguration in §III.C terms; the platform's per-epoch health
    /// event sums this across the fabric.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigs
    }

    /// The switch's capacity limits.
    pub fn limits(&self) -> &SwitchLimits {
        &self.limits
    }

    /// Number of configured VIPs.
    pub fn vip_count(&self) -> usize {
        self.vip_addrs.len()
    }

    /// Number of configured RIP entries across all VIPs.
    pub fn rip_count(&self) -> usize {
        self.rip_total
    }

    /// Free VIP table slots.
    pub fn vip_slots_free(&self) -> usize {
        self.limits.max_vips - self.vip_addrs.len()
    }

    /// Free RIP table slots.
    pub fn rip_slots_free(&self) -> usize {
        self.limits.max_rips - self.rip_total
    }

    /// `true` if `vip` is configured here.
    pub fn has_vip(&self, vip: VipAddr) -> bool {
        self.slot(vip).is_ok()
    }

    /// Iterate over configured VIPs, in address order.
    pub fn vips(&self) -> impl Iterator<Item = (VipAddr, &VipConfig)> {
        self.vip_addrs.iter().copied().zip(&self.vip_cfgs)
    }

    /// Configuration of one VIP.
    pub fn vip(&self, vip: VipAddr) -> Result<&VipConfig, SwitchError> {
        match self.slot(vip) {
            Ok(i) => Ok(&self.vip_cfgs[i]),
            Err(_) => Err(SwitchError::UnknownVip(vip)),
        }
    }

    // ---- configuration plane -------------------------------------------

    /// Configure a new VIP (with no RIPs yet).
    pub fn add_vip(&mut self, vip: VipAddr) -> Result<(), SwitchError> {
        let Err(at) = self.slot(vip) else {
            return Err(SwitchError::DuplicateVip(vip));
        };
        if self.vip_addrs.len() >= self.limits.max_vips {
            return Err(SwitchError::VipLimitExceeded);
        }
        let cfg = VipConfig::default();
        // A fresh VIP offers +0.0, and adding +0.0 equals the in-order
        // re-sum bit for bit (it only turns an empty sum's -0.0 into
        // +0.0, as the re-sum does), so no walk over the VIPs is needed.
        self.offered_total += cfg.offered_bps;
        self.vip_addrs.insert(at, vip);
        self.vip_cfgs.insert(at, cfg);
        self.reconfigs += 1;
        Ok(())
    }

    /// Remove a **quiescent** VIP, returning its RIP entries so the caller
    /// can reinstall them on another switch (dynamic VIP transfer, §IV.B).
    pub fn remove_vip(&mut self, vip: VipAddr) -> Result<Vec<RipEntry>, SwitchError> {
        let i = self.slot(vip).map_err(|_| SwitchError::UnknownVip(vip))?;
        let live = self.vip_cfgs[i].active_conns();
        if live > 0 {
            return Err(SwitchError::NotQuiescent(vip, live));
        }
        Ok(self.remove_at(i).rips)
    }

    /// Remove a VIP regardless of live sessions, dropping them. Returns
    /// `(rip entries, dropped session count)`. This is the disruptive path
    /// the quiescence-gated transfer exists to avoid.
    pub fn force_remove_vip(&mut self, vip: VipAddr) -> Result<(Vec<RipEntry>, u64), SwitchError> {
        let i = self.slot(vip).map_err(|_| SwitchError::UnknownVip(vip))?;
        let cfg = self.remove_at(i);
        let dropped = cfg.active_conns();
        self.total_conns -= dropped;
        let mut rips = cfg.rips;
        for r in &mut rips {
            r.active_conns = 0;
        }
        Ok((rips, dropped))
    }

    /// Remove the VIP at table index `i`, with its RIP entries.
    fn remove_at(&mut self, i: usize) -> VipConfig {
        self.vip_addrs.remove(i);
        let cfg = self.vip_cfgs.remove(i);
        self.resum_offered();
        self.rip_total -= cfg.rips.len();
        self.reconfigs += 1;
        cfg
    }

    /// Add a RIP under a VIP with the given weight.
    pub fn add_rip(&mut self, vip: VipAddr, rip: RipAddr, weight: f64) -> Result<(), SwitchError> {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "weight must be finite and >= 0"
        );
        if self.rip_total >= self.limits.max_rips {
            return Err(SwitchError::RipLimitExceeded);
        }
        let cfg = self.vip_mut(vip)?;
        if cfg.rips.iter().any(|r| r.rip == rip) {
            return Err(SwitchError::DuplicateRip(vip, rip));
        }
        cfg.rips.push(RipEntry {
            rip,
            weight,
            active_conns: 0,
        });
        self.rip_total += 1;
        self.reconfigs += 1;
        Ok(())
    }

    /// Remove a RIP from a VIP. Any sessions still pinned to it are
    /// dropped; the count is returned (0 when gracefully drained first).
    pub fn remove_rip(&mut self, vip: VipAddr, rip: RipAddr) -> Result<u64, SwitchError> {
        let cfg = self.vip_mut(vip)?;
        let pos = cfg
            .rips
            .iter()
            .position(|r| r.rip == rip)
            .ok_or(SwitchError::UnknownRip(vip, rip))?;
        let entry = cfg.rips.remove(pos);
        self.rip_total -= 1;
        self.total_conns -= entry.active_conns;
        self.reconfigs += 1;
        Ok(entry.active_conns)
    }

    /// Set the weight of one RIP (§IV.F — the fast knob).
    pub fn set_rip_weight(
        &mut self,
        vip: VipAddr,
        rip: RipAddr,
        weight: f64,
    ) -> Result<(), SwitchError> {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "weight must be finite and >= 0"
        );
        let cfg = self.vip_mut(vip)?;
        let entry = cfg
            .rips
            .iter_mut()
            .find(|r| r.rip == rip)
            .ok_or(SwitchError::UnknownRip(vip, rip))?;
        if entry.weight.to_bits() != weight.to_bits() {
            entry.weight = weight;
            self.reconfigs += 1;
        }
        Ok(())
    }

    // ---- session plane --------------------------------------------------

    /// `true` if the VIP has no live sessions — the §IV.B precondition for
    /// transferring it to another switch.
    pub fn is_quiescent(&self, vip: VipAddr) -> Result<bool, SwitchError> {
        Ok(self.vip(vip)?.active_conns() == 0)
    }

    /// Total live sessions on the switch.
    pub fn total_conns(&self) -> u64 {
        self.total_conns
    }

    /// Select a RIP for a new session on `vip` by smooth weighted
    /// round-robin and open the session.
    pub fn open_session(&mut self, vip: VipAddr) -> Result<RipAddr, SwitchError> {
        if self.total_conns >= self.limits.max_connections {
            return Err(SwitchError::ConnectionLimitExceeded);
        }
        let cfg = self.vip_mut(vip)?;
        let idx = cfg
            .wrr
            .pick(&cfg.weights())
            .ok_or(SwitchError::UnknownRip(vip, RipAddr(u32::MAX)))?;
        let entry = &mut cfg.rips[idx];
        entry.active_conns += 1;
        let rip = entry.rip;
        self.total_conns += 1;
        Ok(rip)
    }

    /// Close a session previously opened on `(vip, rip)`.
    pub fn close_session(&mut self, vip: VipAddr, rip: RipAddr) -> Result<(), SwitchError> {
        let cfg = self.vip_mut(vip)?;
        let entry = cfg
            .rips
            .iter_mut()
            .find(|r| r.rip == rip)
            .ok_or(SwitchError::UnknownRip(vip, rip))?;
        assert!(
            entry.active_conns > 0,
            "closing a session that was never opened"
        );
        entry.active_conns -= 1;
        self.total_conns -= 1;
        Ok(())
    }

    // ---- fluid data plane ------------------------------------------------

    /// Set this epoch's offered external load (bits/s) of every
    /// configured VIP to `load(vip)`, then re-sum the switch total once.
    pub fn set_offered_loads(&mut self, mut load: impl FnMut(VipAddr) -> f64) {
        for (&vip, cfg) in self.vip_addrs.iter().zip(&mut self.vip_cfgs) {
            let bps = load(vip);
            assert!(bps >= 0.0 && bps.is_finite());
            cfg.offered_bps = bps;
        }
        self.resum_offered();
    }

    /// Total offered load across all VIPs, bits/s.
    pub fn offered_bps(&self) -> f64 {
        self.offered_total
    }

    /// Load actually served: offered load capped at switch capacity.
    pub fn served_bps(&self) -> f64 {
        self.offered_bps().min(self.limits.capacity_bps)
    }

    /// Throughput utilization in `[0, ∞)`: offered / capacity. Values
    /// above 1.0 mean the switch is the bottleneck — the condition §IV.B's
    /// VIP transfer exists to fix.
    pub fn utilization(&self) -> f64 {
        self.offered_bps() / self.limits.capacity_bps
    }

    /// Split one VIP's *served* demand across its RIPs by weight. When the
    /// switch is over capacity, every VIP is scaled down proportionally
    /// (the switch drops uniformly).
    pub fn distribute_vip(&self, vip: VipAddr) -> Result<Vec<(RipAddr, f64)>, SwitchError> {
        Ok(self.vip_split(vip)?.iter().collect())
    }

    /// [`LbSwitch::distribute_vip`] without building it: the VIP's served
    /// demand and weight total, from which [`VipSplit::iter`] yields each
    /// RIP's share.
    pub fn vip_split(&self, vip: VipAddr) -> Result<VipSplit<'_>, SwitchError> {
        let cfg = self.vip(vip)?;
        let scale = if self.offered_bps() > self.limits.capacity_bps {
            self.limits.capacity_bps / self.offered_bps()
        } else {
            1.0
        };
        Ok(VipSplit {
            rips: &cfg.rips,
            demand: cfg.offered_bps * scale,
            total: positive_total(cfg.rips.iter().map(|r| r.weight)),
        })
    }
}

/// One VIP's served demand split across its RIPs by weight (with
/// `policy::positive_total` and `policy::weight_share`), borrowed from
/// the switch so the split allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct VipSplit<'a> {
    rips: &'a [RipEntry],
    demand: f64,
    total: f64,
}

impl<'a> VipSplit<'a> {
    /// `(rip, bits/s)` for every RIP entry, in configuration order.
    pub fn iter(&self) -> impl Iterator<Item = (RipAddr, f64)> + 'a {
        let (demand, total) = (self.demand, self.total);
        self.rips
            .iter()
            .map(move |r| (r.rip, weight_share(r.weight, demand, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_switch() -> LbSwitch {
        let limits = SwitchLimits {
            max_vips: 3,
            max_rips: 5,
            capacity_bps: 4e9,
            max_pps: 1.25e6,
            max_connections: 4,
            ..SwitchLimits::CISCO_CATALYST
        };
        LbSwitch::new(SwitchId(0), limits)
    }

    #[test]
    fn vip_limit_enforced() {
        let mut sw = small_switch();
        for i in 0..3 {
            sw.add_vip(VipAddr(i)).unwrap();
        }
        assert_eq!(sw.add_vip(VipAddr(99)), Err(SwitchError::VipLimitExceeded));
        assert_eq!(sw.vip_slots_free(), 0);
    }

    #[test]
    fn rip_limit_is_global_across_vips() {
        let mut sw = small_switch();
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_vip(VipAddr(1)).unwrap();
        for i in 0..3 {
            sw.add_rip(VipAddr(0), RipAddr(i), 1.0).unwrap();
        }
        for i in 3..5 {
            sw.add_rip(VipAddr(1), RipAddr(i), 1.0).unwrap();
        }
        assert_eq!(
            sw.add_rip(VipAddr(1), RipAddr(9), 1.0),
            Err(SwitchError::RipLimitExceeded)
        );
        assert_eq!(sw.rip_count(), 5);
    }

    #[test]
    fn duplicates_rejected() {
        let mut sw = small_switch();
        sw.add_vip(VipAddr(0)).unwrap();
        assert_eq!(
            sw.add_vip(VipAddr(0)),
            Err(SwitchError::DuplicateVip(VipAddr(0)))
        );
        sw.add_rip(VipAddr(0), RipAddr(1), 1.0).unwrap();
        assert_eq!(
            sw.add_rip(VipAddr(0), RipAddr(1), 2.0),
            Err(SwitchError::DuplicateRip(VipAddr(0), RipAddr(1)))
        );
    }

    #[test]
    fn quiescence_gates_vip_removal() {
        let mut sw = small_switch();
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 1.0).unwrap();
        let rip = sw.open_session(VipAddr(0)).unwrap();
        assert_eq!(rip, RipAddr(1));
        assert_eq!(
            sw.remove_vip(VipAddr(0)),
            Err(SwitchError::NotQuiescent(VipAddr(0), 1))
        );
        sw.close_session(VipAddr(0), rip).unwrap();
        let rips = sw.remove_vip(VipAddr(0)).unwrap();
        assert_eq!(rips.len(), 1);
        assert_eq!(sw.rip_count(), 0);
    }

    #[test]
    fn force_removal_drops_sessions() {
        let mut sw = small_switch();
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 1.0).unwrap();
        sw.open_session(VipAddr(0)).unwrap();
        sw.open_session(VipAddr(0)).unwrap();
        let (rips, dropped) = sw.force_remove_vip(VipAddr(0)).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(sw.total_conns(), 0);
        assert!(rips.iter().all(|r| r.active_conns == 0));
    }

    #[test]
    fn connection_limit_enforced() {
        let mut sw = small_switch();
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 1.0).unwrap();
        for _ in 0..4 {
            sw.open_session(VipAddr(0)).unwrap();
        }
        assert_eq!(
            sw.open_session(VipAddr(0)),
            Err(SwitchError::ConnectionLimitExceeded)
        );
    }

    #[test]
    fn weighted_session_distribution() {
        let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 3.0).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(2), 1.0).unwrap();
        let mut counts = (0u32, 0u32);
        for _ in 0..400 {
            match sw.open_session(VipAddr(0)).unwrap() {
                RipAddr(1) => counts.0 += 1,
                RipAddr(2) => counts.1 += 1,
                _ => unreachable!(),
            }
        }
        assert_eq!(counts, (300, 100), "WRR should be exactly proportional");
    }

    #[test]
    fn fluid_capacity_and_scaling() {
        let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_vip(VipAddr(1)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 1.0).unwrap();
        sw.add_rip(VipAddr(1), RipAddr(2), 1.0).unwrap();
        sw.set_offered_loads(|_| 3e9);
        assert!((sw.utilization() - 1.5).abs() < 1e-9);
        assert!((sw.served_bps() - 4e9).abs() < 1.0);
        // Each VIP is scaled by 4/6.
        let d = sw.distribute_vip(VipAddr(0)).unwrap();
        assert!((d[0].1 - 2e9).abs() < 1.0);
    }

    #[test]
    fn weight_update_changes_split() {
        let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 1.0).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(2), 1.0).unwrap();
        sw.set_offered_loads(|_| 2e9);
        sw.set_rip_weight(VipAddr(0), RipAddr(2), 3.0).unwrap();
        let d = sw.distribute_vip(VipAddr(0)).unwrap();
        assert!((d[0].1 - 0.5e9).abs() < 1.0);
        assert!((d[1].1 - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn only_a_weight_change_counts_as_a_reconfiguration() {
        let mut sw = small_switch();
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 1.5).unwrap();
        let base = sw.reconfigurations();
        sw.set_rip_weight(VipAddr(0), RipAddr(1), 1.5).unwrap();
        assert_eq!(sw.reconfigurations(), base, "same bits");
        sw.set_rip_weight(VipAddr(0), RipAddr(1), 2.0).unwrap();
        assert_eq!(sw.reconfigurations(), base + 1);
        // +0.0 and -0.0 compare equal but are different bits.
        sw.set_rip_weight(VipAddr(0), RipAddr(1), 0.0).unwrap();
        sw.set_rip_weight(VipAddr(0), RipAddr(1), -0.0).unwrap();
        assert_eq!(sw.reconfigurations(), base + 3);
        assert_eq!(
            sw.vip(VipAddr(0)).unwrap().rips[0].weight.to_bits(),
            (-0.0f64).to_bits()
        );
    }

    /// The VIP → `[(rip, weight bits)]` table a switch reconfiguration
    /// changes.
    fn table(sw: &LbSwitch) -> Vec<(VipAddr, Vec<(RipAddr, u64)>)> {
        sw.vips()
            .map(|(vip, cfg)| {
                let rips = cfg.rips.iter().map(|r| (r.rip, r.weight.to_bits()));
                (vip, rips.collect())
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]
        /// `reconfigurations()` moves exactly when the table does, under
        /// every configuration-plane mutator and the session and load
        /// calls that must leave it alone.
        #[test]
        fn reconfigurations_change_iff_the_table_changes(
            ops in proptest::collection::vec((0u8..11, 0u32..4, 0u32..6, 0usize..5), 1..80),
        ) {
            const WEIGHTS: [f64; 5] = [0.0, -0.0, 1.0, 2.5, 1e-300];
            let limits = SwitchLimits {
                max_vips: 3,
                max_rips: 6,
                max_connections: 6,
                ..SwitchLimits::CISCO_CATALYST
            };
            let mut sw = LbSwitch::new(SwitchId(0), limits);
            for (op, v, r, w) in ops {
                let (vip, rip, weight) = (VipAddr(v), RipAddr(r), WEIGHTS[w]);
                let current = sw
                    .vip(vip)
                    .ok()
                    .and_then(|c| c.rips.iter().find(|e| e.rip == rip))
                    .map(|e| (e.weight, e.active_conns));
                let (before, count) = (table(&sw), sw.reconfigurations());
                let _ = match op {
                    0 => sw.add_vip(vip),
                    1 => sw.remove_vip(vip).map(drop),
                    2 => sw.force_remove_vip(vip).map(drop),
                    3 => sw.add_rip(vip, rip, weight),
                    4 => sw.remove_rip(vip, rip).map(drop),
                    // The entry's own weight: the same bits.
                    5 => sw.set_rip_weight(vip, rip, current.map_or(weight, |c| c.0)),
                    // A different weight, or the other zero.
                    6 => {
                        let old = current.map_or(0.0, |c| c.0);
                        let new = WEIGHTS.into_iter().find(|x| x.to_bits() != old.to_bits());
                        sw.set_rip_weight(vip, rip, new.unwrap_or(weight))
                    }
                    7 => sw.set_rip_weight(vip, rip, if w % 2 == 0 { 0.0 } else { -0.0 }),
                    8 => sw.open_session(vip).map(drop),
                    9 if current.is_some_and(|c| c.1 > 0) => sw.close_session(vip, rip),
                    10 => {
                        sw.set_offered_loads(|x| f64::from(x.0) * weight.abs());
                        Ok(())
                    }
                    _ => Ok(()),
                };
                let changed = table(&sw) != before;
                proptest::prop_assert_eq!(
                    sw.reconfigurations() != count,
                    changed,
                    "op {} on {} {}: table changed = {}",
                    op,
                    vip,
                    rip,
                    changed
                );
            }
        }
    }

    #[test]
    fn offered_total_matches_a_fresh_sum_after_every_step() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let fresh = |sw: &LbSwitch| -> f64 { sw.vips().map(|(_, c)| c.offered_bps).sum() };
        for seed in 0..32 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
            assert_eq!(sw.offered_bps().to_bits(), fresh(&sw).to_bits());
            for step in 0..200 {
                let vip = VipAddr(rng.gen_range(0..24));
                match rng.gen_range(0..6) {
                    0 | 1 => {
                        let _ = sw.add_vip(vip);
                    }
                    2 => {
                        // Sometimes pin a session first, so the quiescence
                        // gate refuses and the total must be left alone.
                        if sw.has_vip(vip)
                            && rng.gen_bool(0.3)
                            && sw.add_rip(vip, RipAddr(vip.0), 1.0).is_ok()
                        {
                            sw.open_session(vip).unwrap();
                        }
                        let _ = sw.remove_vip(vip);
                    }
                    3 => {
                        let _ = sw.force_remove_vip(vip);
                    }
                    4 => {
                        // Signed-zero loads, then a new VIP: the total is
                        // -0.0 only when every load is -0.0, and adding
                        // the fresh VIP's +0.0 must turn it into +0.0.
                        let all_negative = rng.gen_bool(0.5);
                        sw.set_offered_loads(|_| {
                            if all_negative || rng.gen_bool(0.5) {
                                -0.0
                            } else {
                                0.0
                            }
                        });
                        assert_eq!(
                            sw.offered_bps().to_bits(),
                            fresh(&sw).to_bits(),
                            "seed {seed} step {step} (zero loads)"
                        );
                        let _ = sw.add_vip(vip);
                    }
                    _ => {
                        // Magnitudes far apart, so summation order shows.
                        let scale = [0.0, 1e-3, 1.0, 3e7, 1e9, 7e12];
                        sw.set_offered_loads(|_| {
                            scale[rng.gen_range(0..scale.len())] * rng.gen::<f64>()
                        });
                    }
                }
                assert_eq!(
                    sw.offered_bps().to_bits(),
                    fresh(&sw).to_bits(),
                    "seed {seed} step {step}"
                );
            }
        }
    }

    /// One VIP of the reference model: `(rip, weight bits)` in
    /// configuration order, the offered load's bits and live sessions.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct ModelVip {
        rips: Vec<(RipAddr, u64)>,
        offered: u64,
        conns: u64,
    }

    fn model_of(cfg: &VipConfig) -> ModelVip {
        ModelVip {
            rips: cfg
                .rips
                .iter()
                .map(|r| (r.rip, r.weight.to_bits()))
                .collect(),
            offered: cfg.offered_bps.to_bits(),
            conns: cfg.active_conns(),
        }
    }

    #[test]
    fn vip_table_matches_an_ordered_map_model() {
        use std::collections::BTreeMap;
        const VIPS: u64 = 24;
        let limits = SwitchLimits {
            max_vips: 12,
            max_rips: 40,
            ..SwitchLimits::CISCO_CATALYST
        };
        let (mut busy, mut full) = (0, 0);
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut next = move || dcsim::rng::splitmix64(&mut rng);
            let mut sw = LbSwitch::new(SwitchId(0), limits);
            let mut model: BTreeMap<VipAddr, ModelVip> = BTreeMap::new();
            for step in 0..300 {
                let vip = VipAddr((next() % VIPS) as u32);
                let at = format!("seed {seed} step {step} {vip}");
                match next() % 7 {
                    0 | 1 => {
                        let want = if model.contains_key(&vip) {
                            Err(SwitchError::DuplicateVip(vip))
                        } else if model.len() >= limits.max_vips {
                            full += 1;
                            Err(SwitchError::VipLimitExceeded)
                        } else {
                            model.insert(vip, ModelVip::default());
                            Ok(())
                        };
                        assert_eq!(sw.add_vip(vip), want, "{at}");
                    }
                    2 => {
                        let want = match model.get(&vip) {
                            None => Err(SwitchError::UnknownVip(vip)),
                            Some(m) if m.conns > 0 => {
                                busy += 1;
                                Err(SwitchError::NotQuiescent(vip, m.conns))
                            }
                            Some(_) => Ok(model.remove(&vip).map_or(0, |m| m.rips.len())),
                        };
                        assert_eq!(sw.remove_vip(vip).map(|r| r.len()), want, "{at}");
                    }
                    3 => {
                        let want = model
                            .remove(&vip)
                            .map(|m| (m.rips.len(), m.conns))
                            .ok_or(SwitchError::UnknownVip(vip));
                        let got = sw.force_remove_vip(vip).map(|(r, n)| (r.len(), n));
                        assert_eq!(got, want, "{at}");
                    }
                    4 => {
                        let rip = RipAddr((next() % 64) as u32);
                        let weight = [0.5f64, 1.0, 3.0][(next() % 3) as usize];
                        let rips: usize = model.values().map(|m| m.rips.len()).sum();
                        let want = match model.get_mut(&vip) {
                            _ if rips >= limits.max_rips => Err(SwitchError::RipLimitExceeded),
                            None => Err(SwitchError::UnknownVip(vip)),
                            Some(m) if m.rips.iter().any(|&(r, _)| r == rip) => {
                                Err(SwitchError::DuplicateRip(vip, rip))
                            }
                            Some(m) => {
                                m.rips.push((rip, weight.to_bits()));
                                Ok(())
                            }
                        };
                        assert_eq!(sw.add_rip(vip, rip, weight), want, "{at}");
                    }
                    5 => {
                        // Pins a session, so a later remove_vip is refused.
                        let opened = sw.open_session(vip).is_ok();
                        let m = model.get_mut(&vip);
                        assert_eq!(opened, m.as_ref().is_some_and(|m| !m.rips.is_empty()));
                        if let (true, Some(m)) = (opened, m) {
                            m.conns += 1;
                        }
                    }
                    _ => {
                        // Magnitudes far apart, so summation order shows.
                        let scale = [0.0, 1e-3, 1.0, 3e7, 1e9, 7e12];
                        let loads: Vec<f64> = (0..VIPS)
                            .map(|_| scale[(next() % 6) as usize] * (next() % 1_000) as f64)
                            .collect();
                        sw.set_offered_loads(|v| loads[v.0 as usize]);
                        for (v, m) in &mut model {
                            m.offered = loads[v.0 as usize].to_bits();
                        }
                    }
                }
                let table: Vec<_> = sw.vips().map(|(v, c)| (v, model_of(c))).collect();
                let want: Vec<_> = model.iter().map(|(&v, m)| (v, m.clone())).collect();
                assert_eq!(table, want, "{at}: table in address order");
                assert_eq!(sw.vip_count(), model.len(), "{at}");
                for v in (0..=VIPS as u32).map(VipAddr) {
                    let got = sw.vip(v).map(model_of);
                    let want = model.get(&v).cloned().ok_or(SwitchError::UnknownVip(v));
                    assert_eq!(got, want, "{at}: lookup {v}");
                    assert_eq!(sw.has_vip(v), model.contains_key(&v));
                }
                let total: f64 = model.values().map(|m| f64::from_bits(m.offered)).sum();
                assert_eq!(sw.offered_bps().to_bits(), total.to_bits(), "{at}");
            }
        }
        assert!(busy > 0 && full > 0, "{busy} {full}");
    }

    #[test]
    fn set_offered_loads_sets_every_configured_vip() {
        let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
        for v in [3, 1, 2] {
            sw.add_vip(VipAddr(v)).unwrap();
        }
        let mut seen = Vec::new();
        sw.set_offered_loads(|v| {
            seen.push(v.0);
            f64::from(v.0) * 1e9
        });
        assert_eq!(seen, vec![1, 2, 3], "called once per VIP, in VIP order");
        assert_eq!(sw.vip(VipAddr(2)).unwrap().offered_bps, 2e9);
        assert_eq!(sw.offered_bps(), 6e9);
    }

    #[test]
    fn remove_rip_returns_dropped_sessions() {
        let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
        sw.add_vip(VipAddr(0)).unwrap();
        sw.add_rip(VipAddr(0), RipAddr(1), 1.0).unwrap();
        sw.open_session(VipAddr(0)).unwrap();
        assert_eq!(sw.remove_rip(VipAddr(0), RipAddr(1)).unwrap(), 1);
        assert_eq!(sw.total_conns(), 0);
    }

    #[test]
    fn unknown_targets_error() {
        let mut sw = small_switch();
        assert!(matches!(
            sw.add_rip(VipAddr(9), RipAddr(0), 1.0),
            Err(SwitchError::UnknownVip(_))
        ));
        assert!(matches!(
            sw.set_rip_weight(VipAddr(9), RipAddr(0), 1.0),
            Err(SwitchError::UnknownVip(_))
        ));
        sw.add_vip(VipAddr(9)).unwrap();
        assert!(matches!(
            sw.set_rip_weight(VipAddr(9), RipAddr(0), 1.0),
            Err(SwitchError::UnknownRip(_, _))
        ));
    }

    /// The fluid split as it was before [`VipSplit`]: the weights and
    /// their shares in vectors of their own, zipped back onto the RIPs.
    fn distribute_reference(
        sw: &LbSwitch,
        vip: VipAddr,
    ) -> Result<Vec<(RipAddr, f64)>, SwitchError> {
        fn split_by_weight(weights: &[f64], demand: f64) -> Vec<f64> {
            let total: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
            if total <= 0.0 {
                return vec![0.0; weights.len()];
            }
            weights
                .iter()
                .map(|&w| if w > 0.0 { demand * w / total } else { 0.0 })
                .collect()
        }
        let cfg = sw.vip(vip)?;
        let scale = if sw.offered_bps() > sw.limits.capacity_bps {
            sw.limits.capacity_bps / sw.offered_bps()
        } else {
            1.0
        };
        let weights: Vec<f64> = cfg.rips.iter().map(|r| r.weight).collect();
        let shares = split_by_weight(&weights, cfg.offered_bps * scale);
        Ok(cfg
            .rips
            .iter()
            .zip(shares)
            .map(|(r, s)| (r.rip, s))
            .collect())
    }

    fn bits(d: &[(RipAddr, f64)]) -> Vec<(RipAddr, u64)> {
        d.iter().map(|&(r, b)| (r, b.to_bits())).collect()
    }

    #[test]
    fn split_matches_the_allocating_reference() {
        const WEIGHTS: [f64; 8] = [0.0, -0.0, 1e-300, 0.5, 1.0, 3.0, 7.25, 1e6];
        let (mut over, mut all_zero, mut empty) = (0, 0, 0);
        for seed in 0..300u64 {
            let mut rng = seed;
            let mut next = move || dcsim::rng::splitmix64(&mut rng);
            let mut sw = LbSwitch::new(SwitchId(0), SwitchLimits::CISCO_CATALYST);
            let vips = 1 + next() % 6;
            for v in 0..vips as u32 {
                sw.add_vip(VipAddr(v)).unwrap();
                for r in 0..next() % 5 {
                    let w = WEIGHTS[(next() % WEIGHTS.len() as u64) as usize];
                    sw.add_rip(VipAddr(v), RipAddr(v * 8 + r as u32), w)
                        .unwrap();
                }
            }
            // Loads from idle to ~3x the 4 Gbps capacity in total.
            let loads: Vec<f64> = (0..vips).map(|_| (next() % 2_000) as f64 * 1e6).collect();
            sw.set_offered_loads(|v| loads[v.0 as usize]);
            over += usize::from(sw.offered_bps() > sw.limits.capacity_bps);
            for v in (0..vips as u32 + 1).map(VipAddr) {
                let want = distribute_reference(&sw, v);
                let got = sw.distribute_vip(v);
                match (&want, &got) {
                    (Ok(w), Ok(g)) => {
                        assert_eq!(bits(g), bits(w), "seed {seed} {v}");
                        let split: Vec<_> = sw.vip_split(v).unwrap().iter().collect();
                        assert_eq!(bits(&split), bits(w), "seed {seed} {v}");
                        empty += usize::from(w.is_empty());
                        all_zero += usize::from(!w.is_empty() && w.iter().all(|&(_, b)| b == 0.0));
                    }
                    _ => assert_eq!(got, want, "seed {seed} {v}"),
                }
            }
        }
        assert!(
            over > 0 && all_zero > 0 && empty > 0,
            "{over} {all_zero} {empty}"
        );
    }
}
