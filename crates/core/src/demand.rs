//! Fluid demand propagation: workload → DNS → access links → LB switches
//! → RIPs → VMs → servers.
//!
//! Once per control epoch the platform propagates each application's
//! offered external demand down the Figure-1 stack:
//!
//! 1. **DNS** splits an app's demand across its VIPs according to the
//!    *effective* exposure shares (TTL inertia and stale clients
//!    included — [`dcdns`]).
//! 2. **Routing** delivers each VIP's demand through the access routers
//!    currently preferring its prefix; demand for unreachable VIPs is
//!    lost. Link loads accumulate here.
//! 3. **LB switches** serve each VIP's demand up to the switch throughput
//!    limit (uniform scaling when over capacity) and split it across the
//!    VIP's RIPs by weight.
//! 4. **VMs** convert bits/s into CPU via the request profile and serve up
//!    to their CPU slice; the remainder is unserved (the signal pod
//!    managers provision against). Booting VMs serve nothing.
//!
//! The output [`LoadSnapshot`] carries every quantity the paper's control
//! knobs and the experiments observe.
//!
//! Propagation is one serial pass: apps in index order, then VIPs in
//! address order. Every accumulator therefore receives its float adds in
//! a fixed sequence, so the snapshot is a pure function of the state and
//! the demand vector. Parallelism lives where control is partitioned
//! (pod planning), not in this model of the traffic.

use crate::ids::vip_prefix;
use crate::profclock::PhaseClock;
use crate::state::PlatformState;
use dcnet::access::AccessRouterId;
use dcnet::routing::ActiveRoute;
use dcsim::metrics::jains_fairness;
use dcsim::{DenseId, IdTable, SimTime};
use lbswitch::VipAddr;
use vmm::VmId;

/// Everything observed during one propagation epoch.
#[derive(Debug, Clone, Default)]
pub struct LoadSnapshot {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// Offered external demand per app (bits/s), indexed by app id.
    pub app_demand_bps: Vec<f64>,
    /// Demand arriving at each VIP (bits/s); a VIP has an entry iff some
    /// routed demand reached it.
    pub vip_demand_bps: IdTable<VipAddr, f64>,
    /// Demand actually served through each VIP (bits/s) after switch
    /// overflow, dead/booting RIPs and VM slice saturation. The
    /// served/offered ratio per VIP is the misrouting-equilibrium signal
    /// (a starved VIP can hide inside a healthy-looking app aggregate).
    /// A VIP has an entry iff some RIP served it.
    pub vip_served_bps: IdTable<VipAddr, f64>,
    /// Load on each access link (bits/s), indexed by link id.
    pub link_load_bps: Vec<f64>,
    /// Offered load at each LB switch (bits/s), indexed by switch id.
    pub switch_offered_bps: Vec<f64>,
    /// CPU demand offered to each VM (capacity units), indexed by VM id
    /// and sized to the fleet's VM id bound at propagation time. 0.0
    /// means no load: the VM served no RIP share, is booting, or is gone.
    /// Read it through [`LoadSnapshot::vm_offered`], which also covers VMs
    /// created after the snapshot.
    pub vm_cpu_offered: Vec<f64>,
    /// CPU actually served by each VM (≤ its slice), indexed like
    /// `vm_cpu_offered`.
    pub vm_cpu_served: Vec<f64>,
    /// Served CPU load per server, indexed by server id.
    pub server_cpu_load: Vec<f64>,
    /// Demand lost per app (bits/s): unreachable VIPs + switch overflow +
    /// VM slice saturation.
    pub unserved_bps_by_app: Vec<f64>,
}

impl LoadSnapshot {
    /// CPU demand offered to `vm` (0.0 for a VM with no load or one the
    /// snapshot predates).
    pub fn vm_offered(&self, vm: VmId) -> f64 {
        self.vm_cpu_offered.get(vm.index()).copied().unwrap_or(0.0)
    }

    /// Total offered demand, bits/s.
    pub fn total_demand_bps(&self) -> f64 {
        self.app_demand_bps.iter().sum()
    }

    /// Total unserved demand, bits/s.
    pub fn total_unserved_bps(&self) -> f64 {
        self.unserved_bps_by_app.iter().sum()
    }

    /// Fraction of offered demand that was served, in `[0, 1]`.
    pub fn served_fraction(&self) -> f64 {
        let total = self.total_demand_bps();
        if total <= 0.0 {
            return 1.0;
        }
        (1.0 - self.total_unserved_bps() / total).clamp(0.0, 1.0)
    }

    /// Per-link utilizations given the access network.
    pub fn link_utilizations(&self, state: &PlatformState) -> Vec<f64> {
        state.access.utilizations(&self.link_load_bps)
    }

    /// Per-switch utilizations.
    pub fn switch_utilizations(&self, state: &PlatformState) -> Vec<f64> {
        self.switch_offered_bps
            .iter()
            .zip(&state.switches)
            .map(|(&load, sw)| load / sw.limits().capacity_bps)
            .collect()
    }

    /// CPU utilization of each pod (served load / pod capacity).
    pub fn pod_utilizations(&self, state: &PlatformState) -> Vec<f64> {
        (0..state.num_pods())
            .map(|p| {
                let pod = crate::ids::PodId(p as u32);
                let cap = state.pod_cpu_capacity(pod);
                let load: f64 = state
                    .pod_servers(pod)
                    .iter()
                    .map(|&s| self.server_cpu_load[s.0 as usize])
                    .sum();
                if cap > 0.0 {
                    load / cap
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Jain's fairness of link utilizations (1.0 = perfectly balanced).
    pub fn link_fairness(&self, state: &PlatformState) -> f64 {
        jains_fairness(&self.link_utilizations(state))
    }
}

/// Wall-clock seconds spent in each propagation stage, as measured by
/// the funneled [`PhaseClock`]. Profiling output only — it feeds the
/// phase profiler, never a deterministic export.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropagateTiming {
    /// Stages 1+2 (DNS split + routing).
    pub route_s: f64,
    /// Stage 3 (switch offered-load reset).
    pub switch_reset_s: f64,
    /// Stage 4 (RIPs → VMs → servers).
    pub serve_s: f64,
}

/// Propagate `app_demand_bps` through the platform at time `now`.
///
/// Mutates the switches' offered-load registers (they are the data plane);
/// everything else is read-only.
pub fn propagate(state: &mut PlatformState, app_demand_bps: &[f64], now: SimTime) -> LoadSnapshot {
    let mut snap = LoadSnapshot::default();
    propagate_into(
        state,
        app_demand_bps,
        now,
        &mut snap,
        &mut PropagateScratch::default(),
    );
    snap
}

/// Lookup buffers [`propagate_into`] refills for every app and VIP, kept
/// by the caller so a propagation allocates only when an app exposes, or
/// a VIP is routed through, more entries than any before it.
#[derive(Debug, Default)]
pub struct PropagateScratch {
    shares: Vec<(VipAddr, f64)>,
    routes: Vec<ActiveRoute>,
}

/// Clear and refill a zeroed `f64` buffer (allocation reused when the
/// capacity already fits).
fn fill_zeroed(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// [`propagate`] into a caller-owned snapshot: every vector and table in
/// `snap` is cleared and refilled, so the platform reuses one snapshot's
/// allocations across epochs instead of paying a fresh `LoadSnapshot`
/// each tick. The DNS, route and switch lookups fill `scratch`'s buffers
/// or borrow the switch's tables, so the per-app and per-VIP path
/// allocates nothing.
///
/// Returns per-stage wall-clock timings, which the platform feeds to the
/// phase profiler.
pub fn propagate_into(
    state: &mut PlatformState,
    app_demand_bps: &[f64],
    now: SimTime,
    snap: &mut LoadSnapshot,
    scratch: &mut PropagateScratch,
) -> PropagateTiming {
    assert_eq!(
        app_demand_bps.len(),
        state.num_apps(),
        "demand vector covers all apps"
    );
    let profile = state.config.request_profile;
    let LoadSnapshot {
        time,
        app_demand_bps: snap_demand,
        vip_demand_bps,
        vip_served_bps,
        link_load_bps,
        switch_offered_bps,
        vm_cpu_offered,
        vm_cpu_served,
        server_cpu_load,
        unserved_bps_by_app,
    } = snap;
    *time = now;
    snap_demand.clear();
    snap_demand.extend_from_slice(app_demand_bps);
    fill_zeroed(link_load_bps, state.access.num_links());
    fill_zeroed(switch_offered_bps, state.switches.len());
    fill_zeroed(server_cpu_load, state.fleet.num_servers());
    fill_zeroed(unserved_bps_by_app, state.num_apps());
    fill_zeroed(vm_cpu_offered, state.fleet.vm_id_bound());
    fill_zeroed(vm_cpu_served, state.fleet.vm_id_bound());
    vip_demand_bps.clear();
    vip_served_bps.clear();
    let PropagateScratch { shares, routes } = scratch;

    // --- 1+2: DNS split and routing (phase demand-route) -----------------
    let mut timing = PropagateTiming::default();
    let mut clock = PhaseClock::start();
    for app in state.apps() {
        let app_idx = app.id.0 as usize;
        let demand = app_demand_bps[app_idx];
        if demand <= 0.0 {
            continue;
        }
        state
            .dns
            .effective_shares_into(app.id.dns_key(), now, shares);
        if shares.is_empty() {
            unserved_bps_by_app[app_idx] += demand;
            continue;
        }
        for &(vip, share) in shares.iter() {
            let vd = demand * share;
            if vd <= 0.0 {
                continue;
            }
            // Cached answers and converging withdrawals can still steer
            // clients at a VIP lost with its switch; the platform no
            // longer has it (or has given its address to another app),
            // so that demand is unserved.
            if !state.vip(vip).is_ok_and(|rec| rec.app == app.id) {
                unserved_bps_by_app[app_idx] += vd;
                continue;
            }
            state
                .routes
                .preferred_routes_into(vip_prefix(vip), now, routes);
            if routes.is_empty() {
                unserved_bps_by_app[app_idx] += vd;
                continue;
            }
            *vip_demand_bps.get_or_insert(vip, 0.0) += vd;
            let per_router = vd / routes.len() as f64;
            for r in routes.iter() {
                let links = state.access.links_at_router(r.router).count();
                if links == 0 {
                    continue;
                }
                let per_link = per_router / links as f64;
                for l in state.access.links_at_router(r.router) {
                    link_load_bps[l.id.index()] += per_link;
                }
            }
        }
    }
    timing.route_s = clock.lap();

    // --- 3: switches (phase demand-switch-reset) -------------------------
    // Every configured VIP takes its routed demand (0 when none arrived).
    for (i, sw) in state.switches.iter_mut().enumerate() {
        sw.set_offered_loads(|vip| vip_demand_bps.get(vip).copied().unwrap_or(0.0));
        switch_offered_bps[i] = sw.offered_bps();
    }
    timing.switch_reset_s = clock.lap();

    // --- 4: RIPs → VMs → servers (phase demand-serve) --------------------
    // Each VIP's record and switch entry are resolved once; demand for a
    // VIP its switch no longer configures is unserved. The route stage
    // books demand only for VIPs that carry the app's record, so the
    // `else` never runs; if it did, the demand would be neither served
    // nor unserved and the conservation check below would fail.
    for (vip, &offered) in vip_demand_bps.iter() {
        let Ok(rec) = state.vip(vip) else { continue };
        let app_idx = rec.app.0 as usize;
        let Ok(split) = state.switches[rec.switch.0 as usize].vip_split(vip) else {
            unserved_bps_by_app[app_idx] += offered;
            continue;
        };
        // Switch-capacity overflow for this VIP (uniform scaling).
        let distributed: f64 = split.iter().map(|(_, b)| b).sum();
        if offered > distributed {
            unserved_bps_by_app[app_idx] += offered - distributed;
        }
        // Summed locally and stored once: the VIP gets an entry only when
        // some RIP served it, and the adds run in the same order.
        let mut served_bps: Option<f64> = None;
        for (rip, bps) in split.iter() {
            if bps <= 0.0 {
                continue;
            }
            // A RIP with no record, or whose VM is gone or not serving
            // (booting), loses its share.
            let serving = state.rip(rip).ok().and_then(|r| {
                let (srv, vm) = state.fleet.locate_vm(r.vm).ok()?;
                vm.state.serves_traffic().then_some((r.vm, srv, vm))
            });
            let Some((vm_id, srv, vm)) = serving else {
                unserved_bps_by_app[app_idx] += bps;
                continue;
            };
            let cpu = profile.cpu_demand(profile.rps_for_bandwidth(bps));
            let served_cpu = cpu.min(vm.cpu_slice);
            if cpu > served_cpu {
                let lost_rps = (cpu - served_cpu) / profile.cpu_per_req;
                unserved_bps_by_app[app_idx] += profile.bandwidth_bps(lost_rps);
            }
            let served_rps = served_cpu / profile.cpu_per_req;
            *served_bps.get_or_insert(0.0) += profile.bandwidth_bps(served_rps);
            vm_cpu_offered[vm_id.index()] += cpu;
            vm_cpu_served[vm_id.index()] += served_cpu;
            server_cpu_load[srv.0 as usize] += served_cpu;
        }
        if let Some(bps) = served_bps {
            vip_served_bps.insert(vip, bps);
        }
    }
    timing.serve_s = clock.lap();
    debug_assert_eq!(conservation_violation(state, snap), None);
    timing
}

/// Relative closeness at 1e-9 (exact for two zeros).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// The first conservation law `snap` breaks, if any: per app, offered
/// demand = unserved + served through its VIPs; and, when every access
/// router has a link to carry its share, the link loads sum to the
/// routed VIP demand.
fn conservation_violation(state: &PlatformState, snap: &LoadSnapshot) -> Option<String> {
    let mut served_by_app = vec![0.0; state.num_apps()];
    for (vip, &bps) in snap.vip_served_bps.iter() {
        let Ok(rec) = state.vip(vip) else {
            return Some(format!("served {vip} has no record"));
        };
        served_by_app[rec.app.0 as usize] += bps;
    }
    for (app, (&offered, &served)) in snap.app_demand_bps.iter().zip(&served_by_app).enumerate() {
        let accounted = snap.unserved_bps_by_app[app] + served;
        if !close(offered, accounted) {
            return Some(format!(
                "app {app}: offered {offered} != unserved + served {accounted}"
            ));
        }
    }
    let access = &state.access;
    let every_router_linked = (0..access.num_access_routers() as u32)
        .all(|r| access.links_at_router(AccessRouterId(r)).next().is_some());
    let links: f64 = snap.link_load_bps.iter().sum();
    let routed: f64 = snap.vip_demand_bps.values().sum();
    if every_router_linked && !close(links, routed) {
        return Some(format!("link loads {links} != routed VIP demand {routed}"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::ids::AppId;
    use dcnet::access::AccessRouterId;
    use lbswitch::{RipAddr, SwitchId};
    use vmm::ServerId;

    /// Build a tiny live platform: 1 app, 2 VIPs on 2 switches, each with
    /// one instance, advertised at routers 0 and 1, DNS 50/50.
    fn live_state() -> PlatformState {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_apps = 1;
        let mut st = PlatformState::new(cfg);
        let app = st.register_app(0);
        let v0 = st.allocate_vip(app, SwitchId(0)).unwrap();
        let v1 = st.allocate_vip(app, SwitchId(1)).unwrap();
        st.advertise_vip(v0, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.advertise_vip(v1, AccessRouterId(1), SimTime::ZERO)
            .unwrap();
        st.add_instance_running(app, ServerId(0), v0, 1.0).unwrap();
        st.add_instance_running(app, ServerId(1), v1, 1.0).unwrap();
        st.dns
            .set_exposure(0, vec![(v0, 1.0), (v1, 1.0)], SimTime::ZERO);
        st
    }

    /// Time at which initial route advertisements have converged.
    fn t_live(st: &PlatformState) -> SimTime {
        SimTime::ZERO + st.routes.convergence()
    }

    #[test]
    fn balanced_split_across_vips_links_switches() {
        let mut st = live_state();
        let now = t_live(&st);
        let snap = propagate(&mut st, &[2e9], now);
        // 50/50 across VIPs.
        let demands: Vec<f64> = snap.vip_demand_bps.values().copied().collect();
        assert_eq!(demands.len(), 2);
        assert!((demands[0] - 1e9).abs() < 1e3);
        assert!((demands[1] - 1e9).abs() < 1e3);
        // Links 0 and 1 carry it; link 2 idle.
        assert!((snap.link_load_bps[0] - 1e9).abs() < 1e3);
        assert!((snap.link_load_bps[1] - 1e9).abs() < 1e3);
        assert_eq!(snap.link_load_bps[2], 0.0);
        // Both switches loaded.
        assert!((snap.switch_offered_bps[0] - 1e9).abs() < 1e3);
        assert!((snap.switch_offered_bps[1] - 1e9).abs() < 1e3);
    }

    #[test]
    fn vm_slice_caps_served_cpu() {
        let mut st = live_state();
        let now = t_live(&st);
        // 2 Gbps → 1 Gbps per VIP → rps = 1e9/(60000×8) ≈ 2083 rps →
        // cpu ≈ 10.4 units, far over the 0.4 slice.
        let snap = propagate(&mut st, &[2e9], now);
        for (vm, &served) in snap.vm_cpu_served.iter().enumerate() {
            if served > 0.0 {
                let slice = st.fleet.vm(VmId(vm as u32)).unwrap().cpu_slice;
                assert!(served <= slice + 1e-9);
            }
        }
        assert!(snap.total_unserved_bps() > 0.0);
        assert!(snap.served_fraction() < 1.0);
    }

    #[test]
    fn unadvertised_vip_demand_is_lost() {
        let mut st = live_state();
        // Before convergence nothing is reachable.
        let snap = propagate(&mut st, &[1e9], SimTime::from_secs(1));
        assert!((snap.total_unserved_bps() - 1e9).abs() < 1e3);
        assert_eq!(snap.served_fraction(), 0.0);
    }

    #[test]
    fn switch_overflow_counted_as_unserved() {
        let mut st = live_state();
        let now = t_live(&st);
        // 16 Gbps total → 8 Gbps per switch, capacity 4 Gbps → 4 Gbps
        // overflow per switch (plus VM-slice losses on the served part).
        let snap = propagate(&mut st, &[16e9], now);
        assert!(
            snap.total_unserved_bps() >= 8e9 - 1e3,
            "unserved {}",
            snap.total_unserved_bps()
        );
    }

    #[test]
    fn booting_vm_serves_nothing() {
        let mut st = live_state();
        let now = t_live(&st);
        // Add a booting instance (fresh create, not yet ready).
        let app = AppId(0);
        let vip = st.app(app).unwrap().vips[0];
        let vm = st
            .fleet
            .create_vm(
                ServerId(2),
                0,
                st.config.vm_cpu_slice,
                st.config.vm_mem_mb,
                now,
            )
            .unwrap();
        st.bind_rip(vip, vm, 1.0).unwrap();
        let snap = propagate(&mut st, &[2e9], now);
        assert_eq!(snap.vm_cpu_served[vm.index()], 0.0);
        assert_eq!(snap.vm_offered(vm), 0.0);
        assert!(snap.total_unserved_bps() > 0.0);
    }

    #[test]
    fn zero_demand_snapshot_is_clean() {
        let mut st = live_state();
        let now = t_live(&st);
        let snap = propagate(&mut st, &[0.0], now);
        assert_eq!(snap.total_unserved_bps(), 0.0);
        assert_eq!(snap.served_fraction(), 1.0);
        assert!(snap.vip_demand_bps.is_empty());
        assert!(snap.link_load_bps.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn pod_utilizations_reflect_server_loads() {
        let mut st = live_state();
        let now = t_live(&st);
        // Small demand that fits in slices: 1 Mbps.
        let snap = propagate(&mut st, &[1e6], now);
        let pods = snap.pod_utilizations(&st);
        assert_eq!(pods.len(), 2);
        assert!(pods.iter().all(|&u| (0.0..1.0).contains(&u)));
        // Servers 0 and 1 are in pods 0 and 1 (round-robin deal).
        assert!(pods[0] > 0.0 && pods[1] > 0.0);
    }

    /// The propagation identities of `snap` against the `state` it was
    /// computed from: the conservation laws `propagate_into` checks in
    /// debug builds (per app, and the link-load sum); each switch is
    /// offered exactly the demand of the VIPs homed on it; each server
    /// carries exactly the CPU its VMs serve; no VM serves more CPU than
    /// it is offered.
    fn assert_conserved(state: &PlatformState, snap: &LoadSnapshot) {
        assert_eq!(conservation_violation(state, snap), None);

        let mut offered_by_switch = vec![0.0; state.switches.len()];
        for (vip, &bps) in snap.vip_demand_bps.iter() {
            offered_by_switch[state.vip(vip).expect("routed VIP").switch.0 as usize] += bps;
        }
        for (i, (&got, &want)) in snap
            .switch_offered_bps
            .iter()
            .zip(&offered_by_switch)
            .enumerate()
        {
            assert!(
                close(got, want),
                "switch {i}: offered {got} != VIP sum {want}"
            );
        }

        let mut load_by_server = vec![0.0; state.fleet.num_servers()];
        for (vm, &cpu) in snap.vm_cpu_served.iter().enumerate() {
            if cpu > 0.0 {
                let srv = state.fleet.locate(VmId(vm as u32)).expect("serving VM");
                load_by_server[srv.0 as usize] += cpu;
            }
        }
        for (s, (&got, &want)) in snap.server_cpu_load.iter().zip(&load_by_server).enumerate() {
            assert!(close(got, want), "server {s}: load {got} != VM sum {want}");
        }

        assert_eq!(snap.vm_cpu_served.len(), state.fleet.vm_id_bound());
        assert_eq!(snap.vm_cpu_offered.len(), state.fleet.vm_id_bound());
        for (vm, (&served, &offered)) in snap
            .vm_cpu_served
            .iter()
            .zip(&snap.vm_cpu_offered)
            .enumerate()
        {
            assert!(
                served <= offered,
                "vm{vm}: served {served} > offered {offered}"
            );
        }
    }

    #[test]
    fn demand_is_conserved_through_faults() {
        let mut p = crate::Platform::build(PlatformConfig::small_test()).expect("build");
        let mut unserved_epochs = 0;
        for epoch in 0..30 {
            if epoch == 2 {
                // Multi-home one VIP at every access router, so its demand
                // splits across several routes once they converge.
                let vip = p.state.app(AppId(1)).expect("app 1").vips[0];
                let now = p.now();
                for r in 0..p.state.access.num_access_routers() as u32 {
                    p.state
                        .routes
                        .advertise(vip_prefix(vip), AccessRouterId(r), 0, now);
                }
            }
            if epoch == 8 {
                p.inject_switch_failure(SwitchId(0))
                    .expect("switch 1 stays");
            }
            if epoch == 16 {
                let lost = p.inject_server_failure(ServerId(0)).expect("healthy");
                assert!(lost > 0, "server 0 hosted no VMs");
            }
            if epoch == 20 {
                // Withdraw one VIP everywhere (its demand turns
                // unreachable) and give another a RIP on a booting VM
                // (its share is lost until the VM runs).
                let now = p.now();
                let vips = p.state.app(AppId(0)).expect("app 0").vips.clone();
                for r in 0..p.state.access.num_access_routers() as u32 {
                    p.state
                        .routes
                        .withdraw(vip_prefix(vips[0]), AccessRouterId(r), now);
                }
                let slice = p.state.config.vm_cpu_slice;
                let mem = p.state.config.vm_mem_mb;
                let fleet = &mut p.state.fleet;
                let vm = (0..fleet.num_servers() as u32)
                    .find_map(|s| fleet.create_vm(ServerId(s), 0, slice, mem, now).ok())
                    .expect("some server has room");
                p.state.bind_rip(vips[1], vm, 1.0).expect("bind");
            }
            let demand = p.step().app_demand_bps.clone();
            // The step's own snapshot predates the epoch's knob actions,
            // which may move VIPs and VMs; re-propagate the same demand
            // over the state the step left so every lookup is current.
            let now = p.now();
            let snap = propagate(&mut p.state, &demand, now);
            assert!(snap.total_demand_bps() > 0.0);
            assert_conserved(&p.state, &snap);
            if snap.total_unserved_bps() > 0.0 {
                unserved_epochs += 1;
            }
        }
        assert!(unserved_epochs > 0, "no epoch lost demand");
    }

    #[test]
    fn conservation_violation_names_the_broken_law() {
        let mut st = live_state();
        let now = t_live(&st);
        let mut snap = propagate(&mut st, &[2e9], now);
        assert_eq!(conservation_violation(&st, &snap), None);
        snap.link_load_bps[0] += 1e3;
        let found = conservation_violation(&st, &snap).expect("link loads broken");
        assert!(found.starts_with("link loads"), "{found}");
        snap.unserved_bps_by_app[0] += 1e3;
        let found = conservation_violation(&st, &snap).expect("app 0 broken");
        assert!(found.starts_with("app 0"), "{found}");
    }

    #[test]
    fn dead_rip_demand_is_unserved_and_conserved() {
        let mut st = live_state();
        let now = t_live(&st);
        let vip = st.app(AppId(0)).unwrap().vips[0];
        let sw = st.vip(vip).unwrap().switch.0 as usize;
        // A switch entry with no RIP record behind it, past the end of
        // the RIP table.
        let dead = RipAddr(1_000);
        st.switches[sw].add_rip(vip, dead, 1.0).unwrap();
        assert!(st.rip(dead).is_err());
        // 1 Mbps fits every VM slice, so the dead entry's share is the
        // only loss.
        let snap = propagate(&mut st, &[1e6], now);
        let dist = st.switches[sw].distribute_vip(vip).unwrap();
        let dead_bps = dist.iter().find(|&&(r, _)| r == dead).unwrap().1;
        assert!(dead_bps > 0.0);
        assert_eq!(snap.unserved_bps_by_app[0], dead_bps);
        assert!(snap.vip_served_bps.get(vip) < snap.vip_demand_bps.get(vip));
        assert_conserved(&st, &snap);
    }

    #[test]
    fn dns_shift_moves_link_load() {
        let mut st = live_state();
        let now = t_live(&st);
        let vips = st.app(AppId(0)).unwrap().vips.clone();
        // Shift everything to VIP 1 (router/link 1).
        st.dns.set_exposure(0, vec![(vips[1], 1.0)], now);
        let later = now + st.config.dns.ttl * 10;
        let snap = propagate(&mut st, &[2e9], later);
        assert!(
            snap.link_load_bps[1] > 3.0 * snap.link_load_bps[0],
            "link loads {:?}",
            snap.link_load_bps
        );
    }
}
