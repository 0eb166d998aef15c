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
//! ## Parallel propagation
//!
//! Stages 1+2 (per-app) and stage 4 (per-VIP) are read-only over the
//! platform state, so they run on the [`crate::parallel::EpochPool`] as
//! the declared regions [`obs::phases::REGION_DEMAND_ROUTE`] and
//! [`obs::phases::REGION_DEMAND_SERVE`]. Determinism is preserved by
//! construction, not by luck:
//!
//! * work is split into **fixed index blocks** of [`DEMAND_BLOCK`]
//!   items, so the grouping never depends on the thread count;
//! * each block's partial is a list of *individual contributions* in
//!   visit order — `(app, bps)`, `(vip, bps)`, `(link, bps)`, … — not a
//!   pre-summed map;
//! * the serial merge replays the contributions block by block, which
//!   reproduces **exactly the operation sequence of the old serial
//!   loop**. Float accumulation never regroups, so the snapshot is
//!   bit-identical at any thread count, under any `MEGADC_SHUFFLE`
//!   seed, and to the pre-parallel implementation.
//!
//! Stage 3 stays serial: it mutates the switches' offered-load
//! registers (phase `demand-switch-reset` in [`obs::phases`]).

use crate::ids::vip_prefix;
use crate::parallel::EpochPool;
use crate::profclock::PhaseClock;
use crate::state::PlatformState;
use dcsim::metrics::{jains_fairness, max_mean_ratio};
use dcsim::SimTime;
use lbswitch::VipAddr;
use obs::phases::{REGION_DEMAND_ROUTE, REGION_DEMAND_SERVE};
use std::collections::BTreeMap;
use vmm::VmId;

/// Fixed block size for parallel propagation. Chosen so a paper-scale
/// tier (30k apps, ~60k VIPs) yields enough blocks to load 8+ workers
/// while a small test tier still takes the serial fast path. Changing
/// this value regroups float accumulation and therefore changes
/// low-order output bits — it is part of the determinism contract.
pub const DEMAND_BLOCK: usize = 512;

/// Everything observed during one propagation epoch.
#[derive(Debug, Clone, Default)]
pub struct LoadSnapshot {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// Offered external demand per app (bits/s), indexed by app id.
    pub app_demand_bps: Vec<f64>,
    /// Demand arriving at each VIP (bits/s).
    pub vip_demand_bps: BTreeMap<VipAddr, f64>,
    /// Demand actually served through each VIP (bits/s) after switch
    /// overflow, dead/booting RIPs and VM slice saturation. The
    /// served/offered ratio per VIP is the misrouting-equilibrium signal
    /// (a starved VIP can hide inside a healthy-looking app aggregate).
    pub vip_served_bps: BTreeMap<VipAddr, f64>,
    /// Load on each access link (bits/s), indexed by link id.
    pub link_load_bps: Vec<f64>,
    /// Offered load at each LB switch (bits/s), indexed by switch id.
    pub switch_offered_bps: Vec<f64>,
    /// CPU demand offered to each VM (capacity units).
    pub vm_cpu_offered: BTreeMap<VmId, f64>,
    /// CPU actually served by each VM (≤ its slice).
    pub vm_cpu_served: BTreeMap<VmId, f64>,
    /// Served CPU load per server, indexed by server id.
    pub server_cpu_load: Vec<f64>,
    /// Demand lost per app (bits/s): unreachable VIPs + switch overflow +
    /// VM slice saturation.
    pub unserved_bps_by_app: Vec<f64>,
}

impl LoadSnapshot {
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

    /// Max/mean ratio of switch utilizations.
    pub fn switch_imbalance(&self, state: &PlatformState) -> f64 {
        max_mean_ratio(&self.switch_utilizations(state))
    }
}

/// Wall-clock seconds spent in each propagation stage, as measured by
/// the funneled [`PhaseClock`]. Profiling output only — it feeds the
/// phase profiler and the E19 samples, never a deterministic export.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropagateTiming {
    /// Stage 1+2 (DNS split + routing, parallel) including the serial
    /// contribution replay.
    pub route_s: f64,
    /// Stage 3 (switch offered-load reset, serial).
    pub switch_reset_s: f64,
    /// Stage 4 (RIPs → VMs → servers, parallel) including the replay.
    pub serve_s: f64,
}

impl PropagateTiming {
    /// The demand-stage total the E19 scale bench samples
    /// (`demand_s_per_epoch`): the two parallelizable stages.
    pub fn parallel_stages_s(&self) -> f64 {
        self.route_s + self.serve_s
    }
}

/// Propagate `app_demand_bps` through the platform at time `now`,
/// serially (a one-worker pool, sanitizer off).
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
        &EpochPool::with_shuffle(1, None),
    );
    snap
}

/// Clear and refill a zeroed `f64` buffer (allocation reused when the
/// capacity already fits).
fn fill_zeroed(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// Per-block partial of the DNS-split + routing stage: individual
/// contributions in visit order, replayed serially at the merge so float
/// accumulation order matches the serial loop exactly.
#[derive(Default)]
struct RoutePartial {
    /// `(app index, lost bps)` — unreachable shares.
    unserved: Vec<(usize, f64)>,
    /// `(vip, bps)` — one entry per app×VIP contribution.
    vip_demand: Vec<(VipAddr, f64)>,
    /// `(link index, bps)` — one entry per route×link contribution.
    link_load: Vec<(usize, f64)>,
}

/// Per-block partial of the serving stage, same contribution-list
/// discipline as [`RoutePartial`].
#[derive(Default)]
struct ServePartial {
    unserved: Vec<(usize, f64)>,
    vip_served: Vec<(VipAddr, f64)>,
    vm_offered: Vec<(VmId, f64)>,
    vm_served: Vec<(VmId, f64)>,
    server_load: Vec<(usize, f64)>,
}

/// [`propagate`] into a caller-owned snapshot: every vector and map in
/// `snap` is cleared and refilled, so the parallel epoch engine's
/// per-epoch scratch reuses one snapshot's allocations across epochs
/// instead of paying a fresh `LoadSnapshot` each tick.
///
/// The read-only stages run on `pool` (see the module docs for the
/// determinism argument). Returns per-stage wall-clock timings — the
/// platform feeds them to the phase profiler and E19 measures the
/// parallel fraction of the epoch from the parallel stages' total.
pub fn propagate_into(
    state: &mut PlatformState,
    app_demand_bps: &[f64],
    now: SimTime,
    snap: &mut LoadSnapshot,
    pool: &EpochPool,
) -> PropagateTiming {
    assert_eq!(
        app_demand_bps.len(),
        state.num_apps(),
        "demand vector covers all apps"
    );
    let profile = state.config.request_profile;
    snap.time = now;
    snap.app_demand_bps.clear();
    snap.app_demand_bps.extend_from_slice(app_demand_bps);
    fill_zeroed(&mut snap.link_load_bps, state.access.num_links());
    fill_zeroed(&mut snap.switch_offered_bps, state.switches.len());
    fill_zeroed(&mut snap.server_cpu_load, state.fleet.num_servers());
    fill_zeroed(&mut snap.unserved_bps_by_app, state.num_apps());
    snap.vip_demand_bps.clear();
    snap.vip_served_bps.clear();
    snap.vm_cpu_offered.clear();
    snap.vm_cpu_served.clear();

    // --- 1+2: DNS split and routing (parallel, region demand-route) -----
    let mut timing = PropagateTiming::default();
    let mut clock = PhaseClock::start();
    let mut route_parts: Vec<RoutePartial> = Vec::new();
    {
        let st: &PlatformState = &*state;
        pool.map_blocks_into(
            REGION_DEMAND_ROUTE,
            st.num_apps(),
            DEMAND_BLOCK,
            &mut route_parts,
            |range| {
                let mut part = RoutePartial::default();
                for app in &st.apps()[range] {
                    let demand = app_demand_bps[app.id.0 as usize];
                    if demand <= 0.0 {
                        continue;
                    }
                    let shares = st.dns.effective_shares(app.id.dns_key(), now);
                    if shares.is_empty() {
                        part.unserved.push((app.id.0 as usize, demand));
                        continue;
                    }
                    for (vip, share) in shares {
                        let vd = demand * share;
                        if vd <= 0.0 {
                            continue;
                        }
                        let routes = st.routes.preferred_routes(vip_prefix(vip), now);
                        if routes.is_empty() {
                            part.unserved.push((app.id.0 as usize, vd));
                            continue;
                        }
                        part.vip_demand.push((vip, vd));
                        let per_router = vd / routes.len() as f64;
                        for r in routes {
                            let links: Vec<_> =
                                st.access.links_at_router(r.router).map(|l| l.id).collect();
                            if links.is_empty() {
                                continue;
                            }
                            let per_link = per_router / links.len() as f64;
                            for l in links {
                                part.link_load.push((l.index(), per_link));
                            }
                        }
                    }
                }
                part
            },
        );
    }
    // Merge: replay contributions in block order — the exact operation
    // sequence of the serial loop, so every float is bit-identical.
    for part in &route_parts {
        for &(app_idx, bps) in &part.unserved {
            snap.unserved_bps_by_app[app_idx] += bps;
        }
        for &(vip, vd) in &part.vip_demand {
            *snap.vip_demand_bps.entry(vip).or_insert(0.0) += vd;
        }
        for &(link_idx, bps) in &part.link_load {
            snap.link_load_bps[link_idx] += bps;
        }
    }
    timing.route_s = clock.lap();

    // --- 3: switches (serial, phase demand-switch-reset) -----------------
    // Every configured VIP takes its routed demand (0 when none arrived).
    for (i, sw) in state.switches.iter_mut().enumerate() {
        sw.set_offered_loads(|vip| snap.vip_demand_bps.get(&vip).copied().unwrap_or(0.0));
        snap.switch_offered_bps[i] = sw.offered_bps();
    }
    timing.switch_reset_s = clock.lap();

    // --- 4: RIPs → VMs → servers (parallel, region demand-serve) ---------
    let vips: Vec<VipAddr> = snap.vip_demand_bps.keys().copied().collect();
    let vip_demand: Vec<f64> = snap.vip_demand_bps.values().copied().collect();
    let mut serve_parts: Vec<ServePartial> = Vec::new();
    {
        let st: &PlatformState = &*state;
        pool.map_blocks_into(
            REGION_DEMAND_SERVE,
            vips.len(),
            DEMAND_BLOCK,
            &mut serve_parts,
            |range| {
                let mut part = ServePartial::default();
                for i in range {
                    let vip = vips[i];
                    let rec = *st.vip(vip).expect("listed");
                    let app_idx = rec.app.0 as usize;
                    let sw = &st.switches[rec.switch.0 as usize];
                    // Switch-capacity overflow for this VIP (uniform scaling).
                    let offered = vip_demand[i];
                    let dist = sw.distribute_vip(vip).expect("configured");
                    let distributed: f64 = dist.iter().map(|&(_, b)| b).sum();
                    if offered > distributed {
                        part.unserved.push((app_idx, offered - distributed));
                    }
                    for (rip, bps) in dist {
                        if bps <= 0.0 {
                            continue;
                        }
                        let vm_id = match st.rip(rip) {
                            Ok(r) => r.vm,
                            Err(_) => {
                                part.unserved.push((app_idx, bps));
                                continue;
                            }
                        };
                        let vm = st.fleet.vm(vm_id).expect("RIP references live VM");
                        if !vm.state.serves_traffic() {
                            part.unserved.push((app_idx, bps));
                            continue;
                        }
                        let cpu = profile.cpu_demand(profile.rps_for_bandwidth(bps));
                        let served_cpu = cpu.min(vm.cpu_slice);
                        if cpu > served_cpu {
                            let lost_rps = (cpu - served_cpu) / profile.cpu_per_req;
                            part.unserved
                                .push((app_idx, profile.bandwidth_bps(lost_rps)));
                        }
                        let served_rps = served_cpu / profile.cpu_per_req;
                        part.vip_served
                            .push((vip, profile.bandwidth_bps(served_rps)));
                        part.vm_offered.push((vm_id, cpu));
                        part.vm_served.push((vm_id, served_cpu));
                        let srv = st.fleet.locate(vm_id).expect("live VM");
                        part.server_load.push((srv.0 as usize, served_cpu));
                    }
                }
                part
            },
        );
    }
    for part in &serve_parts {
        for &(app_idx, bps) in &part.unserved {
            snap.unserved_bps_by_app[app_idx] += bps;
        }
        for &(vip, bps) in &part.vip_served {
            *snap.vip_served_bps.entry(vip).or_insert(0.0) += bps;
        }
        for &(vm_id, cpu) in &part.vm_offered {
            *snap.vm_cpu_offered.entry(vm_id).or_insert(0.0) += cpu;
        }
        for &(vm_id, cpu) in &part.vm_served {
            *snap.vm_cpu_served.entry(vm_id).or_insert(0.0) += cpu;
        }
        for &(srv_idx, cpu) in &part.server_load {
            snap.server_cpu_load[srv_idx] += cpu;
        }
    }
    timing.serve_s = clock.lap();
    timing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::ids::AppId;
    use dcnet::access::AccessRouterId;
    use lbswitch::SwitchId;
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
        for (&vm, &served) in &snap.vm_cpu_served {
            assert!(served <= st.fleet.vm(vm).unwrap().cpu_slice + 1e-9);
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
        assert_eq!(snap.vm_cpu_served.get(&vm), None);
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
