//! The platform state: every component of Figure 1 and the mappings
//! between them.
//!
//! All mutations that touch more than one component (e.g. binding a RIP
//! touches the switch, the VM registry and the address pool) go through
//! methods here so the cross-component invariants can be stated — and
//! checked, by [`PlatformState::assert_invariants`] — in one place.

use crate::config::PlatformConfig;
use crate::ids::{vip_prefix, AppId, PodId, RipPool, VipPool};
use dcdns::DnsSystem;
use dcnet::access::{AccessNetwork, AccessRouterId};
use dcnet::routing::RouteTable;
use dcsim::{IdTable, SimTime};
use lbswitch::{LbSwitch, RipAddr, SwitchError, SwitchId, VipAddr};
use vmm::{Fleet, ServerId, VmError, VmId};

/// Per-application record.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// The application id.
    pub id: AppId,
    /// All VIPs assigned to this application, in assignment order.
    pub vips: Vec<VipAddr>,
    /// Popularity rank at build time (0 = most popular); drives the
    /// "popular applications are assigned more VIPs" policy (§IV.A).
    pub popularity_rank: usize,
}

/// Per-VIP record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VipRecord {
    /// Owning application.
    pub app: AppId,
    /// The LB switch currently hosting this VIP.
    pub switch: SwitchId,
    /// The access router where this VIP's prefix is advertised (selective
    /// exposure typically uses exactly one, §IV.A).
    pub router: Option<AccessRouterId>,
}

/// Per-RIP record: a RIP is the address of one VM under one VIP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RipRecord {
    /// The VIP this RIP serves.
    pub vip: VipAddr,
    /// The backing VM.
    pub vm: VmId,
}

/// Errors from platform-state mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Underlying switch rejected the operation.
    Switch(SwitchError),
    /// Underlying fleet rejected the operation.
    Vm(VmError),
    /// Unknown application.
    UnknownApp(AppId),
    /// Unknown VIP.
    UnknownVip(VipAddr),
    /// Unknown RIP.
    UnknownRip(RipAddr),
    /// The RIP address pool (the 10/8 block) is exhausted.
    RipPoolExhausted,
}

impl From<SwitchError> for StateError {
    fn from(e: SwitchError) -> Self {
        StateError::Switch(e)
    }
}
impl From<VmError> for StateError {
    fn from(e: VmError) -> Self {
        StateError::Vm(e)
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Switch(e) => write!(f, "switch: {e}"),
            StateError::Vm(e) => write!(f, "fleet: {e}"),
            StateError::UnknownApp(a) => write!(f, "unknown {a}"),
            StateError::UnknownVip(v) => write!(f, "unknown {v}"),
            StateError::UnknownRip(r) => write!(f, "unknown {r}"),
            StateError::RipPoolExhausted => write!(f, "RIP pool (10/8) exhausted"),
        }
    }
}
impl std::error::Error for StateError {}

/// The complete platform state.
#[derive(Debug)]
pub struct PlatformState {
    /// The configuration this state was built from.
    pub config: PlatformConfig,
    /// The physical server fleet.
    pub fleet: Fleet,
    /// The globally shared LB switch fabric (§III.C).
    pub switches: Vec<LbSwitch>,
    /// The platform's authoritative DNS (§IV.A).
    pub dns: DnsSystem,
    /// External route announcements (§IV.A).
    pub routes: RouteTable,
    /// The access connection layer.
    pub access: AccessNetwork,

    apps: Vec<AppRecord>,
    /// Indexed by address: VIPs and RIPs come from free-list pools, so
    /// the addresses in use are dense.
    vips: IdTable<VipAddr, VipRecord>,
    rips: IdTable<RipAddr, RipRecord>,
    /// Reverse index: VM → its RIP (each VM instance has exactly one RIP).
    vm_rip: IdTable<VmId, RipAddr>,

    /// Logical pod of each server (indexed by server id).
    pod_of_server: Vec<PodId>,
    /// Servers of each pod.
    pod_servers: Vec<Vec<ServerId>>,

    vip_pool: VipPool,
    rip_pool: RipPool,

    /// Health of each LB switch (indexed by switch id). Failed switches
    /// hold no configuration and are skipped by every allocation policy.
    switch_ok: Vec<bool>,
    /// Health of each server (indexed by server id). Failed servers hold
    /// no VMs and are skipped by placement.
    server_ok: Vec<bool>,
}

impl PlatformState {
    /// Create a state with the fleet, switches, DNS, routes and access
    /// network built but no apps/VIPs/VMs yet (the builder in
    /// [`crate::platform`] populates those).
    pub fn new(config: PlatformConfig) -> Self {
        let fleet = Fleet::homogeneous(config.num_servers, config.server_spec, config.cost_model);
        let num_switches = config.effective_num_switches();
        let switches = (0..num_switches)
            .map(|i| LbSwitch::new(SwitchId(i as u32), config.switch_limits))
            .collect();
        let access = AccessNetwork::symmetric(
            config.num_access_links as u32,
            config.access_link_bps,
            config.access_link_cost_per_gb,
        );
        // Deal servers into pods round-robin.
        let mut pod_servers = vec![Vec::new(); config.initial_pods];
        let mut pod_of_server = Vec::with_capacity(config.num_servers);
        for s in 0..config.num_servers {
            let pod = s % config.initial_pods;
            pod_servers[pod].push(ServerId(s as u32));
            pod_of_server.push(PodId(pod as u32));
        }
        let num_switches_built = num_switches;
        PlatformState {
            switch_ok: vec![true; num_switches_built],
            server_ok: vec![true; config.num_servers],
            fleet,
            switches,
            dns: DnsSystem::new(config.dns),
            routes: RouteTable::new(config.route_convergence),
            access,
            apps: Vec::new(),
            vips: IdTable::new(),
            rips: IdTable::new(),
            vm_rip: IdTable::new(),
            pod_of_server,
            pod_servers,
            vip_pool: VipPool::new(),
            rip_pool: RipPool::new(),
            config,
        }
    }

    // ---- applications -----------------------------------------------------

    /// Register an application with its popularity rank. Returns its id.
    pub fn register_app(&mut self, popularity_rank: usize) -> AppId {
        let id = AppId(self.apps.len() as u32);
        self.apps.push(AppRecord {
            id,
            vips: Vec::new(),
            popularity_rank,
        });
        id
    }

    /// Number of registered applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Application record.
    pub fn app(&self, id: AppId) -> Result<&AppRecord, StateError> {
        self.apps
            .get(id.0 as usize)
            .ok_or(StateError::UnknownApp(id))
    }

    /// All applications.
    pub fn apps(&self) -> &[AppRecord] {
        &self.apps
    }

    // ---- VIPs ---------------------------------------------------------------

    /// Allocate a fresh VIP for `app` on `switch`. Does not advertise it.
    pub fn allocate_vip(&mut self, app: AppId, switch: SwitchId) -> Result<VipAddr, StateError> {
        self.app(app)?;
        let vip = self.vip_pool.alloc();
        if let Err(e) = self.switches[switch.0 as usize].add_vip(vip) {
            self.vip_pool.release(vip);
            return Err(e.into());
        }
        self.vips.insert(
            vip,
            VipRecord {
                app,
                switch,
                router: None,
            },
        );
        self.apps[app.0 as usize].vips.push(vip);
        Ok(vip)
    }

    /// Record of one VIP.
    pub fn vip(&self, vip: VipAddr) -> Result<&VipRecord, StateError> {
        self.vips.get(vip).ok_or(StateError::UnknownVip(vip))
    }

    /// All VIPs (with records).
    pub fn vips(&self) -> impl Iterator<Item = (VipAddr, &VipRecord)> {
        self.vips.iter()
    }

    /// Advertise a VIP's prefix at an access router (BGP side of selective
    /// exposure). Re-advertising at a new router withdraws the old route.
    pub fn advertise_vip(
        &mut self,
        vip: VipAddr,
        router: AccessRouterId,
        now: SimTime,
    ) -> Result<(), StateError> {
        let rec = self.vips.get_mut(vip).ok_or(StateError::UnknownVip(vip))?;
        if let Some(old) = rec.router {
            if old != router {
                self.routes.withdraw(vip_prefix(vip), old, now);
            }
        }
        rec.router = Some(router);
        self.routes.advertise(vip_prefix(vip), router, 0, now);
        Ok(())
    }

    /// Transfer a VIP between switches — the §IV.B internal reassignment:
    /// "a VIP can simply be moved from the overloaded to an underloaded LB
    /// switch … no access routers are involved". The caller is responsible
    /// for the quiescence gate; the switch itself refuses if sessions are
    /// live (session mode).
    pub fn transfer_vip(&mut self, vip: VipAddr, to: SwitchId) -> Result<(), StateError> {
        let rec = *self.vip(vip)?;
        if rec.switch == to {
            return Ok(());
        }
        let from = rec.switch.0 as usize;
        let rips = self.switches[from].remove_vip(vip)?;
        let dst = &mut self.switches[to.0 as usize];
        // Install on destination; roll back on failure so the state is
        // never left with an orphaned VIP.
        if let Err(e) = dst.add_vip(vip) {
            let src = &mut self.switches[from];
            src.add_vip(vip)
                .expect("rollback: source had this VIP a moment ago");
            for r in &rips {
                src.add_rip(vip, r.rip, r.weight)
                    .expect("rollback: RIPs fit before");
            }
            return Err(e.into());
        }
        let mut installed = Vec::new();
        for r in &rips {
            match self.switches[to.0 as usize].add_rip(vip, r.rip, r.weight) {
                Ok(()) => installed.push(r),
                Err(e) => {
                    // Roll back everything.
                    let dst = &mut self.switches[to.0 as usize];
                    dst.remove_vip(vip).expect("rollback: just added");
                    let src = &mut self.switches[from];
                    src.add_vip(vip).expect("rollback");
                    for r in &rips {
                        src.add_rip(vip, r.rip, r.weight).expect("rollback");
                    }
                    return Err(e.into());
                }
            }
        }
        self.vips.get_mut(vip).expect("checked").switch = to;
        Ok(())
    }

    // ---- instances (VM + RIP) ----------------------------------------------

    /// Bind a fresh RIP for `vm` under `vip` with the given weight.
    pub fn bind_rip(&mut self, vip: VipAddr, vm: VmId, weight: f64) -> Result<RipAddr, StateError> {
        let rec = *self.vip(vip)?;
        self.fleet.vm(vm)?;
        let rip = self.rip_pool.alloc().ok_or(StateError::RipPoolExhausted)?;
        if let Err(e) = self.switches[rec.switch.0 as usize].add_rip(vip, rip, weight) {
            self.rip_pool.release(rip);
            return Err(e.into());
        }
        self.rips.insert(rip, RipRecord { vip, vm });
        self.vm_rip.insert(vm, rip);
        Ok(rip)
    }

    /// Create a new `Running` VM instance of `app` on `server` and bind a
    /// RIP for it under `vip`. The bootstrap path; runtime deployment goes
    /// through clone/boot with latencies (see [`crate::global`]).
    pub fn add_instance_running(
        &mut self,
        app: AppId,
        server: ServerId,
        vip: VipAddr,
        weight: f64,
    ) -> Result<(VmId, RipAddr), StateError> {
        debug_assert_eq!(
            self.vip(vip)?.app,
            app,
            "RIP must map to a VIP of the same app"
        );
        let cfg = &self.config;
        let vm = self
            .fleet
            .create_vm_running(server, app.0, cfg.vm_cpu_slice, cfg.vm_mem_mb)?;
        match self.bind_rip(vip, vm, weight) {
            Ok(rip) => Ok((vm, rip)),
            Err(e) => {
                self.fleet.destroy_vm(vm).expect("just created");
                Err(e)
            }
        }
    }

    /// Remove an instance: unbind its RIP from its switch and destroy the
    /// VM. Returns the number of sessions dropped at the switch (0 in
    /// fluid mode / when drained).
    pub fn remove_instance(&mut self, vm: VmId) -> Result<u64, StateError> {
        let rip = self
            .vm_rip
            .remove(vm)
            .ok_or(StateError::Vm(VmError::UnknownVm(vm)))?;
        let rec = self.rips.remove(rip).expect("vm_rip and rips in sync");
        let switch = self.vip(rec.vip)?.switch;
        let dropped = self.switches[switch.0 as usize].remove_rip(rec.vip, rip)?;
        self.rip_pool.release(rip);
        self.fleet.destroy_vm(vm)?;
        Ok(dropped)
    }

    /// Move a RIP's record under `vip`, leaving the switches as they
    /// are; returns the VIP it was under (`None` for an unbound RIP).
    /// Tests use it to change only what a pod round reads of a VM's
    /// binding.
    #[cfg(test)]
    pub(crate) fn set_rip_vip(&mut self, rip: RipAddr, vip: VipAddr) -> Option<VipAddr> {
        let rec = self.rips.get_mut(rip)?;
        Some(std::mem::replace(&mut rec.vip, vip))
    }

    /// The RIP of a VM, if bound.
    pub fn rip_of_vm(&self, vm: VmId) -> Option<RipAddr> {
        self.vm_rip.get(vm).copied()
    }

    /// Record of one RIP.
    pub fn rip(&self, rip: RipAddr) -> Result<&RipRecord, StateError> {
        self.rips.get(rip).ok_or(StateError::UnknownRip(rip))
    }

    /// Total RIPs bound.
    pub fn num_rips(&self) -> usize {
        self.rips.len()
    }

    /// Number of RIPs configured under a VIP. A VIP with zero RIPs is an
    /// *unused* spare (§IV.A) — it must not be exposed through DNS, since
    /// demand reaching it has nowhere to go.
    pub fn vip_rip_count(&self, vip: VipAddr) -> usize {
        let Ok(rec) = self.vip(vip) else { return 0 };
        self.switches[rec.switch.0 as usize]
            .vip(vip)
            .map(|cfg| cfg.rips.len())
            .unwrap_or(0)
    }

    /// The serving RIP entries of a VIP into `out` (cleared first):
    /// `(vm, pod, weight, cpu_slice)` for every RIP whose backing VM
    /// currently serves traffic, in the switch's entry order. This is the
    /// view the global manager's water-filling reweight operates on.
    pub fn vip_serving_entries_into(&self, vip: VipAddr, out: &mut Vec<(VmId, PodId, f64, f64)>) {
        out.clear();
        let Ok(rec) = self.vip(vip) else {
            return;
        };
        let Ok(cfg) = self.switches[rec.switch.0 as usize].vip(vip) else {
            return;
        };
        out.extend(cfg.rips.iter().filter_map(|entry| {
            let rr = self.rips.get(entry.rip)?;
            let (srv, vm) = self.fleet.locate_vm(rr.vm).ok()?;
            if !vm.state.serves_traffic() {
                return None;
            }
            Some((rr.vm, self.pod_of(srv), entry.weight, vm.cpu_slice))
        }));
    }

    // ---- pods -----------------------------------------------------------------

    /// Number of pods.
    pub fn num_pods(&self) -> usize {
        self.pod_servers.len()
    }

    /// Servers of one pod.
    pub fn pod_servers(&self, pod: PodId) -> &[ServerId] {
        &self.pod_servers[pod.index()]
    }

    /// Pod of one server.
    pub fn pod_of(&self, server: ServerId) -> PodId {
        self.pod_of_server[server.0 as usize]
    }

    /// Create a new, empty logical pod (pods are pure bookkeeping —
    /// §III.B: "logical pods … independent of server location").
    pub fn create_pod(&mut self) -> PodId {
        let id = PodId(self.pod_servers.len() as u32);
        self.pod_servers.push(Vec::new());
        id
    }

    /// Reassign a server to another pod — §IV.C's *server transfer*. The
    /// caller must have vacated it (or accept that its VMs move with it,
    /// which is the paper's elephant-pod relief variant).
    pub fn move_server_to_pod(&mut self, server: ServerId, pod: PodId) {
        let old = self.pod_of_server[server.0 as usize];
        if old == pod {
            return;
        }
        let list = &mut self.pod_servers[old.index()];
        let pos = list
            .iter()
            .position(|&s| s == server)
            .expect("pod lists consistent");
        list.swap_remove(pos);
        self.pod_servers[pod.index()].push(server);
        self.pod_of_server[server.0 as usize] = pod;
    }

    /// Number of VMs currently resident in a pod.
    pub fn pod_vm_count(&self, pod: PodId) -> usize {
        self.pod_servers(pod)
            .iter()
            .map(|&s| self.fleet.server(s).expect("pod lists valid").vm_count())
            .sum()
    }

    /// Total CPU capacity of a pod.
    pub fn pod_cpu_capacity(&self, pod: PodId) -> f64 {
        self.pod_servers(pod)
            .iter()
            .map(|&s| self.fleet.server(s).expect("pod lists valid").spec().cpu)
            .sum()
    }

    /// The pods covered by a VIP (pods containing a VM whose RIP maps to
    /// the VIP).
    pub fn pods_covered_by_vip(&self, vip: VipAddr) -> Vec<PodId> {
        let Ok(rec) = self.vip(vip) else {
            return Vec::new();
        };
        let switch = &self.switches[rec.switch.0 as usize];
        let Ok(cfg) = switch.vip(vip) else {
            return Vec::new();
        };
        let mut pods: Vec<u32> = cfg
            .rips
            .iter()
            .filter_map(|r| self.rips.get(r.rip))
            .filter_map(|rr| self.fleet.locate(rr.vm).ok())
            .map(|srv| self.pod_of(srv).0)
            .collect();
        pods.sort_unstable();
        pods.dedup();
        pods.into_iter().map(PodId).collect()
    }

    // ---- failures (§III: "fully interconnected … to enhance the platform
    // reliability") ------------------------------------------------------------

    /// `true` if the switch is healthy.
    pub fn switch_healthy(&self, id: SwitchId) -> bool {
        self.switch_ok[id.0 as usize]
    }

    /// `true` if the server is healthy.
    pub fn server_healthy(&self, id: ServerId) -> bool {
        self.server_ok[id.0 as usize]
    }

    /// Number of healthy switches.
    pub fn healthy_switch_count(&self) -> usize {
        self.switch_ok.iter().filter(|&&ok| ok).count()
    }

    /// Fail an LB switch: every VIP configured on it is force-removed
    /// (live sessions drop) and re-homed onto the least-loaded healthy
    /// switch with table capacity — possible precisely because "the border
    /// routers and the LB switches are fully interconnected" (§III), so no
    /// external route changes. VIPs that cannot be re-homed (fabric out of
    /// capacity) are deleted from their app's VIP set, and their routes
    /// are withdrawn at `now`.
    ///
    /// Returns `(vips re-homed, vips lost, sessions dropped)`.
    pub fn fail_switch(&mut self, id: SwitchId, now: SimTime) -> (usize, usize, u64) {
        assert!(self.switch_ok[id.0 as usize], "switch already failed");
        self.switch_ok[id.0 as usize] = false;
        let vips: Vec<VipAddr> = self.switches[id.0 as usize]
            .vips()
            .map(|(v, _)| v)
            .collect();
        let mut rehomed = 0;
        let mut lost = 0;
        let mut dropped = 0;
        for vip in vips {
            let (rips, sessions) = self.switches[id.0 as usize]
                .force_remove_vip(vip)
                .expect("listed VIP configured");
            dropped += sessions;
            // Least-loaded healthy switch with room for the VIP + its RIPs.
            let target = self
                .switches
                .iter()
                .enumerate()
                .filter(|&(i, sw)| {
                    self.switch_ok[i]
                        && sw.vip_slots_free() > 0
                        && sw.rip_slots_free() >= rips.len()
                })
                .min_by(|(_, a), (_, b)| {
                    a.utilization()
                        .partial_cmp(&b.utilization())
                        .expect("finite")
                })
                .map(|(_, sw)| sw.id());
            match target {
                Some(t) => {
                    let dst = &mut self.switches[t.0 as usize];
                    dst.add_vip(vip).expect("capacity checked");
                    for r in &rips {
                        dst.add_rip(vip, r.rip, r.weight).expect("capacity checked");
                    }
                    self.vips.get_mut(vip).expect("recorded").switch = t;
                    rehomed += 1;
                }
                None => {
                    // Catastrophic: drop the VIP and its instances' RIPs.
                    for r in &rips {
                        if let Some(rec) = self.rips.remove(r.rip) {
                            self.vm_rip.remove(rec.vm);
                            self.rip_pool.release(r.rip);
                        }
                    }
                    let rec = self.vips.remove(vip).expect("recorded");
                    if let Some(router) = rec.router {
                        self.routes.withdraw(vip_prefix(vip), router, now);
                    }
                    let app_vips = &mut self.apps[rec.app.0 as usize].vips;
                    app_vips.retain(|&v| v != vip);
                    self.vip_pool.release(vip);
                    lost += 1;
                }
            }
        }
        (rehomed, lost, dropped)
    }

    /// Fail a server: every resident VM is destroyed and its RIP unbound
    /// (the pod manager re-provisions replacements on its next round).
    /// Returns the number of VMs lost.
    pub fn fail_server(&mut self, id: ServerId) -> usize {
        assert!(self.server_ok[id.0 as usize], "server already failed");
        self.server_ok[id.0 as usize] = false;
        let vms: Vec<VmId> = self
            .fleet
            .server(id)
            .expect("valid server")
            .vms()
            .map(|vm| vm.id)
            .collect();
        for vm in &vms {
            // VMs with a RIP unbind it; bare VMs (booting clones) just die.
            if self.rip_of_vm(*vm).is_some() {
                self.remove_instance(*vm).expect("resident instance");
            } else {
                self.fleet.destroy_vm(*vm).expect("resident VM");
            }
        }
        vms.len()
    }

    // ---- invariants ---------------------------------------------------------

    /// Check every cross-component invariant; panics with a description on
    /// the first violation. O(everything) — tests and E12 only.
    pub fn assert_invariants(&self) {
        // Every recorded VIP is configured on exactly the recorded switch.
        for (vip, rec) in self.vips.iter() {
            for sw in &self.switches {
                let has = sw.has_vip(vip);
                assert_eq!(
                    has,
                    sw.id() == rec.switch,
                    "{vip} presence on {} contradicts record",
                    sw.id()
                );
            }
            assert!(
                self.apps[rec.app.0 as usize].vips.contains(&vip),
                "{vip} missing from its app's VIP list"
            );
        }
        // Switch limits hold.
        for sw in &self.switches {
            assert!(
                sw.vip_count() <= sw.limits().max_vips,
                "{} over VIP limit",
                sw.id()
            );
            assert!(
                sw.rip_count() <= sw.limits().max_rips,
                "{} over RIP limit",
                sw.id()
            );
        }
        // Every RIP record matches a switch entry and a live VM of the
        // right app.
        for (rip, rec) in self.rips.iter() {
            let vrec = self.vips.get(rec.vip).expect("RIP references live VIP");
            let sw = &self.switches[vrec.switch.0 as usize];
            let cfg = sw.vip(rec.vip).expect("VIP configured");
            assert!(
                cfg.rips.iter().any(|r| r.rip == rip),
                "{rip} not on its VIP's switch"
            );
            let vm = self.fleet.vm(rec.vm).expect("RIP references live VM");
            assert_eq!(AppId(vm.app), vrec.app, "{rip}: VM app != VIP app");
            assert_eq!(self.vm_rip.get(rec.vm), Some(&rip), "vm_rip out of sync");
        }
        // And the index back: every VM → RIP entry names a record of that
        // VM, so a VM's RIP identifies it (the one-pass §IV.F check in
        // `crate::viprip` finds requested VMs by their RIP).
        for (vm, &rip) in self.vm_rip.iter() {
            assert_eq!(
                self.rips.get(rip).map(|rec| rec.vm),
                Some(vm),
                "vm_rip maps {vm} to {rip}, which is not its RIP"
            );
        }
        // And back: every switch entry is a RIP record of the VIP it is
        // listed under, so a record's VIP locates its entry.
        for sw in &self.switches {
            for (vip, cfg) in sw.vips() {
                for entry in &cfg.rips {
                    assert_eq!(
                        self.rips.get(entry.rip).map(|rec| rec.vip),
                        Some(vip),
                        "{} under {vip} on {} has no record of that VIP",
                        entry.rip,
                        sw.id()
                    );
                }
            }
        }
        // Failed components hold nothing.
        for (i, sw) in self.switches.iter().enumerate() {
            if !self.switch_ok[i] {
                assert_eq!(sw.vip_count(), 0, "failed {} still holds VIPs", sw.id());
            }
        }
        for (i, &ok) in self.server_ok.iter().enumerate() {
            if !ok {
                let srv = self.fleet.server(ServerId(i as u32)).expect("valid");
                assert_eq!(srv.vm_count(), 0, "failed {} still hosts VMs", srv.id());
            }
        }
        // Pod bookkeeping is a partition of the fleet.
        let mut seen = vec![false; self.config.num_servers];
        for (p, servers) in self.pod_servers.iter().enumerate() {
            for &s in servers {
                assert!(!seen[s.0 as usize], "{s} in two pods");
                seen[s.0 as usize] = true;
                assert_eq!(self.pod_of_server[s.0 as usize], PodId(p as u32));
            }
        }
        assert!(seen.iter().all(|&x| x), "server missing from all pods");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnet::access::AccessRouterId;
    use rand::Rng;
    use std::collections::BTreeMap;

    fn state() -> PlatformState {
        let mut st = PlatformState::new(PlatformConfig::small_test());
        for rank in 0..st.config.num_apps {
            st.register_app(rank);
        }
        st
    }

    /// A VM → RIP entry that names another VM's RIP passes every other
    /// check (that RIP's own record still indexes back to its VM) but
    /// would let the one-pass §IV.F check accept the stray VM.
    #[test]
    #[should_panic(expected = "which is not its RIP")]
    fn invariants_catch_a_vm_rip_entry_naming_another_vms_rip() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let (_, rip) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 1.0)
            .unwrap();
        let stray = st
            .fleet
            .create_vm_running(ServerId(2), 0, st.config.vm_cpu_slice, st.config.vm_mem_mb)
            .unwrap();
        st.assert_invariants();
        st.vm_rip.insert(stray, rip);
        st.assert_invariants();
    }

    #[test]
    fn new_state_partitions_servers_into_pods() {
        let st = state();
        assert_eq!(st.num_pods(), 2);
        assert_eq!(
            st.pod_servers(PodId(0)).len() + st.pod_servers(PodId(1)).len(),
            16
        );
        st.assert_invariants();
    }

    #[test]
    fn vip_allocation_and_advertisement() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        assert_eq!(st.vip(vip).unwrap().app, AppId(0));
        assert!(st.switches[0].has_vip(vip));
        st.advertise_vip(vip, AccessRouterId(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(st.vip(vip).unwrap().router, Some(AccessRouterId(1)));
        assert_eq!(st.routes.updates_sent(), 1);
        st.assert_invariants();
    }

    #[test]
    fn readvertising_withdraws_old_route() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        st.advertise_vip(vip, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.advertise_vip(vip, AccessRouterId(2), SimTime::from_secs(100))
            .unwrap();
        // withdraw + advertise = 2 more updates.
        assert_eq!(st.routes.updates_sent(), 3);
    }

    #[test]
    fn instance_lifecycle() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(3), SwitchId(0)).unwrap();
        let (vm, rip) = st
            .add_instance_running(AppId(3), ServerId(0), vip, 1.0)
            .unwrap();
        assert_eq!(st.rip_of_vm(vm), Some(rip));
        assert_eq!(st.rip(rip).unwrap().vip, vip);
        assert_eq!(st.num_rips(), 1);
        st.assert_invariants();
        st.remove_instance(vm).unwrap();
        assert_eq!(st.num_rips(), 0);
        assert!(st.fleet.vm(vm).is_err());
        st.assert_invariants();
    }

    #[test]
    fn vip_transfer_moves_rips() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let (_vm, rip) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 2.0)
            .unwrap();
        st.transfer_vip(vip, SwitchId(1)).unwrap();
        assert!(!st.switches[0].has_vip(vip));
        assert!(st.switches[1].has_vip(vip));
        let cfg = st.switches[1].vip(vip).unwrap();
        assert_eq!(cfg.rips.len(), 1);
        assert_eq!(cfg.rips[0].rip, rip);
        assert!((cfg.rips[0].weight - 2.0).abs() < 1e-12);
        st.assert_invariants();
    }

    #[test]
    fn vip_transfer_rolls_back_when_destination_full() {
        let mut cfg = PlatformConfig::small_test();
        cfg.switch_limits.max_vips = 1;
        let mut st = PlatformState::new(cfg);
        for rank in 0..st.config.num_apps {
            st.register_app(rank);
        }
        let a = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let _b = st.allocate_vip(AppId(1), SwitchId(1)).unwrap();
        let err = st.transfer_vip(a, SwitchId(1)).unwrap_err();
        assert!(matches!(
            err,
            StateError::Switch(SwitchError::VipLimitExceeded)
        ));
        // Rolled back: still on switch 0.
        assert!(st.switches[0].has_vip(a));
        st.assert_invariants();
    }

    #[test]
    fn server_transfer_between_pods() {
        let mut st = state();
        let server = st.pod_servers(PodId(0))[0];
        st.move_server_to_pod(server, PodId(1));
        assert_eq!(st.pod_of(server), PodId(1));
        assert!(st.pod_servers(PodId(1)).contains(&server));
        st.assert_invariants();
    }

    #[test]
    fn coverage_relations() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(5), SwitchId(0)).unwrap();
        let s0 = st.pod_servers(PodId(0))[0];
        let s1 = st.pod_servers(PodId(1))[0];
        st.add_instance_running(AppId(5), s0, vip, 1.0).unwrap();
        st.add_instance_running(AppId(5), s1, vip, 1.0).unwrap();
        assert_eq!(st.pods_covered_by_vip(vip), vec![PodId(0), PodId(1)]);
        assert_eq!(st.pod_vm_count(PodId(0)), 1);
    }

    #[test]
    fn switch_failure_rehomes_vips_with_sessions_dropped() {
        let mut st = state();
        let vip_a = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let vip_b = st.allocate_vip(AppId(1), SwitchId(0)).unwrap();
        st.add_instance_running(AppId(0), ServerId(0), vip_a, 1.0)
            .unwrap();
        st.add_instance_running(AppId(1), ServerId(1), vip_b, 2.0)
            .unwrap();
        // Live sessions on vip_a.
        st.switches[0].open_session(vip_a).unwrap();
        let (rehomed, lost, dropped) = st.fail_switch(SwitchId(0), SimTime::ZERO);
        assert_eq!(rehomed, 2);
        assert_eq!(lost, 0);
        assert_eq!(dropped, 1);
        assert!(!st.switch_healthy(SwitchId(0)));
        // Both VIPs now live on switch 1 with their RIPs and weights.
        assert_eq!(st.vip(vip_a).unwrap().switch, SwitchId(1));
        let cfg = st.switches[1].vip(vip_b).unwrap();
        assert!((cfg.rips[0].weight - 2.0).abs() < 1e-12);
        st.assert_invariants();
    }

    #[test]
    fn switch_offered_totals_stay_fresh_across_transfer_and_failure() {
        let mut st = state();
        let vips: Vec<VipAddr> = (0..9)
            .map(|i| {
                let vip = st.allocate_vip(AppId(i), SwitchId(i % 2)).unwrap();
                st.add_instance_running(AppId(i), ServerId(i), vip, 1.0)
                    .unwrap();
                vip
            })
            .collect();
        // Loads of very different magnitudes, so any change in summation
        // order would show in the low bits.
        for sw in &mut st.switches {
            sw.set_offered_loads(|v| [3e-3, 1e9, 7.5e6][v.0 as usize % 3] * f64::from(v.0 + 1));
        }
        st.switches[0].open_session(vips[0]).unwrap();
        let assert_fresh = |st: &PlatformState, when: &str| {
            for sw in &st.switches {
                let fresh: f64 = sw.vips().map(|(_, c)| c.offered_bps).sum();
                assert_eq!(
                    sw.offered_bps().to_bits(),
                    fresh.to_bits(),
                    "{} {when}",
                    sw.id()
                );
            }
        };
        assert_fresh(&st, "after set_offered_loads");
        st.transfer_vip(vips[2], SwitchId(1)).unwrap();
        assert_fresh(&st, "after transfer_vip");
        let (rehomed, _, dropped) = st.fail_switch(SwitchId(0), SimTime::ZERO);
        assert!(rehomed > 0 && dropped == 1);
        assert_fresh(&st, "after fail_switch");
        st.assert_invariants();
    }

    #[test]
    fn switch_failure_without_capacity_loses_vips() {
        let mut cfg = PlatformConfig::small_test();
        cfg.switch_limits.max_vips = 1;
        let mut st = PlatformState::new(cfg);
        for rank in 0..st.config.num_apps {
            st.register_app(rank);
        }
        let _a = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let _b = st.allocate_vip(AppId(1), SwitchId(1)).unwrap();
        // Switch 1 is full: the failed switch's VIP cannot be re-homed.
        let (rehomed, lost, _) = st.fail_switch(SwitchId(0), SimTime::ZERO);
        assert_eq!(rehomed, 0);
        assert_eq!(lost, 1);
        assert!(st.app(AppId(0)).unwrap().vips.is_empty());
        st.assert_invariants();
    }

    #[test]
    fn server_failure_destroys_instances_and_unbinds_rips() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let (vm, _) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 1.0)
            .unwrap();
        let lost = st.fail_server(ServerId(0));
        assert_eq!(lost, 1);
        assert!(!st.server_healthy(ServerId(0)));
        assert!(st.fleet.vm(vm).is_err());
        assert_eq!(st.num_rips(), 0);
        assert_eq!(st.vip_rip_count(vip), 0);
        st.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "already failed")]
    fn double_failure_panics() {
        let mut st = state();
        st.fail_server(ServerId(3));
        st.fail_server(ServerId(3));
    }

    #[test]
    fn bind_rip_rejects_unknown_vm() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        assert!(st.bind_rip(vip, VmId(999), 1.0).is_err());
    }

    #[test]
    fn lookups_past_each_table_end_are_unknown() {
        let mut st = state();
        let vip = st.allocate_vip(AppId(0), SwitchId(0)).unwrap();
        let (vm, rip) = st
            .add_instance_running(AppId(0), ServerId(0), vip, 1.0)
            .unwrap();
        assert_eq!(st.rip_of_vm(vm), Some(rip));
        let far_rip = RipAddr(u32::MAX);
        assert_eq!(
            st.rip(far_rip).unwrap_err(),
            StateError::UnknownRip(far_rip)
        );
        assert_eq!(
            st.rip(RipAddr(rip.0 + 1)).unwrap_err(),
            StateError::UnknownRip(RipAddr(rip.0 + 1))
        );
        let far_vip = VipAddr(u32::MAX);
        assert_eq!(
            st.vip(far_vip).unwrap_err(),
            StateError::UnknownVip(far_vip)
        );
        assert_eq!(st.vip_rip_count(far_vip), 0);
        let mut entries = vec![(VmId(0), PodId(0), 1.0, 1.0)];
        st.vip_serving_entries_into(far_vip, &mut entries);
        assert!(entries.is_empty(), "an unknown VIP clears the buffer");
        assert!(st.pods_covered_by_vip(far_vip).is_empty());
        let far_vm = VmId(st.fleet.vm_id_bound() as u32 + 1000);
        assert_eq!(st.fleet.locate(far_vm), Err(VmError::UnknownVm(far_vm)));
        assert_eq!(st.fleet.vm(far_vm), Err(VmError::UnknownVm(far_vm)));
        assert_eq!(st.rip_of_vm(far_vm), None);
        assert_eq!(st.rip_of_vm(VmId(u32::MAX)), None);
        assert_eq!(
            st.remove_instance(far_vm),
            Err(StateError::Vm(VmError::UnknownVm(far_vm)))
        );
        st.assert_invariants();
    }

    /// The four id-keyed tables (`Fleet`'s VM locations and the state's
    /// VIP, RIP and VM → RIP records) as `BTreeMap`s, updated from each
    /// operation's documented effect: the reference the dense tables are
    /// checked against.
    #[derive(Default)]
    struct TableModel {
        locations: BTreeMap<VmId, ServerId>,
        vips: BTreeMap<VipAddr, VipRecord>,
        rips: BTreeMap<RipAddr, RipRecord>,
        vm_rip: BTreeMap<VmId, RipAddr>,
        /// App of every VM ever created (ids are never reused).
        app_of: BTreeMap<VmId, u32>,
        /// In-flight migrations: VM → destination server.
        migrating: BTreeMap<VmId, ServerId>,
    }

    impl TableModel {
        fn add_vm(&mut self, vm: VmId, server: ServerId, app: u32) {
            self.locations.insert(vm, server);
            self.app_of.insert(vm, app);
        }

        fn bind(&mut self, rip: RipAddr, vip: VipAddr, vm: VmId) {
            self.rips.insert(rip, RipRecord { vip, vm });
            self.vm_rip.insert(vm, rip);
        }

        fn remove_vm(&mut self, vm: VmId) {
            self.locations.remove(&vm);
            self.migrating.remove(&vm);
            if let Some(rip) = self.vm_rip.remove(&vm) {
                self.rips.remove(&rip);
            }
        }

        /// Lookups over every id up to past each table's end, lengths,
        /// and id-order iteration all equal the model's.
        fn assert_matches(&self, st: &PlatformState, step: usize) {
            for v in 0..st.fleet.vm_id_bound() as u32 + 4 {
                let vm = VmId(v);
                assert_eq!(
                    st.fleet.locate(vm).ok(),
                    self.locations.get(&vm).copied(),
                    "step {step}: locate({vm})"
                );
                assert_eq!(
                    st.rip_of_vm(vm),
                    self.vm_rip.get(&vm).copied(),
                    "step {step}: rip_of_vm({vm})"
                );
            }
            let addr_bound = st.vips.bound().max(st.rips.bound()) as u32 + 4;
            for a in 0..addr_bound {
                assert_eq!(
                    st.vip(VipAddr(a)).ok(),
                    self.vips.get(&VipAddr(a)),
                    "step {step}: vip({a})"
                );
                assert_eq!(
                    st.rip(RipAddr(a)).ok(),
                    self.rips.get(&RipAddr(a)),
                    "step {step}: rip({a})"
                );
            }
            assert_eq!(st.fleet.num_vms(), self.locations.len(), "step {step}");
            assert_eq!(st.num_rips(), self.rips.len(), "step {step}");
            assert_eq!(st.vm_rip.len(), self.vm_rip.len(), "step {step}");
            assert_eq!(st.vips.len(), self.vips.len(), "step {step}");
            let vips: Vec<(VipAddr, VipRecord)> = st.vips().map(|(v, r)| (v, *r)).collect();
            let want: Vec<(VipAddr, VipRecord)> = self.vips.iter().map(|(&v, &r)| (v, r)).collect();
            assert_eq!(vips, want, "step {step}: vips() order");
            let rips: Vec<(RipAddr, RipRecord)> =
                st.rips.iter().map(|(r, &rec)| (r, rec)).collect();
            let want: Vec<(RipAddr, RipRecord)> =
                self.rips.iter().map(|(&r, &rec)| (r, rec)).collect();
            assert_eq!(rips, want, "step {step}: rips order");
            let vm_rip: Vec<(VmId, RipAddr)> = st.vm_rip.iter().map(|(v, &r)| (v, r)).collect();
            let want: Vec<(VmId, RipAddr)> = self.vm_rip.iter().map(|(&v, &r)| (v, r)).collect();
            assert_eq!(vm_rip, want, "step {step}: vm_rip order");
            for app in 0..st.num_apps() as u32 {
                let want: Vec<VmId> = self
                    .locations
                    .keys()
                    .copied()
                    .filter(|vm| self.app_of[vm] == app)
                    .collect();
                assert_eq!(st.fleet.vms_of_app(app), want, "step {step}: app {app}");
            }
        }
    }

    fn pick<T: Copy>(rng: &mut impl rand::Rng, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
    }

    /// Seeded random operation sequences — create, clone, migrate,
    /// destroy, server and switch failures (including VIPs lost for want
    /// of capacity), RIP binds and instance removals — leave the dense
    /// tables equal to the `BTreeMap` model after every step.
    #[test]
    fn dense_tables_match_btreemap_model() {
        const OPS: usize = 12;
        let mut done = [0usize; OPS];
        let mut vips_lost = 0;
        for seed in 1..=4u64 {
            let mut cfg = PlatformConfig::small_test();
            cfg.num_switches = 4;
            cfg.switch_limits.max_vips = 5;
            let mut st = PlatformState::new(cfg);
            for rank in 0..st.config.num_apps {
                st.register_app(rank);
            }
            let mut model = TableModel::default();
            let mut rng = dcsim::rng::component_rng(seed, "dense-table-model", 0);
            let mut now = SimTime::ZERO;
            let (slice, mem) = (st.config.vm_cpu_slice, st.config.vm_mem_mb);
            for step in 0..400 {
                let servers: Vec<ServerId> = (0..st.fleet.num_servers() as u32)
                    .map(ServerId)
                    .filter(|&s| st.server_healthy(s))
                    .collect();
                let switches: Vec<SwitchId> = (0..st.switches.len() as u32)
                    .map(SwitchId)
                    .filter(|&s| st.switch_healthy(s))
                    .collect();
                let vms: Vec<VmId> = model.locations.keys().copied().collect();
                let vips: Vec<VipAddr> = model.vips.keys().copied().collect();
                let server = pick(&mut rng, &servers).expect("healthy server");
                let op = rng.gen_range(0..OPS);
                let ok = match op {
                    0 => {
                        let app = AppId(rng.gen_range(0..st.num_apps() as u32));
                        let switch = pick(&mut rng, &switches).expect("healthy switch");
                        st.allocate_vip(app, switch)
                            .map(|vip| {
                                let rec = VipRecord {
                                    app,
                                    switch,
                                    router: None,
                                };
                                model.vips.insert(vip, rec);
                            })
                            .is_ok()
                    }
                    1 => pick(&mut rng, &vips).is_some_and(|vip| {
                        let app = model.vips[&vip].app;
                        st.add_instance_running(app, server, vip, 1.0)
                            .map(|(vm, rip)| {
                                model.add_vm(vm, server, app.0);
                                model.bind(rip, vip, vm);
                            })
                            .is_ok()
                    }),
                    2 => {
                        let app = rng.gen_range(0..st.num_apps() as u32);
                        st.fleet
                            .create_vm(server, app, slice, mem, now)
                            .map(|vm| model.add_vm(vm, server, app))
                            .is_ok()
                    }
                    3 => pick(&mut rng, &vms).is_some_and(|src| {
                        st.fleet
                            .clone_vm(src, server, now)
                            .map(|vm| model.add_vm(vm, server, model.app_of[&src]))
                            .is_ok()
                    }),
                    4 => pick(&mut rng, &vms).is_some_and(|vm| {
                        st.fleet
                            .migrate_vm(vm, server, now)
                            .map(|_| model.migrating.insert(vm, server))
                            .is_ok()
                    }),
                    5 => {
                        now += dcsim::SimDuration::from_secs(rng.gen_range(0..200u64));
                        for vm in st.fleet.complete_transitions(now) {
                            if let Some(dst) = model.migrating.remove(&vm) {
                                model.locations.insert(vm, dst);
                            }
                        }
                        true
                    }
                    6 => pick(&mut rng, &vms).is_some_and(|vm| {
                        let removed = if model.vm_rip.contains_key(&vm) {
                            st.remove_instance(vm).is_ok()
                        } else {
                            st.fleet.destroy_vm(vm).is_ok()
                        };
                        assert!(removed, "step {step}: removing live {vm}");
                        model.remove_vm(vm);
                        true
                    }),
                    7 => {
                        let vm = pick(&mut rng, &vms).filter(|vm| !model.vm_rip.contains_key(vm));
                        vm.is_some_and(|vm| {
                            let app = AppId(model.app_of[&vm]);
                            let of_app: Vec<VipAddr> = vips
                                .iter()
                                .copied()
                                .filter(|v| model.vips[v].app == app)
                                .collect();
                            pick(&mut rng, &of_app).is_some_and(|vip| {
                                st.bind_rip(vip, vm, 1.0)
                                    .map(|rip| model.bind(rip, vip, vm))
                                    .is_ok()
                            })
                        })
                    }
                    8 => {
                        // Servers receiving a migration stay up: a failed
                        // server must not gain a VM.
                        let inbound = model.migrating.values().any(|&d| d == server);
                        (servers.len() > 8 && !inbound) && {
                            let lost = st.fail_server(server);
                            let resident: Vec<VmId> = model
                                .locations
                                .iter()
                                .filter(|&(_, &s)| s == server)
                                .map(|(&vm, _)| vm)
                                .collect();
                            assert_eq!(lost, resident.len(), "step {step}");
                            resident.into_iter().for_each(|vm| model.remove_vm(vm));
                            true
                        }
                    }
                    9 => {
                        let switch = pick(&mut rng, &switches).expect("healthy switch");
                        // Late enough that the survivors' VIP tables
                        // fill up and some VIP has nowhere to go.
                        (switches.len() > 1 && step >= 150) && {
                            let homed: Vec<VipAddr> = vips
                                .iter()
                                .copied()
                                .filter(|v| model.vips[v].switch == switch)
                                .collect();
                            let (rehomed, lost, _) = st.fail_switch(switch, SimTime::ZERO);
                            assert_eq!(rehomed + lost, homed.len(), "step {step}");
                            for vip in homed {
                                match st.switches.iter().find(|sw| sw.has_vip(vip)) {
                                    Some(sw) => {
                                        model.vips.get_mut(&vip).expect("homed").switch = sw.id()
                                    }
                                    None => {
                                        model.vips.remove(&vip);
                                        model.rips.retain(|_, r| r.vip != vip);
                                        let rips = &model.rips;
                                        model.vm_rip.retain(|_, r| rips.contains_key(r));
                                    }
                                }
                            }
                            vips_lost += lost;
                            true
                        }
                    }
                    10 => pick(&mut rng, &vips).is_some_and(|vip| {
                        let to = pick(&mut rng, &switches).expect("healthy switch");
                        st.transfer_vip(vip, to)
                            .map(|()| model.vips.get_mut(&vip).expect("live").switch = to)
                            .is_ok()
                    }),
                    _ => pick(&mut rng, &vips).is_some_and(|vip| {
                        let router = AccessRouterId(rng.gen_range(0..3));
                        st.advertise_vip(vip, router, now)
                            .map(|()| model.vips.get_mut(&vip).expect("live").router = Some(router))
                            .is_ok()
                    }),
                };
                done[op] += usize::from(ok);
                model.assert_matches(&st, step);
                st.assert_invariants();
            }
        }
        assert!(
            done.iter().all(|&n| n > 0),
            "some operation never succeeded: {done:?}"
        );
        assert!(vips_lost > 0, "no switch failure lost a VIP");
    }
}
