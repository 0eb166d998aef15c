//! The server pod manager (§III.A).
//!
//! "A server pod manager only knows the servers and applications of its
//! pod, and dynamically provisions resources to applications within its
//! pod. … Existing resource allocation algorithms, e.g., as proposed in
//! \[23\], \[28\], can be applied here."
//!
//! Each epoch the pod manager builds a *pod-local* placement problem from
//! the load snapshot (its servers, the applications covering the pod, and
//! their pod-local demand with headroom), runs the Tang-style controller
//! from the incumbent placement, and translates the result into the
//! paper's in-pod knobs:
//!
//! * **VM capacity adjustment** (§IV.E) for instances whose allocation
//!   changed,
//! * **instance starts/stops** (cloned/booted/destroyed VMs) where the
//!   controller changed placement,
//! * **RIP weight adjustment requests** (§IV.F) to the global manager's
//!   VIP/RIP queue, so each VIP's in-pod weights track the new allocation
//!   while the pod's total weight stays fixed. The queue skips a request
//!   that would change no weight bit at its turn.
//!
//! A round is a pure function of what it reads from the pod: the healthy
//! servers and their CPU, one row per VM on them (app, VM, server, slice,
//! offered CPU, bound VIP) and the pod's VM count. [`PodManager::replan`]
//! keeps the last round's inputs and plan, and hands the plan back when
//! this round reads the same inputs bit for bit; [`PodManager::plan`] is
//! the fresh round it stands in for.
//!
//! The pod manager's **decision time** — the wall-clock cost of one full
//! planning round (problem assembly plus the controller run) — is the
//! quantity that blows up on *elephant pods* (§IV.C). The platform's
//! `pod-planning` profiler span measures it per epoch, reused rounds
//! included; experiment E5 times single fresh rounds.

use crate::config::PlatformConfig;
use crate::demand::LoadSnapshot;
use crate::ids::{AppId, PodId};
use crate::state::PlatformState;
use lbswitch::VipAddr;
use placement::{tang, AppReq, Placement, PlacementProblem, ServerCap};
use std::ops::Range;
use vmm::{ServerId, VmId};

/// The actions a pod manager wants applied after one decision round.
#[derive(Debug, Clone, Default)]
pub struct PodPlan {
    /// The pod that produced this plan.
    pub pod: PodId,
    /// Hot slice adjustments: `(vm, new_cpu_slice)` (§IV.E).
    pub slice_adjustments: Vec<(VmId, f64)>,
    /// New instances to deploy: `(app, server, initial_cpu_slice)`.
    pub new_instances: Vec<(AppId, ServerId, f64)>,
    /// Instances to stop.
    pub remove_instances: Vec<VmId>,
    /// Per-VIP intra-pod weight requests (to be submitted to the VIP/RIP
    /// manager), in VIP order (§IV.F).
    pub weight_requests: Vec<WeightRequest>,
    /// The weight requests' `(vm, relative weight)` lists, back to back.
    pub weights: Vec<(VmId, f64)>,
    /// Servers and VMs the problem covered (decision-space size).
    pub problem_size: (usize, usize),
}

/// Every [`PodPlan`] field, f64s as their bits: two plans are the same
/// bit for bit exactly when their `PlanBits` are equal.
pub type PlanBits = (
    PodId,
    Vec<(VmId, u64)>,
    Vec<(AppId, ServerId, u64)>,
    Vec<VmId>,
    Vec<(VipAddr, Vec<(VmId, u64)>)>,
    (usize, usize),
);

impl PodPlan {
    /// The plan as [`PlanBits`], for exact comparisons.
    pub fn bits(&self) -> PlanBits {
        (
            self.pod,
            self.slice_adjustments
                .iter()
                .map(|&(vm, c)| (vm, c.to_bits()))
                .collect(),
            self.new_instances
                .iter()
                .map(|&(a, s, c)| (a, s, c.to_bits()))
                .collect(),
            self.remove_instances.clone(),
            self.weight_requests
                .iter()
                .map(|r| {
                    let ws = self.weights[r.weights.clone()].iter();
                    (r.vip, ws.map(|&(vm, w)| (vm, w.to_bits())).collect())
                })
                .collect(),
            self.problem_size,
        )
    }
}

/// One VIP's intra-pod weight request.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightRequest {
    /// The VIP whose pod RIPs are reweighted.
    pub vip: VipAddr,
    /// Its `(vm, relative weight)` list, in the pod's row order: a range
    /// of [`PodPlan::weights`].
    pub weights: Range<usize>,
}

/// A pod manager. It keeps its last solved round — the inputs that round
/// read and the plan they gave — and nothing else: the incumbent
/// placement is read from the platform state each round, so server
/// transfers in/out of the pod are picked up automatically.
#[derive(Debug, Clone)]
pub struct PodManager {
    /// The pod this manager owns.
    pub id: PodId,
    /// The last solved round's inputs. A new manager holds the empty
    /// pod's inputs, whose plan is [`PodPlan`]'s default for this pod.
    inputs: RoundInputs,
    /// The plan `inputs` gave.
    plan: PodPlan,
    /// Rounds that ran the controller (a reused round does not count).
    solved: u64,
}

/// The buffers a pod round reads the pod into, reused across rounds and
/// managers: a round that solves swaps them with its manager's stored
/// inputs instead of copying.
#[derive(Debug, Default)]
pub struct RoundScratch {
    inputs: RoundInputs,
}

impl PodManager {
    /// Create a manager for `pod`.
    pub fn new(pod: PodId) -> Self {
        PodManager {
            id: pod,
            inputs: RoundInputs::default(),
            plan: PodPlan {
                pod,
                ..PodPlan::default()
            },
            solved: 0,
        }
    }

    /// Build the pod-local problem and run one fresh decision round.
    ///
    /// `snapshot` supplies the measured pod-local demand. Read-only with
    /// respect to the platform and the manager; the returned [`PodPlan`]
    /// is applied by the platform loop (with actuation latencies).
    pub fn plan(&self, state: &PlatformState, snapshot: &LoadSnapshot) -> PodPlan {
        let mut inputs = RoundInputs::default();
        inputs.read(self.id, state, snapshot);
        self.solve(&state.config, &inputs)
    }

    /// The plan of this round: the last solved round's plan when the pod
    /// reads the same inputs bit for bit, else a fresh [`PodManager::plan`],
    /// which is kept for the next round.
    ///
    /// The round reads the pod into `scratch` and compares it with the
    /// stored inputs: the healthy servers with their CPU, every row (app,
    /// VM, server index, slice, offered CPU, bound VIP), f64s by their
    /// bits, and the pod's VM count. The platform configuration is
    /// immutable after build, so it is not compared.
    pub fn replan(
        &mut self,
        state: &PlatformState,
        snapshot: &LoadSnapshot,
        scratch: &mut RoundScratch,
    ) -> &PodPlan {
        scratch.inputs.read(self.id, state, snapshot);
        if !scratch.inputs.same_as(&self.inputs) {
            std::mem::swap(&mut self.inputs, &mut scratch.inputs);
            self.plan = self.solve(&state.config, &self.inputs);
            self.solved += 1;
        }
        &self.plan
    }

    /// The plan [`PodManager::replan`] last returned (the empty pod's
    /// plan before the first round).
    pub fn current_plan(&self) -> &PodPlan {
        &self.plan
    }

    /// Rounds this manager solved with the controller, reused ones left
    /// out.
    pub fn rounds_solved(&self) -> u64 {
        self.solved
    }

    /// One round of the controller over `inputs`. Its rows are stably sorted
    /// by app, so each app's rows are a contiguous run (its dense index is
    /// the run's position) in server order, and demand sums, the incumbent,
    /// the `(app, server) → VM` lookup and the plan diff all index those rows
    /// instead of maps. The incumbent goes to the controller by value; the
    /// diff reads the rows it came from.
    fn solve(&self, cfg: &PlatformConfig, inputs: &RoundInputs) -> PodPlan {
        let (servers, rows) = (&inputs.servers, &inputs.rows);
        let max_vms = (cfg.pod_max_vms / servers.len().max(1)).max(1);
        // Apps covering the pod, in id order; app `a`'s rows, in server order.
        let by_app: Vec<&[VmRow]> = rows.chunk_by(|x, y| x.app == y.app).collect();

        // Pod-local demand per app: offered CPU on this pod's VMs, scaled
        // by provisioning headroom. (Unserved demand shows up as offered
        // load on saturated VMs, so it is already included.) Availability
        // floor: an app covering the pod always keeps at least one
        // minimum-slice instance here, even with zero measured demand
        // (elastic scale-down never goes to zero).
        let problem = PlacementProblem {
            servers: servers
                .iter()
                .map(|&(_, cpu)| ServerCap { cpu, max_vms })
                .collect(),
            apps: by_app
                .iter()
                .map(|vms| {
                    let mut demand = 0.0f64;
                    for r in *vms {
                        demand += r.offered;
                    }
                    AppReq {
                        demand_cpu: (demand * cfg.headroom).max(cfg.vm_cpu_slice),
                        vm_cap: cfg.vm_max_cpu_slice,
                    }
                })
                .collect(),
        };

        // Incumbent: current instances with their slices, built from the
        // sorted rows in one pass (a later VM of the same app on the same
        // server overwrites an earlier one).
        let incumbent = Placement::from_sorted(
            by_app.len(),
            by_app
                .iter()
                .enumerate()
                .flat_map(|(a, vms)| vms.iter().map(move |r| (a, r.server, r.cpu_slice))),
        );

        let next = tang::solve(&problem, incumbent);

        // Diff the placement against the rows into actions.
        let mut plan = PodPlan {
            pod: self.id,
            problem_size: (servers.len(), inputs.vm_count),
            ..PodPlan::default()
        };
        for (a, vms) in by_app.iter().enumerate() {
            for (s, cpu) in next.instances(a) {
                match row_at(vms, s) {
                    Some(row) => {
                        let old = row.cpu_slice;
                        // Keep at least the minimum slice; only act on
                        // meaningful moves.
                        let target = cpu.max(cfg.vm_cpu_slice);
                        if (target - old).abs() > 0.05 * old.max(cfg.vm_cpu_slice) {
                            plan.slice_adjustments.push((row.vm, target));
                        }
                    }
                    None => {
                        plan.new_instances.push((
                            vms[0].app,
                            servers[s].0,
                            cpu.max(cfg.vm_cpu_slice),
                        ));
                    }
                }
            }
            // The incumbent instance on a server is the last row there.
            for row in vms
                .chunk_by(|x, y| x.server == y.server)
                .filter_map(<[VmRow]>::last)
            {
                if next.get(a, row.server) == 0.0 {
                    plan.remove_instances.push(row.vm);
                }
            }
        }

        // Weight requests: per VIP with pod-resident RIP-backed VMs, set
        // relative weights proportional to the planned allocation. A VIP's
        // RIPs are VMs of its own app, so each app's rows group into its
        // own VIPs' requests, and an app with a single VM here can only
        // yield a single-VM list — moot, and skipped up front.
        let mut app_weights: Vec<(VipAddr, VmId, f64)> = Vec::new();
        for (a, vms) in by_app.iter().enumerate().filter(|(_, vms)| vms.len() > 1) {
            app_weights.clear();
            for r in *vms {
                let Some(vip) = r.vip else {
                    continue;
                };
                let alloc = next.get(a, r.server);
                if alloc > 0.0 {
                    app_weights.push((vip, r.vm, alloc));
                }
            }
            // Stable: each VIP's VMs stay in row order.
            app_weights.sort_by_key(|&(vip, ..)| vip);
            for group in app_weights.chunk_by(|x, y| x.0 == y.0) {
                if group.len() < 2 {
                    continue; // single-VM weights are moot
                }
                let start = plan.weights.len();
                plan.weights.extend(group.iter().map(|&(_, vm, w)| (vm, w)));
                plan.weight_requests.push(WeightRequest {
                    vip: group[0].0,
                    weights: start..plan.weights.len(),
                });
            }
        }
        // VIPs are unique across apps, so this is the VIP order.
        plan.weight_requests.sort_unstable_by_key(|r| r.vip);
        plan
    }
}

/// Everything a pod round reads from the platform besides the immutable
/// configuration.
#[derive(Debug, Clone, Default)]
struct RoundInputs {
    /// The pod's healthy servers, in pod order, with their CPU capacity.
    servers: Vec<(ServerId, f64)>,
    /// One row per VM on a healthy server, stably sorted by app.
    rows: Vec<VmRow>,
    /// VMs in the pod, those on failed servers included.
    vm_count: usize,
}

impl RoundInputs {
    /// Read the pod into `self`, reusing its buffers. Failed servers are
    /// invisible to the planner: their instances are already gone, and
    /// nothing may be placed on them. They still count in `vm_count`.
    ///
    /// One walk over the pod's servers and their VMs builds the rows; a
    /// stable sort by app follows (the walk is nearly in app order
    /// already). Each VM's offered CPU and bound VIP are then read in that
    /// order, where an app's VM ids sit close together in the id-indexed
    /// tables.
    fn read(&mut self, pod: PodId, state: &PlatformState, snapshot: &LoadSnapshot) {
        self.servers.clear();
        self.rows.clear();
        self.vm_count = 0;
        for &srv in state.pod_servers(pod) {
            let server = state.fleet.server(srv).expect("pod lists valid");
            self.vm_count += server.vm_count();
            if !state.server_healthy(srv) {
                continue;
            }
            let s = self.servers.len();
            self.servers.push((srv, server.spec().cpu));
            for vm in server.vms() {
                assert_eq!(state.fleet.locate(vm.id), Ok(srv), "fleet index is stale");
                self.rows.push(VmRow {
                    app: AppId(vm.app),
                    vm: vm.id,
                    server: s,
                    cpu_slice: vm.cpu_slice,
                    offered: 0.0,
                    vip: None,
                });
            }
        }
        self.rows.sort_by_key(|r| r.app);
        for row in &mut self.rows {
            row.offered = snapshot.vm_offered(row.vm);
            let rip = state.rip_of_vm(row.vm);
            row.vip = rip.map(|rip| state.rip(rip).expect("bound").vip);
        }
    }

    /// Whether `self` and `other` are the same inputs, f64s by their bits.
    fn same_as(&self, other: &RoundInputs) -> bool {
        self.vm_count == other.vm_count
            && self.servers.len() == other.servers.len()
            && self.rows.len() == other.rows.len()
            && (self.servers.iter().zip(&other.servers))
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            && self.rows.iter().zip(&other.rows).all(|(a, b)| a.same_as(b))
    }
}

/// One pod-local VM as the planner sees it: what a round reads of it.
#[derive(Debug, Clone, Copy)]
struct VmRow {
    app: AppId,
    vm: VmId,
    /// Index into the round's healthy-server list.
    server: usize,
    cpu_slice: f64,
    /// The VM's offered CPU in the round's snapshot.
    offered: f64,
    /// The VIP its RIP is bound under, if it has one.
    vip: Option<VipAddr>,
}

impl VmRow {
    /// Whether two rows carry the same inputs, f64s by their bits.
    fn same_as(&self, other: &VmRow) -> bool {
        self.app == other.app
            && self.vm == other.vm
            && self.server == other.server
            && self.cpu_slice.to_bits() == other.cpu_slice.to_bits()
            && self.offered.to_bits() == other.offered.to_bits()
            && self.vip == other.vip
    }
}

/// The row of one app's rows (sorted by server) on server index `s`; the
/// last one if the app has several there, as the incumbent keeps.
fn row_at(rows: &[VmRow], s: usize) -> Option<&VmRow> {
    let end = rows.partition_point(|r| r.server <= s);
    rows[..end].last().filter(|r| r.server == s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::demand::propagate;
    use crate::platform::Platform;
    use crate::viprip::{Priority, Request, VipRipManager};
    use dcnet::access::AccessRouterId;
    use dcsim::SimTime;
    use lbswitch::SwitchId;
    use std::collections::{BTreeMap, BTreeSet};

    /// One app with two instances in pod 0 (servers 0 and 2), demand
    /// driven through VIP 0 on switch 0.
    fn state_with_load(demand_bps: f64) -> (PlatformState, LoadSnapshot) {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_apps = 2;
        let mut st = PlatformState::new(cfg);
        let app0 = st.register_app(0);
        let _app1 = st.register_app(1);
        let vip = st.allocate_vip(app0, SwitchId(0)).unwrap();
        st.advertise_vip(vip, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.add_instance_running(app0, ServerId(0), vip, 1.0)
            .unwrap();
        st.add_instance_running(app0, ServerId(2), vip, 1.0)
            .unwrap();
        st.dns.set_exposure(0, vec![(vip, 1.0)], SimTime::ZERO);
        let now = SimTime::ZERO + st.routes.convergence();
        let snap = propagate(&mut st, &[demand_bps, 0.0], now);
        (st, snap)
    }

    /// The map-based planner the row-based [`PodManager::plan`] replaced,
    /// kept verbatim as the differential reference, with its placement
    /// changes counted against the incumbent.
    fn plan_reference(
        mgr: &PodManager,
        state: &PlatformState,
        snapshot: &LoadSnapshot,
    ) -> (PodPlan, usize) {
        // Failed servers are invisible to the planner: their instances are
        // already gone, and nothing may be placed on them.
        let servers: Vec<ServerId> = state
            .pod_servers(mgr.id)
            .iter()
            .copied()
            .filter(|&s| state.server_healthy(s))
            .collect();
        let server_index: BTreeMap<ServerId, usize> =
            servers.iter().enumerate().map(|(i, &s)| (s, i)).collect();

        // Apps covering the pod, plus their pod-local VMs.
        let mut app_vms: BTreeMap<AppId, Vec<VmId>> = BTreeMap::new();
        for &srv in &servers {
            let server = state.fleet.server(srv).expect("pod lists valid");
            for vm in server.vms() {
                app_vms.entry(AppId(vm.app)).or_default().push(vm.id);
            }
        }
        let apps: Vec<AppId> = app_vms.keys().copied().collect();
        let app_index: BTreeMap<AppId, usize> =
            apps.iter().enumerate().map(|(i, &a)| (a, i)).collect();

        // Pod-local demand per app: offered CPU on this pod's VMs, scaled
        // by provisioning headroom. (Unserved demand shows up as offered
        // load on saturated VMs, so it is already included.)
        let cfg = &state.config;
        let mut demand = vec![0.0f64; apps.len()];
        for (&app, vms) in &app_vms {
            let idx = app_index[&app];
            for &vm in vms {
                demand[idx] += snapshot.vm_offered(vm);
            }
            demand[idx] *= cfg.headroom;
            // Availability floor: an app covering the pod always keeps at
            // least one minimum-slice instance here, even with zero
            // measured demand (elastic scale-down never goes to zero).
            demand[idx] = demand[idx].max(cfg.vm_cpu_slice);
        }

        let problem = PlacementProblem {
            servers: servers
                .iter()
                .map(|&s| {
                    let spec = state.fleet.server(s).expect("valid").spec();
                    ServerCap {
                        cpu: spec.cpu,
                        max_vms: (cfg.pod_max_vms / servers.len().max(1)).max(1),
                    }
                })
                .collect(),
            apps: (0..apps.len())
                .map(|i| AppReq {
                    demand_cpu: demand[i],
                    vm_cap: cfg.vm_max_cpu_slice,
                })
                .collect(),
        };

        // Incumbent: current instances with their slices (the last VM of
        // an (app, server) pair wins).
        let mut vm_at: BTreeMap<(usize, usize), VmId> = BTreeMap::new();
        for (&app, vms) in &app_vms {
            let a = app_index[&app];
            for &vm_id in vms {
                let srv = state.fleet.locate(vm_id).expect("live");
                vm_at.insert((a, server_index[&srv]), vm_id);
            }
        }
        let incumbent = Placement::from_sorted(
            apps.len(),
            vm_at
                .iter()
                .map(|(&(a, s), &vm)| (a, s, state.fleet.vm(vm).expect("live").cpu_slice)),
        );

        let next = tang::solve(&problem, incumbent.clone());

        // Diff the placements into actions: instances started plus
        // instances stopped.
        let placement_changes: usize = (0..apps.len())
            .map(|a| {
                let servers =
                    |p: &Placement| -> BTreeSet<usize> { p.instances(a).map(|(s, _)| s).collect() };
                servers(&next)
                    .symmetric_difference(&servers(&incumbent))
                    .count()
            })
            .sum();
        let mut plan = PodPlan {
            pod: mgr.id,
            problem_size: (servers.len(), state.pod_vm_count(mgr.id)),
            ..PodPlan::default()
        };
        for (a, &app) in apps.iter().enumerate() {
            for (s, cpu) in next.instances(a) {
                match vm_at.get(&(a, s)) {
                    Some(&vm) => {
                        let old = incumbent.get(a, s);
                        // Keep at least the minimum slice; only act on
                        // meaningful moves.
                        let target = cpu.max(cfg.vm_cpu_slice);
                        if (target - old).abs() > 0.05 * old.max(cfg.vm_cpu_slice) {
                            plan.slice_adjustments.push((vm, target));
                        }
                    }
                    None => {
                        plan.new_instances
                            .push((app, servers[s], cpu.max(cfg.vm_cpu_slice)));
                    }
                }
            }
            for (s, _) in incumbent.instances(a) {
                if next.get(a, s) == 0.0 {
                    plan.remove_instances.push(vm_at[&(a, s)]);
                }
            }
        }

        // Weight requests: per VIP with pod-resident RIP-backed VMs, set
        // relative weights proportional to the planned allocation.
        let mut per_vip: BTreeMap<VipAddr, Vec<(VmId, f64)>> = BTreeMap::new();
        for (&app, vms) in &app_vms {
            let a = app_index[&app];
            for &vm_id in vms {
                let Some(rip) = state.rip_of_vm(vm_id) else {
                    continue;
                };
                let vip = state.rip(rip).expect("bound").vip;
                let srv = state.fleet.locate(vm_id).expect("live");
                let s = server_index[&srv];
                let alloc = next.get(a, s);
                if alloc > 0.0 {
                    per_vip.entry(vip).or_default().push((vm_id, alloc));
                }
            }
        }
        for (vip, weights) in per_vip {
            if weights.len() > 1 {
                // single-VM weights are moot
                let start = plan.weights.len();
                plan.weights.extend(weights);
                plan.weight_requests.push(WeightRequest {
                    vip,
                    weights: start..plan.weights.len(),
                });
            }
        }
        (plan, placement_changes)
    }

    /// A plan's bits and its placement changes.
    fn plan_bits(p: &PodPlan, placement_changes: usize) -> (PlanBits, usize) {
        (p.bits(), placement_changes)
    }

    /// Plan every pod with both planners and require identical plans.
    /// Returns how many plans carried any action.
    fn assert_matches_reference(st: &PlatformState, snap: &LoadSnapshot) -> usize {
        let mut active = 0;
        for pod in 0..st.num_pods() {
            let mgr = PodManager::new(PodId(pod as u32));
            let new = mgr.plan(st, snap);
            let (old, old_changes) = plan_reference(&mgr, st, snap);
            // A placement change is an instance start or stop.
            let new_changes = new.new_instances.len() + new.remove_instances.len();
            assert_eq!(
                plan_bits(&new, new_changes),
                plan_bits(&old, old_changes),
                "pod {pod}"
            );
            active += usize::from(
                !new.slice_adjustments.is_empty()
                    || !new.new_instances.is_empty()
                    || !new.remove_instances.is_empty()
                    || !new.weight_requests.is_empty(),
            );
        }
        active
    }

    /// Step `p` for `epochs`, failing `fail` after the third, and check
    /// both planners agree on every pod after every epoch.
    fn differential_run(mut p: Platform, epochs: usize, fail: Option<ServerId>) {
        let mut active = 0;
        for epoch in 0..epochs {
            p.step();
            if epoch == 2 {
                if let Some(srv) = fail {
                    p.inject_server_failure(srv).unwrap();
                }
            }
            let snap = p.last_snapshot().unwrap().clone();
            active += assert_matches_reference(&p.state, &snap);
        }
        assert!(
            active > 0,
            "no plan carried an action: the check is vacuous"
        );
    }

    /// Step `p` for `epochs`, failing `fail` after the third, with one
    /// manager per pod living across epochs: after every step its
    /// `replan` must give the fresh `plan` bit for bit. Returns the
    /// reused and solved round counts and how often each probe below
    /// moved a plan.
    ///
    /// Epochs rarely change a VM's slice or VIP and nothing else (an
    /// applied slice change moves demand too), so after each check the
    /// state is also probed with only that changed, then restored: the
    /// slice of the pod's first incumbent VM halved, and the RIP of the
    /// first VM of its first weight request moved under another VIP of
    /// its app.
    fn reuse_run(mut p: Platform, epochs: usize, fail: Option<ServerId>) -> (u64, u64, [usize; 2]) {
        let mut managers: Vec<PodManager> = Vec::new();
        let mut scratch = RoundScratch::default();
        let (mut reused, mut solved, mut moved) = (0, 0, [0; 2]);
        for epoch in 0..epochs {
            p.step();
            if epoch == 2 {
                if let Some(srv) = fail {
                    p.inject_server_failure(srv).unwrap();
                }
            }
            let snap = p.last_snapshot().unwrap().clone();
            for pod in managers.len()..p.state.num_pods() {
                managers.push(PodManager::new(PodId(pod as u32)));
            }
            for mgr in &mut managers {
                let fresh = mgr.plan(&p.state, &snap);
                let before = mgr.rounds_solved();
                let kept = mgr.replan(&p.state, &snap, &mut scratch).bits();
                assert_eq!(kept, fresh.bits(), "pod {:?} epoch {epoch}", mgr.id);
                if mgr.rounds_solved() == before {
                    reused += 1;
                } else {
                    solved += 1;
                }
                let st = &mut p.state;
                if let Some((vm, slice)) = incumbent_vm(st, mgr.id) {
                    st.fleet.adjust_slice(vm, slice * 0.5).unwrap();
                    moved[0] += probe(mgr, st, &snap, &kept);
                    st.fleet.adjust_slice(vm, slice).unwrap();
                }
                let Some(req) = fresh.weight_requests.first() else {
                    continue;
                };
                let rip = st.rip_of_vm(fresh.weights[req.weights.start].0).unwrap();
                let app = st.vip(req.vip).unwrap().app;
                let other = st.app(app).unwrap().vips.iter().find(|&&v| v != req.vip);
                if let Some(&other) = other {
                    assert_eq!(st.set_rip_vip(rip, other), Some(req.vip));
                    moved[1] += probe(mgr, st, &snap, &kept);
                    st.set_rip_vip(rip, req.vip);
                }
            }
        }
        (reused, solved, moved)
    }

    /// The first incumbent VM of `pod` in walk order — the last VM of its
    /// app on a healthy server, whose slice the planner reads — and its
    /// slice.
    fn incumbent_vm(st: &PlatformState, pod: PodId) -> Option<(VmId, f64)> {
        let healthy = st
            .pod_servers(pod)
            .iter()
            .filter(|&&s| st.server_healthy(s));
        healthy.into_iter().find_map(|&s| {
            let vms: Vec<_> = st.fleet.server(s).unwrap().vms().collect();
            let last = |i: usize| vms[i + 1..].iter().all(|w| w.app != vms[i].app);
            (0..vms.len())
                .find(|&i| last(i))
                .map(|i| (vms[i].id, vms[i].cpu_slice))
        })
    }

    /// Replan a copy of `mgr` on a probed state: it must give the fresh
    /// plan. Returns 1 if that plan differs from the kept one.
    fn probe(mgr: &PodManager, st: &PlatformState, snap: &LoadSnapshot, kept: &PlanBits) -> usize {
        let mut mgr = mgr.clone();
        let fresh = mgr.plan(st, snap).bits();
        assert_eq!(
            mgr.replan(st, snap, &mut RoundScratch::default()).bits(),
            fresh,
            "probe of pod {:?}",
            mgr.id
        );
        usize::from(fresh != *kept)
    }

    #[test]
    fn a_new_manager_holds_the_empty_pods_plan() {
        let (mut st, snap) = state_with_load(1e6);
        let pod = st.create_pod();
        let mut mgr = PodManager::new(pod);
        assert_eq!(mgr.current_plan().bits(), mgr.plan(&st, &snap).bits());
        let scratch = &mut RoundScratch::default();
        mgr.replan(&st, &snap, scratch);
        assert_eq!(mgr.rounds_solved(), 0, "an empty pod reuses the empty plan");
        // A pod with VMs solves its first round, then reuses it.
        let mut mgr = PodManager::new(PodId(0));
        let fresh = mgr.replan(&st, &snap, scratch).bits();
        assert_eq!(fresh, mgr.plan(&st, &snap).bits());
        mgr.replan(&st, &snap, scratch);
        assert_eq!(mgr.rounds_solved(), 1);
    }

    #[test]
    fn replan_matches_plan_small_test_with_server_failure() {
        // Flat demand, so rounds can repeat between the failure's moves.
        let mut cfg = PlatformConfig::small_test();
        cfg.diurnal_amplitude = 0.0;
        cfg.total_demand_bps = 4e8;
        let (reused, solved, moved) =
            reuse_run(Platform::build(cfg).unwrap(), 12, Some(ServerId(1)));
        assert!(reused > 0 && solved > 0, "{reused} reused, {solved} solved");
        // One instance per app and pod: no weight request to probe.
        assert!(moved[0] > 0, "the slice probe never moved a plan");
    }

    #[test]
    fn replan_matches_plan_paper_mix_miniature() {
        let mut cfg = PlatformConfig::paper_scale();
        cfg.num_apps = 40;
        cfg.num_servers = 80;
        cfg.initial_pods = 2;
        cfg.total_demand_bps = (40 * cfg.initial_instances_per_app) as f64 * 0.2e6;
        cfg.diurnal_amplitude = 0.0;
        let p = Platform::build(cfg).unwrap();
        let (reused, solved, moved) = reuse_run(p, 12, None);
        assert!(reused > 0 && solved > 0, "{reused} reused, {solved} solved");
        assert!(
            moved.iter().all(|&n| n > 0),
            "a probe never moved a plan: {moved:?}"
        );
    }

    #[test]
    fn plan_matches_reference_small_test_with_server_failure() {
        let p = Platform::build(PlatformConfig::small_test()).unwrap();
        differential_run(p, 6, Some(ServerId(1)));
    }

    #[test]
    fn plan_matches_reference_paper_mix_miniature() {
        let mut cfg = PlatformConfig::paper_scale();
        cfg.num_apps = 40;
        cfg.num_servers = 80;
        cfg.initial_pods = 2;
        cfg.total_demand_bps = (40 * cfg.initial_instances_per_app) as f64 * 0.2e6;
        assert_eq!(cfg.initial_instances_per_app, 20);
        let p = Platform::build(cfg).unwrap();
        differential_run(p, 4, None);
    }

    #[test]
    fn plan_matches_reference_e5_single_pod() {
        // E5's pod: one pod, 4 first-fit instances per app, demand at
        // ~70% of pod CPU so the controller re-apportions, grows slices
        // and adds instances.
        let servers = 40;
        let mut cfg = PlatformConfig::pod_scale();
        cfg.num_servers = servers;
        cfg.initial_pods = 1;
        cfg.pod_max_servers = servers * 2;
        cfg.pod_max_vms = servers * 8;
        cfg.num_apps = servers;
        cfg.num_switches = 4;
        cfg.total_demand_bps = servers as f64 * 8.0 * 0.7 / 1.0417e-8;
        let mut st = PlatformState::new(cfg);
        let mut mgr = VipRipManager::new();
        for a in 0..cfg.num_apps {
            let app = st.register_app(a);
            mgr.submit(Priority::Normal, Request::NewVip { app });
        }
        mgr.process_all(&mut st);
        for i in 0..cfg.num_apps * 4 {
            let a = (i / 4) as u32;
            let vm = st
                .fleet
                .create_vm_running(
                    ServerId((i % servers) as u32),
                    a,
                    cfg.vm_cpu_slice,
                    cfg.vm_mem_mb,
                )
                .unwrap();
            let req = Request::NewRip {
                app: AppId(a),
                vm,
                weight: 1.0,
            };
            mgr.submit(Priority::Normal, req);
        }
        mgr.process_all(&mut st);
        for a in 0..cfg.num_apps as u32 {
            let vips = st.app(AppId(a)).unwrap().vips.clone();
            st.dns
                .set_exposure(a, vips.iter().map(|&v| (v, 1.0)).collect(), SimTime::ZERO);
            for &v in &vips {
                st.advertise_vip(v, AccessRouterId(0), SimTime::ZERO)
                    .unwrap();
            }
        }
        let now = SimTime::ZERO + st.routes.convergence();
        let per_app = cfg.total_demand_bps / cfg.num_apps as f64;
        let snap = propagate(&mut st, &vec![per_app; cfg.num_apps], now);
        assert_eq!(assert_matches_reference(&st, &snap), 1);
    }

    #[test]
    fn plan_matches_reference_when_the_first_distribute_removes_an_instance() {
        // Demand fits the first of the two instances, so the controller's
        // first max-flow leaves the second idle and stops it.
        let (st, snap) = state_with_load(1e6);
        assert_eq!(assert_matches_reference(&st, &snap), 1);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        assert_eq!(plan.remove_instances.len(), 1, "plan {plan:?}");
        assert!(plan.new_instances.is_empty(), "plan {plan:?}");
    }

    #[test]
    fn last_vm_wins_for_two_vms_of_one_app_on_one_server() {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_apps = 1;
        let mut st = PlatformState::new(cfg);
        let app = st.register_app(0);
        let vip = st.allocate_vip(app, SwitchId(0)).unwrap();
        st.advertise_vip(vip, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        let (first, _) = st.add_instance_running(app, ServerId(0), vip, 1.0).unwrap();
        let (last, _) = st.add_instance_running(app, ServerId(0), vip, 1.0).unwrap();
        st.add_instance_running(app, ServerId(2), vip, 1.0).unwrap();
        st.dns.set_exposure(0, vec![(vip, 1.0)], SimTime::ZERO);
        let now = SimTime::ZERO + st.routes.convergence();
        // Heavy load: both occupied servers stay loaded and their slices grow.
        let snap = propagate(&mut st, &[400e6], now);
        assert_eq!(assert_matches_reference(&st, &snap), 1);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        assert!(
            plan.slice_adjustments.iter().any(|&(vm, _)| vm == last),
            "the later VM on server 0 is the one adjusted: {plan:?}"
        );
        assert!(
            plan.slice_adjustments.iter().all(|&(vm, _)| vm != first),
            "the earlier VM on server 0 is shadowed: {plan:?}"
        );
    }

    #[test]
    fn quiet_pod_scales_down_not_up() {
        // Demand well within one instance's slice: the controller may
        // consolidate to a single instance (elastic scale-down) but must
        // never add capacity, and must keep the availability floor.
        let (st, snap) = state_with_load(1e6);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        assert!(plan.new_instances.is_empty(), "plan {plan:?}");
        assert!(plan.remove_instances.len() <= 1, "over-removal: {plan:?}");
        // At least one instance survives.
        assert!(plan.remove_instances.len() < 2);
    }

    #[test]
    fn overload_grows_slices_or_adds_instances() {
        // ~52 cpu units of demand (25 Mbps ≈ 52 rps × 0.005… scaled) —
        // way over two 0.4-slices; the controller must act.
        let (st, snap) = state_with_load(100e6);
        let mgr = PodManager::new(PodId(0));
        let plan = mgr.plan(&st, &snap);
        assert!(
            !plan.slice_adjustments.is_empty() || !plan.new_instances.is_empty(),
            "plan took no action: {plan:?}"
        );
        // Slice targets respect the configured maximum.
        for &(_, cpu) in &plan.slice_adjustments {
            assert!(cpu <= st.config.vm_max_cpu_slice + 1e-9);
        }
        for &(_, _, cpu) in &plan.new_instances {
            assert!(cpu <= st.config.vm_max_cpu_slice + 1e-9);
        }
    }

    #[test]
    fn new_instances_stay_in_pod() {
        let (st, snap) = state_with_load(200e6);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        for &(_, srv, _) in &plan.new_instances {
            assert_eq!(st.pod_of(srv), PodId(0), "instance left the pod");
        }
    }

    #[test]
    fn weight_requests_cover_multi_instance_vips() {
        // 400 Mbps → ~4.2 CPU units × 1.2 headroom ≈ 5 units: needs ≥3
        // instances at vm_max_cpu_slice = 2.0, so both incumbents stay
        // loaded and the VIP gets a weight request.
        let (st, snap) = state_with_load(400e6);
        let plan = PodManager::new(PodId(0)).plan(&st, &snap);
        assert!(plan.remove_instances.is_empty(), "plan {plan:?}");
        assert_eq!(plan.weight_requests.len(), 1);
        let weights = &plan.weights[plan.weight_requests[0].weights.clone()];
        assert_eq!(weights.len(), 2);
        assert!(weights.iter().all(|&(_, w)| w > 0.0));
    }

    #[test]
    fn overload_detection_uses_threshold() {
        let (st, snap) = state_with_load(1e6);
        let util = snap.pod_utilizations(&st)[0];
        assert!(util <= st.config.pod_overload_threshold, "util {util}");
    }
}
