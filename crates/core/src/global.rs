//! The global (datacenter-scale) resource manager and its control knobs
//! (§III.A, §IV).
//!
//! The global manager "monitors resource utilization of all the pods and
//! balances the load among them", manages the datacenter-scale resources
//! (LB switches, access links), and contains the VIP/RIP manager. Each
//! control epoch it runs, in order:
//!
//! 1. **Selective VIP exposure** (§IV.A) — reweights DNS answers so apps
//!    on overloaded access links shift demand to their VIPs on lightly
//!    loaded links; periodically re-advertises *unused* VIPs from hot
//!    links to cold ones (route updates decoupled from balancing).
//! 2. **Dynamic VIP transfer** (§IV.B) — drains the hottest VIPs of
//!    overloaded switches via DNS, then moves each VIP to an underloaded
//!    switch once its residual demand passes the quiescence gate.
//! 3. **Misrouting-equilibrium escape** — breaks the E17 failure mode:
//!    VIPs that stay starved (served/offered below threshold) for K
//!    epochs while the app has spare capacity get a forced water-filling
//!    reweight + exposure refresh, even with no pod nominally overloaded.
//! 4. **Pod balancing** — the relief ladder for overloaded pods:
//!    inter-pod **RIP weight adjustment** (§IV.F, water-filled across all
//!    covered pods toward predicted-headroom-proportional targets),
//!    **dynamic application deployment** into underloaded pods (§IV.D,
//!    cloning with latency), and **server transfer** from donor pods
//!    (§IV.C).
//! 5. **Elephant-pod avoidance** (§IV.C/D) — pods that exceed the size
//!    caps shed servers (with their instances) to the smallest pod.
//!
//! The manager also runs infrastructure-level forecasters (per-pod
//! utilization, per-access-link demand — [`elastic::GroupForecaster`])
//! every epoch, reactive mode included: observation actuates nothing, but
//! the reweight and link-exposure knobs aim at *predicted* rather than
//! observed hotspots when history exists.
//!
//! Every actuation is counted in [`KnobCounters`], which is what the
//! experiments report.

use crate::demand::LoadSnapshot;
use crate::ids::{AppId, PodId};
use crate::state::PlatformState;
use crate::viprip::{Priority, Request, Response, VipRipManager};
use dcsim::SimTime;
use elastic::{headroom_pressure, waterfill_weights, GroupForecaster};
use lbswitch::{SwitchId, VipAddr};
use obs::footprint::GlobalAction;
use obs::{ActionKind, Actor};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use vmm::{ServerId, VmId, VmState};

/// Actuation counters for every knob (experiment output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnobCounters {
    /// DNS exposure reconfigurations issued for link balancing.
    pub exposure_updates: u64,
    /// VIP drains started for switch balancing.
    pub vip_drains_started: u64,
    /// VIP transfers completed (drain passed the quiescence gate).
    pub vip_transfers_completed: u64,
    /// Inter-pod RIP weight adjustments submitted.
    pub interpod_weight_adjustments: u64,
    /// Application instances deployed into other pods (clones started).
    pub deployments_started: u64,
    /// Deployed instances that came online (RIP bound).
    pub deployments_completed: u64,
    /// Servers transferred between pods (vacated-donor path).
    pub server_transfers: u64,
    /// Servers moved out of elephant pods (with their instances).
    pub elephant_evictions: u64,
    /// Misrouting-equilibrium escapes: corrective water-filling reweights
    /// and exposure refreshes forced for sustainedly starved VIPs even
    /// though no pod was nominally overloaded (the E17 fix).
    pub misrouting_escapes: u64,
}

/// An in-flight VIP drain (§IV.B step 1).
#[derive(Debug, Clone, Copy)]
struct Drain {
    target: SwitchId,
    started: SimTime,
}

/// A clone in flight toward another pod (§IV.D).
#[derive(Debug, Clone, Copy)]
struct PendingDeployment {
    vm: VmId,
    app: AppId,
}

/// The global manager.
#[derive(Debug, Default)]
pub struct GlobalManager {
    /// The serialized VIP/RIP configuration mediator (§III.C).
    pub viprip: VipRipManager,
    /// Knob actuation counters.
    pub counters: KnobCounters,
    /// The control-plane flight recorder: every knob actuation, queue
    /// apply and pod/proactive decision is emitted as a structured,
    /// sim-clock-stamped [`obs::Event`] (ring buffer + optional JSONL
    /// sink). The platform stamps it each epoch via
    /// [`obs::Recorder::begin_epoch`].
    pub recorder: obs::Recorder,
    draining: BTreeMap<VipAddr, Drain>,
    pending_deployments: Vec<PendingDeployment>,
    /// Infrastructure-level forecasters (always on, reactive mode
    /// included — forecasting alone actuates nothing): per-pod CPU
    /// utilization and per-access-link demand. Lazily built on the first
    /// epoch, sized to that epoch's observation vectors.
    pod_forecast: Option<GroupForecaster>,
    link_forecast: Option<GroupForecaster>,
    /// Consecutive epochs each VIP has served less than
    /// `vip_starvation_ratio` of its offered demand, indexed by VIP
    /// address (0 for a VIP that is not starving).
    starved_epochs: Vec<u32>,
    /// The misrouting escape's per-pass buffers, also lent to every
    /// water-fill.
    escape: EscapeScratch,
    /// When set, the escape runs the per-VIP reference pass instead.
    #[cfg(test)]
    reference_escape: Option<reference::ReferenceEscape>,
    /// VMs queued for retirement this epoch. Exposure and reweight
    /// decisions must not count their RIPs as serving capacity: a retire
    /// racing a VIP transfer in the same epoch would otherwise route
    /// restored demand onto a RIP already queued for removal.
    pending_retires: BTreeSet<VmId>,
}

/// One serving RIP entry of a VIP: `(vm, pod, weight, cpu_slice)` (see
/// [`PlatformState::vip_serving_entries_into`]).
type ServingEntry = (VmId, PodId, f64, f64);

/// One VIP's planned water-fill step ([`plan_waterfill`]): its
/// `SetWeight`s and the values its `Reweight` event records.
#[derive(Debug, Clone)]
struct WaterfillPlan {
    vip: VipAddr,
    /// Its `(vm, new weight)` writes: a range of the caller's write list.
    writes: Range<usize>,
    weight_total: f64,
    slice_total: f64,
    pod_util_max: f64,
    step: f64,
    before_max: f64,
    after_max: f64,
}

/// The misrouting escape's verdict on one app for one pass: act with
/// these values, or skip the app (it is draining, or fails the
/// spare-capacity gate), which leaves no plan and no positive weight.
/// Every triggered VIP of the app replays the same verdict.
#[derive(Debug, Clone)]
struct AppVerdict {
    app: AppId,
    capacity_cpu: f64,
    demand_cpu: f64,
    /// Its VIPs' water-fill plans: a range of [`EscapeScratch::plans`].
    plans: Range<usize>,
    /// Its capacity-proportional exposure weights, one per VIP of the
    /// app: a range of [`EscapeScratch::weights`].
    weights: Range<usize>,
    /// How many of those weights are positive.
    exposed_after: usize,
}

/// `EscapeScratch::verdict_of` for an app with no verdict this pass.
const NO_VERDICT: u32 = u32::MAX;

/// Buffers of one misrouting-escape pass, kept between epochs so the pass
/// allocates nothing once they have grown.
#[derive(Debug, Default)]
struct EscapeScratch {
    /// The VIPs whose starvation streak triggered, in VIP order.
    triggered: Vec<VipAddr>,
    /// Per app, the index of its verdict in `verdicts` (`NO_VERDICT`
    /// before its first triggered VIP). Reset after each pass.
    verdict_of: Vec<u32>,
    verdicts: Vec<AppVerdict>,
    plans: Vec<WaterfillPlan>,
    writes: Vec<(VmId, f64)>,
    weights: Vec<(VipAddr, f64)>,
    /// One app's live serving entries, VIP after VIP; VIP `i`'s end at
    /// `entry_ends[i]`.
    entries: Vec<ServingEntry>,
    entry_ends: Vec<usize>,
    /// One VIP's live serving entries.
    buf: Vec<ServingEntry>,
}

// Caps per epoch, to keep the control loop stable.
/// VIP drains started per epoch, and in flight at once (§IV.B).
const MAX_TRANSFERS_PER_EPOCH: usize = 4;
/// Pod-relief clones in flight at once (§IV.D).
const MAX_DEPLOYMENTS_PER_EPOCH: usize = 8;
/// Apps whose DNS exposure one hot access link may shift per epoch.
const MAX_EXPOSURE_APPS_PER_LINK: usize = 10;

/// The note of each [`ActionKind::QueueApply`] event, `"<Request> ->
/// <Response>"`, indexed by request variant then response variant (in
/// declaration order).
const QUEUE_APPLY_NOTES: [[&str; 4]; 5] = [
    [
        "NewVip -> VipAllocated",
        "NewVip -> RipBound",
        "NewVip -> Done",
        "NewVip -> Failed",
    ],
    [
        "NewRip -> VipAllocated",
        "NewRip -> RipBound",
        "NewRip -> Done",
        "NewRip -> Failed",
    ],
    [
        "DeleteRip -> VipAllocated",
        "DeleteRip -> RipBound",
        "DeleteRip -> Done",
        "DeleteRip -> Failed",
    ],
    [
        "SetWeight -> VipAllocated",
        "SetWeight -> RipBound",
        "SetWeight -> Done",
        "SetWeight -> Failed",
    ],
    [
        "AdjustPodWeights -> VipAllocated",
        "AdjustPodWeights -> RipBound",
        "AdjustPodWeights -> Done",
        "AdjustPodWeights -> Failed",
    ],
];

impl GlobalManager {
    /// New manager (the same as [`GlobalManager::default`]).
    pub fn new() -> Self {
        GlobalManager::default()
    }

    /// VIPs currently draining toward a transfer.
    pub fn draining_vips(&self) -> Vec<VipAddr> {
        self.draining.keys().copied().collect()
    }

    /// Whether any of `app`'s VIPs is mid-drain. Knobs that reconfigure
    /// DNS exposure must not touch such apps — doing so would reset the
    /// drain and the two policies would fight over the same weights (the
    /// §V.B policy-conflict problem; the single-layer architecture
    /// resolves it by giving the drain priority).
    fn app_is_draining(&self, state: &PlatformState, app: AppId) -> bool {
        self.draining
            .keys()
            .any(|&v| state.vip(v).map(|r| r.app == app).unwrap_or(false))
    }

    /// The knob half of one global-manager epoch: forecast observation
    /// and every enabled balancing/exposure/relief knob. Mutates DNS,
    /// routes, switches and the fleet through `state`; pod-level
    /// provisioning is the pod managers' job and happens separately.
    /// Requests it enqueues are not applied until
    /// [`GlobalManager::drain_queue`]; the platform runs the two halves as
    /// separate phases (`global-knobs`, `queue-drain`).
    pub fn epoch_knobs(&mut self, state: &mut PlatformState, snap: &LoadSnapshot, now: SimTime) {
        self.observe_forecasts(state, snap);
        let knobs = state.config.knobs;
        if knobs.capacity_exposure {
            self.refresh_capacity_exposure(state, snap, now);
        }
        if knobs.link_exposure {
            self.balance_access_links(state, snap, now);
        }
        if knobs.vip_transfer {
            self.balance_switches(state, snap, now);
        }
        if knobs.misrouting_escape {
            self.escape_misrouting(state, snap, now);
        }
        self.rescue_dead_apps(state, now);
        self.complete_deployments(state);
        self.balance_pods(state, snap, now);
        if knobs.elephant_relief {
            self.avoid_elephants(state);
        }
    }

    /// The serialized half of one global-manager epoch: apply every
    /// queued VIP/RIP request in order, then release the retire mask.
    /// `settled` says that the previous drain processed no request and
    /// nothing its pod weight verdicts read has changed since (see
    /// [`crate::Platform::step`]). Returns whether the drain processed no
    /// request.
    pub fn drain_queue(&mut self, state: &mut PlatformState, settled: bool) -> bool {
        let processed = self.viprip.processed();
        for (req, resp) in self.viprip.drain(state, settled) {
            self.record_queue_apply(&req, &resp);
        }
        // The queued retires have been executed (or rejected); the epoch's
        // exposure decisions no longer need to mask them.
        self.pending_retires.clear();
        self.viprip.processed() == processed
    }

    /// Record one serialized-queue apply result in the flight recorder
    /// (actor [`Actor::Queue`] — apply-time ordering is exactly what the
    /// §III.C safety argument rests on, so the audit trail keeps it).
    pub(crate) fn record_queue_apply(&mut self, req: &Request, resp: &Response) {
        let (req_kind, app, vm, vip, pod) = match req {
            Request::NewVip { app } => (0, Some(app.0), None, None, None),
            Request::NewRip { app, vm, .. } => (1, Some(app.0), Some(vm.0), None, None),
            Request::DeleteRip { vm } => (2, None, Some(vm.0), None, None),
            Request::SetWeight { vm, .. } => (3, None, Some(vm.0), None, None),
            Request::AdjustPodWeights { pod, vip, .. } => (4, None, None, Some(vip.0), Some(pod.0)),
        };
        let (resp_kind, resp_vip, switch) = match resp {
            Response::VipAllocated(v, sw) => (0, Some(v.0), Some(sw.0)),
            Response::RipBound(_, v) => (1, Some(v.0), None),
            Response::Done => (2, None, None),
            Response::Failed(_) => (3, None, None),
        };
        let mut b = self
            .recorder
            .event(Actor::Queue, ActionKind::QueueApply)
            .note(QUEUE_APPLY_NOTES[req_kind][resp_kind]);
        if let Some(a) = app {
            b = b.app(a);
        }
        if let Some(v) = vm {
            b = b.vm(v);
        }
        if let Some(v) = vip.or(resp_vip) {
            b = b.vip(v);
        }
        if let Some(p) = pod {
            b = b.pod(p);
        }
        if let Some(sw) = switch {
            b = b.switch(sw);
        }
        b.commit();
    }

    // ---- infrastructure forecasting (pods + access links) ------------------

    /// Feed this epoch's pod utilizations and link demands into the
    /// infrastructure forecasters. Observation only — no actuation.
    fn observe_forecasts(&mut self, state: &PlatformState, snap: &LoadSnapshot) {
        let pod_utils = snap.pod_utilizations(state);
        self.pod_forecast
            .get_or_insert_with(|| GroupForecaster::new(pod_utils.len()))
            .observe(&pod_utils);
        self.link_forecast
            .get_or_insert_with(|| GroupForecaster::new(snap.link_load_bps.len()))
            .observe(&snap.link_load_bps);
    }

    /// Predicted CPU utilization per pod, `horizon` epochs ahead (`None`
    /// before the first epoch).
    pub fn predicted_pod_utils(&self, horizon: u32) -> Option<Vec<f64>> {
        self.pod_forecast.as_ref().map(|f| f.predict(horizon))
    }

    /// Predicted demand per access link (bits/s), `horizon` epochs ahead.
    pub fn predicted_link_demand_bps(&self, horizon: u32) -> Option<Vec<f64>> {
        self.link_forecast.as_ref().map(|f| f.predict(horizon))
    }

    // ---- serialized retirement (retire × transfer race) --------------------

    /// Queue a VM's instance for retirement through the serialized VIP/RIP
    /// queue, registering it in `pending_retires` so every exposure and
    /// reweight decision made later this epoch sees the RIP as already
    /// gone. Refuses (returns `false`) when the VM backs its VIP's last
    /// live RIP — DNS keeps routing demand at an exposed VIP, so draining
    /// its last RIP would black-hole that demand.
    pub fn queue_retire(&mut self, state: &PlatformState, vm: VmId) -> bool {
        let Some(rip) = state.rip_of_vm(vm) else {
            return false;
        };
        let Ok(rec) = state.rip(rip) else {
            return false;
        };
        if self.pending_retires.contains(&vm) {
            return false; // already queued this epoch
        }
        let live = self.live_rip_count(state, rec.vip);
        if live <= 1 {
            return false;
        }
        let app = state.vip(rec.vip).map(|v| v.app);
        let before = self.pending_retires.len();
        self.pending_retires.insert(vm);
        self.viprip.submit(Priority::Low, Request::DeleteRip { vm });
        let mut ev = self
            .recorder
            .event(Actor::Global, ActionKind::Global(GlobalAction::QueueRetire))
            .vm(vm.0)
            .vip(rec.vip.0);
        if let Ok(app) = app {
            ev = ev.app(app.0);
        }
        ev.input("rip_set.live_rips", live as f64)
            .delta("pending_retires.count", before as f64, (before + 1) as f64)
            .commit();
        true
    }

    /// RIPs of a VIP whose VMs are not queued for retirement this epoch.
    fn live_rip_count(&self, state: &PlatformState, vip: VipAddr) -> usize {
        let Ok(rec) = state.vip(vip) else { return 0 };
        let Ok(cfg) = state.switches[rec.switch.0 as usize].vip(vip) else {
            return 0;
        };
        cfg.rips
            .iter()
            .filter(|e| {
                state
                    .rip(e.rip)
                    .map(|rr| !self.pending_retires.contains(&rr.vm))
                    .unwrap_or(false)
            })
            .count()
    }

    /// Capacity-proportional exposure (§IV.B's second use of selective VIP
    /// exposure: "the global manager can instruct DNS to expose only the
    /// VIPs of the applications configured at lightly-loaded LB
    /// switches"). For apps losing a noticeable demand fraction, reweight
    /// DNS answers by each covered VIP's serving capacity (summed slices)
    /// discounted by its switch's load.
    ///
    /// An app also qualifies — regardless of its unserved fraction — when
    /// DNS still publishes a positive share for one of its VIPs that has
    /// no live RIPs left (e.g. the VIP died with a failed switch and
    /// could not be re-homed). Such *dead exposure* black-holes that
    /// share of the app's demand indefinitely, yet a small VIP can sit
    /// below the 5% unserved trigger forever; re-exposing the covered
    /// VIPs is the only knob that stops the leak.
    fn refresh_capacity_exposure(
        &mut self,
        state: &mut PlatformState,
        snap: &LoadSnapshot,
        now: SimTime,
    ) {
        const UNSERVED_TRIGGER: f64 = 0.05;
        const MAX_APPS_PER_EPOCH: usize = 50;
        let mut worst: Vec<(AppId, f64)> = state
            .apps()
            .iter()
            .filter_map(|a| {
                let demand = snap.app_demand_bps[a.id.0 as usize];
                if demand <= 0.0 {
                    return None;
                }
                let frac = snap.unserved_bps_by_app[a.id.0 as usize] / demand;
                let dead_exposure = state
                    .dns
                    .publishes_any(a.id.dns_key(), |v| state.vip_rip_count(v) == 0);
                (frac > UNSERVED_TRIGGER || dead_exposure).then_some((a.id, frac))
            })
            .collect();
        worst.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (app, frac) in worst.into_iter().take(MAX_APPS_PER_EPOCH) {
            if self.app_is_draining(state, app) {
                continue;
            }
            let vips = state.app(app).expect("listed").vips.clone();
            let mut entries = Vec::new();
            let weights: Vec<(VipAddr, f64)> = vips
                .iter()
                .map(|&v| {
                    self.live_serving_entries(state, v, &mut entries);
                    (v, capacity_weight(state, v, &entries))
                })
                .collect();
            let covered: Vec<VipAddr> = weights
                .iter()
                .filter(|&&(_, w)| w > 0.0)
                .map(|&(v, _)| v)
                .collect();
            if covered.is_empty() {
                continue; // nothing can serve; exposure changes won't help
            }
            if covered.len() < 2 {
                // Only one VIP has capacity. There is nothing to balance,
                // but previously-set DNS weights may still route demand to
                // the drained VIPs — reset exposure to the survivor (once;
                // skip when DNS already matches, to avoid churning
                // reconfigurations every epoch).
                let published = state.dns.published_shares(app.dns_key());
                let already = published.len() == 1 && published[0].0 == covered[0];
                if !already {
                    let before = published.len();
                    state.dns.set_exposure(app.dns_key(), weights, now);
                    self.counters.exposure_updates += 1;
                    self.recorder
                        .event(
                            Actor::Global,
                            ActionKind::Global(GlobalAction::ExposureRefresh),
                        )
                        .app(app.0)
                        .note("single-survivor reset")
                        .input("load.unserved_frac", frac)
                        .input("rip_set.covered_vips", 1.0)
                        .delta("dns_exposure.vips", before as f64, 1.0)
                        .commit();
                }
                continue;
            }
            let before = state.dns.published_count(app.dns_key());
            state.dns.set_exposure(app.dns_key(), weights, now);
            self.counters.exposure_updates += 1;
            self.recorder
                .event(
                    Actor::Global,
                    ActionKind::Global(GlobalAction::ExposureRefresh),
                )
                .app(app.0)
                .note("capacity-proportional")
                .input("load.unserved_frac", frac)
                .input("rip_set.covered_vips", covered.len() as f64)
                .delta("dns_exposure.vips", before as f64, covered.len() as f64)
                .commit();
        }
    }

    // ---- knob 1: selective VIP exposure (§IV.A) -------------------------

    fn balance_access_links(
        &mut self,
        state: &mut PlatformState,
        snap: &LoadSnapshot,
        now: SimTime,
    ) {
        // Blend the observed utilization with the forecast one epoch out
        // (elementwise max): a link predicted to overload is treated as
        // hot already, so exposure shifts pre-position before the demand
        // arrives instead of reacting one epoch late.
        let mut utils = snap.link_utilizations(state);
        if let Some(pred_demand) = self.predicted_link_demand_bps(1) {
            for (u, p) in utils
                .iter_mut()
                .zip(state.access.utilizations(&pred_demand))
            {
                *u = u.max(p);
            }
        }
        let threshold = state.config.link_overload_threshold;
        let Some((hot_link, &hot_util)) = utils
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        else {
            return;
        };
        if hot_util <= threshold {
            return;
        }
        // Per-app demand carried by the hot link.
        let mut app_on_hot: BTreeMap<AppId, f64> = BTreeMap::new();
        let mut link_of_vip: BTreeMap<VipAddr, usize> = BTreeMap::new();
        for (vip, rec) in state.vips() {
            let Some(router) = rec.router else { continue };
            // Symmetric access network: link index == router index.
            let Some(link) = state
                .access
                .links_at_router(router)
                .next()
                .map(|l| l.id.index())
            else {
                continue;
            };
            link_of_vip.insert(vip, link);
            if link == hot_link {
                if let Some(&d) = snap.vip_demand_bps.get(vip) {
                    *app_on_hot.entry(rec.app).or_insert(0.0) += d;
                }
            }
        }
        let mut top: Vec<(AppId, f64)> = app_on_hot.into_iter().collect();
        top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (app, _) in top.into_iter().take(MAX_EXPOSURE_APPS_PER_LINK) {
            if self.app_is_draining(state, app) {
                continue; // the switch drain owns this app's exposure
            }
            let vips = state.app(app).expect("listed").vips.clone();
            if vips.len() < 2 {
                continue; // nothing to shift toward
            }
            // Weight each covered VIP by its link's headroom; VIPs on the
            // hot link keep a small floor so the app never fully abandons
            // a link; uncovered (RIP-less) spares get nothing.
            let weights: Vec<(VipAddr, f64)> = vips
                .iter()
                .map(|&v| {
                    if state.vip_rip_count(v) == 0 {
                        return (v, 0.0);
                    }
                    let w = match link_of_vip.get(&v) {
                        Some(&l) => (1.0 - utils[l]).max(0.02),
                        None => 0.0, // not advertised anywhere yet
                    };
                    (v, w)
                })
                .collect();
            // Skip if the app has no covered, advertised VIP off the hot
            // link.
            let has_alternative = vips.iter().any(|&v| {
                state.vip_rip_count(v) > 0
                    && link_of_vip.get(&v).map(|&l| l != hot_link).unwrap_or(false)
            });
            if !has_alternative {
                // §IV.A second mechanism: re-advertise an *unused* VIP of
                // this app at the coldest link's router.
                let cold = utils
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("checked non-empty");
                let unused = vips.iter().copied().find(|&v| {
                    snap.vip_demand_bps.get(v).copied().unwrap_or(0.0)
                        < 0.01 * snap.app_demand_bps[app.0 as usize].max(1.0)
                });
                if let Some(v) = unused {
                    let router = state.access.links()[cold].access_router;
                    state.advertise_vip(v, router, now).expect("VIP exists");
                    self.recorder
                        .event(
                            Actor::Global,
                            ActionKind::Global(GlobalAction::ExposureRefresh),
                        )
                        .app(app.0)
                        .vip(v.0)
                        .link(cold as u32)
                        .note("readvertise unused VIP at cold link")
                        .input("load.link_util_max", hot_util)
                        .delta("dns_records.adverts", 0.0, 1.0)
                        .commit();
                }
                continue;
            }
            let exposed_before = state.dns.published_count(app.dns_key());
            let exposed_after = weights.iter().filter(|&&(_, w)| w > 0.0).count();
            state.dns.set_exposure(app.dns_key(), weights, now);
            self.counters.exposure_updates += 1;
            self.recorder
                .event(
                    Actor::Global,
                    ActionKind::Global(GlobalAction::ExposureRefresh),
                )
                .app(app.0)
                .link(hot_link as u32)
                .note("shift exposure off hot link")
                .input("load.link_util_max", hot_util)
                .delta(
                    "dns_exposure.vips",
                    exposed_before as f64,
                    exposed_after as f64,
                )
                .commit();
        }
    }

    // ---- knob 2: dynamic VIP transfer (§IV.B) -----------------------------

    fn balance_switches(&mut self, state: &mut PlatformState, snap: &LoadSnapshot, now: SimTime) {
        let threshold = state.config.switch_overload_threshold;
        let utils = snap.switch_utilizations(state);

        // Progress existing drains first.
        let draining: Vec<(VipAddr, Drain)> = self.draining.iter().map(|(&v, &d)| (v, d)).collect();
        for (vip, drain) in draining {
            let rec = *state.vip(vip).expect("draining VIP exists");
            let app = rec.app;
            let share = state.dns.fraction_on_vip(app.dns_key(), vip, now);
            if share <= state.config.quiescence_share {
                // Quiescent: execute the internal reassignment.
                match state.transfer_vip(vip, drain.target) {
                    Ok(()) => {
                        self.counters.vip_transfers_completed += 1;
                        self.recorder
                            .event(Actor::Global, ActionKind::Global(GlobalAction::VipTransfer))
                            .vip(vip.0)
                            .app(app.0)
                            .switch(drain.target.0)
                            .note("transfer-complete")
                            .input("dns_exposure.share", share)
                            .input("cfg.quiescence_share", state.config.quiescence_share)
                            .delta(
                                "switch_vip_table.switch",
                                rec.switch.0 as f64,
                                drain.target.0 as f64,
                            )
                            .commit();
                        self.restore_exposure(state, app, now);
                        self.draining.remove(&vip);
                    }
                    Err(_) => {
                        // Destination filled up meanwhile: abort.
                        self.recorder
                            .event(Actor::Global, ActionKind::Global(GlobalAction::VipTransfer))
                            .vip(vip.0)
                            .app(app.0)
                            .switch(drain.target.0)
                            .note("abort-target-full")
                            .input("dns_exposure.share", share)
                            .commit();
                        self.restore_exposure(state, app, now);
                        self.draining.remove(&vip);
                    }
                }
            } else if now.since(drain.started) > state.config.dns.stale_half_life * 4 {
                // TTL violators are holding on too long: give up.
                self.recorder
                    .event(Actor::Global, ActionKind::Global(GlobalAction::VipTransfer))
                    .vip(vip.0)
                    .app(app.0)
                    .switch(drain.target.0)
                    .note("abort-timeout")
                    .input("dns_exposure.share", share)
                    .commit();
                self.restore_exposure(state, app, now);
                self.draining.remove(&vip);
            }
        }

        // Start new drains on overloaded switches. Concurrent drains are
        // capped: each one parks demand on the app's other VIPs for
        // minutes (TTL + stale residue), so draining aggressively would
        // destabilize the very switches we are trying to relieve.
        let mut started = 0;
        if self.draining.len() >= MAX_TRANSFERS_PER_EPOCH {
            return;
        }
        let mut hot: Vec<(usize, f64)> = utils
            .iter()
            .enumerate()
            .filter(|&(_, &u)| u > threshold)
            .map(|(i, &u)| (i, u))
            .collect();
        hot.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (sw_idx, sw_util) in hot {
            if started >= MAX_TRANSFERS_PER_EPOCH || self.draining.len() >= MAX_TRANSFERS_PER_EPOCH
            {
                break;
            }
            // Hottest transferable VIP on this switch.
            let mut vips: Vec<(VipAddr, f64)> = state.switches[sw_idx]
                .vips()
                .map(|(v, cfg)| (v, cfg.offered_bps))
                .filter(|&(v, _)| !self.draining.contains_key(&v))
                .collect();
            vips.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            for (vip, offered) in vips {
                if offered <= 0.0 {
                    break;
                }
                let app = state.vip(vip).expect("listed").app;
                // One drain per app at a time, and the app must have
                // another VIP to absorb the demand.
                if self.app_is_draining(state, app)
                    || state.app(app).expect("listed").vips.len() < 2
                {
                    continue;
                }
                let Some(target) = Self::pick_transfer_target(state, sw_idx, vip) else {
                    continue;
                };
                // The demand must have a covered VIP to land on.
                let others_covered = state
                    .app(app)
                    .expect("listed")
                    .vips
                    .iter()
                    .any(|&v| v != vip && state.vip_rip_count(v) > 0);
                if !others_covered {
                    continue;
                }
                // Drain step: stop exposing this VIP.
                let weights: Vec<(VipAddr, f64)> = state
                    .app(app)
                    .expect("listed")
                    .vips
                    .iter()
                    .map(|&v| {
                        let w = if v == vip || state.vip_rip_count(v) == 0 {
                            0.0
                        } else {
                            1.0
                        };
                        (v, w)
                    })
                    .collect();
                let exposed_before = state.dns.published_count(app.dns_key());
                let exposed_after = weights.iter().filter(|&&(_, w)| w > 0.0).count();
                state.dns.set_exposure(app.dns_key(), weights, now);
                self.draining.insert(
                    vip,
                    Drain {
                        target,
                        started: now,
                    },
                );
                self.counters.vip_drains_started += 1;
                self.recorder
                    .event(Actor::Global, ActionKind::Global(GlobalAction::VipTransfer))
                    .vip(vip.0)
                    .app(app.0)
                    .switch(sw_idx as u32)
                    .note("drain-start")
                    .input("load.switch_util", sw_util)
                    .input("load.vip_offered_bps", offered)
                    .delta(
                        "dns_exposure.vips",
                        exposed_before as f64,
                        exposed_after as f64,
                    )
                    .commit();
                started += 1;
                break;
            }
        }
    }

    fn pick_transfer_target(state: &PlatformState, from: usize, vip: VipAddr) -> Option<SwitchId> {
        let rips_needed = state.switches[from].vip(vip).ok()?.rips.len();
        state
            .switches
            .iter()
            .enumerate()
            .filter(|&(i, sw)| {
                i != from
                    && state.switch_healthy(sw.id())
                    && sw.vip_slots_free() > 0
                    && sw.rip_slots_free() >= rips_needed
            })
            .min_by(|(_, a), (_, b)| {
                a.utilization()
                    .partial_cmp(&b.utilization())
                    .expect("finite")
            })
            .map(|(_, sw)| sw.id())
    }

    fn restore_exposure(&mut self, state: &mut PlatformState, app: AppId, now: SimTime) {
        // `live_rip_count`, not `vip_rip_count`: a VIP whose only RIPs
        // were queued for retirement earlier this epoch must not be
        // re-exposed — the restored demand would land on a RIP that the
        // serialized queue deletes moments later (the retire × transfer
        // race).
        let weights: Vec<(VipAddr, f64)> = state
            .app(app)
            .expect("listed")
            .vips
            .iter()
            .map(|&v| {
                (
                    v,
                    if self.live_rip_count(state, v) > 0 {
                        1.0
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        state.dns.set_exposure(app.dns_key(), weights, now);
    }

    // ---- misrouting-equilibrium escape (E17) -------------------------------

    /// Detect and break VIP-level misrouting equilibria.
    ///
    /// E16's reactive hold phase exposed a stable failure mode: a VIP's
    /// weight/slice misalignment leaves one RIP saturated while sibling
    /// RIPs idle, yet *no* trigger fires — per-app unserved stays under
    /// the exposure threshold, pods and switches are far from overload,
    /// and the §IV.F pod-total-preserving weight adjustment cannot move
    /// weight for a pod with a single RIP under the VIP. The platform
    /// then serves ~98.4% forever.
    ///
    /// The escape: when a VIP's served/offered ratio stays below
    /// `vip_starvation_ratio` for `vip_starvation_epochs` consecutive
    /// epochs *and* the app has spare serving capacity overall, force a
    /// corrective water-filling reweight across the app's VIPs plus an
    /// unconditional capacity-proportional exposure refresh — even though
    /// no pod is nominally overloaded.
    ///
    /// Both corrections act on the *app*, so the first triggered VIP of an
    /// app computes the app's [`AppVerdict`] once (reading each of its
    /// VIPs' serving entries once) and every triggered VIP of that app
    /// replays it, in trigger order: the same `SetWeight`s and `Reweight`
    /// events, the same exposure write, both counters, and its own
    /// `MisroutingEscape` event. Replay is exact because nothing a verdict
    /// reads changes during the pass: `SetWeight` waits in the queue,
    /// `set_exposure` writes only the app's DNS target and baseline (which
    /// no verdict reads), and drains, pending retires, switch utilization
    /// and the fleet do not move. The one read that does change, the
    /// published VIP count before the write, is taken fresh on each
    /// replay.
    fn escape_misrouting(&mut self, state: &mut PlatformState, snap: &LoadSnapshot, now: SimTime) {
        #[cfg(test)]
        if let Some(mut r) = self.reference_escape.take() {
            self.escape_misrouting_reference(&mut r, state, snap, now);
            self.reference_escape = Some(r);
            return;
        }
        let cfg = state.config;
        let mut s = std::mem::take(&mut self.escape);
        self.update_streaks(
            snap,
            cfg.vip_starvation_ratio,
            cfg.vip_starvation_epochs,
            &mut s.triggered,
        );
        let pod_utils = self
            .predicted_pod_utils(1)
            .unwrap_or_else(|| snap.pod_utilizations(state));
        if s.verdict_of.len() < state.num_apps() {
            s.verdict_of.resize(state.num_apps(), NO_VERDICT);
        }
        for i in 0..s.triggered.len() {
            let vip = s.triggered[i];
            let Ok(rec) = state.vip(vip) else {
                continue;
            };
            let app = rec.app;
            let mut slot = s.verdict_of[app.0 as usize];
            if slot == NO_VERDICT {
                slot = s.verdicts.len() as u32;
                let verdict =
                    self.app_verdict(state, snap, app, &pod_utils, cfg.reweight_step, &mut s);
                s.verdicts.push(verdict);
                s.verdict_of[app.0 as usize] = slot;
            }
            let verdict = s.verdicts[slot as usize].clone();
            self.replay_escape(state, snap, vip, &verdict, &s, now);
        }
        for v in &s.verdicts {
            s.verdict_of[v.app.0 as usize] = NO_VERDICT;
        }
        s.verdicts.clear();
        s.plans.clear();
        s.writes.clear();
        s.weights.clear();
        self.escape = s;
    }

    /// Update the starvation streaks from this epoch's snapshot and list,
    /// in VIP order, the VIPs whose streak reached `epochs`.
    fn update_streaks(
        &mut self,
        snap: &LoadSnapshot,
        ratio: f64,
        epochs: u32,
        triggered: &mut Vec<VipAddr>,
    ) {
        triggered.clear();
        let demand = &snap.vip_demand_bps;
        // VIPs with no demand this epoch are not starved, just idle.
        for (i, streak) in self.starved_epochs.iter_mut().enumerate() {
            if demand.get(VipAddr(i as u32)).is_none() {
                *streak = 0;
            }
        }
        for (vip, &offered) in demand.iter() {
            if offered <= 0.0 {
                continue;
            }
            let i = vip.0 as usize;
            let served = snap.vip_served_bps.get(vip).copied().unwrap_or(0.0);
            if served / offered < ratio {
                if i >= self.starved_epochs.len() {
                    self.starved_epochs.resize(i + 1, 0);
                }
                self.starved_epochs[i] += 1;
                if self.starved_epochs[i] >= epochs {
                    triggered.push(vip);
                }
            } else if let Some(streak) = self.starved_epochs.get_mut(i) {
                *streak = 0;
            }
        }
    }

    /// The escape's verdict on `app` this pass. Its water-fill plans,
    /// `SetWeight`s and capacity weights go to the pass's arenas in `s`.
    fn app_verdict(
        &self,
        state: &PlatformState,
        snap: &LoadSnapshot,
        app: AppId,
        pod_utils: &[f64],
        step: f64,
        s: &mut EscapeScratch,
    ) -> AppVerdict {
        let mut verdict = AppVerdict {
            app,
            capacity_cpu: 0.0,
            demand_cpu: 0.0,
            plans: 0..0,
            weights: 0..0,
            exposed_after: 0,
        };
        if self.app_is_draining(state, app) {
            return verdict; // the drain owns this app's weights and exposure
        }
        let Ok(rec) = state.app(app) else {
            return verdict;
        };
        // Spare-capacity gate: corrective rerouting only helps when the
        // app's serving slices could absorb its whole demand — otherwise
        // this is genuine under-provisioning and the deploy/slice knobs
        // are the right tool. Each VIP's live entries are read once here
        // and kept for the plans below.
        let profile = state.config.request_profile;
        let demand_cpu =
            profile.cpu_demand(profile.rps_for_bandwidth(snap.app_demand_bps[app.0 as usize]));
        s.entries.clear();
        s.entry_ends.clear();
        let mut capacity_cpu = 0.0;
        for &v in &rec.vips {
            self.live_serving_entries(state, v, &mut s.buf);
            for &(.., slice) in &s.buf {
                capacity_cpu += slice;
            }
            s.entries.extend_from_slice(&s.buf);
            s.entry_ends.push(s.entries.len());
        }
        if capacity_cpu <= demand_cpu {
            return verdict;
        }
        // Corrective actions: water-fill every covered VIP of the app
        // toward slice × predicted-headroom, then refresh exposure
        // capacity-proportionally (no unserved-fraction gate).
        let (plans_start, weights_start) = (s.plans.len(), s.weights.len());
        let mut from = 0;
        for (&v, &to) in rec.vips.iter().zip(&s.entry_ends) {
            let entries = &s.entries[from..to];
            if let Some(plan) = plan_waterfill(v, entries, pod_utils, step, &mut s.writes) {
                s.plans.push(plan);
            }
            s.weights.push((v, capacity_weight(state, v, entries)));
            from = to;
        }
        verdict.capacity_cpu = capacity_cpu;
        verdict.demand_cpu = demand_cpu;
        verdict.plans = plans_start..s.plans.len();
        verdict.weights = weights_start..s.weights.len();
        verdict.exposed_after = s.weights[verdict.weights.clone()]
            .iter()
            .filter(|&&(_, w)| w > 0.0)
            .count();
        verdict
    }

    /// Replay an app's verdict for one of its triggered VIPs.
    fn replay_escape(
        &mut self,
        state: &mut PlatformState,
        snap: &LoadSnapshot,
        vip: VipAddr,
        verdict: &AppVerdict,
        s: &EscapeScratch,
        now: SimTime,
    ) {
        let app = verdict.app;
        let mut acted = false;
        for plan in &s.plans[verdict.plans.clone()] {
            self.apply_waterfill(plan, &s.writes);
            acted = true;
        }
        let exposed_before = state.dns.published_count(app.dns_key());
        if verdict.exposed_after > 0 {
            state
                .dns
                .set_exposure_from(app.dns_key(), &s.weights[verdict.weights.clone()], now);
            self.counters.exposure_updates += 1;
            acted = true;
        }
        if acted {
            self.counters.misrouting_escapes += 1;
            let streak = self.starved_epochs[vip.0 as usize];
            let offered = snap.vip_demand_bps.get(vip).copied().unwrap_or(0.0);
            let served = snap.vip_served_bps.get(vip).copied().unwrap_or(0.0);
            self.recorder
                .event(
                    Actor::Global,
                    ActionKind::Global(GlobalAction::MisroutingEscape),
                )
                .vip(vip.0)
                .app(app.0)
                .input("ctl.starved_epochs", streak as f64)
                .input(
                    "load.served_ratio",
                    if offered > 0.0 { served / offered } else { 0.0 },
                )
                .input("vm_fleet.capacity_cpu", verdict.capacity_cpu)
                .input("load.demand_cpu", verdict.demand_cpu)
                .delta(
                    "dns_exposure.vips",
                    exposed_before as f64,
                    verdict.exposed_after as f64,
                )
                .commit();
            // The streak is NOT reset here: while the VIP stays below the
            // starvation ratio the escape keeps stepping every epoch, so
            // the water-fill converges geometrically to its fixed point.
            // Recovery above the ratio clears the streak (in
            // `update_streaks`), which is the natural hysteresis that
            // stops the correction.
        }
    }

    /// The serving entries of `vip` whose VMs are not queued for
    /// retirement this epoch, into `out` (cleared first).
    fn live_serving_entries(
        &self,
        state: &PlatformState,
        vip: VipAddr,
        out: &mut Vec<ServingEntry>,
    ) {
        state.vip_serving_entries_into(vip, out);
        if !self.pending_retires.is_empty() {
            out.retain(|(vm, ..)| !self.pending_retires.contains(vm));
        }
    }

    /// Submit a planned water-fill's `SetWeight`s and record its
    /// `Reweight` event.
    fn apply_waterfill(&mut self, plan: &WaterfillPlan, writes: &[(VmId, f64)]) {
        for &(vm, weight) in &writes[plan.writes.clone()] {
            self.viprip
                .submit(Priority::High, Request::SetWeight { vm, weight });
        }
        self.recorder
            .event(Actor::Global, ActionKind::Global(GlobalAction::Reweight))
            .vip(plan.vip.0)
            .input("switch_vip_table.weight_total", plan.weight_total)
            .input("vm_fleet.slice_total", plan.slice_total)
            .input("forecast.pod_util_max", plan.pod_util_max)
            .input("cfg.reweight_step", plan.step)
            .delta("rip_weights.max", plan.before_max, plan.after_max)
            .commit();
    }

    /// Water-fill one VIP's RIP weights ([`plan_waterfill`], then
    /// [`GlobalManager::apply_waterfill`]). Returns whether any weight
    /// changed materially.
    fn waterfill_vip(
        &mut self,
        state: &PlatformState,
        vip: VipAddr,
        pod_utils: &[f64],
        step: f64,
    ) -> bool {
        let mut s = std::mem::take(&mut self.escape);
        self.live_serving_entries(state, vip, &mut s.buf);
        let plan = plan_waterfill(vip, &s.buf, pod_utils, step, &mut s.writes);
        if let Some(plan) = &plan {
            self.apply_waterfill(plan, &s.writes);
        }
        s.writes.clear();
        self.escape = s;
        plan.is_some()
    }

    /// Water-fill every covered VIP of an app (the proactive `Reweight`
    /// actuation). Returns whether any weight changed.
    pub fn waterfill_app(
        &mut self,
        state: &PlatformState,
        app: AppId,
        pod_utils: &[f64],
        step: f64,
    ) -> bool {
        let Ok(rec) = state.app(app) else {
            return false;
        };
        let mut reweighted = false;
        for &vip in &rec.vips {
            if self.waterfill_vip(state, vip, pod_utils, step) {
                reweighted = true;
            }
        }
        reweighted
    }

    // ---- knob 3: pod balancing (§IV.C/D/F) ---------------------------------

    fn balance_pods(&mut self, state: &mut PlatformState, snap: &LoadSnapshot, now: SimTime) {
        let utils = snap.pod_utilizations(state);
        let cfg = state.config;
        let hot_pods: Vec<usize> = utils
            .iter()
            .enumerate()
            .filter(|&(_, &u)| u > cfg.pod_overload_threshold)
            .map(|(i, _)| i)
            .collect();
        if hot_pods.is_empty() {
            return;
        }
        let cold_pod = utils
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("pods exist");
        if utils[cold_pod] > cfg.pod_underload_threshold {
            return; // nowhere to shed load to
        }

        // The reweight law aims at *predicted* utilization when the
        // forecasters have data (pre-positioning, §IV.B), observed
        // otherwise.
        let pod_utils = self.predicted_pod_utils(1).unwrap_or_else(|| utils.clone());
        let knobs = cfg.knobs;
        for hot in hot_pods {
            let hot_pod = PodId(hot as u32);
            // Rung 1: inter-pod RIP weight adjustment for VIPs covering
            // the hot pod (§IV.F — agile, seconds): water-fill weights
            // across *all* covered pods toward headroom-proportional
            // targets, not just a hottest→coldest pair.
            if knobs.interpod_weights {
                self.shift_weights_from_pod(state, snap, hot_pod, &pod_utils);
            }
            // Rung 2: deploy instances of the pod's hottest apps into the
            // cold pod (§IV.D).
            if knobs.deployments {
                self.deploy_into_cold_pod(state, snap, hot_pod, PodId(cold_pod as u32), now);
            }
            // Rung 3: transfer vacant servers from the cold pod (§IV.C).
            if knobs.server_transfers {
                self.transfer_vacant_servers(state, PodId(cold_pod as u32), hot_pod);
            }
        }
    }

    /// Rung 1 of pod relief: for every VIP with demand that covers the
    /// hot pod and at least one other pod, water-fill its RIP weights
    /// toward `slice × predicted headroom` across all covered pods.
    /// Unlike the old hottest→coldest ×0.7/×1.3 pair, the law has a fixed
    /// point (the headroom-proportional split), so repeated application
    /// converges instead of overshooting into the cold pod.
    fn shift_weights_from_pod(
        &mut self,
        state: &PlatformState,
        snap: &LoadSnapshot,
        hot: PodId,
        pod_utils: &[f64],
    ) {
        let step = state.config.reweight_step;
        let vips: Vec<VipAddr> = snap.vip_demand_bps.iter().map(|(v, _)| v).collect();
        for vip in vips {
            let pods = state.pods_covered_by_vip(vip);
            if !pods.contains(&hot) || pods.len() < 2 {
                continue;
            }
            if self.waterfill_vip(state, vip, pod_utils, step) {
                self.counters.interpod_weight_adjustments += 1;
            }
        }
    }

    /// Re-bootstrap apps that lost their *last* instance — the disaster
    /// path ordinary elasticity cannot reach. Pod managers provision
    /// against observed in-pod demand, and a fully dead app attracts no
    /// demand (its VIPs have no RIPs, so traffic black-holes at the
    /// switch), so neither the reactive nor the proactive plane will
    /// ever re-deploy it. Correlated server failures under a
    /// consolidation-first placement make this reachable: losing the
    /// two most-packed servers can take out every instance of most
    /// apps at once. A fresh boot per dead app per epoch, placed on the
    /// emptiest healthy server, rides the normal pending-deployment
    /// path so the RIP binds through the serialized queue once the VM
    /// is running. Unconditional: this is failure repair, not an
    /// elasticity knob.
    fn rescue_dead_apps(&mut self, state: &mut PlatformState, now: SimTime) {
        let num_apps = state.config.num_apps;
        // Any VM in any state counts — a booting rescue from last epoch
        // (still in `pending_deployments`) must not be repeated.
        let mut alive = vec![false; num_apps];
        for server in state.fleet.servers() {
            for vm in server.vms() {
                if let Some(slot) = alive.get_mut(vm.app as usize) {
                    *slot = true;
                }
            }
        }
        let spec_cpu = state.config.vm_cpu_slice;
        let mem = state.config.vm_mem_mb;
        for (a, _) in alive.iter().enumerate().filter(|&(_, &up)| !up) {
            // Emptiest healthy server with room (ties by id): spreading
            // rescues avoids re-creating the packed-server blast radius
            // that likely killed the app in the first place.
            let target = state
                .fleet
                .servers()
                .iter()
                .filter(|s| state.server_healthy(s.id()) && s.fits(spec_cpu, mem).is_ok())
                .min_by_key(|s| (s.vms().count(), s.id().0))
                .map(|s| s.id());
            let Some(target) = target else {
                return; // no capacity anywhere; retry next epoch
            };
            if let Ok(vm) = state.fleet.create_vm(target, a as u32, spec_cpu, mem, now) {
                let app = AppId(a as u32);
                self.pending_deployments.push(PendingDeployment { vm, app });
                self.counters.deployments_started += 1;
                self.recorder
                    .event(Actor::Global, ActionKind::Global(GlobalAction::Deployment))
                    .app(app.0)
                    .vm(vm.0)
                    .server(target.0)
                    .note("dead-app rescue boot")
                    .delta("vm_fleet.rescue_boots", 0.0, 1.0)
                    .commit();
            }
        }
    }

    fn deploy_into_cold_pod(
        &mut self,
        state: &mut PlatformState,
        snap: &LoadSnapshot,
        hot: PodId,
        cold: PodId,
        now: SimTime,
    ) {
        // Hottest apps by offered CPU on the hot pod's VMs.
        let mut app_load: BTreeMap<AppId, f64> = BTreeMap::new();
        let mut app_src_vm: BTreeMap<AppId, VmId> = BTreeMap::new();
        for &srv in state.pod_servers(hot) {
            let server = state.fleet.server(srv).expect("valid");
            for vm in server.vms() {
                let offered = snap.vm_offered(vm.id);
                *app_load.entry(AppId(vm.app)).or_insert(0.0) += offered;
                if matches!(vm.state, VmState::Running) {
                    app_src_vm.entry(AppId(vm.app)).or_insert(vm.id);
                }
            }
        }
        let mut hottest: Vec<(AppId, f64)> = app_load.into_iter().collect();
        hottest.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

        let in_flight = self.pending_deployments.len();
        let budget = MAX_DEPLOYMENTS_PER_EPOCH.saturating_sub(in_flight);
        for (app, load) in hottest.into_iter().take(budget) {
            if load <= 0.0 {
                break;
            }
            let Some(&src) = app_src_vm.get(&app) else {
                continue;
            };
            // First cold-pod server with room.
            let spec_cpu = state.config.vm_cpu_slice;
            let mem = state.config.vm_mem_mb;
            let Some(target) = state.pod_servers(cold).iter().copied().find(|&s| {
                state.server_healthy(s)
                    && state
                        .fleet
                        .server(s)
                        .expect("valid")
                        .fits(spec_cpu, mem)
                        .is_ok()
            }) else {
                break; // cold pod full — fall through to server transfer
            };
            if let Ok(vm) = state.fleet.clone_vm(src, target, now) {
                self.pending_deployments.push(PendingDeployment { vm, app });
                self.counters.deployments_started += 1;
                self.recorder
                    .event(Actor::Global, ActionKind::Global(GlobalAction::Deployment))
                    .app(app.0)
                    .vm(vm.0)
                    .pod(cold.0)
                    .server(target.0)
                    .note("clone-started")
                    .input("load.app_cpu_offered", load)
                    .input("vm_fleet.src_vm", src.0 as f64)
                    .delta("vm_fleet.clones_started", 0.0, 1.0)
                    .commit();
            }
        }
    }

    /// Bind RIPs for clones that finished booting (the deployment becomes
    /// live only once its RIP is configured — §IV.D's switch step).
    fn complete_deployments(&mut self, state: &mut PlatformState) {
        let mut still_pending = Vec::new();
        for pd in self.pending_deployments.drain(..) {
            match state.fleet.vm(pd.vm) {
                Ok(vm) if matches!(vm.state, VmState::Running) => {
                    self.viprip.submit(
                        Priority::Normal,
                        Request::NewRip {
                            app: pd.app,
                            vm: pd.vm,
                            weight: 1.0,
                        },
                    );
                    self.counters.deployments_completed += 1;
                    self.recorder
                        .event(Actor::Global, ActionKind::Global(GlobalAction::Deployment))
                        .app(pd.app.0)
                        .vm(pd.vm.0)
                        .note("rip-bind queued")
                        .delta("rip_set.queued_newrips", 0.0, 1.0)
                        .commit();
                }
                Ok(_) => still_pending.push(pd),
                Err(_) => {} // destroyed meanwhile
            }
        }
        self.pending_deployments = still_pending;
    }

    fn transfer_vacant_servers(
        &mut self,
        state: &mut PlatformState,
        donor: PodId,
        recipient: PodId,
    ) {
        if donor == recipient {
            return;
        }
        // Keep the donor above one server.
        let donor_servers = state.pod_servers(donor).to_vec();
        if donor_servers.len() <= 1 {
            return;
        }
        let vacant: Vec<ServerId> = donor_servers
            .iter()
            .copied()
            .filter(|&s| state.fleet.server(s).expect("valid").is_vacant())
            .take(2) // bounded per epoch
            .collect();
        for s in vacant {
            let donor_before = state.pod_servers(donor).len();
            if donor_before <= 1 {
                break;
            }
            let recip_before = state.pod_servers(recipient).len();
            state.move_server_to_pod(s, recipient);
            self.counters.server_transfers += 1;
            self.recorder
                .event(
                    Actor::Global,
                    ActionKind::Global(GlobalAction::ServerTransfer),
                )
                .pod(recipient.0)
                .server(s.0)
                .input("pod_membership.donor_servers", donor_before as f64)
                .delta(
                    "pod_membership.recipient_servers",
                    recip_before as f64,
                    (recip_before + 1) as f64,
                )
                .commit();
        }
    }

    // ---- knob 4: elephant-pod avoidance (§IV.C/D) ---------------------------

    fn avoid_elephants(&mut self, state: &mut PlatformState) {
        let cfg = state.config;
        let original_pods = state.num_pods();
        for p in 0..original_pods {
            let pod = PodId(p as u32);
            let over_servers = state.pod_servers(pod).len() as i64 - cfg.pod_max_servers as i64;
            let over_vms = state.pod_vm_count(pod) as i64 - cfg.pod_max_vms as i64;
            if over_servers <= 0 && over_vms <= 0 {
                continue;
            }
            let mut to_move = over_servers.max(0) as usize;
            if over_vms > 0 {
                // Move enough servers to shed the VM excess, estimating by
                // average VMs per server.
                let avg = (state.pod_vm_count(pod) as f64
                    / state.pod_servers(pod).len().max(1) as f64)
                    .max(1.0);
                to_move = to_move.max((over_vms as f64 / avg).ceil() as usize);
            }
            let movers: Vec<ServerId> = state
                .pod_servers(pod)
                .iter()
                .copied()
                .take(to_move)
                .collect();
            for s in movers {
                let size_before = state.pod_servers(pod).len();
                if size_before <= 1 {
                    break;
                }
                // Receiving pod: the smallest pod that still has headroom
                // for one more server; open a fresh pod if none does
                // (pods are logical, so this is pure bookkeeping).
                let recipient = (0..state.num_pods())
                    .filter(|&q| q != p)
                    .map(|q| PodId(q as u32))
                    .filter(|&q| state.pod_servers(q).len() < cfg.pod_max_servers)
                    .min_by_key(|&q| state.pod_servers(q).len())
                    .unwrap_or_else(|| state.create_pod());
                state.move_server_to_pod(s, recipient);
                self.counters.elephant_evictions += 1;
                self.recorder
                    .event(
                        Actor::Global,
                        ActionKind::Global(GlobalAction::ElephantRelief),
                    )
                    .pod(pod.0)
                    .server(s.0)
                    .input("pod_membership.servers", size_before as f64)
                    .input("cfg.pod_max_servers", cfg.pod_max_servers as f64)
                    .delta(
                        "pod_membership.servers",
                        size_before as f64,
                        (size_before - 1) as f64,
                    )
                    .commit();
            }
        }
    }
}

/// Exposure weight of one VIP: the serving CPU behind it (summed slices
/// of `entries`, its live serving entries, which leave out RIPs queued
/// for retirement this epoch) discounted by how loaded its switch is.
/// Summing slices rather than counting RIPs matters when an app's VMs are
/// heterogeneous: a VIP backed by one max-slice VM serves 5× what a VIP
/// backed by one min-slice VM does, and a count-based split would keep
/// drowning the small VIP at a third of the app's demand forever (the
/// chronic per-VIP starvation the chaos sweep's starvation oracle
/// caught).
fn capacity_weight(state: &PlatformState, vip: VipAddr, entries: &[ServingEntry]) -> f64 {
    let cpu: f64 = entries.iter().map(|&(.., slice)| slice).sum();
    if cpu <= 0.0 {
        return 0.0;
    }
    // Serving entries come only from a VIP with a record.
    let Ok(rec) = state.vip(vip) else {
        return 0.0;
    };
    let sw = &state.switches[rec.switch.0 as usize];
    cpu * (1.5 - sw.utilization()).clamp(0.05, 1.5)
}

/// Plan one VIP's water-fill step from `entries`, its live serving
/// entries: step the RIP weights toward targets proportional to `slice ×
/// predicted pod headroom`, conserving the total weight exactly (the
/// absolute-weight invariant encodes the app's inter-pod traffic split;
/// see `elastic::waterfill_weights`). Each weight that changes materially
/// is pushed onto `writes` as `(vm, new weight)`; `None` when none does.
fn plan_waterfill(
    vip: VipAddr,
    entries: &[ServingEntry],
    pod_utils: &[f64],
    step: f64,
    writes: &mut Vec<(VmId, f64)>,
) -> Option<WaterfillPlan> {
    if entries.len() < 2 {
        return None; // nothing to shift between
    }
    let current: Vec<f64> = entries.iter().map(|&(_, _, w, _)| w).collect();
    let capacity: Vec<f64> = entries.iter().map(|&(_, _, _, slice)| slice).collect();
    let utils: Vec<f64> = entries
        .iter()
        .map(|&(_, pod, _, _)| pod_utils.get(pod.index()).copied().unwrap_or(0.0))
        .collect();
    let pressure = headroom_pressure(&capacity, &utils);
    let target = waterfill_weights(&current, &pressure, step);
    let start = writes.len();
    let mut after_max = 0.0;
    for (&(vm, _, w, _), &nw) in entries.iter().zip(&target) {
        let nw = nw.max(0.01);
        let applied = if (nw - w).abs() > 1e-6 * w.abs().max(1.0) {
            writes.push((vm, nw));
            nw
        } else {
            w
        };
        after_max = f64::max(after_max, applied);
    }
    if writes.len() == start {
        return None;
    }
    Some(WaterfillPlan {
        vip,
        writes: start..writes.len(),
        weight_total: current.iter().sum(),
        slice_total: capacity.iter().sum(),
        pod_util_max: utils.iter().copied().fold(0.0, f64::max),
        step,
        before_max: current.iter().copied().fold(0.0, f64::max),
        after_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::demand::propagate;
    use dcnet::access::AccessRouterId;
    use dcsim::SimDuration;

    /// One global-manager epoch: the knobs, then the queue drain.
    fn epoch(gm: &mut GlobalManager, st: &mut PlatformState, snap: &LoadSnapshot, now: SimTime) {
        gm.epoch_knobs(st, snap, now);
        gm.drain_queue(st, false);
    }

    /// Two apps: app0 with VIPs on links 0 and 1 (instances in pod 0);
    /// app1 with one VIP on link 0.
    fn build() -> PlatformState {
        let mut cfg = PlatformConfig::small_test();
        cfg.num_apps = 2;
        let mut st = PlatformState::new(cfg);
        let a0 = st.register_app(0);
        let a1 = st.register_app(1);
        let v00 = st.allocate_vip(a0, SwitchId(0)).unwrap();
        let v01 = st.allocate_vip(a0, SwitchId(1)).unwrap();
        let v10 = st.allocate_vip(a1, SwitchId(0)).unwrap();
        st.advertise_vip(v00, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.advertise_vip(v01, AccessRouterId(1), SimTime::ZERO)
            .unwrap();
        st.advertise_vip(v10, AccessRouterId(0), SimTime::ZERO)
            .unwrap();
        st.add_instance_running(a0, ServerId(0), v00, 1.0).unwrap();
        st.add_instance_running(a0, ServerId(2), v01, 1.0).unwrap();
        st.add_instance_running(a1, ServerId(4), v10, 1.0).unwrap();
        st.dns
            .set_exposure(0, vec![(v00, 1.0), (v01, 1.0)], SimTime::ZERO);
        st.dns.set_exposure(1, vec![(v10, 1.0)], SimTime::ZERO);
        st
    }

    fn t0(st: &PlatformState) -> SimTime {
        SimTime::ZERO + st.routes.convergence()
    }

    /// Each queue-apply note is `"<Request> -> <Response>"` with the
    /// variant names as `Debug` prints them, for every variant pair.
    #[test]
    fn queue_apply_notes_name_both_variants() {
        let requests = [
            Request::NewVip { app: AppId(1) },
            Request::NewRip {
                app: AppId(1),
                vm: VmId(2),
                weight: 1.0,
            },
            Request::DeleteRip { vm: VmId(2) },
            Request::SetWeight {
                vm: VmId(2),
                weight: 1.0,
            },
            Request::AdjustPodWeights {
                pod: PodId(0),
                vip: VipAddr(3),
                weights: Vec::new(),
            },
        ];
        let responses = [
            Response::VipAllocated(VipAddr(3), SwitchId(0)),
            Response::RipBound(lbswitch::RipAddr(4), VipAddr(3)),
            Response::Done,
            Response::Failed("refused".into()),
        ];
        let variant = |debug: String| {
            let end = debug.find(|c: char| !c.is_alphanumeric());
            debug[..end.unwrap_or(debug.len())].to_string()
        };
        let mut gm = GlobalManager::new();
        for req in &requests {
            for resp in &responses {
                gm.record_queue_apply(req, resp);
                let ev = gm.recorder.take_events().pop().unwrap();
                let want = format!(
                    "{} -> {}",
                    variant(format!("{req:?}")),
                    variant(format!("{resp:?}"))
                );
                assert_eq!(ev.note, want);
            }
        }
    }

    #[test]
    fn link_overload_triggers_exposure_update() {
        let mut st = build();
        let now = t0(&st);
        // Link capacity 4 Gbps; push 7 Gbps through app0 (3.5 on link 0)
        // plus 1.0 through app1 (link 0) → link 0 at 4.5/4 > 0.8.
        let snap = propagate(&mut st, &[7e9, 1e9], now);
        assert!(snap.link_utilizations(&st)[0] > 0.8);
        let mut gm = GlobalManager::new();
        epoch(&mut gm, &mut st, &snap, now);
        assert!(
            gm.counters.exposure_updates >= 1,
            "counters {:?}",
            gm.counters
        );
        // After the TTL, link 0 load drops.
        let later = now + st.config.dns.ttl * 2;
        let snap2 = propagate(&mut st, &[7e9, 1e9], later);
        assert!(
            snap2.link_load_bps[0] < snap.link_load_bps[0],
            "no relief: {} -> {}",
            snap.link_load_bps[0],
            snap2.link_load_bps[0]
        );
        st.assert_invariants();
    }

    #[test]
    fn switch_overload_starts_drain_and_completes_transfer() {
        let mut st = build();
        let now = t0(&st);
        // Switch 0 hosts v00 (app0, 0.5 share → 2.5G) and v10 (app1, 1G):
        // 3.5/4 = 0.875 > 0.8 → drain the hottest VIP (v00; app0 has an
        // alternative VIP).
        let snap = propagate(&mut st, &[5e9, 1e9], now);
        assert!(snap.switch_utilizations(&st)[0] > 0.8);
        let mut gm = GlobalManager::new();
        epoch(&mut gm, &mut st, &snap, now);
        assert_eq!(gm.counters.vip_drains_started, 1);
        assert_eq!(gm.draining_vips().len(), 1);
        let vip = gm.draining_vips()[0];
        // Walk time forward past the stale residue until quiescent.
        let mut t = now;
        for _ in 0..2000 {
            t += st.config.epoch;
            let snap = propagate(&mut st, &[5e9, 1e9], t);
            epoch(&mut gm, &mut st, &snap, t);
            if gm.counters.vip_transfers_completed > 0 {
                break;
            }
        }
        assert_eq!(
            gm.counters.vip_transfers_completed, 1,
            "transfer never completed"
        );
        // The VIP moved off switch 0.
        assert_ne!(st.vip(vip).unwrap().switch, SwitchId(0));
        st.assert_invariants();
    }

    #[test]
    fn default_manager_starts_a_drain() {
        // The fixture of `switch_overload_starts_drain_and_completes_transfer`:
        // `default()` carries the same caps as `new()`.
        let mut st = build();
        let now = t0(&st);
        let snap = propagate(&mut st, &[5e9, 1e9], now);
        let mut gm = GlobalManager::default();
        epoch(&mut gm, &mut st, &snap, now);
        assert_eq!(gm.counters.vip_drains_started, 1);
    }

    #[test]
    fn elephant_pod_sheds_servers() {
        let mut st = build();
        let mut cfg = st.config;
        cfg.pod_max_servers = 4; // pods have 8 servers each
        st.config = cfg;
        let mut gm = GlobalManager::new();
        gm.avoid_elephants(&mut st);
        assert!(gm.counters.elephant_evictions > 0);
        // Every pod ends within the cap; new pods were opened as needed.
        for p in 0..st.num_pods() {
            assert!(
                st.pod_servers(PodId(p as u32)).len() <= 4,
                "pod {p} still an elephant"
            );
        }
        assert!(
            st.num_pods() > 2,
            "expected new pods to absorb the overflow"
        );
        st.assert_invariants();
    }

    #[test]
    fn vacant_server_transfer_respects_floor() {
        let mut st = build();
        let mut gm = GlobalManager::new();
        let before0 = st.pod_servers(PodId(0)).len();
        let before1 = st.pod_servers(PodId(1)).len();
        gm.transfer_vacant_servers(&mut st, PodId(1), PodId(0));
        // Bounded to 2 per epoch.
        assert!(gm.counters.server_transfers <= 2);
        assert_eq!(
            st.pod_servers(PodId(0)).len() + st.pod_servers(PodId(1)).len(),
            before0 + before1
        );
        st.assert_invariants();
    }

    #[test]
    fn pod_overload_deploys_into_cold_pod() {
        let mut st = build();
        let now = t0(&st);
        // Saturate pod 0's app0 instance: huge demand, all VMs capped.
        let snap = propagate(&mut st, &[6e9, 0.0], now);
        let utils = snap.pod_utilizations(&st);
        // Force the pod-overload path regardless of measured utils by
        // lowering the threshold.
        let mut cfg = st.config;
        cfg.pod_overload_threshold = utils[0].min(utils[1]).max(0.0) + 1e-9;
        // Ensure there is a cold pod below the underload threshold.
        cfg.pod_underload_threshold = 1.0 - 1e-9;
        // (thresholds must still be ordered)
        if cfg.pod_underload_threshold <= cfg.pod_overload_threshold {
            cfg.pod_overload_threshold = cfg.pod_underload_threshold - 1e-3;
        }
        st.config = cfg;
        let mut gm = GlobalManager::new();
        epoch(&mut gm, &mut st, &snap, now);
        assert!(
            gm.counters.deployments_started > 0 || gm.counters.interpod_weight_adjustments > 0,
            "no pod relief action: {:?}",
            gm.counters
        );
        // Clones complete after the clone latency; their RIPs get bound.
        let t1 = now + SimDuration::from_secs(5);
        st.fleet.complete_transitions(t1);
        let snap2 = propagate(&mut st, &[6e9, 0.0], t1);
        epoch(&mut gm, &mut st, &snap2, t1);
        if gm.counters.deployments_started > 0 {
            assert!(gm.counters.deployments_completed > 0, "{:?}", gm.counters);
            assert!(st.num_rips() > 3, "new RIP bound for the deployment");
        }
        st.assert_invariants();
    }

    /// Retire × transfer race (satellite fix): a retirement must never
    /// drain a VIP's last live RIP, and duplicate retires in one epoch
    /// must be refused.
    #[test]
    fn queue_retire_refuses_last_live_rip() {
        let mut st = build();
        let mut gm = GlobalManager::new();
        let vip = st.app(AppId(1)).unwrap().vips[0];
        let mut entries = Vec::new();
        st.vip_serving_entries_into(vip, &mut entries);
        let (vm, _, _, _) = entries[0];
        assert!(
            !gm.queue_retire(&st, vm),
            "must refuse to drain a VIP's last live RIP"
        );
        // With a second RIP bound, the first can retire — but not both,
        // and not twice.
        let (vm2, _) = st
            .add_instance_running(AppId(1), ServerId(5), vip, 1.0)
            .unwrap();
        assert!(gm.queue_retire(&st, vm));
        assert!(!gm.queue_retire(&st, vm), "duplicate retire same epoch");
        assert!(
            !gm.queue_retire(&st, vm2),
            "the surviving RIP is now the last live one"
        );
        st.assert_invariants();
    }

    /// Retire × transfer race (satellite fix): exposure restored after a
    /// drain must give zero weight to VIPs with no live (non-pending)
    /// RIPs, so restored demand cannot land on a RIP queued for deletion.
    #[test]
    fn restore_exposure_skips_vips_without_live_rips() {
        let mut st = build();
        let mut gm = GlobalManager::new();
        let now = t0(&st);
        let vips = st.app(AppId(0)).unwrap().vips.clone();
        // v01 loses its only instance (server failure): still advertised,
        // zero RIPs.
        st.fail_server(ServerId(2));
        gm.restore_exposure(&mut st, AppId(0), now);
        assert_eq!(
            st.dns.published_shares(AppId(0).dns_key()),
            vec![(vips[0], 1.0)],
            "exposure restored onto a RIP-less VIP"
        );
        // A pending retire on one of v00's two RIPs must not un-expose
        // v00 — one live RIP remains.
        let (vm, _) = st
            .add_instance_running(AppId(0), ServerId(1), vips[0], 1.0)
            .unwrap();
        assert!(gm.queue_retire(&st, vm));
        gm.restore_exposure(&mut st, AppId(0), now);
        assert_eq!(
            st.dns.published_shares(AppId(0).dns_key()),
            vec![(vips[0], 1.0)]
        );
        st.assert_invariants();
    }

    /// Stale-exposure bugfix (satellite fix): when only one VIP of an app
    /// retains serving capacity, capacity exposure must reset DNS to the
    /// survivor instead of early-returning and leaving stale weights that
    /// keep routing demand at the dead VIP — and must not churn
    /// reconfigurations once DNS already matches.
    #[test]
    fn capacity_exposure_resets_to_sole_surviving_vip() {
        let mut st = build();
        let now = t0(&st);
        let vips = st.app(AppId(0)).unwrap().vips.clone();
        // v01 loses its only instance; DNS still splits app0 across both
        // VIPs, so roughly half the demand black-holes (> 5% unserved).
        st.fail_server(ServerId(2));
        let snap = propagate(&mut st, &[2e9, 0.0], now);
        let mut gm = GlobalManager::new();
        epoch(&mut gm, &mut st, &snap, now);
        assert!(
            gm.counters.exposure_updates >= 1,
            "no exposure reset: {:?}",
            gm.counters
        );
        assert_eq!(
            st.dns.published_shares(AppId(0).dns_key()),
            vec![(vips[0], 1.0)],
            "exposure not reset to the surviving VIP"
        );
        // Second epoch: DNS already points at the survivor, so the
        // single-VIP branch must be a no-op (no reconfiguration churn).
        let before = gm.counters.exposure_updates;
        let later = now + st.config.dns.ttl * 2;
        let snap2 = propagate(&mut st, &[2e9, 0.0], later);
        epoch(&mut gm, &mut st, &snap2, later);
        assert_eq!(
            gm.counters.exposure_updates, before,
            "exposure churned while already pointing at the survivor"
        );
        st.assert_invariants();
    }
}

/// The misrouting escape as it ran before the per-app verdict: the whole
/// per-app body once for each triggered VIP, with starvation streaks in an
/// ordered map and every serving-entry read allocating. A test-only
/// reference that [`GlobalManager::escape_misrouting`] is stepped against
/// in lockstep, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    /// The reference pass's own state.
    #[derive(Debug, Default)]
    pub(super) struct ReferenceEscape {
        /// Consecutive epochs each VIP has served less than
        /// `vip_starvation_ratio` of its offered demand.
        starved_epochs: BTreeMap<VipAddr, u32>,
    }

    /// The serving RIP entries of a VIP, allocated per call.
    fn vip_serving_entries(state: &PlatformState, vip: VipAddr) -> Vec<ServingEntry> {
        let mut out = Vec::new();
        state.vip_serving_entries_into(vip, &mut out);
        out
    }

    impl GlobalManager {
        /// Run the reference escape instead of the per-app pass from now on.
        pub(crate) fn use_reference_escape(&mut self) {
            self.reference_escape = Some(ReferenceEscape::default());
        }

        pub(super) fn escape_misrouting_reference(
            &mut self,
            r: &mut ReferenceEscape,
            state: &mut PlatformState,
            snap: &LoadSnapshot,
            now: SimTime,
        ) {
            let cfg = state.config;
            // Update starvation streaks from this epoch's snapshot.
            let mut triggered: Vec<VipAddr> = Vec::new();
            for (vip, &offered) in snap.vip_demand_bps.iter() {
                if offered <= 0.0 {
                    continue;
                }
                let served = snap.vip_served_bps.get(vip).copied().unwrap_or(0.0);
                if served / offered < cfg.vip_starvation_ratio {
                    let streak = r.starved_epochs.entry(vip).or_insert(0);
                    *streak += 1;
                    if *streak >= cfg.vip_starvation_epochs {
                        triggered.push(vip);
                    }
                } else {
                    r.starved_epochs.remove(&vip);
                }
            }
            // VIPs with no demand this epoch are not starved, just idle.
            r.starved_epochs
                .retain(|&v, _| snap.vip_demand_bps.get(v).is_some());

            let pod_utils = self
                .predicted_pod_utils(1)
                .unwrap_or_else(|| snap.pod_utilizations(state));
            let profile = cfg.request_profile;
            for vip in triggered {
                let Ok(rec) = state.vip(vip) else {
                    continue;
                };
                let app = rec.app;
                if self.app_is_draining(state, app) {
                    continue; // the drain owns this app's weights and exposure
                }
                // Spare-capacity gate: corrective rerouting only helps when
                // the app's serving slices could absorb its whole demand —
                // otherwise this is genuine under-provisioning and the
                // deploy/slice knobs are the right tool.
                let vips = state.app(app).expect("listed").vips.clone();
                let demand_cpu = profile
                    .cpu_demand(profile.rps_for_bandwidth(snap.app_demand_bps[app.0 as usize]));
                let capacity_cpu: f64 = vips
                    .iter()
                    .flat_map(|&v| vip_serving_entries(state, v))
                    .filter(|(vm, ..)| !self.pending_retires.contains(vm))
                    .map(|(_, _, _, slice)| slice)
                    .sum();
                if capacity_cpu <= demand_cpu {
                    continue;
                }
                // Corrective actions: water-fill every covered VIP of the app
                // toward slice × predicted-headroom, then refresh exposure
                // capacity-proportionally (no unserved-fraction gate).
                let mut acted = false;
                for &v in &vips {
                    if self.waterfill_vip_reference(state, v, &pod_utils, cfg.reweight_step) {
                        acted = true;
                    }
                }
                let weights: Vec<(VipAddr, f64)> = vips
                    .iter()
                    .map(|&v| (v, self.capacity_weight_reference(state, v)))
                    .collect();
                let exposed_before = state.dns.published_shares(app.dns_key()).len();
                let exposed_after = weights.iter().filter(|&&(_, w)| w > 0.0).count();
                if exposed_after > 0 {
                    state.dns.set_exposure(app.dns_key(), weights, now);
                    self.counters.exposure_updates += 1;
                    acted = true;
                }
                if acted {
                    self.counters.misrouting_escapes += 1;
                    let streak = r.starved_epochs.get(&vip).copied().unwrap_or(0);
                    let offered = snap.vip_demand_bps.get(vip).copied().unwrap_or(0.0);
                    let served = snap.vip_served_bps.get(vip).copied().unwrap_or(0.0);
                    self.recorder
                        .event(
                            Actor::Global,
                            ActionKind::Global(GlobalAction::MisroutingEscape),
                        )
                        .vip(vip.0)
                        .app(app.0)
                        .input("ctl.starved_epochs", streak as f64)
                        .input(
                            "load.served_ratio",
                            if offered > 0.0 { served / offered } else { 0.0 },
                        )
                        .input("vm_fleet.capacity_cpu", capacity_cpu)
                        .input("load.demand_cpu", demand_cpu)
                        .delta(
                            "dns_exposure.vips",
                            exposed_before as f64,
                            exposed_after as f64,
                        )
                        .commit();
                }
            }
        }

        fn capacity_weight_reference(&self, state: &PlatformState, vip: VipAddr) -> f64 {
            let cpu: f64 = vip_serving_entries(state, vip)
                .iter()
                .filter(|&&(vm, _, _, _)| !self.pending_retires.contains(&vm))
                .map(|&(_, _, _, slice)| slice)
                .sum();
            if cpu <= 0.0 {
                return 0.0;
            }
            let sw = &state.switches[state.vip(vip).expect("listed").switch.0 as usize];
            cpu * (1.5 - sw.utilization()).clamp(0.05, 1.5)
        }

        fn waterfill_vip_reference(
            &mut self,
            state: &PlatformState,
            vip: VipAddr,
            pod_utils: &[f64],
            step: f64,
        ) -> bool {
            let entries: Vec<_> = vip_serving_entries(state, vip)
                .into_iter()
                .filter(|(vm, ..)| !self.pending_retires.contains(vm))
                .collect();
            if entries.len() < 2 {
                return false; // nothing to shift between
            }
            let current: Vec<f64> = entries.iter().map(|&(_, _, w, _)| w).collect();
            let capacity: Vec<f64> = entries.iter().map(|&(_, _, _, slice)| slice).collect();
            let utils: Vec<f64> = entries
                .iter()
                .map(|&(_, pod, _, _)| pod_utils.get(pod.index()).copied().unwrap_or(0.0))
                .collect();
            let pressure = headroom_pressure(&capacity, &utils);
            let target = waterfill_weights(&current, &pressure, step);
            let mut reweighted = false;
            let mut applied = current.clone();
            for (i, (&(vm, _, w, _), &nw)) in entries.iter().zip(&target).enumerate() {
                let nw = nw.max(0.01);
                if (nw - w).abs() > 1e-6 * w.abs().max(1.0) {
                    self.viprip
                        .submit(Priority::High, Request::SetWeight { vm, weight: nw });
                    applied[i] = nw;
                    reweighted = true;
                }
            }
            if reweighted {
                let before_max = current.iter().copied().fold(0.0, f64::max);
                let after_max = applied.iter().copied().fold(0.0, f64::max);
                self.recorder
                    .event(Actor::Global, ActionKind::Global(GlobalAction::Reweight))
                    .vip(vip.0)
                    .input("switch_vip_table.weight_total", current.iter().sum())
                    .input("vm_fleet.slice_total", capacity.iter().sum())
                    .input(
                        "forecast.pod_util_max",
                        utils.iter().copied().fold(0.0, f64::max),
                    )
                    .input("cfg.reweight_step", step)
                    .delta("rip_weights.max", before_max, after_max)
                    .commit();
            }
            reweighted
        }
    }

    mod tests {
        use crate::config::PlatformConfig;
        use crate::platform::Platform;
        use dcsim::SimDuration;
        use lbswitch::SwitchId;
        use vmm::ServerId;
        use workload::FlashCrowd;

        /// What the two platforms must agree on after every epoch.
        #[derive(Debug, PartialEq)]
        struct Observed {
            submitted: Vec<String>,
            events: Vec<String>,
            counters: super::KnobCounters,
            dns_reconfigurations: u64,
            shares: Vec<Vec<(u32, u64)>>,
        }

        fn observe(p: &mut Platform) -> Observed {
            let now = p.now();
            let shares = p
                .state
                .apps()
                .iter()
                .map(|a| {
                    p.state
                        .dns
                        .effective_shares(a.id.dns_key(), now)
                        .iter()
                        .map(|&(v, s)| (v.0, s.to_bits()))
                        .collect()
                })
                .collect();
            Observed {
                submitted: std::mem::take(p.global.viprip.submitted.as_mut().expect("logging")),
                events: p
                    .global
                    .recorder
                    .take_events()
                    .iter()
                    .map(|e| e.to_json_line())
                    .collect(),
                counters: p.global.counters,
                dns_reconfigurations: p.state.dns.reconfigurations(),
                shares,
            }
        }

        /// How much of the escape a lockstep run exercised.
        #[derive(Debug, Default)]
        struct Coverage {
            escapes: usize,
            /// Epochs in which some app escaped for two or more VIPs.
            replays: usize,
            /// Escape events whose `dns_exposure.vips` before differs from
            /// the first escape of the same app that epoch.
            moved_before: usize,
            /// Epochs with an escape while a VIP drain was open.
            with_drain: usize,
        }

        /// Step `fast` (the per-app pass) and `reference` (the per-VIP pass)
        /// together, comparing after every epoch.
        fn lockstep(
            cfg: PlatformConfig,
            warmup: u64,
            epochs: u64,
            inject: impl Fn(&mut Platform),
        ) -> Coverage {
            let mut fast = Platform::build(cfg).unwrap();
            let mut reference = Platform::build(cfg).unwrap();
            reference.global.use_reference_escape();
            for p in [&mut fast, &mut reference] {
                p.global.viprip.submitted = Some(Vec::new());
                p.run_epochs(warmup);
                inject(p);
            }
            let mut cov = Coverage::default();
            for epoch in 0..epochs {
                fast.step();
                reference.step();
                let (f, r) = (observe(&mut fast), observe(&mut reference));
                assert_eq!(f.submitted, r.submitted, "queued requests, epoch {epoch}");
                assert_eq!(f.events, r.events, "event log, epoch {epoch}");
                assert_eq!(f.counters, r.counters, "knob counters, epoch {epoch}");
                assert_eq!(
                    f.dns_reconfigurations, r.dns_reconfigurations,
                    "epoch {epoch}"
                );
                assert_eq!(f.shares, r.shares, "DNS effective shares, epoch {epoch}");
                let escapes: Vec<obs::Event> = f
                    .events
                    .iter()
                    .map(|l| obs::Event::from_json(l).unwrap())
                    .filter(|e| e.kind.key() == "MisroutingEscape")
                    .collect();
                cov.escapes += escapes.len();
                let mut first_before = std::collections::BTreeMap::new();
                let mut replayed = false;
                for e in &escapes {
                    let before = e.delta[0].1;
                    match first_before.get(&e.app) {
                        None => {
                            first_before.insert(e.app, before);
                        }
                        Some(&b) => {
                            replayed = true;
                            cov.moved_before += usize::from(b != before);
                        }
                    }
                }
                cov.replays += usize::from(replayed);
                cov.with_drain +=
                    usize::from(!escapes.is_empty() && !fast.global.draining_vips().is_empty());
            }
            cov
        }

        /// `churn-1k` with a fifth of its apps but all of its demand: three LB
        /// switches, the proactive plane and diurnal demand. Switch 0 fails
        /// after warm-up, overloading the two left, and flash crowds hit
        /// every 7th app by popularity.
        #[test]
        fn escape_matches_reference_on_a_churn_miniature() {
            let apps = 200;
            let mut cfg = PlatformConfig::paper_scale();
            cfg.seed = 4201;
            cfg.num_apps = apps;
            cfg.num_servers = apps;
            cfg.initial_instances_per_app = 2;
            cfg.num_switches = 3;
            cfg.initial_pods = 1;
            cfg.total_demand_bps = 6.0e9;
            cfg.diurnal_amplitude = 0.4;
            cfg.diurnal_period = SimDuration::from_secs(1200);
            cfg.elastic = elastic::ElasticConfig::proactive();
            let cov = lockstep(cfg, 2, 40, |p| {
                p.inject_switch_failure(SwitchId(0)).unwrap();
                let by_pop = p.workload.apps_by_popularity();
                for i in 0..4 {
                    let start = p.now() + SimDuration::from_secs(10 + 30 * i as u64);
                    p.workload.add_flash_crowd(FlashCrowd {
                        app: by_pop[7 * i],
                        start,
                        ramp: SimDuration::from_secs(60),
                        duration: SimDuration::from_secs(600),
                        peak: 6.0,
                    });
                }
            });
            assert!(cov.replays > 0 && cov.with_drain > 0, "{cov:?}");
        }

        /// E17's flash-crowd scenario, proactive plane on.
        #[test]
        fn escape_matches_reference_on_the_e17_scenario() {
            let mut cfg = PlatformConfig::small_test();
            cfg.seed = 1616;
            cfg.total_demand_bps = 0.5e9;
            cfg.diurnal_amplitude = 0.0;
            cfg.elastic = elastic::ElasticConfig::proactive();
            let cov = lockstep(cfg, 10, 60, |p| {
                let victim = p.workload.apps_by_popularity()[0];
                p.workload.add_flash_crowd(FlashCrowd {
                    app: victim,
                    start: p.now() + SimDuration::from_secs(20),
                    ramp: SimDuration::from_secs(300),
                    duration: SimDuration::from_secs(1800),
                    peak: 8.0,
                });
            });
            assert!(cov.escapes > 0, "{cov:?}");
        }

        /// `small_test` driven hot enough that a switch drain opens while VIPs
        /// starve: the escape must skip draining apps exactly as before.
        #[test]
        fn escape_matches_reference_with_a_drain_open() {
            let mut cfg = PlatformConfig::small_test();
            cfg.seed = 1;
            cfg.total_demand_bps = 8e9;
            let cov = lockstep(cfg, 2, 40, |p| {
                p.inject_switch_failure(SwitchId(1)).unwrap();
            });
            assert!(cov.with_drain > 0 && cov.escapes > 0, "{cov:?}");
        }

        /// With capacity-proportional exposure off, the escape is the only
        /// knob that drops a VIP without capacity from DNS, so the first
        /// escape of an app changes the published VIP count its later VIPs
        /// read.
        #[test]
        fn escape_matches_reference_when_it_changes_the_published_count() {
            let mut cfg = PlatformConfig::small_test();
            cfg.seed = 1;
            cfg.total_demand_bps = 4e9;
            cfg.knobs.capacity_exposure = false;
            let cov = lockstep(cfg, 2, 40, |p| {
                p.inject_switch_failure(SwitchId(1)).unwrap();
                p.inject_server_failure(ServerId(3)).unwrap();
            });
            assert!(cov.replays > 0 && cov.moved_before > 0, "{cov:?}");
        }
    }
}
