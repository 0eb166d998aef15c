//! The assembled platform: builder + control-epoch loop.
//!
//! [`Platform::build`] constructs the Figure-1 system from a
//! [`PlatformConfig`]: the fleet is dealt into logical pods, every
//! application gets its VIPs (popular apps get more, §IV.A) allocated
//! through the VIP/RIP manager's policies, VIPs are advertised across the
//! access routers, initial instances are placed round-robin across pods,
//! and DNS exposes every VIP with equal weight.
//!
//! [`Platform::step`] then advances one control epoch:
//!
//! 1. complete in-flight VM transitions (boots, clones, migrations);
//! 2. propagate the workload's demand down the stack ([`crate::demand`]);
//! 3. run every pod manager against the same state and snapshot — each
//!    decides over its own pod only, the paper's hierarchical-scalability
//!    argument (§III.A) — and then apply their plans (slice adjustments,
//!    instance starts/stops, weight requests) in pod-index order;
//! 4. run the global manager's knobs (§IV) and the serialized VIP/RIP
//!    queue (§III.C);
//! 5. bind RIPs for newly running instances and scrape the metrics
//!    registry.
//!
//! Per-epoch scratch (the demand vector, the snapshot buffers,
//! propagation's and pod rounds' buffers) lives in [`Platform`] and is
//! reused across epochs, so the fluid step allocates only when the platform
//! itself grows. Each pod manager keeps its last round and reuses its
//! plan while the pod's inputs stay the same.

use crate::config::PlatformConfig;
use crate::demand::{propagate_into, LoadSnapshot, PropagateScratch};
use crate::global::GlobalManager;
use crate::ids::{AppId, PodId};
use crate::pod::{PodManager, PodPlan, RoundScratch};
use crate::profclock::PhaseClock;
use crate::state::PlatformState;
use crate::viprip::{Priority, Request, Response};
use dcnet::access::AccessLinkId;
use dcsim::SimTime;
use elastic::{AppObservation, ElasticController, KnobRequest, ProposedAction};
use lbswitch::SwitchId;
use obs::metrics::{ids as mid, Registry, SloScore, SloTracker};
use obs::profile::{phase_index, PhaseProfiler};
use obs::{ActionKind, Actor};
use std::collections::BTreeMap;
use vmm::{ServerId, VmId, VmState};
use workload::Workload;

/// Summary of a multi-epoch run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Epochs executed.
    pub epochs: u64,
    /// Served fraction in the final epoch.
    pub final_served_fraction: f64,
    /// Mean of the per-epoch served fractions over the epochs of this
    /// [`Platform::run_epochs`] call (the final value when it ran none).
    pub mean_served_fraction: f64,
    /// Final max link utilization.
    pub final_link_util_max: f64,
    /// Final max switch utilization.
    pub final_switch_util_max: f64,
    /// Final max pod utilization.
    pub final_pod_util_max: f64,
}

/// Per-epoch scratch reused across [`Platform::step`] calls: the demand
/// vector, the snapshot being filled (swapped with `last_snapshot` at
/// epoch end), propagation's lookup buffers and the buffers a pod round
/// reads its pod into.
#[derive(Debug, Default)]
struct EpochScratch {
    demands: Vec<f64>,
    snap: LoadSnapshot,
    propagate: PropagateScratch,
    pod_round: RoundScratch,
}

/// The assembled mega-data-center platform.
#[derive(Debug)]
pub struct Platform {
    /// All component state.
    pub state: PlatformState,
    /// The demand generator.
    pub workload: Workload,
    /// The global manager (owns the VIP/RIP queue and knob counters).
    pub global: GlobalManager,
    /// The deterministic metrics registry — the platform's only metrics
    /// store. Actuation counters are added where the actuation happens;
    /// everything else is scraped at epoch close. Export via
    /// [`Registry::render_text`].
    pub registry: Registry,
    /// The wall-time phase profiler (always on; quarantined from every
    /// deterministic output — feeds E19 and `obs report --bench`).
    pub profiler: PhaseProfiler,
    /// Per-epoch SLO scorer (its `slo.*` outputs fold into the
    /// `EpochHealth` event and the `megadc_slo_*` metrics).
    slo: SloTracker,
    pod_managers: Vec<PodManager>,
    now: SimTime,
    epochs: u64,
    /// Per-epoch scratch buffers, reused across epochs.
    scratch: EpochScratch,
    /// The most recent load snapshot (meaningful once `epochs > 0`;
    /// double-buffered against `scratch.snap` so epochs never clone it).
    last_snapshot: LoadSnapshot,
    /// The proactive control plane (None when `config.elastic.enabled`
    /// is false — the reactive-only baseline).
    elastic: Option<ElasticController>,
    /// Epoch of each app's most recent scale-out (pod-plan instance
    /// start or proactive deploy), for the reactive scale-in cooldown.
    last_scale_out: BTreeMap<u32, u64>,
    /// The fabric's switch reconfiguration count at the last queue drain,
    /// if that drain processed no request (every pod weight request was
    /// unchanged); `None` otherwise. The next drain is *settled*, and
    /// reuses those verdicts, when no pod round solved and no elephant
    /// relief moved a server in its epoch and the count is still this.
    /// A pod request's verdict reads four things, none of which can then
    /// have changed: (1) its VIP's switch entry list, which every switch
    /// table write bumps the count for; (2) the RIP ↔ VM records, which
    /// change only with an entry write; (3) VM locations and server → pod
    /// membership, which reused rounds certify for every pod at planning
    /// (healthy servers, their VMs, the pod's VM count), and which only
    /// elephant relief moves between planning and the drain; (4) the
    /// request's weights, which come from the same stored plans.
    weights_settled: Option<u64>,
}

impl Platform {
    /// Build a platform from a config. Returns `Err` with a description if
    /// the config is invalid or initial placement cannot fit.
    pub fn build(config: PlatformConfig) -> Result<Self, String> {
        config.validate()?;
        let mut state = PlatformState::new(config);
        let workload = Workload::generate(config.workload_config());
        let mut global = GlobalManager::new();
        global.recorder.set_capacity(config.event_ring_capacity);
        let t0 = SimTime::ZERO;

        // Popularity ranks: position of each app in the sorted-by-demand
        // order.
        let by_pop = workload.apps_by_popularity();
        let mut rank_of = vec![0usize; config.num_apps];
        for (rank, &app) in by_pop.iter().enumerate() {
            rank_of[app as usize] = rank;
        }

        // Register apps and allocate their VIPs through the §III.C policy.
        for (a, &rank) in rank_of.iter().enumerate() {
            let app = state.register_app(rank);
            debug_assert_eq!(app.0 as usize, a);
            for _ in 0..config.vips_for_rank(rank) {
                global
                    .viprip
                    .submit(Priority::Normal, Request::NewVip { app });
            }
        }
        for (req, resp) in global.viprip.process_all(&mut state) {
            match (req, resp) {
                (Request::NewVip { .. }, Response::VipAllocated(..)) => {}
                (req, resp) => return Err(format!("VIP allocation failed: {req:?} -> {resp:?}")),
            }
        }

        // Advertise VIPs: spread each app's VIPs across distinct access
        // routers (selective exposure: one router per VIP), balancing
        // total advertisements per router.
        let n_routers = state.access.num_access_routers();
        let mut adverts_per_router = vec![0usize; n_routers];
        let app_vips: Vec<(AppId, Vec<lbswitch::VipAddr>)> = state
            .apps()
            .iter()
            .map(|a| (a.id, a.vips.clone()))
            .collect();
        for (_app, vips) in &app_vips {
            let mut used = Vec::new();
            for &vip in vips {
                // Least-loaded router not already used by this app (when
                // possible).
                let router = (0..n_routers)
                    .filter(|r| !used.contains(r) || used.len() >= n_routers)
                    .min_by_key(|&r| adverts_per_router[r])
                    .ok_or("no access router to advertise VIPs at")?;
                adverts_per_router[router] += 1;
                used.push(router);
                state
                    .advertise_vip(vip, dcnet::access::AccessRouterId(router as u32), t0)
                    .map_err(|e| format!("advertising {vip} failed: {e}"))?;
            }
        }

        // Initial instances: deal apps' instances round-robin across pods,
        // first-fit server within the pod; bind RIPs via the §III.C
        // policy.
        let num_pods = state.num_pods();
        let mut vm_queue: Vec<(AppId, VmId)> = Vec::new();
        for (i, (app, _)) in app_vips.iter().enumerate() {
            for inst in 0..config.initial_instances_per_app {
                let pod = PodId(((i + inst) % num_pods) as u32);
                // The first server that fits, or the first lookup error.
                let server = state
                    .pod_servers(pod)
                    .iter()
                    .map(|&s| state.fleet.server(s))
                    .find(|srv| {
                        srv.as_ref().map_or(true, |srv| {
                            srv.fits(config.vm_cpu_slice, config.vm_mem_mb).is_ok()
                        })
                    })
                    .ok_or_else(|| format!("no capacity in {pod} for initial instance of {app}"))?
                    .map_err(|e| format!("initial placement failed: {e}"))?
                    .id();
                let vm = state
                    .fleet
                    .create_vm_running(server, app.0, config.vm_cpu_slice, config.vm_mem_mb)
                    .map_err(|e| format!("initial placement failed: {e}"))?;
                vm_queue.push((*app, vm));
            }
        }
        for (app, vm) in vm_queue {
            global.viprip.submit(
                Priority::Normal,
                Request::NewRip {
                    app,
                    vm,
                    weight: 1.0,
                },
            );
        }
        for (req, resp) in global.viprip.process_all(&mut state) {
            if let Response::Failed(msg) = resp {
                return Err(format!("initial RIP binding failed: {req:?}: {msg}"));
            }
        }

        // Expose each app's *covered* VIPs equally. VIPs with no RIPs yet
        // are unused spares (§IV.A) and stay out of DNS until an instance
        // backs them.
        for (app, vips) in &app_vips {
            let weights: Vec<(lbswitch::VipAddr, f64)> = vips
                .iter()
                .map(|&v| (v, if state.vip_rip_count(v) > 0 { 1.0 } else { 0.0 }))
                .collect();
            state.dns.set_exposure(app.dns_key(), weights, t0);
        }

        let pod_managers = (0..state.num_pods())
            .map(|p| PodManager::new(PodId(p as u32)))
            .collect();
        // Start the clock after route convergence so epoch 0 sees live
        // routes (the build happened "yesterday").
        let now = t0 + config.route_convergence;

        // Proactive plane: warm each app's predictor with the demand
        // history between t0 and now (the platform existed before epoch
        // 0), so forecasts are live from the first epoch.
        let elastic = config.elastic.enabled.then(|| {
            let mut ctl = ElasticController::new(config.num_apps);
            let epoch_s = config.epoch.as_secs_f64();
            let history = ((now.since(t0).as_secs_f64() / epoch_s).floor() as usize).min(8);
            if history > 0 {
                let start = now - config.epoch * history as u64;
                let profile = config.request_profile;
                for app in 0..config.num_apps as u32 {
                    let series: Vec<f64> = workload
                        .demand_series(app, start, config.epoch, history)
                        .into_iter()
                        .map(|bps| profile.cpu_demand(profile.rps_for_bandwidth(bps)))
                        .collect();
                    ctl.warm_up(app, &series);
                }
            }
            ctl
        });
        Ok(Platform {
            state,
            workload,
            global,
            registry: Registry::new(),
            profiler: PhaseProfiler::new(),
            slo: SloTracker::default(),
            pod_managers,
            now,
            epochs: 0,
            scratch: EpochScratch::default(),
            last_snapshot: LoadSnapshot::default(),
            elastic,
            last_scale_out: BTreeMap::new(),
            weights_settled: None,
        })
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Epochs executed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs
    }

    /// The most recent load snapshot (None before the first step).
    pub fn last_snapshot(&self) -> Option<&LoadSnapshot> {
        (self.epochs > 0).then_some(&self.last_snapshot)
    }

    /// Pod rounds solved with the Tang controller since build. A round
    /// whose inputs matched its manager's last round reuses that plan and
    /// is not counted. A function of sim state only, kept out of the
    /// metrics registry so its export and every digest of it stay as
    /// they were.
    pub fn pod_rounds_solved(&self) -> u64 {
        self.pod_managers
            .iter()
            .map(PodManager::rounds_solved)
            .sum()
    }

    /// Switch reconfigurations across the fabric since build.
    fn switch_reconfigurations(&self) -> u64 {
        self.state
            .switches
            .iter()
            .map(|sw| sw.reconfigurations())
            .sum()
    }

    /// Give every pod a manager (idempotent). Pods appear mid-epoch —
    /// elephant relief splits pods during the global epoch, and
    /// [`PlatformState::create_pod`] can be driven externally — and a pod
    /// without a manager silently skips planning rounds; both call sites
    /// in [`Platform::step`] funnel here so a pod created at *any* point
    /// plans on the next pod-manager round.
    fn sync_pod_managers(&mut self) {
        for p in self.pod_managers.len()..self.state.num_pods() {
            self.pod_managers.push(PodManager::new(PodId(p as u32)));
        }
    }

    /// Advance one control epoch; returns the epoch's load snapshot.
    pub fn step(&mut self) -> &LoadSnapshot {
        self.now += self.state.config.epoch;
        let now = self.now;
        // Stamp the flight recorder: every event committed until the next
        // `begin_epoch` carries this epoch index and sim-clock time.
        self.global.recorder.begin_epoch(self.epochs, now);
        // Per-phase spans: lap boundaries sit on the declared phase
        // seams, so the profiler's totals line up with the effect sets
        // in `obs::phases`. Span handles resolve by phase id; a rename
        // there degrades to a silently-dropped span, never a panic.
        let span = |id: &str| phase_index(id).unwrap_or(usize::MAX);
        let mut clock = PhaseClock::start();
        self.state.fleet.complete_transitions(now);

        // Demand for this epoch (scratch vector reused across epochs).
        let num_apps = self.state.config.num_apps as u32;
        let demands = &mut self.scratch.demands;
        demands.clear();
        let workload = &self.workload;
        demands.extend((0..num_apps).map(|a| workload.demand_bps(a, now)));
        self.profiler.record(span("demand-fill"), clock.lap());
        let mut snap = std::mem::take(&mut self.scratch.snap);
        let timing = propagate_into(
            &mut self.state,
            &self.scratch.demands,
            now,
            &mut snap,
            &mut self.scratch.propagate,
        );
        self.profiler.record(span("demand-route"), timing.route_s);
        self.profiler
            .record(span("demand-switch-reset"), timing.switch_reset_s);
        self.profiler.record(span("demand-serve"), timing.serve_s);
        let _ = clock.lap(); // propagation time is attributed above

        // Pod managers decide — one Tang-controller run per pod over its
        // own servers, the bounded decision space of §III.A, reused when
        // the pod's inputs did not change. Every plan is computed against
        // the same state and snapshot before any is applied, in pod-index
        // order below.
        self.sync_pod_managers();
        let solved = self.pod_rounds_solved();
        let mut managers = std::mem::take(&mut self.pod_managers);
        for pm in &mut managers {
            pm.replan(&self.state, &snap, &mut self.scratch.pod_round);
        }
        self.profiler.record(span("pod-planning"), clock.lap());
        for pm in &managers {
            self.apply_pod_plan(pm.current_plan(), now);
        }
        self.pod_managers = managers;
        self.profiler.record(span("plan-application"), clock.lap());

        // Proactive plane (when enabled): forecast next epochs' demand
        // and actuate ahead of it. Runs before the global epoch so its
        // VIP/RIP submissions ride this epoch's serialized queue.
        self.proactive_phase(&snap, now);
        self.profiler.record(span("proactive-pass"), clock.lap());

        // Global knobs, then the serialized VIP/RIP queue, as two phases
        // so knob time and queue time profile apart.
        let evictions = self.global.counters.elephant_evictions;
        self.global.epoch_knobs(&mut self.state, &snap, now);
        self.profiler.record(span("global-knobs"), clock.lap());
        let reconfigs = self.switch_reconfigurations();
        let settled = self.weights_settled == Some(reconfigs)
            && self.pod_rounds_solved() == solved
            && self.global.counters.elephant_evictions == evictions;
        let quiet = self.global.drain_queue(&mut self.state, settled);
        self.weights_settled = quiet.then_some(reconfigs);
        self.profiler.record(span("queue-drain"), clock.lap());

        // Bind RIPs for instances that came online without one (pod-plan
        // starts and completed deployments race the queue; this sweep is
        // idempotent).
        let rips_bound = self.bind_missing_rips();
        self.profiler.record(span("rip-bind"), clock.lap());

        // Pods may have been created during the global epoch (elephant
        // relief): give them managers immediately so they plan next round.
        self.sync_pod_managers();

        // The epoch's headline load levels.
        let link_max = max_of(&snap.link_utilizations(&self.state));
        let switch_max = max_of(&snap.switch_utilizations(&self.state));
        let pod_max = max_of(&snap.pod_utilizations(&self.state));
        let served = snap.served_fraction();

        // Score the epoch against the served-fraction SLO. The inputs
        // (reconfig totals, the recorder's cumulative flip-flop count)
        // are sim-state, so the score is deterministic.
        let reconfigs = self.switch_reconfigurations();
        let slo = self
            .slo
            .score_epoch(served, reconfigs, self.global.recorder.flipflops());

        // Close the epoch in the flight recorder: one health event rolling
        // up per-kind action counts plus the epoch's headline load levels
        // and the SLO score.
        let ring_dropped = self.global.recorder.dropped();
        self.global.recorder.emit_epoch_health(&[
            ("load.served_fraction", served),
            ("load.link_util_max", link_max),
            ("load.switch_util_max", switch_max),
            ("load.pod_util_max", pod_max),
            ("switch_vip_table.reconfigs", reconfigs as f64),
            ("ctl.ring_dropped", ring_dropped as f64),
            ("slo.overload_epochs", slo.overload_epochs as f64),
            ("slo.relief_epochs", slo.relief_epochs as f64),
            ("slo.reconfig_churn", slo.reconfig_churn as f64),
            ("slo.flipflops", slo.flipflops as f64),
        ]);

        // Scrape the metrics registry (the declared `Metrics` write of
        // the `epoch-close` phase).
        self.scrape_registry(
            &snap,
            now,
            (link_max, switch_max, pod_max, served),
            reconfigs,
            rips_bound,
            slo,
        );
        self.profiler.record(span("epoch-close"), clock.lap());
        self.profiler.end_epoch();

        self.epochs += 1;
        // Double-buffer: this epoch's snapshot becomes `last_snapshot`,
        // and the previous one's allocations become next epoch's scratch.
        std::mem::swap(&mut self.last_snapshot, &mut snap);
        self.scratch.snap = snap;
        &self.last_snapshot
    }

    /// Refresh the registry instruments read from sim state. Counters come
    /// from cumulative sources (recorder totals, knob counters) via the
    /// monotone `set_counter`, so the scrape is idempotent; gauges and
    /// histograms reflect this epoch. The actuation counters are not
    /// scraped: they are added where the actuation happens.
    fn scrape_registry(
        &mut self,
        snap: &LoadSnapshot,
        now: SimTime,
        maxima: (f64, f64, f64, f64),
        reconfigs: u64,
        rips_bound: u64,
        slo: SloScore,
    ) {
        let (link_max, switch_max, pod_max, served) = maxima;
        let link_utils = snap.link_utilizations(&self.state);
        let pod_utils = snap.pod_utilizations(&self.state);
        let mape = self.forecast_mape();
        let r = &mut self.registry;
        r.stamp(self.epochs, now.as_micros());
        r.set_gauge(mid::OFFERED_BPS, snap.total_demand_bps());
        let active = snap.app_demand_bps.iter().filter(|&&d| d > 0.0).count();
        r.set_gauge(mid::APPS_ACTIVE, active as f64);
        r.set_gauge(mid::LINK_UTIL_MAX, link_max);
        for &u in &link_utils {
            r.observe(mid::LINK_UTIL, u);
        }
        r.set_gauge(mid::SWITCH_UTIL_MAX, switch_max);
        r.set_gauge(mid::SERVED_FRACTION, served);
        r.set_gauge(mid::UNSERVED_BPS, snap.total_unserved_bps());
        r.set_gauge(mid::POD_UTIL_MAX, pod_max);
        for &u in &pod_utils {
            r.observe(mid::POD_UTIL, u);
        }
        let rec = &self.global.recorder;
        r.set_counter(mid::POD_PLANS, rec.total_count(ActionKind::PodPlan));
        if let Some(mape) = mape {
            r.set_gauge(mid::FORECAST_MAPE, mape);
        }
        for (i, action) in obs::footprint::ALL_ACTIONS.iter().enumerate() {
            r.set_counter(
                mid::GLOBAL_ACTIONS_BASE + i,
                rec.total_count(ActionKind::Global(*action)),
            );
        }
        r.set_counter(mid::QUEUE_APPLIES, rec.total_count(ActionKind::QueueApply));
        r.set_counter(
            mid::WEIGHT_REQUESTS_UNCHANGED,
            self.global.viprip.unchanged(),
        );
        r.add(mid::RIPS_BOUND, rips_bound);
        r.add(mid::EPOCHS, 1);
        r.set_counter(mid::SWITCH_RECONFIGS, reconfigs);
        r.set_counter(
            mid::DNS_EXPOSURE_UPDATES,
            self.global.counters.exposure_updates,
        );
        r.set_counter(mid::OBS_RING_DROPPED, rec.dropped());
        r.set_counter(mid::OBS_SINK_ERRORS, rec.sink_errors());
        r.set_counter(mid::SLO_OVERLOAD_EPOCHS, slo.overload_epochs);
        r.set_gauge(mid::SLO_RELIEF_EPOCHS, slo.relief_epochs as f64);
        r.set_gauge(mid::SLO_RECONFIG_CHURN, slo.reconfig_churn as f64);
        r.set_counter(mid::SLO_FLIPFLOPS, slo.flipflops);
    }

    /// Mean absolute percentage error of the proactive one-step demand
    /// forecasts so far (None when disabled or before the second epoch).
    pub fn forecast_mape(&self) -> Option<f64> {
        self.elastic.as_ref().and_then(|c| c.mape())
    }

    /// One epoch of the proactive control plane: observe → forecast →
    /// autoscale → arbitrate → actuate. No-op when disabled.
    fn proactive_phase(&mut self, snap: &LoadSnapshot, now: SimTime) {
        if self.elastic.is_none() {
            return;
        }
        let cfg = self.state.config;
        let profile = cfg.request_profile;

        // Observe every app in one fleet sweep: provisioned capacity,
        // instance counts (booting clones included, so in-flight
        // scale-outs are not repeated), and the largest current slice.
        let num_apps = cfg.num_apps;
        let mut capacity = vec![0.0f64; num_apps];
        let mut instances = vec![0u32; num_apps];
        let mut top_slice = vec![0.0f64; num_apps];
        for server in self.state.fleet.servers() {
            for vm in server.vms() {
                let a = vm.app as usize;
                instances[a] += 1;
                if vm.state.serves_traffic() {
                    capacity[a] += vm.cpu_slice;
                }
                top_slice[a] = top_slice[a].max(vm.cpu_slice);
            }
        }
        let observations: Vec<AppObservation> = (0..num_apps)
            .map(|a| AppObservation {
                demand: profile.cpu_demand(profile.rps_for_bandwidth(snap.app_demand_bps[a])),
                capacity: capacity[a],
                instances: instances[a],
                slice: if top_slice[a] > 0.0 {
                    top_slice[a]
                } else {
                    cfg.vm_cpu_slice
                },
                min_slice: cfg.vm_cpu_slice,
                max_slice: cfg.vm_max_cpu_slice,
            })
            .collect();

        let actions = self
            .elastic
            .as_mut()
            .expect("checked above")
            .tick(&observations);
        if actions.is_empty() {
            return;
        }
        let pod_utils = snap.pod_utilizations(&self.state);
        for req in actions {
            self.apply_proactive(req, &pod_utils, now);
        }
    }

    /// Actuate one arbitrated proactive action through the same
    /// mechanisms the reactive knobs use. The whole [`KnobRequest`] is
    /// taken (not just its action) so the flight-recorder events carry
    /// the arbiter's urgency and cost — the decision inputs an `explain`
    /// of a proactive scale event needs.
    fn apply_proactive(&mut self, req: KnobRequest, pod_utils: &[f64], now: SimTime) {
        let (urgency, cost) = (req.urgency, req.cost);
        match req.action {
            // §IV.F ahead of time: water-fill the app's RIP weights
            // toward slice × predicted-headroom targets across *all*
            // covered pods (the same law the global manager's pod relief
            // and misrouting escape use). The law conserves each VIP's
            // total weight, so the app's inter-pod traffic split encoded
            // in the absolute weights survives, and its fixed point makes
            // repeated application convergent rather than oscillatory.
            ProposedAction::Reweight { app } => {
                let utils = self
                    .global
                    .predicted_pod_utils(1)
                    .unwrap_or_else(|| pod_utils.to_vec());
                let step = self.state.config.reweight_step;
                if self
                    .global
                    .waterfill_app(&self.state, AppId(app), &utils, step)
                {
                    self.registry.add(mid::PROACTIVE_REWEIGHT, 1);
                    self.global
                        .recorder
                        .event(Actor::Elastic, ActionKind::ProactiveReweight)
                        .app(app)
                        .input("forecast.urgency", urgency)
                        .input("ctl.cost", cost)
                        .input("cfg.reweight_step", step)
                        .commit();
                }
            }
            // §IV.E ahead of time: walk every serving instance toward the
            // target slice (transient failures replan next epoch).
            ProposedAction::SliceAdjust { app, target_slice } => {
                let mut adjusted = 0u64;
                for vm in self.state.fleet.vms_of_app(app) {
                    let Ok(rec) = self.state.fleet.vm(vm) else {
                        continue;
                    };
                    if !rec.state.serves_traffic() || (rec.cpu_slice - target_slice).abs() < 1e-9 {
                        continue;
                    }
                    if self.state.fleet.adjust_slice(vm, target_slice).is_ok() {
                        adjusted += 1;
                    }
                }
                self.registry.add(mid::PROACTIVE_SLICE, adjusted);
                if adjusted > 0 {
                    self.global
                        .recorder
                        .event(Actor::Elastic, ActionKind::SliceAdjust)
                        .app(app)
                        .input("forecast.urgency", urgency)
                        .input("ctl.cost", cost)
                        .input("cfg.target_slice", target_slice)
                        .delta("vm_fleet.slices_adjusted", 0.0, adjusted as f64)
                        .commit();
                }
            }
            // §IV.D ahead of time: clone into the coldest pods with room.
            // The clone boots asynchronously; `bind_missing_rips` brings
            // it into service the epoch it turns Running.
            ProposedAction::Deploy { app, instances } => {
                let Some(src) = self.state.fleet.vms_of_app(app).into_iter().find(|&v| {
                    matches!(
                        self.state.fleet.vm(v).map(|x| x.state),
                        Ok(VmState::Running)
                    )
                }) else {
                    return;
                };
                let mut pods: Vec<usize> = (0..pod_utils.len()).collect();
                pods.sort_by(|&a, &b| {
                    pod_utils[a]
                        .partial_cmp(&pod_utils[b])
                        .expect("finite")
                        .then(a.cmp(&b))
                });
                let spec_cpu = self.state.config.vm_cpu_slice;
                let mem = self.state.config.vm_mem_mb;
                let mut remaining = instances;
                'pods: for p in pods {
                    for srv in self.state.pod_servers(PodId(p as u32)).to_vec() {
                        if remaining == 0 {
                            break 'pods;
                        }
                        if !self.state.server_healthy(srv)
                            || self
                                .state
                                .fleet
                                .server(srv)
                                .expect("valid")
                                .fits(spec_cpu, mem)
                                .is_err()
                        {
                            continue;
                        }
                        if self.state.fleet.clone_vm(src, srv, now).is_ok() {
                            remaining -= 1;
                        }
                    }
                }
                let deployed = instances - remaining;
                self.registry.add(mid::PROACTIVE_DEPLOY, deployed as u64);
                if deployed > 0 {
                    self.last_scale_out.insert(app, self.epochs);
                    self.global
                        .recorder
                        .event(Actor::Elastic, ActionKind::ProactiveDeploy)
                        .app(app)
                        .input("forecast.urgency", urgency)
                        .input("ctl.cost", cost)
                        .input("ctl.requested_instances", instances as f64)
                        .delta("vm_fleet.clones_started", 0.0, deployed as f64)
                        .commit();
                }
            }
            // Scale-in: retire the newest serving instances first (they
            // are the spike surplus), serialized through the global
            // manager's retire queue. `queue_retire` both refuses to
            // drain a VIP's last live RIP (DNS keeps routing demand to
            // the VIP, which would black-hole it) and registers the VM so
            // exposure decisions later this epoch — a VIP transfer's
            // restore in particular — don't count the doomed RIP as
            // serving capacity.
            ProposedAction::Retire { app, instances } => {
                let mut candidates: Vec<VmId> = self
                    .state
                    .fleet
                    .vms_of_app(app)
                    .into_iter()
                    .filter(|&v| {
                        matches!(
                            self.state.fleet.vm(v).map(|x| x.state),
                            Ok(VmState::Running)
                        ) && self.state.rip_of_vm(v).is_some()
                    })
                    .collect();
                candidates.sort_by_key(|v| std::cmp::Reverse(v.0));
                let mut remaining = instances as usize;
                for vm in candidates {
                    if remaining == 0 {
                        break;
                    }
                    if self.global.queue_retire(&self.state, vm) {
                        remaining -= 1;
                    }
                }
                let retired = instances as usize - remaining;
                self.registry.add(mid::PROACTIVE_RETIRE, retired as u64);
                if retired > 0 {
                    self.global
                        .recorder
                        .event(Actor::Elastic, ActionKind::ProactiveRetire)
                        .app(app)
                        .input("forecast.urgency", urgency)
                        .input("ctl.cost", cost)
                        .input("ctl.requested_instances", instances as f64)
                        .delta("vm_fleet.retires_queued", 0.0, retired as f64)
                        .commit();
                }
            }
        }
    }

    fn apply_pod_plan(&mut self, plan: &PodPlan, now: SimTime) {
        let knobs = self.state.config.knobs;
        // A placement change is an instance start or stop the controller
        // decided on, applied or not.
        let placement_changes = plan.new_instances.len() + plan.remove_instances.len();
        self.registry
            .add(mid::PLACEMENT_CHANGES, placement_changes as u64);
        if !knobs.pod_slices && !knobs.pod_instances {
            return; // static provisioning baseline
        }
        let mut slices = 0u64;
        let mut refused = 0u64;
        let mut starts = 0u64;
        let mut stops = 0u64;
        let slices_planned: &[_] = if knobs.pod_slices {
            &plan.slice_adjustments
        } else {
            &[]
        };
        let (starts_planned, stops_planned): (&[_], &[_]) = if knobs.pod_instances {
            (&plan.new_instances, &plan.remove_instances)
        } else {
            (&[], &[])
        };
        for &(vm, cpu) in slices_planned {
            if self.state.fleet.adjust_slice(vm, cpu).is_ok() {
                slices += 1;
            } else {
                refused += 1;
            }
        }
        for &(app, server, cpu) in starts_planned {
            // Clone from a running in-pod sibling when possible (fast);
            // fresh boot otherwise.
            let source = self.state.fleet.vms_of_app(app.0).into_iter().find(|&v| {
                matches!(
                    self.state.fleet.vm(v).map(|x| x.state),
                    Ok(VmState::Running)
                )
            });
            let created = match source {
                Some(src) => self.state.fleet.clone_vm(src, server, now),
                None => self.state.fleet.create_vm(
                    server,
                    app.0,
                    cpu.max(self.state.config.vm_cpu_slice),
                    self.state.config.vm_mem_mb,
                    now,
                ),
            };
            if let Ok(vm) = created {
                starts += 1;
                self.last_scale_out.insert(app.0, self.epochs);
                self.global
                    .recorder
                    .event(Actor::Pod(plan.pod.0), ActionKind::InstanceStart)
                    .app(app.0)
                    .vm(vm.0)
                    .server(server.0)
                    .pod(plan.pod.0)
                    .input("ctl.requested_cpu", cpu)
                    .commit();
            }
        }
        let cooldown = self.state.config.scale_in_cooldown_epochs as u64;
        for &vm in stops_planned {
            // Scale-in cooldown (hysteresis): an app that scaled out
            // within the cooldown window keeps its instances — retiring
            // the surplus of a spike still in flight is what produced
            // the start/retire/start flip-flops E17 pins.
            if cooldown > 0 {
                if let Ok(rec) = self.state.fleet.vm(vm) {
                    if let Some(&at) = self.last_scale_out.get(&rec.app) {
                        if self.epochs.saturating_sub(at) < cooldown {
                            continue;
                        }
                    }
                }
            }
            // Through the serialized retire queue: this both refuses to
            // drain a VIP's last live RIP and keeps the doomed RIP out of
            // same-epoch exposure decisions (the retire × transfer race).
            if self.global.queue_retire(&self.state, vm) {
                stops += 1;
            }
        }
        self.registry.add(mid::SLICE_ADJUSTMENTS, slices);
        self.registry.add(mid::SLICE_ADJUSTMENTS_REFUSED, refused);
        self.registry.add(mid::INSTANCE_STARTS, starts);
        self.registry.add(mid::INSTANCE_STOPS, stops);
        let weight_requests = plan.weight_requests.len() as u64;
        for req in &plan.weight_requests {
            let weights = &plan.weights[req.weights.clone()];
            self.global
                .viprip
                .submit_pod_weights(plan.pod, req.vip, weights);
        }
        self.registry
            .add(mid::WEIGHT_REQUESTS_EMITTED, weight_requests);
        // One summary event per pod round that decided anything, so the
        // audit trail shows each pod manager's actuation mix alongside the
        // Tang-controller problem size it solved.
        if placement_changes > 0 || slices + starts + stops + weight_requests > 0 {
            self.global
                .recorder
                .event(Actor::Pod(plan.pod.0), ActionKind::PodPlan)
                .pod(plan.pod.0)
                .input("ctl.placement_changes", placement_changes as f64)
                .input("ctl.problem_servers", plan.problem_size.0 as f64)
                .input("ctl.problem_vms", plan.problem_size.1 as f64)
                .input("ctl.weight_requests", weight_requests as f64)
                .delta("vm_fleet.slices_adjusted", 0.0, slices as f64)
                .delta("vm_fleet.instance_starts", 0.0, starts as f64)
                .delta("vm_fleet.instance_stops", 0.0, stops as f64)
                .commit();
        }
    }

    /// Submit `NewRip` for every running VM with no RIP, then process.
    fn bind_missing_rips(&mut self) -> u64 {
        let missing: Vec<(AppId, VmId)> = self
            .state
            .fleet
            .servers()
            .iter()
            .flat_map(|s| s.vms())
            .filter(|vm| matches!(vm.state, VmState::Running))
            .filter(|vm| self.state.rip_of_vm(vm.id).is_none())
            .map(|vm| (AppId(vm.app), vm.id))
            .collect();
        let bound = missing.len() as u64;
        if missing.is_empty() {
            return 0;
        }
        for (app, vm) in missing {
            self.global.viprip.submit(
                Priority::Normal,
                Request::NewRip {
                    app,
                    vm,
                    weight: 1.0,
                },
            );
        }
        for (req, resp) in self.global.viprip.process_all(&mut self.state) {
            self.global.record_queue_apply(&req, &resp);
        }
        bound
    }

    // ---- fault injection (chaos harness) ---------------------------------
    //
    // The chaos fuzzer (`crates/chaos`) injects faults through these
    // entry points rather than mutating `state` directly, so every
    // injected fault lands in the flight recorder as a structural
    // `FaultInject`/`LinkDegrade` event (the analyze emit-coverage rule
    // requires emit sites for both kinds) and every injection respects
    // the same guards E13's hand-written faults do.

    /// Inject a permanent LB-switch failure: the switch's VIPs are
    /// re-homed onto healthy switches (or lost when the fabric is out of
    /// capacity) exactly as in [`PlatformState::fail_switch`]. Refuses
    /// an unknown, already-failed, or last-healthy switch. Returns
    /// `(vips re-homed, vips lost, sessions dropped)`.
    pub fn inject_switch_failure(
        &mut self,
        switch: SwitchId,
    ) -> Result<(usize, usize, u64), String> {
        if switch.0 as usize >= self.state.switches.len() {
            return Err(format!("unknown switch {switch}"));
        }
        if !self.state.switch_healthy(switch) {
            return Err(format!("{switch} is already failed"));
        }
        let healthy_before = self.state.healthy_switch_count();
        if healthy_before <= 1 {
            return Err("refusing to fail the last healthy switch".into());
        }
        let (rehomed, lost, dropped) = self.state.fail_switch(switch, self.now);
        self.global
            .recorder
            .event(Actor::Platform, ActionKind::FaultInject)
            .switch(switch.0)
            .note("switch-loss")
            .input("ctl.vips_rehomed", rehomed as f64)
            .input("ctl.vips_lost", lost as f64)
            .input("ctl.sessions_dropped", dropped as f64)
            .delta(
                "ctl.healthy_switches",
                healthy_before as f64,
                (healthy_before - 1) as f64,
            )
            .commit();
        Ok((rehomed, lost, dropped))
    }

    /// Inject a permanent server failure: every resident VM is destroyed
    /// and its RIP unbound ([`PlatformState::fail_server`]); the pod
    /// manager re-provisions replacements on its next round. Refuses an
    /// unknown or already-failed server. Returns the VMs lost.
    pub fn inject_server_failure(&mut self, server: ServerId) -> Result<usize, String> {
        if server.0 as usize >= self.state.config.num_servers {
            return Err(format!("unknown server {server}"));
        }
        if !self.state.server_healthy(server) {
            return Err(format!("{server} is already failed"));
        }
        let pod = self.state.pod_of(server);
        let vms_lost = self.state.fail_server(server);
        self.global
            .recorder
            .event(Actor::Platform, ActionKind::FaultInject)
            .server(server.0)
            .pod(pod.0)
            .note("server-loss")
            .input("ctl.vms_lost", vms_lost as f64)
            .commit();
        Ok(vms_lost)
    }

    /// Inject a whole-pod (AZ-style) failure: every healthy server in
    /// the pod fails at once. One summarizing `FaultInject` event is
    /// recorded for the pod (individual servers are recoverable from its
    /// inputs). Returns the total VMs lost; `Ok(0)` when the pod had no
    /// healthy servers left.
    pub fn inject_pod_failure(&mut self, pod: PodId) -> Result<usize, String> {
        if pod.0 as usize >= self.state.num_pods() {
            return Err(format!("unknown pod {pod}"));
        }
        let servers: Vec<ServerId> = self
            .state
            .pod_servers(pod)
            .iter()
            .copied()
            .filter(|&s| self.state.server_healthy(s))
            .collect();
        let mut vms_lost = 0usize;
        for &s in &servers {
            vms_lost += self.state.fail_server(s);
        }
        self.global
            .recorder
            .event(Actor::Platform, ActionKind::FaultInject)
            .pod(pod.0)
            .note("pod-loss")
            .input("ctl.servers_failed", servers.len() as f64)
            .input("ctl.vms_lost", vms_lost as f64)
            .commit();
        Ok(vms_lost)
    }

    /// Set an access link's capacity (degradation when lowered, recovery
    /// when restored), recording a `LinkDegrade` event. Returns the
    /// previous capacity so the caller can restore it later.
    pub fn inject_link_capacity(
        &mut self,
        link: AccessLinkId,
        capacity_bps: f64,
    ) -> Result<f64, String> {
        let prev = self.state.access.set_link_capacity(link, capacity_bps)?;
        self.global
            .recorder
            .event(Actor::Platform, ActionKind::LinkDegrade)
            .link(link.0)
            .note(if capacity_bps < prev {
                "degrade"
            } else {
                "restore"
            })
            .delta("ctl.link_capacity_bps", prev, capacity_bps)
            .commit();
        Ok(prev)
    }

    /// Run `n` epochs and summarize. The `final_*` fields read the
    /// registry gauges of the last epoch (full service before the first).
    pub fn run_epochs(&mut self, n: u64) -> RunReport {
        let mut served_sum = 0.0;
        for _ in 0..n {
            served_sum += self.step().served_fraction();
        }
        let r = &self.registry;
        let final_served = if self.epochs == 0 {
            1.0
        } else {
            r.gauge(mid::SERVED_FRACTION)
        };
        RunReport {
            epochs: self.epochs,
            final_served_fraction: final_served,
            mean_served_fraction: if n == 0 {
                final_served
            } else {
                served_sum / n as f64
            },
            final_link_util_max: r.gauge(mid::LINK_UTIL_MAX),
            final_switch_util_max: r.gauge(mid::SWITCH_UTIL_MAX),
            final_pod_util_max: r.gauge(mid::POD_UTIL_MAX),
        }
    }
}

/// Maximum of a utilization slice under [`f64::total_cmp`].
///
/// `fold(0.0, f64::max)` silently absorbed NaN (`f64::max(NaN, x) = x`),
/// masking a corrupted utilization as "no load". Under the total order a
/// NaN sorts above every number, so corruption surfaces in the metric
/// instead of disappearing. An empty slice (a platform with no
/// links/switches/pods in ablation setups) is explicitly zero load.
fn max_of(v: &[f64]) -> f64 {
    v.iter()
        .copied()
        .max_by(|a, b| a.total_cmp(b))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbswitch::{LbSwitch, RipAddr, VipAddr};
    use workload::FlashCrowd;

    #[test]
    fn build_small_platform() {
        let p = Platform::build(PlatformConfig::small_test()).unwrap();
        let cfg = &p.state.config;
        assert_eq!(p.state.num_apps(), cfg.num_apps);
        // Every app has its VIP quota and initial instances.
        for app in p.state.apps() {
            assert_eq!(app.vips.len(), cfg.vips_for_rank(app.popularity_rank));
        }
        assert_eq!(
            p.state.fleet.num_vms(),
            cfg.num_apps * cfg.initial_instances_per_app
        );
        assert_eq!(p.state.num_rips(), p.state.fleet.num_vms());
        p.state.assert_invariants();
    }

    #[test]
    fn steady_state_serves_demand() {
        let mut cfg = PlatformConfig::small_test();
        cfg.total_demand_bps = 0.5e9; // comfortably within capacity
        let mut p = Platform::build(cfg).unwrap();
        let report = p.run_epochs(30);
        assert_eq!(report.epochs, 30);
        assert!(
            report.final_served_fraction > 0.95,
            "served {}",
            report.final_served_fraction
        );
        p.state.assert_invariants();
    }

    #[test]
    fn epochs_are_deterministic() {
        let run = |seed: u64| {
            let mut cfg = PlatformConfig::small_test();
            cfg.seed = seed;
            let mut p = Platform::build(cfg).unwrap();
            p.run_epochs(10)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.final_served_fraction, b.final_served_fraction);
        assert_eq!(a.final_link_util_max, b.final_link_util_max);
        let c = run(8);
        // Different seed shuffles popularity; almost surely different.
        assert!(
            a.final_link_util_max != c.final_link_util_max
                || a.final_served_fraction != c.final_served_fraction
        );
    }

    #[test]
    fn flash_crowd_recovers_via_knobs() {
        let mut cfg = PlatformConfig::small_test();
        cfg.total_demand_bps = 1e9;
        cfg.diurnal_amplitude = 0.0;
        let mut p = Platform::build(cfg).unwrap();
        // Warm up.
        p.run_epochs(5);
        let victim = p.workload.apps_by_popularity()[0];
        let start = p.now() + dcsim::SimDuration::from_secs(20);
        p.workload.add_flash_crowd(FlashCrowd {
            app: victim,
            start,
            ramp: dcsim::SimDuration::from_secs(60),
            duration: dcsim::SimDuration::from_secs(1200),
            peak: 6.0,
        });
        let report = p.run_epochs(200);
        // The platform adapts: instances were added and/or slices grown.
        let r = &p.registry;
        let adapted = r.counter(mid::INSTANCE_STARTS) > 0 || r.counter(mid::SLICE_ADJUSTMENTS) > 0;
        assert!(adapted, "no elastic response to the flash crowd");
        // And the final state is consistent.
        p.state.assert_invariants();
        assert!(report.final_served_fraction > 0.5, "collapsed: {report:?}");
    }

    #[test]
    fn proactive_plane_activates_and_stays_deterministic() {
        let run = || {
            let mut cfg = PlatformConfig::small_test();
            cfg.total_demand_bps = 1e9;
            cfg.diurnal_amplitude = 0.0;
            cfg.elastic = elastic::ElasticConfig::proactive();
            let mut p = Platform::build(cfg).unwrap();
            p.run_epochs(5);
            let victim = p.workload.apps_by_popularity()[0];
            p.workload.add_flash_crowd(workload::FlashCrowd {
                app: victim,
                start: p.now() + dcsim::SimDuration::from_secs(20),
                ramp: dcsim::SimDuration::from_secs(60),
                duration: dcsim::SimDuration::from_secs(1200),
                peak: 6.0,
            });
            let report = p.run_epochs(60);
            let r = &p.registry;
            let proactive_actions = r.counter(mid::PROACTIVE_DEPLOY)
                + r.counter(mid::PROACTIVE_SLICE)
                + r.counter(mid::PROACTIVE_REWEIGHT);
            (report, proactive_actions, p.forecast_mape())
        };
        let (report, actions, mape) = run();
        assert!(actions > 0, "proactive plane never actuated");
        assert!(mape.is_some(), "no forecast accuracy recorded");
        assert!(report.final_served_fraction > 0.5, "collapsed: {report:?}");
        // Bit-identical reruns for a fixed seed.
        let (report2, actions2, mape2) = run();
        assert_eq!(report, report2);
        assert_eq!(actions, actions2);
        assert_eq!(mape, mape2);
    }

    #[test]
    fn disabled_elastic_has_no_controller() {
        let mut p = Platform::build(PlatformConfig::small_test()).unwrap();
        p.run_epochs(3);
        // An enabled controller scores a forecast from the second epoch
        // on; a disabled plane never does.
        assert!(p.forecast_mape().is_none());
    }

    /// A switch loss that finds no room for some VIPs frees their records
    /// and addresses. Their routes must be withdrawn, and the demand that
    /// cached DNS answers and converging withdrawals still send there is
    /// unserved, not a panic in the serve loop.
    #[test]
    fn switch_loss_that_loses_vips_keeps_stepping() {
        let mut cfg = PlatformConfig::small_test();
        cfg.switch_limits.max_vips = 14;
        let mut p = Platform::build(cfg).unwrap();
        let on_switch0: Vec<VipAddr> = p
            .state
            .vips()
            .filter(|(_, r)| r.switch == SwitchId(0))
            .map(|(v, _)| v)
            .collect();
        let (_, lost, _) = p.inject_switch_failure(SwitchId(0)).unwrap();
        assert!(lost > 0, "the fixture must lose VIPs");
        let gone: Vec<VipAddr> = on_switch0
            .into_iter()
            .filter(|&v| p.state.vip(v).is_err())
            .collect();
        assert_eq!(gone.len(), lost);
        let converged = p.now() + p.state.routes.convergence();
        for &v in &gone {
            assert!(
                !p.state
                    .routes
                    .is_reachable(crate::ids::vip_prefix(v), converged),
                "lost {v} still advertised"
            );
        }
        for _ in 0..12 {
            p.step();
        }
        p.state.assert_invariants();
    }

    #[test]
    fn fault_injection_guards_and_records_events() {
        let mut p = Platform::build(PlatformConfig::small_test()).unwrap();
        p.run_epochs(2);
        // Switch loss: ok once, already-failed and last-healthy refused.
        let (rehomed, lost, _) = p.inject_switch_failure(SwitchId(0)).unwrap();
        assert!(rehomed + lost > 0, "switch 0 held no VIPs?");
        assert!(p.inject_switch_failure(SwitchId(0)).is_err());
        assert!(
            p.inject_switch_failure(SwitchId(1)).is_err(),
            "must refuse to fail the last healthy switch"
        );
        assert!(p.inject_switch_failure(SwitchId(99)).is_err());
        // Server loss.
        let lost = p.inject_server_failure(ServerId(3)).unwrap();
        assert!(lost > 0, "server 3 hosted no VMs?");
        assert!(p.inject_server_failure(ServerId(3)).is_err());
        assert!(p.inject_server_failure(ServerId(999)).is_err());
        // Pod loss fails the remaining healthy servers of the pod.
        let pod = p.state.pod_of(ServerId(3));
        p.inject_pod_failure(pod).unwrap();
        assert!(p
            .state
            .pod_servers(pod)
            .iter()
            .all(|&s| !p.state.server_healthy(s)));
        assert!(p.inject_pod_failure(PodId(99)).is_err());
        // Link degradation and restore.
        let prev = p.inject_link_capacity(AccessLinkId(0), 1e9).unwrap();
        assert!(prev > 1e9);
        assert!(p.inject_link_capacity(AccessLinkId(0), prev).is_ok());
        assert!(p.inject_link_capacity(AccessLinkId(0), 0.0).is_err());
        // Every injection reached the flight recorder.
        let events: Vec<_> = p.global.recorder.take_events();
        let faults = events
            .iter()
            .filter(|e| e.kind == ActionKind::FaultInject)
            .count();
        let degrades = events
            .iter()
            .filter(|e| e.kind == ActionKind::LinkDegrade)
            .count();
        assert_eq!(faults, 3, "switch + server + pod loss");
        assert_eq!(degrades, 2, "degrade + restore");
        p.state.assert_invariants();
        // The platform keeps running after the faults.
        let report = p.run_epochs(5);
        assert_eq!(report.epochs, 7);
    }

    #[test]
    fn scale_in_cooldown_defers_reactive_retires() {
        let run = |cooldown: u32| {
            let mut cfg = PlatformConfig::small_test();
            cfg.total_demand_bps = 1e9;
            cfg.diurnal_amplitude = 0.0;
            cfg.scale_in_cooldown_epochs = cooldown;
            let mut p = Platform::build(cfg).unwrap();
            p.run_epochs(5);
            let victim = p.workload.apps_by_popularity()[0];
            p.workload.add_flash_crowd(FlashCrowd {
                app: victim,
                start: p.now() + dcsim::SimDuration::from_secs(20),
                ramp: dcsim::SimDuration::from_secs(60),
                duration: dcsim::SimDuration::from_secs(600),
                peak: 6.0,
            });
            p.run_epochs(80);
            (
                p.registry.counter(mid::INSTANCE_STARTS),
                p.registry.counter(mid::INSTANCE_STOPS),
            )
        };
        let (starts_hot, stops_hot) = run(0);
        let (starts_cold, stops_cold) = run(u32::MAX);
        assert!(starts_hot > 0, "flash crowd triggered no scale-out");
        assert!(starts_cold > 0);
        // An infinite cooldown can only reduce (or hold) retire volume,
        // and with it the re-start churn.
        assert!(
            stops_cold <= stops_hot,
            "cooldown increased retires: {stops_cold} > {stops_hot}"
        );
        assert!(starts_cold <= starts_hot);
    }

    #[test]
    fn event_ring_capacity_is_configurable() {
        let mut cfg = PlatformConfig::small_test();
        cfg.event_ring_capacity = 8;
        let mut p = Platform::build(cfg).unwrap();
        p.run_epochs(3);
        assert!(p.global.recorder.dropped() > 0, "tiny ring never evicted");
        assert!(p.global.recorder.events().count() <= 8);
        // The drop counter is surfaced in the epoch-health roll-up.
        let events: Vec<_> = p.global.recorder.take_events();
        let health = events
            .iter()
            .rev()
            .find(|e| e.kind == ActionKind::EpochHealth)
            .expect("health event survives in an 8-slot ring");
        assert!(health
            .inputs
            .iter()
            .any(|(k, v)| k == "ctl.ring_dropped" && *v > 0.0));
    }

    #[test]
    fn pod_managers_track_new_pods() {
        let mut cfg = PlatformConfig::small_test();
        cfg.pod_max_servers = 5; // both pods start as elephants (8 > 5)
        let mut p = Platform::build(cfg).unwrap();
        p.step();
        assert!(p.state.num_pods() > 2);
        assert_eq!(p.pod_managers.len(), p.state.num_pods());
        p.state.assert_invariants();
    }

    /// Under flat demand a settled pod reads the same inputs epoch after
    /// epoch and reuses its last plan: solved rounds fall behind rounds.
    #[test]
    fn settled_pods_reuse_their_last_round() {
        let mut cfg = PlatformConfig::small_test();
        cfg.diurnal_amplitude = 0.0;
        cfg.total_demand_bps = 1e9;
        let mut p = Platform::build(cfg).unwrap();
        assert_eq!(p.pod_rounds_solved(), 0);
        p.step();
        let pods = p.state.num_pods() as u64;
        assert_eq!(p.pod_rounds_solved(), pods, "every first round solves");
        p.run_epochs(11);
        let solved = p.pod_rounds_solved();
        assert!(
            solved < 12 * pods,
            "{solved} of {} rounds solved",
            12 * pods
        );
    }

    /// A pod plan's grow that its full server has no CPU for is refused
    /// by the fleet, and counted as refused, not applied.
    #[test]
    fn a_full_server_refuses_a_planned_grow() {
        let mut p = Platform::build(PlatformConfig::small_test()).unwrap();
        p.step();
        let server = p.state.fleet.servers().iter().find(|s| s.vm_count() > 0);
        let server = server.expect("a server with a VM");
        let (srv, vm) = (server.id(), server.vms().next().unwrap());
        let (vm, fill) = (vm.id, vm.cpu_slice + server.cpu_free());
        let counters = |p: &Platform| {
            let r = &p.registry;
            let ids = [mid::SLICE_ADJUSTMENTS, mid::SLICE_ADJUSTMENTS_REFUSED];
            ids.map(|id| r.counter(id))
        };
        let before = counters(&p);
        let plan = PodPlan {
            pod: p.state.pod_of(srv),
            // Fill the server, then grow past it.
            slice_adjustments: vec![(vm, fill), (vm, fill + 0.5)],
            ..PodPlan::default()
        };
        let now = p.now();
        p.apply_pod_plan(&plan, now);
        assert_eq!(counters(&p), [before[0] + 1, before[1] + 1]);
        let vm = p.state.fleet.vm(vm).unwrap();
        assert_eq!(vm.cpu_slice.to_bits(), fill.to_bits());
    }

    /// Regression test for the unified mid-epoch sync point: a pod
    /// created externally between epochs (no elephant relief involved)
    /// must get a manager and plan on the very next `step()`. Before the
    /// sync points were funnelled into `sync_pod_managers`, an
    /// externally-created pod silently skipped planning rounds.
    #[test]
    fn externally_created_pod_plans_next_epoch() {
        let mut p = Platform::build(PlatformConfig::small_test()).unwrap();
        p.step();
        let pods_before = p.state.num_pods();
        let pod = p.state.create_pod();
        // Give the new pod a server (with its VMs) so it has a plan to make.
        p.state.move_server_to_pod(ServerId(0), pod);
        assert_eq!(p.pod_managers.len(), pods_before); // manager not yet synced
        p.global.recorder.take_events();
        let epoch = p.epochs_run();
        p.step();
        assert_eq!(p.state.num_pods(), pods_before + 1);
        assert_eq!(p.pod_managers.len(), p.state.num_pods());
        // The new pod planned this very epoch.
        assert!(
            p.global
                .recorder
                .take_events()
                .iter()
                .any(|e| e.epoch == epoch && e.kind == ActionKind::PodPlan && e.pod == Some(pod.0)),
            "the new pod did not plan on the next step"
        );
        p.state.assert_invariants();
    }

    /// Every switch's `(vip, rip, weight bits)`, in switch and table order.
    fn weight_bits(p: &Platform) -> Vec<(VipAddr, RipAddr, u64)> {
        let entries = |(vip, cfg): (VipAddr, &lbswitch::switch::VipConfig)| {
            let rips = cfg
                .rips
                .iter()
                .map(move |e| (vip, e.rip, e.weight.to_bits()));
            rips.collect::<Vec<_>>()
        };
        p.state
            .switches
            .iter()
            .flat_map(|sw| sw.vips().flat_map(entries))
            .collect()
    }

    /// A write between epochs, chosen from one run's state and applied to
    /// both runs of a differential pair.
    #[derive(Debug, Clone, Copy)]
    enum Write {
        /// A High `SetWeight` on a pod RIP: the drain applies it before the
        /// pod requests, and the VM's pod request restores the weight.
        SetWeight(VmId, f64),
        /// A bare running VM, which the epoch's `rip-bind` binds.
        Bind(ServerId, u32),
        /// A VIP moved to another switch.
        Transfer(VipAddr, SwitchId),
        /// A server failure.
        ServerFailure(ServerId),
        /// A live migration; it completes in a later epoch.
        Migration(VmId, ServerId),
        /// A weight written straight into a pod RIP's switch entry, as a
        /// caller outside the queue can: only the switch count sees it.
        SwitchWeight(VmId, f64),
    }

    /// Write `kind` (0..6) on the `r`-th candidate of `p`, if it has one.
    fn pick_write(p: &Platform, kind: usize, r: usize) -> Option<Write> {
        let st = &p.state;
        let (cpu, mem) = (st.config.vm_cpu_slice, st.config.vm_mem_mb);
        let healthy: Vec<ServerId> = (0..st.fleet.num_servers() as u32)
            .map(ServerId)
            .filter(|&s| st.server_healthy(s))
            .collect();
        let fits = |s: ServerId, cpu, mem| st.fleet.server(s).unwrap().fits(cpu, mem).is_ok();
        let nth = |n: usize| r % n.max(1);
        match kind {
            0 | 5 => {
                let pod_vms: Vec<VmId> = (p.pod_managers.iter())
                    .flat_map(|pm| pm.current_plan().weights.iter().map(|&(vm, _)| vm))
                    .collect();
                let vm = *pod_vms.get(nth(pod_vms.len()))?;
                let rip = st.rip_of_vm(vm)?;
                let vip = st.rip(rip).ok()?.vip;
                let sw = &st.switches[st.vip(vip).ok()?.switch.0 as usize];
                let w = sw.vip(vip).ok()?.rips.iter().find(|e| e.rip == rip)?.weight * 2.0 + 1.0;
                Some([Write::SetWeight(vm, w), Write::SwitchWeight(vm, w)][kind / 5])
            }
            1 => {
                let open: Vec<ServerId> = healthy
                    .iter()
                    .copied()
                    .filter(|&s| fits(s, cpu, mem))
                    .collect();
                let app = (r % st.config.num_apps) as u32;
                Some(Write::Bind(*open.get(nth(open.len()))?, app))
            }
            2 => {
                let vips: Vec<VipAddr> = st.vips().map(|(v, _)| v).collect();
                let vip = *vips.get(nth(vips.len()))?;
                let from = st.vip(vip).ok()?.switch;
                let to = (st.switches.iter().map(LbSwitch::id))
                    .find(|&t| t != from && st.switch_healthy(t))?;
                Some(Write::Transfer(vip, to))
            }
            3 => Some(Write::ServerFailure(*healthy.get(nth(healthy.len()))?)),
            4 => {
                let running: Vec<(VmId, ServerId)> = (healthy.iter())
                    .flat_map(|&s| st.fleet.server(s).unwrap().vms().map(move |vm| (vm, s)))
                    .filter(|(vm, _)| matches!(vm.state, VmState::Running))
                    .filter(|(vm, _)| st.rip_of_vm(vm.id).is_some())
                    .map(|(vm, s)| (vm.id, s))
                    .collect();
                let (vm, src) = *running.get(nth(running.len()))?;
                let rec = st.fleet.vm(vm).ok()?;
                let dst = (healthy.iter().copied())
                    .find(|&d| d != src && fits(d, rec.cpu_slice, rec.mem_mb))?;
                Some(Write::Migration(vm, dst))
            }
            _ => unreachable!("write kind {kind}"),
        }
    }

    /// Apply `w` to `p`; whether it took.
    fn apply_write(p: &mut Platform, w: Write) -> bool {
        let (cpu, mem) = (p.state.config.vm_cpu_slice, p.state.config.vm_mem_mb);
        match w {
            Write::SetWeight(vm, weight) => {
                let request = Request::SetWeight { vm, weight };
                p.global.viprip.submit(Priority::High, request);
                true
            }
            Write::Bind(server, app) => {
                let fleet = &mut p.state.fleet;
                fleet.create_vm_running(server, app, cpu, mem).is_ok()
            }
            Write::Transfer(vip, to) => p.state.transfer_vip(vip, to).is_ok(),
            Write::ServerFailure(server) => p.inject_server_failure(server).is_ok(),
            Write::Migration(vm, dst) => p.state.fleet.migrate_vm(vm, dst, p.now).is_ok(),
            Write::SwitchWeight(vm, weight) => {
                let rip = p.state.rip_of_vm(vm).unwrap();
                let vip = p.state.rip(rip).unwrap().vip;
                let switch = p.state.vip(vip).unwrap().switch;
                let sw = &mut p.state.switches[switch.0 as usize];
                sw.set_rip_weight(vip, rip, weight).is_ok()
            }
        }
    }

    /// Step `cfg` twice in lockstep, the reference with the settled-drain
    /// reuse forced off. Once the fast run is settled and `gap` epochs
    /// have passed since the last write, both get the next seeded write,
    /// cycling through every [`Write`] kind. After every step the switch weights
    /// must match by bits and the epoch's events and metrics export byte
    /// for byte. In every quiet epoch — no write, no request processed in
    /// it or the epoch before, no pod round solved, no server moved, no
    /// switch reconfigured — the fast run must reuse every pod request.
    /// Returns `(quiet epochs, writes that took per kind)`.
    fn settled_reuse_differential(cfg: PlatformConfig, epochs: u64, gap: u64) -> (u64, [u64; 6]) {
        let mut fast = Platform::build(cfg).unwrap();
        let mut reference = Platform::build(cfg).unwrap();
        let (mut quiet, mut took, mut kinds, mut last) = (0, [0u64; 6], 0, 0);
        let mut calm = false; // the previous epoch processed no request
        for epoch in 0..epochs {
            let mut wrote = false;
            if epoch >= last + gap && fast.weights_settled.is_some() {
                let kind = kinds % took.len();
                if let Some(w) = pick_write(&fast, kind, epoch as usize * 7919) {
                    let ok = apply_write(&mut fast, w);
                    assert_eq!(apply_write(&mut reference, w), ok, "{w:?}");
                    took[kind] += u64::from(ok);
                    wrote = ok;
                }
                (kinds, last) = (kinds + 1, epoch);
            }
            let count = |p: &Platform| {
                let requests = p.registry.counter(mid::WEIGHT_REQUESTS_EMITTED);
                let moves =
                    p.global.counters.elephant_evictions + p.global.counters.server_transfers;
                let v = &p.global.viprip;
                (
                    v.processed(),
                    v.reused(),
                    p.pod_rounds_solved(),
                    moves,
                    requests,
                    p.switch_reconfigurations(),
                )
            };
            let before = count(&fast);
            fast.step();
            reference.weights_settled = None;
            reference.step();
            let after = count(&fast);
            assert_eq!(weight_bits(&fast), weight_bits(&reference), "epoch {epoch}");
            let events = |p: &mut Platform| {
                let events = p.global.recorder.take_events();
                events.iter().map(|e| e.to_json_line()).collect::<Vec<_>>()
            };
            assert_eq!(events(&mut fast), events(&mut reference), "epoch {epoch}");
            assert_eq!(
                fast.registry.render_text("r"),
                reference.registry.render_text("r")
            );
            assert_eq!(reference.global.viprip.reused(), 0);
            let processed_none = after.0 == before.0;
            let (requests, reused) = (after.4 - before.4, after.1 - before.1);
            if !wrote
                && calm
                && processed_none
                && (after.2, after.3, after.5) == (before.2, before.3, before.5)
            {
                quiet += 1;
                assert!(
                    requests > 0 && reused == requests,
                    "epoch {epoch}: {reused} of {requests}"
                );
            }
            calm = processed_none;
        }
        (quiet, took)
    }

    #[test]
    fn settled_drains_match_the_full_check_small_test() {
        let mut cfg = PlatformConfig::small_test();
        cfg.diurnal_amplitude = 0.0;
        cfg.total_demand_bps = 4e8;
        cfg.initial_instances_per_app = 6; // several instances per app and pod
        let (quiet, took) = settled_reuse_differential(cfg, 80, 3);
        assert!(quiet > 0, "no quiet epoch");
        assert!(took.iter().all(|&n| n > 0), "writes that took: {took:?}");
    }

    #[test]
    fn settled_drains_match_the_full_check_paper_mix_miniature() {
        let mut cfg = PlatformConfig::paper_scale();
        cfg.num_apps = 40;
        cfg.num_servers = 80;
        cfg.initial_pods = 2;
        cfg.total_demand_bps = (40 * cfg.initial_instances_per_app) as f64 * 0.2e6;
        cfg.diurnal_amplitude = 0.0;
        let (quiet, took) = settled_reuse_differential(cfg, 80, 3);
        assert!(quiet > 0, "no quiet epoch");
        assert!(took.iter().all(|&n| n > 0), "writes that took: {took:?}");
    }
}
