//! Metrics-registry determinism (DESIGN.md §"Metrics & profiling").
//!
//! The registry scrape at epoch close reads only sim state and the sim
//! clock, so its rendered exports are part of the platform's determinism
//! contract: two same-seed runs of the E16/E17 scenario must produce
//! byte-identical text exports. A divergence means wall time
//! or some other host state leaked into a metric value — exactly what
//! the wall-clock quarantine (profiler vs registry) exists to prevent.

use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use workload::FlashCrowd;

const WARMUP: u64 = 10;
const EPOCHS: u64 = 120;

fn e17_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.seed = 1616;
    cfg.total_demand_bps = 0.5e9;
    cfg.diurnal_amplitude = 0.0;
    cfg.knobs.misrouting_escape = true;
    cfg.elastic = elastic::ElasticConfig::proactive();
    cfg
}

/// Run the E17 flash-crowd scenario and return its text export.
fn run_scenario() -> String {
    let mut p = Platform::build(e17_config()).expect("build");
    p.run_epochs(WARMUP);
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(1800),
        peak: 8.0,
    });
    p.run_epochs(EPOCHS);
    p.registry.render_text("determinism")
}

/// A same-seed rerun reproduces the export byte-for-byte.
#[test]
fn metrics_export_is_byte_identical_across_reruns() {
    let base_text = run_scenario();
    assert!(
        base_text.contains("megadc_served_fraction"),
        "export missing expected metric:\n{base_text}"
    );
    let text = run_scenario();
    assert_eq!(base_text, text, "text export diverged between reruns");
}

/// The scrape produced real observations: counters
/// advanced, utilization histograms filled, and the SLO score tracked
/// the flash crowd's overload window.
#[test]
fn scrape_populates_counters_histograms_and_slo() {
    use obs::metrics::ids;
    let mut p = Platform::build(e17_config()).expect("build");
    p.run_epochs(WARMUP);
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(1800),
        peak: 8.0,
    });
    p.run_epochs(EPOCHS);
    let r = &p.registry;
    assert_eq!(r.counter(ids::EPOCHS), WARMUP + EPOCHS);
    assert!(r.counter(ids::POD_PLANS) > 0, "no pod plans");
    assert!(
        r.histogram_count(ids::POD_UTIL) > 0,
        "pod utilization histogram never observed"
    );
    assert!(
        r.gauge(ids::SERVED_FRACTION) > 0.9,
        "implausible final served fraction"
    );
    assert!(
        r.counter(ids::SLO_OVERLOAD_EPOCHS) > 0,
        "flash crowd produced no SLO overload epochs"
    );
}

/// The actuation counters are added where the actuation happens, next to
/// the flight-recorder event that reports the same number, so over a run
/// that drains every event each counter equals its event total.
#[test]
fn actuation_counters_equal_flight_recorder_totals() {
    use obs::metrics::ids;
    use obs::{ActionKind, Actor, Event};
    let mut cfg = PlatformConfig::small_test();
    cfg.total_demand_bps = 1e9;
    // One VIP per app, so a retire never drains a VIP's last RIP, and a
    // deep diurnal downswing after the flash crowd drives proactive
    // retires.
    cfg.vips_per_app = 1;
    cfg.popular_extra_vips = 0;
    cfg.diurnal_amplitude = 0.8;
    cfg.diurnal_period = SimDuration::from_secs(2400);
    cfg.elastic = elastic::ElasticConfig::proactive();
    let mut p = Platform::build(cfg).expect("build");
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(50),
        ramp: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(1200),
        peak: 6.0,
    });
    let mut events: Vec<Event> = Vec::new();
    for _ in 0..300 {
        p.step();
        events.extend(p.global.recorder.take_events());
    }
    assert_eq!(p.global.recorder.dropped(), 0, "the ring dropped events");
    let count = |kind: ActionKind| events.iter().filter(|e| e.kind == kind).count() as u64;
    let delta_sum = |actor: fn(Actor) -> bool, kind: ActionKind, key: &str| -> u64 {
        events
            .iter()
            .filter(|e| e.kind == kind && actor(e.actor))
            .flat_map(|e| &e.delta)
            .filter(|(k, _, _)| k == key)
            .map(|&(_, before, after)| (after - before) as u64)
            .sum()
    };
    let pod = |a: Actor| matches!(a, Actor::Pod(_));
    let elastic = |a: Actor| a == Actor::Elastic;
    let r = &p.registry;
    let expected = [
        (ids::INSTANCE_STARTS, count(ActionKind::InstanceStart)),
        (
            ids::PROACTIVE_REWEIGHT,
            count(ActionKind::ProactiveReweight),
        ),
        (
            ids::SLICE_ADJUSTMENTS,
            delta_sum(pod, ActionKind::PodPlan, "vm_fleet.slices_adjusted"),
        ),
        (
            ids::INSTANCE_STOPS,
            delta_sum(pod, ActionKind::PodPlan, "vm_fleet.instance_stops"),
        ),
        (
            ids::PROACTIVE_SLICE,
            delta_sum(elastic, ActionKind::SliceAdjust, "vm_fleet.slices_adjusted"),
        ),
        (
            ids::PROACTIVE_DEPLOY,
            delta_sum(
                elastic,
                ActionKind::ProactiveDeploy,
                "vm_fleet.clones_started",
            ),
        ),
        (
            ids::PROACTIVE_RETIRE,
            delta_sum(
                elastic,
                ActionKind::ProactiveRetire,
                "vm_fleet.retires_queued",
            ),
        ),
    ];
    for (id, total) in expected {
        let spec = &obs::metrics::METRICS[id];
        let name = (spec.name, spec.labels);
        assert!(total > 0, "{name:?}: the run never exercised it");
        assert_eq!(r.counter(id), total, "{name:?} disagrees with its events");
    }
}

/// Per-epoch deltas of the pod weight-request counters, checked against
/// the flight recorder: every emitted request is counted in its
/// `PodPlan` event, and the queue drain either applies it, with an
/// `AdjustPodWeights` `QueueApply` event, or skips it as changing no
/// weight bit. Returns the run's (emitted, unchanged) totals.
fn weight_request_totals(p: &mut Platform, epochs: u64) -> [u64; 2] {
    use obs::metrics::ids;
    use obs::ActionKind;
    let counters = [ids::WEIGHT_REQUESTS_EMITTED, ids::WEIGHT_REQUESTS_UNCHANGED];
    let read = |p: &Platform| counters.map(|id| p.registry.counter(id));
    let mut totals = [0; 2];
    for epoch in 0..epochs {
        let before = read(p);
        p.step();
        let after = read(p);
        let [emitted, unchanged] = [0, 1].map(|i| after[i] - before[i]);
        let events = p.global.recorder.take_events();
        let planned: f64 = events
            .iter()
            .filter(|e| e.kind == ActionKind::PodPlan)
            .flat_map(|e| &e.inputs)
            .filter(|(k, _)| k == "ctl.weight_requests")
            .map(|&(_, n)| n)
            .sum();
        let drained = events
            .iter()
            .filter(|e| e.kind == ActionKind::QueueApply && e.note.starts_with("AdjustPodWeights"))
            .count() as u64;
        assert_eq!(emitted as f64, planned, "epoch {epoch}: emitted");
        assert_eq!(
            emitted,
            drained + unchanged,
            "epoch {epoch}: emitted = drained + unchanged"
        );
        totals[0] += emitted;
        totals[1] += unchanged;
    }
    assert_eq!(p.global.recorder.dropped(), 0, "the ring dropped events");
    totals
}

/// A miniature of the megabench `churn-1k` workload: an LB switch loss
/// under diurnal demand and flash crowds, with the proactive plane on.
/// The global manager's reweights land on VIPs that pods request weights
/// for, so the drain both applies and skips pod requests.
#[test]
fn weight_request_counters_balance_every_epoch() {
    let mut cfg = PlatformConfig::paper_scale();
    cfg.seed = 1903;
    cfg.num_apps = 120;
    cfg.num_servers = 120;
    cfg.initial_instances_per_app = 2;
    cfg.num_switches = 3;
    cfg.initial_pods = 2;
    cfg.total_demand_bps = 120.0 * 6.0e6;
    cfg.diurnal_amplitude = 0.4;
    cfg.diurnal_period = SimDuration::from_secs(1200);
    cfg.elastic = elastic::ElasticConfig::proactive();
    let mut p = Platform::build(cfg).expect("build");
    p.run_epochs(2);
    p.inject_switch_failure(lbswitch::SwitchId(0))
        .expect("switch 0 fails");
    let by_pop = p.workload.apps_by_popularity();
    for i in 0..4 {
        p.workload.add_flash_crowd(FlashCrowd {
            app: by_pop[7 * i],
            start: p.now() + SimDuration::from_secs(10 + 30 * i as u64),
            ramp: SimDuration::from_secs(60),
            duration: SimDuration::from_secs(600),
            peak: 6.0,
        });
    }
    p.global.recorder.take_events();
    let [emitted, unchanged] = weight_request_totals(&mut p, 40);
    assert!(
        emitted > unchanged && unchanged > 0,
        "emitted {emitted}, unchanged {unchanged}"
    );
}

/// Pods capped at 10 VMs under a flash crowd: elephant relief moves
/// servers, with their VMs, between pod planning and the queue drain,
/// and the drain checks each pod request against the moved state.
#[test]
fn weight_request_counters_balance_under_elephant_relief() {
    let mut cfg = PlatformConfig::small_test();
    cfg.pod_max_vms = 10;
    let mut p = Platform::build(cfg).expect("build");
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(600),
        peak: 8.0,
    });
    p.run_epochs(1);
    p.global.recorder.take_events();
    let moves_before = p.global.counters.elephant_evictions;
    let [emitted, unchanged] = weight_request_totals(&mut p, 60);
    assert!(
        p.global.counters.elephant_evictions > moves_before && emitted > unchanged,
        "emitted {emitted}, unchanged {unchanged}"
    );
}

/// A miniature of the paper's entity mix (20 instances per app): its
/// steady weight requests change nothing, and the drain skips them.
/// Under flat demand its pods settle, and the drain then skips them on
/// the previous drain's verdict.
#[test]
fn paper_mix_miniature_skips_unchanged_weight_requests() {
    let mut cfg = PlatformConfig::paper_scale();
    cfg.num_apps = 40;
    cfg.num_servers = 80;
    cfg.initial_pods = 2;
    cfg.total_demand_bps = (40 * cfg.initial_instances_per_app) as f64 * 0.2e6;
    let mut p = Platform::build(cfg).expect("build");
    let [emitted, unchanged] = weight_request_totals(&mut p, 8);
    assert!(unchanged > 0, "emitted {emitted}, unchanged {unchanged}");
    cfg.diurnal_amplitude = 0.0;
    let mut p = Platform::build(cfg).expect("build");
    let [emitted, unchanged] = weight_request_totals(&mut p, 8);
    let reused = p.global.viprip.reused();
    assert!(
        unchanged >= reused && reused > 0,
        "emitted {emitted}, unchanged {unchanged}, reused {reused}"
    );
}
