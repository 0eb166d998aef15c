//! Integration tests for the paper's control knobs acting end-to-end
//! through the assembled platform (§IV).

use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use obs::metrics::ids;
use workload::FlashCrowd;

/// §IV.A: an overloaded access link is relieved by DNS exposure shifts,
/// with far fewer route updates than VIP re-advertisement would need.
#[test]
fn selective_exposure_relieves_hot_link() {
    let mut config = PlatformConfig::pod_scale();
    config.seed = 11;
    config.diurnal_amplitude = 0.0;
    config.num_access_links = 3;
    config.access_link_bps = 25e9;
    config.total_demand_bps = 40e9;
    let mut platform = Platform::build(config).expect("build");

    // Skew all top apps onto link 0.
    let now = platform.now();
    for app in platform.workload.apps_by_popularity().into_iter().take(40) {
        let vips = platform.state.app(megadc::AppId(app)).unwrap().vips.clone();
        let weights: Vec<(lbswitch::VipAddr, f64)> = vips
            .iter()
            .map(|&v| {
                let rec = platform.state.vip(v).unwrap();
                let on_link0 = rec.router.map(|r| r.0 == 0).unwrap_or(false);
                let covered = platform.state.vip_rip_count(v) > 0;
                (v, if covered && on_link0 { 1.0 } else { 0.0 })
            })
            .collect();
        if weights.iter().any(|&(_, w)| w > 0.0) {
            platform.state.dns.set_exposure(app, weights, now);
        }
    }
    let first = platform.step().clone();
    let u0_before = first.link_utilizations(&platform.state)[0];
    let updates_before = platform.state.routes.updates_sent();

    // Give the balancer a few TTLs.
    for _ in 0..60 {
        platform.step();
    }
    let last = platform.last_snapshot().unwrap();
    let u_after = last.link_utilizations(&platform.state);
    assert!(
        u_after[0] < u0_before,
        "hot link not relieved: {u0_before} -> {}",
        u_after[0]
    );
    assert!(platform.global.counters.exposure_updates > 0);
    // Route updates stay small: only unused-VIP re-advertisements, never
    // per-decision withdraw/advertise churn.
    let route_updates = platform.state.routes.updates_sent() - updates_before;
    assert!(
        route_updates <= platform.global.counters.exposure_updates,
        "route churn ({route_updates}) exceeds DNS updates"
    );
}

/// §IV.B: a flash crowd overloads one switch; the drain-then-transfer
/// procedure moves a VIP to an underloaded switch without dropping the
/// session-carrying VIP mid-flight (quiescence gate).
#[test]
fn flash_crowd_triggers_vip_transfer_path() {
    let mut config = PlatformConfig::pod_scale();
    config.seed = 21;
    config.diurnal_amplitude = 0.0;
    config.total_demand_bps = 30e9;
    let mut platform = Platform::build(config).expect("build");
    platform.run_epochs(10);

    let victim = platform.workload.apps_by_popularity()[0];
    platform.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: platform.now() + SimDuration::from_secs(30),
        ramp: SimDuration::from_secs(120),
        duration: SimDuration::from_secs(7200),
        peak: 10.0,
    });
    for _ in 0..400 {
        platform.step();
        if platform.global.counters.vip_transfers_completed > 0 {
            break;
        }
    }
    let c = platform.global.counters;
    assert!(
        c.vip_drains_started > 0,
        "switch balancer never started a drain: {c:?}"
    );
    platform.state.assert_invariants();
}

/// §IV.E/§IV.F: the fast knobs act within epochs — slices grow and
/// weights track allocations long before any instance boots.
#[test]
fn fast_knobs_act_before_slow_ones() {
    let mut config = PlatformConfig::small_test();
    config.seed = 31;
    config.diurnal_amplitude = 0.0;
    config.total_demand_bps = 1e9;
    let mut platform = Platform::build(config).expect("build");
    // Step a couple of epochs under moderate load.
    platform.run_epochs(3);
    let slices_early = platform.registry.counter(ids::SLICE_ADJUSTMENTS);
    assert!(
        slices_early > 0,
        "slice adjustment (the fastest knob) never fired"
    );
}

/// §IV.C: elephant pods shed servers (with instances) until every pod is
/// within the caps, and pod managers follow.
#[test]
fn elephant_relief_bounds_every_pod() {
    let mut config = PlatformConfig::small_test();
    config.pod_max_servers = 5;
    let mut platform = Platform::build(config).expect("build");
    platform.run_epochs(3);
    for p in 0..platform.state.num_pods() {
        assert!(
            platform.state.pod_servers(megadc::PodId(p as u32)).len() <= 5,
            "pod {p} still over the server cap"
        );
    }
    assert!(platform.global.counters.elephant_evictions > 0);
    platform.state.assert_invariants();
}

/// §III.C: the VIP/RIP manager keeps every switch within limits under a
/// storm of competing requests (the E12 invariant, end-to-end).
#[test]
fn viprip_queue_survives_request_storm() {
    use megadc::viprip::{Priority, Request};
    let mut config = PlatformConfig::small_test();
    config.total_demand_bps = 2e9;
    let mut platform = Platform::build(config).expect("build");
    platform.run_epochs(2);
    // Storm: a burst of VIP requests from many apps at mixed priorities.
    for a in 0..platform.state.num_apps() as u32 {
        let prio = match a % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        platform.global.viprip.submit(
            prio,
            Request::NewVip {
                app: megadc::AppId(a),
            },
        );
    }
    platform.step();
    assert_eq!(platform.global.viprip.pending(), 0, "queue fully drained");
    platform.state.assert_invariants();
    for sw in &platform.state.switches {
        assert!(sw.vip_count() <= sw.limits().max_vips);
    }
}
