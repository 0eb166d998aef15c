//! Cross-crate integration tests: the full platform lifecycle, exercising
//! dcsim + dcnet + lbswitch + dcdns + vmm + placement + workload through
//! the megadc assembly.

use dcsim::SimDuration;
use megadc::{AppId, Platform, PlatformConfig};
use obs::metrics::ids;

#[test]
fn full_lifecycle_build_run_verify() {
    let mut config = PlatformConfig::small_test();
    config.seed = 1;
    let mut platform = Platform::build(config).expect("build");
    // Structure: apps, VIPs, RIPs, pods all populated.
    assert_eq!(platform.state.num_apps(), config.num_apps);
    assert!(platform.state.num_rips() > 0);
    assert_eq!(platform.state.num_pods(), config.initial_pods);
    // Every VIP's record matches the switch that hosts it (invariant
    // sweep covers the rest).
    platform.state.assert_invariants();

    let report = platform.run_epochs(50);
    assert_eq!(report.epochs, 50);
    platform.state.assert_invariants();
    // Metrics scraped every epoch.
    assert_eq!(platform.registry.counter(ids::EPOCHS), 50);
}

#[test]
fn demand_is_conserved_through_the_stack() {
    let mut config = PlatformConfig::small_test();
    config.total_demand_bps = 1e9;
    let mut platform = Platform::build(config).expect("build");
    let snap = platform.step().clone();
    let total = snap.total_demand_bps();
    // Demand = served + unserved, where served shows up as VM CPU load.
    let profile = platform.state.config.request_profile;
    let served_cpu: f64 = snap.vm_cpu_served.iter().sum();
    let served_bps = profile.bandwidth_bps(served_cpu / profile.cpu_per_req);
    let accounted = served_bps + snap.total_unserved_bps();
    assert!(
        (accounted - total).abs() < 1e-6 * total,
        "conservation violated: {accounted} vs {total}"
    );
}

#[test]
fn popular_apps_get_more_vips_and_instances_spread_pods() {
    let config = PlatformConfig::small_test();
    let platform = Platform::build(config).expect("build");
    let by_pop = platform.workload.apps_by_popularity();
    let top = platform.state.app(AppId(by_pop[0])).unwrap();
    let bottom = platform.state.app(AppId(*by_pop.last().unwrap())).unwrap();
    assert!(
        top.vips.len() > bottom.vips.len(),
        "popular app should hold more VIPs"
    );
    // Instances land in more than one pod overall.
    let pods_used: std::collections::BTreeSet<_> = (0..platform.state.num_pods())
        .filter(|&p| platform.state.pod_vm_count(megadc::PodId(p as u32)) > 0)
        .collect();
    assert!(pods_used.len() > 1);
}

#[test]
fn diurnal_cycle_keeps_platform_stable() {
    let mut config = PlatformConfig::small_test();
    config.diurnal_amplitude = 0.4;
    config.diurnal_period = SimDuration::from_secs(1200); // compressed day
    config.total_demand_bps = 1e9;
    let mut platform = Platform::build(config).expect("build");
    // Two full compressed days.
    let report = platform.run_epochs(240);
    assert!(
        report.mean_served_fraction > 0.8,
        "mean served {}",
        report.mean_served_fraction
    );
    platform.state.assert_invariants();
    // Elasticity: the platform actually resized things over the cycle.
    assert!(
        [
            ids::SLICE_ADJUSTMENTS,
            ids::INSTANCE_STARTS,
            ids::INSTANCE_STOPS
        ]
        .iter()
        .any(|&id| platform.registry.counter(id) > 0),
        "no elastic action over two diurnal cycles"
    );
}

#[test]
fn switch_limits_never_violated_during_long_run() {
    let mut config = PlatformConfig::small_test();
    config.total_demand_bps = 3e9;
    let mut platform = Platform::build(config).expect("build");
    for _ in 0..100 {
        platform.step();
        for sw in &platform.state.switches {
            assert!(sw.vip_count() <= sw.limits().max_vips);
            assert!(sw.rip_count() <= sw.limits().max_rips);
        }
    }
    platform.state.assert_invariants();
}
