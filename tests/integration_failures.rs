//! Failure-injection integration tests: the platform self-heals after
//! switch and server failures, exercising the reliability properties §III
//! attributes to the fully interconnected border/LB fabric and the
//! elasticity of the pod managers.

use megadc::{Platform, PlatformConfig};
use obs::metrics::ids;
use vmm::ServerId;

#[test]
fn switch_failure_is_transparent_to_served_demand() {
    let mut cfg = PlatformConfig::pod_scale();
    cfg.seed = 77;
    cfg.diurnal_amplitude = 0.0;
    cfg.total_demand_bps = 20e9;
    let mut p = Platform::build(cfg).expect("build");
    p.run_epochs(10);
    let served_before = p.last_snapshot().unwrap().served_fraction();

    // Fail the busiest switch.
    let snap = p.last_snapshot().unwrap().clone();
    let (hot, _) = snap
        .switch_utilizations(&p.state)
        .iter()
        .cloned()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let now = p.now();
    let (rehomed, lost, _) = p.state.fail_switch(lbswitch::SwitchId(hot as u32), now);
    assert!(rehomed > 0, "busiest switch should have hosted VIPs");
    assert_eq!(lost, 0, "fabric has spare capacity; nothing should be lost");
    p.state.assert_invariants();

    // Demand keeps flowing: VIPs were re-homed internally (no route or
    // DNS changes needed — the §IV.B mechanism applied as failover).
    p.run_epochs(20);
    let served_after = p.last_snapshot().unwrap().served_fraction();
    assert!(
        served_after > served_before - 0.15,
        "service collapsed after switch failure: {served_before} -> {served_after}"
    );
    // And the failed switch is never repopulated.
    assert_eq!(p.state.switches[hot].vip_count(), 0);
}

#[test]
fn server_failures_trigger_reprovisioning() {
    let mut cfg = PlatformConfig::pod_scale();
    cfg.seed = 78;
    cfg.diurnal_amplitude = 0.0;
    cfg.total_demand_bps = 20e9;
    let mut p = Platform::build(cfg).expect("build");
    p.run_epochs(10);
    let vms_before = p.state.fleet.num_vms();
    let served_before = p.last_snapshot().unwrap().served_fraction();
    let starts_before = p.registry.counter(ids::INSTANCE_STARTS);

    // Kill 10 loaded servers.
    let victims: Vec<ServerId> = (0..10).map(|i| ServerId(i * 7)).collect();
    let mut lost = 0;
    for s in victims {
        lost += p.state.fail_server(s);
    }
    assert!(lost > 0, "victims should have hosted VMs");
    assert_eq!(p.state.fleet.num_vms(), vms_before - lost);
    p.state.assert_invariants();

    // Pod managers replace the lost capacity within a few epochs —
    // either with new instances or by growing the survivors' slices;
    // served demand is the measure of recovery.
    p.run_epochs(30);
    assert!(
        p.registry.counter(ids::INSTANCE_STARTS) > starts_before,
        "no re-provisioning after server failures"
    );
    let served_after = p.last_snapshot().unwrap().served_fraction();
    assert!(
        served_after > served_before - 0.1,
        "service never recovered: {served_before} -> {served_after}"
    );
    p.state.assert_invariants();
}

#[test]
fn cascade_of_failures_never_breaks_invariants() {
    let mut cfg = PlatformConfig::small_test();
    cfg.seed = 79;
    let mut p = Platform::build(cfg).expect("build");
    p.run_epochs(5);
    // Alternate failures and epochs; the platform must stay consistent
    // throughout (this is the failure-injection sweep of the test plan).
    let num_switches = p.state.switches.len();
    for i in 0..3 {
        p.state.fail_server(ServerId(i * 5));
        p.run_epochs(3);
        p.state.assert_invariants();
    }
    // Fail all but one switch; every surviving VIP must sit on the last.
    for sw in 0..num_switches - 1 {
        let now = p.now();
        p.state.fail_switch(lbswitch::SwitchId(sw as u32), now);
        p.run_epochs(2);
        p.state.assert_invariants();
    }
    assert_eq!(p.state.healthy_switch_count(), 1);
    let last = num_switches - 1;
    for (vip, rec) in p.state.vips() {
        assert_eq!(rec.switch.0 as usize, last, "{vip} not on the survivor");
    }
}
