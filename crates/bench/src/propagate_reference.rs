//! Differential test of demand propagation against its map-snapshot
//! reference.
//!
//! [`propagate_reference`] is `megadc::demand::propagate` as it was before
//! the VIP-indexed snapshot tables and the buffer-filling lookups: VIP
//! demand and served load in `BTreeMap`s, routes from the allocating
//! `preferred_routes` list, and each VIP's
//! switch split built from a weight vector and a share vector. DNS shares
//! come from `DnsSystem::effective_shares`, whose own reference test
//! (`dcdns`) covers the blend. Production and reference run on the same
//! state after every epoch of the chaos regression corpus, a sample of
//! E18's sweep seeds and two small E19 tiers, and every snapshot field
//! must agree bit for bit.

use crate::experiments::e19_scale::{mix_tier_config, tier_config};
use chaos::harness::{apply_op, scenario_config};
use chaos::scenario::Scenario;
use dcsim::SimTime;
use lbswitch::{LbSwitch, RipAddr, VipAddr};
use megadc::demand::propagate;
use megadc::ids::vip_prefix;
use megadc::state::PlatformState;
use megadc::{Platform, PlatformConfig};
use std::collections::BTreeMap;

/// The snapshot fields the reference fills, VIP maps as `BTreeMap`s.
#[derive(Debug, Default)]
struct MapSnapshot {
    vip_demand_bps: BTreeMap<VipAddr, f64>,
    vip_served_bps: BTreeMap<VipAddr, f64>,
    link_load_bps: Vec<f64>,
    switch_offered_bps: Vec<f64>,
    vm_cpu_offered: Vec<f64>,
    vm_cpu_served: Vec<f64>,
    server_cpu_load: Vec<f64>,
    unserved_bps_by_app: Vec<f64>,
}

fn split_by_weight(weights: &[f64], demand: f64) -> Vec<f64> {
    let total: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
    if total <= 0.0 {
        return vec![0.0; weights.len()];
    }
    weights
        .iter()
        .map(|&w| if w > 0.0 { demand * w / total } else { 0.0 })
        .collect()
}

fn distribute_vip(sw: &LbSwitch, vip: VipAddr) -> Vec<(RipAddr, f64)> {
    let cfg = sw.vip(vip).expect("configured");
    let scale = if sw.offered_bps() > sw.limits().capacity_bps {
        sw.limits().capacity_bps / sw.offered_bps()
    } else {
        1.0
    };
    let weights: Vec<f64> = cfg.rips.iter().map(|r| r.weight).collect();
    let shares = split_by_weight(&weights, cfg.offered_bps * scale);
    cfg.rips
        .iter()
        .zip(shares)
        .map(|(r, s)| (r.rip, s))
        .collect()
}

fn propagate_reference(
    state: &mut PlatformState,
    app_demand_bps: &[f64],
    now: SimTime,
) -> MapSnapshot {
    let profile = state.config.request_profile;
    let mut snap = MapSnapshot {
        link_load_bps: vec![0.0; state.access.num_links()],
        switch_offered_bps: vec![0.0; state.switches.len()],
        server_cpu_load: vec![0.0; state.fleet.num_servers()],
        unserved_bps_by_app: vec![0.0; state.num_apps()],
        vm_cpu_offered: vec![0.0; state.fleet.vm_id_bound()],
        vm_cpu_served: vec![0.0; state.fleet.vm_id_bound()],
        ..MapSnapshot::default()
    };
    for app in state.apps() {
        let app_idx = app.id.0 as usize;
        let demand = app_demand_bps[app_idx];
        if demand <= 0.0 {
            continue;
        }
        let shares = state.dns.effective_shares(app.id.dns_key(), now);
        if shares.is_empty() {
            snap.unserved_bps_by_app[app_idx] += demand;
            continue;
        }
        for (vip, share) in shares {
            let vd = demand * share;
            if vd <= 0.0 {
                continue;
            }
            let routes = state.routes.preferred_routes(vip_prefix(vip), now);
            if routes.is_empty() {
                snap.unserved_bps_by_app[app_idx] += vd;
                continue;
            }
            *snap.vip_demand_bps.entry(vip).or_insert(0.0) += vd;
            let per_router = vd / routes.len() as f64;
            for r in routes {
                let links = state.access.links_at_router(r.router).count();
                if links == 0 {
                    continue;
                }
                let per_link = per_router / links as f64;
                for l in state.access.links_at_router(r.router) {
                    snap.link_load_bps[l.id.index()] += per_link;
                }
            }
        }
    }
    for (i, sw) in state.switches.iter_mut().enumerate() {
        sw.set_offered_loads(|vip| snap.vip_demand_bps.get(&vip).copied().unwrap_or(0.0));
        snap.switch_offered_bps[i] = sw.offered_bps();
    }
    for (&vip, &offered) in snap.vip_demand_bps.iter() {
        let rec = *state.vip(vip).expect("listed");
        let app_idx = rec.app.0 as usize;
        let dist = distribute_vip(&state.switches[rec.switch.0 as usize], vip);
        let distributed: f64 = dist.iter().map(|&(_, b)| b).sum();
        if offered > distributed {
            snap.unserved_bps_by_app[app_idx] += offered - distributed;
        }
        let mut served_bps: Option<f64> = None;
        for (rip, bps) in dist {
            if bps <= 0.0 {
                continue;
            }
            let vm_id = match state.rip(rip) {
                Ok(r) => r.vm,
                Err(_) => {
                    snap.unserved_bps_by_app[app_idx] += bps;
                    continue;
                }
            };
            let (srv, vm) = state
                .fleet
                .locate_vm(vm_id)
                .expect("RIP references live VM");
            if !vm.state.serves_traffic() {
                snap.unserved_bps_by_app[app_idx] += bps;
                continue;
            }
            let cpu = profile.cpu_demand(profile.rps_for_bandwidth(bps));
            let served_cpu = cpu.min(vm.cpu_slice);
            if cpu > served_cpu {
                let lost_rps = (cpu - served_cpu) / profile.cpu_per_req;
                snap.unserved_bps_by_app[app_idx] += profile.bandwidth_bps(lost_rps);
            }
            let served_rps = served_cpu / profile.cpu_per_req;
            *served_bps.get_or_insert(0.0) += profile.bandwidth_bps(served_rps);
            snap.vm_cpu_offered[vm_id.0 as usize] += cpu;
            snap.vm_cpu_served[vm_id.0 as usize] += served_cpu;
            snap.server_cpu_load[srv.0 as usize] += served_cpu;
        }
        if let Some(bps) = served_bps {
            snap.vip_served_bps.insert(vip, bps);
        }
    }
    snap
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn vip_bits<'a>(m: impl Iterator<Item = (VipAddr, &'a f64)>) -> Vec<(VipAddr, u64)> {
    m.map(|(v, x)| (v, x.to_bits())).collect()
}

/// Re-propagate the demand of the epoch `p` just stepped over the state
/// it left, once in production and once in the reference, and compare
/// every field. Returns the number of VIPs that carried demand.
fn compare_epoch(p: &mut Platform, what: &str) -> usize {
    let demand = p.last_snapshot().expect("stepped").app_demand_bps.clone();
    let now = p.now();
    let got = propagate(&mut p.state, &demand, now);
    let want = propagate_reference(&mut p.state, &demand, now);
    assert_eq!(got.time, now, "{what}");
    assert_eq!(bits(&got.app_demand_bps), bits(&demand), "{what}");
    assert_eq!(
        vip_bits(got.vip_demand_bps.iter()),
        vip_bits(want.vip_demand_bps.iter().map(|(&v, x)| (v, x))),
        "{what}: vip_demand_bps"
    );
    assert_eq!(
        vip_bits(got.vip_served_bps.iter()),
        vip_bits(want.vip_served_bps.iter().map(|(&v, x)| (v, x))),
        "{what}: vip_served_bps"
    );
    let fields = [
        ("link_load_bps", &got.link_load_bps, &want.link_load_bps),
        (
            "switch_offered_bps",
            &got.switch_offered_bps,
            &want.switch_offered_bps,
        ),
        ("vm_cpu_offered", &got.vm_cpu_offered, &want.vm_cpu_offered),
        ("vm_cpu_served", &got.vm_cpu_served, &want.vm_cpu_served),
        (
            "server_cpu_load",
            &got.server_cpu_load,
            &want.server_cpu_load,
        ),
        (
            "unserved_bps_by_app",
            &got.unserved_bps_by_app,
            &want.unserved_bps_by_app,
        ),
    ];
    for (name, g, w) in fields {
        assert_eq!(bits(g), bits(w), "{what}: {name}");
    }
    got.vip_demand_bps.len()
}

/// Run a chaos scenario the way the harness does, comparing after every
/// epoch.
fn compare_scenario(sc: &Scenario, overrides: &[(String, String)]) -> usize {
    let cfg = scenario_config(sc, overrides).expect("scenario config");
    let mut p = Platform::build(cfg).expect("build");
    let base_caps: Vec<f64> = p
        .state
        .access
        .links()
        .iter()
        .map(|l| l.capacity_bps)
        .collect();
    let schedule = sc.lower();
    let mut routed = 0;
    for epoch in 0..sc.epochs {
        for op in schedule.get(&epoch).into_iter().flatten() {
            apply_op(&mut p, op, &base_caps).expect("known ids");
        }
        p.step();
        routed += compare_epoch(&mut p, &format!("seed {} epoch {epoch}", sc.seed));
    }
    routed
}

fn compare_tier(cfg: PlatformConfig, epochs: usize, what: &str) -> usize {
    let mut p = Platform::build(cfg).expect("tier builds");
    (0..epochs)
        .map(|e| {
            p.step();
            compare_epoch(&mut p, &format!("{what} epoch {e}"))
        })
        .sum()
}

#[test]
fn chaos_corpus_snapshots_match_the_map_reference() {
    let corpus = chaos::fixture::load_corpus(&chaos::regressions_dir()).expect("corpus loads");
    assert!(!corpus.is_empty());
    for fixture in corpus {
        assert!(compare_scenario(&fixture.scenario, &fixture.overrides) > 0);
    }
}

#[test]
fn e18_sample_snapshots_match_the_map_reference() {
    // Every fifth seed of E18's quick block, plus the corpus seed.
    for seed in [101, 106, 111, 116, 161] {
        assert!(compare_scenario(&Scenario::generate(seed), &[]) > 0);
    }
}

#[test]
fn small_e19_tiers_match_the_map_reference() {
    assert!(compare_tier(tier_config(600), 6, "30k-shape 600 apps") > 0);
    assert!(compare_tier(mix_tier_config(60), 4, "30k-mix-shape 60 apps") > 0);
}
