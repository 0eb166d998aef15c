//! E5 — pod-manager decision time vs pod size, and elephant-pod relief
//! (§III.A, §IV.C).
//!
//! "A more subtle issue is that the server pod manager itself may become
//! overloaded due to too many servers and applications in the pod, which
//! increases the decision space for the pod manager and slows down its
//! resource allocation algorithms beyond acceptable levels."
//!
//! We measure one pod manager's decision time as its pod grows, then show
//! that the elephant cap (server transfer *with* instances, §IV.C) keeps
//! every pod — and therefore every decision — bounded.

use dcsim::table::{fnum, Table};
use megadc::demand::propagate;
use megadc::pod::PodManager;
use megadc::state::PlatformState;
use megadc::viprip::{Priority, Request, VipRipManager};
use megadc::{AppId, Platform, PlatformConfig, PodId};
use std::time::Instant;

/// Build a single-pod state with `servers` servers and `servers/2` apps
/// (×4 instances), loaded to ~50%.
fn pod_state(servers: usize) -> (PlatformState, megadc::demand::LoadSnapshot) {
    let mut cfg = PlatformConfig::pod_scale();
    cfg.num_servers = servers;
    cfg.initial_pods = 1;
    cfg.pod_max_servers = servers * 2; // no elephant relief here
    cfg.pod_max_vms = servers * 8;
    cfg.num_apps = servers.max(4);
    cfg.num_switches = (servers / 10).max(4);
    cfg.num_access_links = 4;
    // Demand that outgrows the initial slices (~70% of pod CPU), so the
    // controller must re-apportion, grow slices and add instances — the
    // real decision work that scales with the pod.
    cfg.total_demand_bps = servers as f64 * 8.0 * 0.7 / 1.0417e-8;
    let mut st = PlatformState::new(cfg);
    let mut mgr = VipRipManager::new();
    for a in 0..cfg.num_apps {
        let app = st.register_app(a);
        for _ in 0..2 {
            mgr.submit(Priority::Normal, Request::NewVip { app });
        }
    }
    mgr.process_all(&mut st);
    // 4 instances per app, first-fit.
    let mut next_server = 0usize;
    for a in 0..cfg.num_apps as u32 {
        for _ in 0..4 {
            let vm = st
                .fleet
                .create_vm_running(
                    vmm::ServerId((next_server % servers) as u32),
                    a,
                    cfg.vm_cpu_slice,
                    cfg.vm_mem_mb,
                )
                .expect("capacity");
            next_server += 1;
            mgr.submit(
                Priority::Normal,
                Request::NewRip {
                    app: AppId(a),
                    vm,
                    weight: 1.0,
                },
            );
        }
    }
    mgr.process_all(&mut st);
    // Even demand per app through DNS.
    let t = dcsim::SimTime::ZERO;
    for a in 0..cfg.num_apps as u32 {
        let vips = st.app(AppId(a)).unwrap().vips.clone();
        let weights = vips
            .iter()
            .map(|&v| (v, if st.vip_rip_count(v) > 0 { 1.0 } else { 0.0 }))
            .collect();
        st.dns.set_exposure(a, weights, t);
        for &v in &vips {
            st.advertise_vip(v, dcnet::access::AccessRouterId(0), t)
                .unwrap();
        }
    }
    let now = t + st.routes.convergence();
    let per_app = cfg.total_demand_bps / cfg.num_apps as f64;
    let demands = vec![per_app; cfg.num_apps];
    let snap = propagate(&mut st, &demands, now);
    (st, snap)
}

/// Run the decision-time sweep + elephant demo.
pub fn run(quick: bool) -> String {
    let sizes: &[usize] = if quick {
        &[100, 400]
    } else {
        &[100, 200, 400, 800, 1600, 3200]
    };
    let mut t = Table::new(["pod servers", "pod VMs", "apps", "decision time (ms)"]);
    let mut times = Vec::new();
    for &servers in sizes {
        let (st, snap) = pod_state(servers);
        let mgr = PodManager::new(PodId(0));
        // Median of three runs to de-noise wall clock.
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(mgr.plan(&st, &snap));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let secs = samples[1];
        times.push((servers as f64, secs));
        t.row([
            servers.to_string(),
            st.pod_vm_count(PodId(0)).to_string(),
            st.num_apps().to_string(),
            fnum(secs * 1e3, 2),
        ]);
    }
    let (s0, t0) = times[times.len() - 2];
    let (s1, t1) = times[times.len() - 1];
    let exponent = (t1 / t0).ln() / (s1 / s0).ln();

    // Elephant relief: a platform whose pods start over the cap sheds
    // servers until each pod is within it; the largest decision problem
    // shrinks accordingly.
    let mut cfg = PlatformConfig::pod_scale();
    cfg.pod_max_servers = 50; // pods start at 100 servers each
    let mut p = Platform::build(cfg).expect("build");
    let before: usize = (0..p.state.num_pods())
        .map(|i| p.state.pod_servers(PodId(i as u32)).len())
        .max()
        .unwrap();
    p.run_epochs(3);
    let after: usize = (0..p.state.num_pods())
        .map(|i| p.state.pod_servers(PodId(i as u32)).len())
        .max()
        .unwrap();
    format!(
        "E5 — pod-manager decision time vs pod size (§III.A, §IV.C)\n\n{}\n\
         decision-time scaling exponent between the two largest pods: {:.2}\n\
         (super-linear growth is what makes elephant pods dangerous)\n\n\
         elephant relief: largest pod {before} servers -> {after} servers\n\
         (cap {cap}; {ev} server evictions, pods now {pods})\n",
        t.render(),
        exponent,
        cap = 50,
        ev = p.global.counters.elephant_evictions,
        pods = p.state.num_pods(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_quick() {
        let out = super::run(true);
        assert!(out.contains("decision time"));
    }
}
