//! Pod rebalancing (§IV.C/§IV.D): one pod runs hot while another idles;
//! the global manager climbs the relief ladder — inter-pod RIP weight
//! adjustment, application deployment into the cold pod, vacant-server
//! transfer — and the elephant-pod cap keeps every pod manager's decision
//! space bounded.
//!
//! ```sh
//! cargo run --release --example pod_rebalance
//! ```

use dcsim::table::{fnum, Table};
use megadc::{Platform, PlatformConfig, PodId};
use obs::profile::phase_index;

fn main() {
    let mut config = PlatformConfig::pod_scale();
    config.seed = 99;
    config.diurnal_amplitude = 0.0;
    // Make pod pressure visible: demand high enough to load VMs hard.
    config.total_demand_bps = 60e9;
    let mut platform = Platform::build(config).expect("valid configuration");

    let mut t = Table::new([
        "t (min)",
        "pod utils (max/min)",
        "served",
        "reweights",
        "deployments",
        "server transfers",
        "planning (ms/epoch)",
    ]);
    let planning = phase_index("pod-planning");
    for i in 0..240u64 {
        let snap = platform.step().clone();
        if i % 20 == 0 {
            let u = snap.pod_utilizations(&platform.state);
            let max = u.iter().cloned().fold(0.0, f64::max);
            let min = u.iter().cloned().fold(f64::INFINITY, f64::min);
            let c = platform.global.counters;
            let plan_ms = planning.map_or(0.0, |ph| platform.profiler.mean_s_per_epoch(ph) * 1e3);
            t.row([
                fnum(platform.now().as_secs_f64() / 60.0, 1),
                format!("{} / {}", fnum(max, 3), fnum(min, 3)),
                fnum(snap.served_fraction(), 3),
                c.interpod_weight_adjustments.to_string(),
                c.deployments_completed.to_string(),
                c.server_transfers.to_string(),
                fnum(plan_ms, 2),
            ]);
        }
    }
    println!("{}", t.render());

    // Pod census: sizes stay within the §III.A caps.
    let mut census = Table::new(["pod", "servers", "VMs", "cpu capacity"]);
    for p in 0..platform.state.num_pods() {
        let pod = PodId(p as u32);
        census.row([
            format!("{pod}"),
            platform.state.pod_servers(pod).len().to_string(),
            platform.state.pod_vm_count(pod).to_string(),
            fnum(platform.state.pod_cpu_capacity(pod), 0),
        ]);
    }
    println!("{}", census.render());
    println!(
        "caps: {} servers / {} VMs per pod (§III.A); elephant evictions: {}",
        platform.state.config.pod_max_servers,
        platform.state.config.pod_max_vms,
        platform.global.counters.elephant_evictions
    );
    platform.state.assert_invariants();
}
