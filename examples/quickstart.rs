//! Quickstart: build a small mega-DC platform, run it for a few minutes of
//! simulated time, and print what the managers did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dcsim::table::{fnum, Table};
use megadc::{Platform, PlatformConfig};
use obs::metrics::ids;
use obs::profile::phase_index;

fn main() {
    // A pod-scale platform: 400 servers in 4 logical pods, 200 apps with
    // Zipf-skewed demand, an auto-sized LB switch fabric and 4 access
    // links. All constants default to the paper's (§II).
    let config = PlatformConfig::pod_scale();
    println!(
        "building platform: {} servers / {} pods / {} apps / {} LB switches / {} access links",
        config.num_servers,
        config.initial_pods,
        config.num_apps,
        config.effective_num_switches(),
        config.num_access_links,
    );
    let mut platform = Platform::build(config).expect("valid configuration");

    // Run 60 control epochs (10 simulated minutes).
    let report = platform.run_epochs(60);

    let mut t = Table::new(["metric", "value"]);
    t.row(["epochs run".to_string(), report.epochs.to_string()]);
    t.row([
        "served fraction (final)".to_string(),
        fnum(report.final_served_fraction, 4),
    ]);
    t.row([
        "served fraction (mean)".to_string(),
        fnum(report.mean_served_fraction, 4),
    ]);
    t.row([
        "max link utilization".to_string(),
        fnum(report.final_link_util_max, 3),
    ]);
    t.row([
        "max switch utilization".to_string(),
        fnum(report.final_switch_util_max, 3),
    ]);
    t.row([
        "max pod utilization".to_string(),
        fnum(report.final_pod_util_max, 3),
    ]);
    let c = platform.global.counters;
    t.row([
        "DNS exposure updates".to_string(),
        c.exposure_updates.to_string(),
    ]);
    t.row([
        "VIP transfers completed".to_string(),
        c.vip_transfers_completed.to_string(),
    ]);
    t.row([
        "instances started".to_string(),
        platform.registry.counter(ids::INSTANCE_STARTS).to_string(),
    ]);
    t.row([
        "slice adjustments".to_string(),
        platform
            .registry
            .counter(ids::SLICE_ADJUSTMENTS)
            .to_string(),
    ]);
    t.row([
        "route updates sent".to_string(),
        platform.state.routes.updates_sent().to_string(),
    ]);
    println!("\n{}", t.render());

    if let Some(ph) = phase_index("pod-planning") {
        println!(
            "pod-manager planning: {:.2} ms/epoch (all pods, over {} epochs)",
            platform.profiler.mean_s_per_epoch(ph) * 1e3,
            platform.profiler.epochs()
        );
    }
    platform.state.assert_invariants();
    println!("all platform invariants hold ✓");
}
