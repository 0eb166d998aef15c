//! Flash crowd: the scenario of §IV.B — demand for one application
//! multiplies ~8× in minutes, pushing its LB switch toward the 4 Gbps
//! limit and its pod toward CPU saturation. Watch the platform respond
//! with the paper's knobs: slice adjustments and instance starts first
//! (seconds), deployments into colder pods, then a dynamic VIP transfer
//! off the hottest switch.
//!
//! ```sh
//! cargo run --release --example flash_crowd
//! ```

use dcsim::table::{fnum, Table};
use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use obs::metrics::ids;
use workload::FlashCrowd;

fn main() {
    let mut config = PlatformConfig::pod_scale();
    config.diurnal_amplitude = 0.0; // isolate the flash-crowd effect
    config.seed = 2014;
    let mut platform = Platform::build(config).expect("valid configuration");

    // Warm up 20 epochs so the managers reach steady state.
    platform.run_epochs(20);
    let victim = platform.workload.apps_by_popularity()[0];
    let base = platform.workload.base_demand_bps(victim);
    println!(
        "flash crowd on app{victim}: baseline {:.1} Mbps, peak 8x over 40 min",
        base / 1e6
    );
    let start = platform.now() + SimDuration::from_secs(60);
    platform.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start,
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(2400),
        peak: 8.0,
    });

    let mut t = Table::new([
        "t (min)",
        "app demand (Mbps)",
        "served",
        "max pod util",
        "max sw util",
        "VMs",
    ]);
    let total_epochs = 300u64; // 50 simulated minutes
    for i in 0..total_epochs {
        let snap = platform.step().clone();
        if i % 15 == 0 {
            let demand = snap.app_demand_bps[victim as usize];
            let served = snap.served_fraction();
            let pod_max = snap
                .pod_utilizations(&platform.state)
                .iter()
                .cloned()
                .fold(0.0, f64::max);
            let sw_max = snap
                .switch_utilizations(&platform.state)
                .iter()
                .cloned()
                .fold(0.0, f64::max);
            t.row([
                fnum(platform.now().as_secs_f64() / 60.0, 1),
                fnum(demand / 1e6, 1),
                fnum(served, 3),
                fnum(pod_max, 3),
                fnum(sw_max, 3),
                platform.state.fleet.num_vms().to_string(),
            ]);
        }
    }
    println!("\n{}", t.render());

    let c = platform.global.counters;
    println!("elastic response:");
    println!(
        "  slice adjustments      {}",
        platform.registry.counter(ids::SLICE_ADJUSTMENTS)
    );
    println!(
        "  instances started      {}",
        platform.registry.counter(ids::INSTANCE_STARTS)
    );
    println!(
        "  instances stopped      {}",
        platform.registry.counter(ids::INSTANCE_STOPS)
    );
    println!("  deployments to pods    {}", c.deployments_completed);
    println!("  inter-pod reweights    {}", c.interpod_weight_adjustments);
    println!("  VIP drains started     {}", c.vip_drains_started);
    println!("  VIP transfers done     {}", c.vip_transfers_completed);
    platform.state.assert_invariants();
}
