//! Integration tests for the parallel epoch engine's determinism
//! contract (DESIGN.md §"Parallel epoch engine").
//!
//! The contract: `PlatformConfig::threads` trades wall-clock time only.
//! Pod managers plan against an immutable state/snapshot pair and the
//! plans are applied serially in pod-index order, so every observable —
//! the flight-recorder event log byte-for-byte, the load snapshots, the
//! metric samples — must be identical at *any* worker-thread count.
//! These tests replay the E17 flash-crowd scenario (the densest event
//! mix the platform produces) at 1, 4, and 8 threads and diff the
//! results; any divergence is a reduction-order bug in
//! `megadc::parallel` or a hidden mutation inside `PodManager::plan`.

use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use obs::metrics::ids;
use workload::FlashCrowd;

const WARMUP: u64 = 10;
const EPOCHS: u64 = 120;
const THREADS: [usize; 3] = [1, 4, 8];

fn e17_config(threads: usize) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.seed = 1616;
    cfg.total_demand_bps = 0.5e9;
    cfg.diurnal_amplitude = 0.0;
    cfg.knobs.misrouting_escape = true;
    cfg.elastic = elastic::ElasticConfig::proactive();
    cfg.threads = threads;
    cfg
}

/// Everything observable from one scenario run: the full event log and a
/// numeric fingerprint of the end state.
struct RunOutcome {
    event_log: String,
    served_by_epoch: Vec<f64>,
    final_vms: usize,
    final_pods: usize,
    placement_changes: u64,
}

fn run_scenario(threads: usize) -> RunOutcome {
    let mut p = Platform::build(e17_config(threads)).expect("build");
    assert_eq!(p.threads(), threads.max(1));
    let mut event_log = String::new();
    let drain = |p: &mut Platform, out: &mut String| {
        for ev in p.global.recorder.take_events() {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
    };
    p.run_epochs(WARMUP);
    drain(&mut p, &mut event_log);
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(1800),
        peak: 8.0,
    });
    let mut served_by_epoch = Vec::new();
    for _ in 0..EPOCHS {
        let served = p.step().served_fraction();
        served_by_epoch.push(served);
        drain(&mut p, &mut event_log);
    }
    p.state.assert_invariants();
    RunOutcome {
        event_log,
        served_by_epoch,
        final_vms: p.state.fleet.num_vms(),
        final_pods: p.state.num_pods(),
        placement_changes: p.registry.counter(ids::PLACEMENT_CHANGES),
    }
}

#[test]
fn event_log_is_byte_identical_across_thread_counts() {
    let baseline = run_scenario(THREADS[0]);
    assert!(
        !baseline.event_log.is_empty(),
        "scenario produced no events"
    );
    for &threads in &THREADS[1..] {
        let run = run_scenario(threads);
        assert_eq!(
            baseline.event_log, run.event_log,
            "event log diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn snapshots_and_metrics_are_identical_across_thread_counts() {
    let baseline = run_scenario(THREADS[0]);
    for &threads in &THREADS[1..] {
        let run = run_scenario(threads);
        // Bitwise float equality is deliberate: plans are applied in
        // pod-index order regardless of thread count, so even the
        // accumulation order of every float is identical.
        assert_eq!(
            baseline.served_by_epoch, run.served_by_epoch,
            "served fraction diverged at {threads} threads"
        );
        assert_eq!(baseline.final_vms, run.final_vms);
        assert_eq!(baseline.final_pods, run.final_pods);
        assert_eq!(baseline.placement_changes, run.placement_changes);
    }
}

/// `Platform::set_threads` mid-run must not disturb the trajectory
/// either — only the worker pool is swapped, never the planning inputs.
#[test]
fn mid_run_thread_changes_preserve_the_trajectory() {
    let fixed = run_scenario(1);
    let mut p = Platform::build(e17_config(1)).expect("build");
    let mut event_log = String::new();
    p.run_epochs(WARMUP);
    for ev in p.global.recorder.take_events() {
        event_log.push_str(&ev.to_json_line());
        event_log.push('\n');
    }
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(1800),
        peak: 8.0,
    });
    for epoch in 0..EPOCHS {
        // Rotate the pool every epoch: 1, 4, 8, 1, 4, 8, ...
        p.set_threads(THREADS[epoch as usize % THREADS.len()]);
        p.step();
        for ev in p.global.recorder.take_events() {
            event_log.push_str(&ev.to_json_line());
            event_log.push('\n');
        }
    }
    assert_eq!(
        fixed.event_log, event_log,
        "changing thread counts mid-run altered the event log"
    );
}
