//! Schedule-shuffle sanitizer determinism (DESIGN.md §"Parallel epoch
//! engine").
//!
//! `MEGADC_SHUFFLE=<seed>` (here armed via [`Platform::set_shuffle`] to
//! avoid `set_var` races) makes the epoch pool spawn chunks in a seeded
//! permutation and inject seeded yields into every worker — an
//! adversarial scheduler that deliberately scrambles the interleavings
//! the OS would produce. The engine's contract is that reassembly by
//! chunk index makes scheduling unobservable, so the E17 flash-crowd
//! scenario (the densest event mix the platform produces) must yield a
//! byte-identical flight-recorder log and bitwise-identical metrics
//! under every (seed × thread-count) combination. A divergence here
//! means some parallel region accidentally depends on completion order
//! — exactly the bug class the happy-path scheduler hides.

use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use workload::FlashCrowd;

const WARMUP: u64 = 10;
const EPOCHS: u64 = 120;
const SHUFFLE_SEEDS: [u64; 2] = [7, 41];
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

struct RunOutcome {
    event_log: String,
    served_by_epoch: Vec<f64>,
    final_vms: usize,
    final_pods: usize,
}

fn run_scenario(threads: usize, shuffle: Option<u64>) -> RunOutcome {
    let mut p = Platform::build(e17_config(threads)).expect("build");
    p.set_shuffle(shuffle);
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
    }
}

/// Every (shuffle seed × thread count) combination must reproduce the
/// unshuffled single-thread run byte-for-byte.
#[test]
fn event_log_is_byte_identical_under_schedule_shuffle() {
    let baseline = run_scenario(1, None);
    assert!(
        !baseline.event_log.is_empty(),
        "scenario produced no events"
    );
    for &seed in &SHUFFLE_SEEDS {
        for &threads in &THREADS {
            let run = run_scenario(threads, Some(seed));
            assert_eq!(
                baseline.event_log, run.event_log,
                "event log diverged under MEGADC_SHUFFLE={seed} at {threads} threads"
            );
            // Bitwise float equality is deliberate: demand propagation
            // is serial and pod plans are applied in pod-index order, so
            // even the accumulation order of every float is
            // scheduler-independent.
            assert_eq!(
                baseline.served_by_epoch, run.served_by_epoch,
                "served fraction diverged under MEGADC_SHUFFLE={seed} at {threads} threads"
            );
            assert_eq!(baseline.final_vms, run.final_vms);
            assert_eq!(baseline.final_pods, run.final_pods);
        }
    }
}

/// The environment-variable path: `MEGADC_SHUFFLE` arms the sanitizer in
/// `EpochPool::new` (what CI's determinism step uses). Scoped to one
/// construction; an accidental overlap with a concurrently-built pool
/// would only arm its sanitizer, which this suite proves is unobservable.
#[test]
fn env_var_arms_the_sanitizer() {
    std::env::set_var("MEGADC_SHUFFLE", "9");
    let armed = megadc::parallel::EpochPool::new(4);
    std::env::remove_var("MEGADC_SHUFFLE");
    assert_eq!(armed.shuffle_seed(), Some(9));
    let unarmed = megadc::parallel::EpochPool::new(4);
    assert_eq!(unarmed.shuffle_seed(), None);

    // An armed pool still produces input-ordered output.
    let items: Vec<u64> = (0..1000).collect();
    let mut out = Vec::new();
    armed.map_into(obs::phases::REGION_POD_PLANNING, &items, &mut out, |&x| {
        x * 2
    });
    let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
    assert_eq!(out, expected);
}
