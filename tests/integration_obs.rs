//! Integration tests for the control-plane flight recorder (`obs` wired
//! into the megadc platform).
//!
//! The headline properties:
//!
//! * **Determinism** — two platforms built from the same config replay
//!   the E17 flash-crowd scenario to *byte-identical* event logs. The
//!   recorder stamps nothing but sim-clock time and decision inputs, so
//!   any divergence is a real control-plane nondeterminism bug.
//! * **Footprint fidelity** — every recorded global-manager event's
//!   inputs and deltas stay inside the action's declared read/write
//!   footprint (`obs::footprint`). The conflict checker proves declared
//!   pairs safe; this closes the loop by checking the declarations
//!   against what the code actually read and wrote.

use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use obs::explain::{self, footprint_violations, EventLog, Query};
use obs::footprint::GlobalAction;
use obs::{ActionKind, Event};
use std::io::Write as _;
use workload::FlashCrowd;

// 180 epochs: long enough for the post-flash scale-in (QueueRetire)
// to appear. Slice-weighted capacity exposure plus the scale-in
// cooldown pushed the first retire past epoch 90, where this window
// used to end.
const EPOCHS: u64 = 180;

/// The E17 flash-crowd scenario (same seed and shape as the experiment),
/// proactive plane and misrouting escape on — the densest event mix the
/// platform produces.
fn e17_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.seed = 1616;
    cfg.total_demand_bps = 0.5e9;
    cfg.diurnal_amplitude = 0.0;
    cfg.knobs.misrouting_escape = true;
    cfg.elastic = elastic::ElasticConfig::proactive();
    cfg
}

/// Run the scenario, draining the recorder every epoch (so the bounded
/// ring never evicts), and return every event in commit order.
fn run_and_collect(epochs: u64) -> Vec<Event> {
    let mut p = Platform::build(e17_config()).expect("build");
    let mut events = Vec::new();
    p.run_epochs(10);
    events.extend(p.global.recorder.take_events());
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(1800),
        peak: 8.0,
    });
    for _ in 0..epochs {
        p.step();
        events.extend(p.global.recorder.take_events());
    }
    p.state.assert_invariants();
    events
}

fn to_log(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    out
}

#[test]
fn event_log_is_byte_identical_across_reruns() {
    let a = to_log(&run_and_collect(EPOCHS));
    let b = to_log(&run_and_collect(EPOCHS));
    assert!(!a.is_empty(), "scenario produced no events");
    assert_eq!(a, b, "same seed must replay to a byte-identical event log");
}

#[test]
fn recorded_events_stay_inside_declared_footprints() {
    let events = run_and_collect(EPOCHS);
    let mut violations = Vec::new();
    for ev in &events {
        for v in footprint_violations(ev) {
            violations.push(format!("{v}: {}", ev.to_json_line()));
        }
    }
    assert!(
        violations.is_empty(),
        "events escaped their declared footprints:\n{}",
        violations.join("\n")
    );
}

#[test]
fn scenario_exercises_the_headline_event_kinds() {
    let events = run_and_collect(EPOCHS);
    let seen: std::collections::BTreeSet<&'static str> =
        events.iter().map(|e| e.kind.key()).collect();
    for kind in [
        ActionKind::Global(GlobalAction::Reweight),
        ActionKind::Global(GlobalAction::QueueRetire),
        ActionKind::Global(GlobalAction::ExposureRefresh),
        ActionKind::QueueApply,
        ActionKind::PodPlan,
        ActionKind::InstanceStart,
        ActionKind::EpochHealth,
    ] {
        assert!(
            seen.contains(kind.key()),
            "expected at least one {} event; saw kinds: {seen:?}",
            kind.key()
        );
    }
    // Exactly one health record per epoch (warm-up + observed window).
    let health = events
        .iter()
        .filter(|e| e.kind == ActionKind::EpochHealth)
        .count() as u64;
    assert_eq!(health, 10 + EPOCHS);
}

#[test]
fn round_trips_through_the_jsonl_sink_and_explain() {
    // Write through the file sink (as `expt --events` does), re-parse,
    // and cross-check against the in-memory ring.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("integration_obs_events.jsonl");
    let mut file = std::fs::File::create(&path).expect("create sink");
    writeln!(file, "{{\"run\":\"e17-test\"}}").expect("header");

    let mut p = Platform::build(e17_config()).expect("build");
    p.global.recorder.set_sink(file);
    p.run_epochs(10);
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(1800),
        peak: 8.0,
    });
    for _ in 0..EPOCHS {
        p.step();
    }
    assert_eq!(p.global.recorder.sink_errors(), 0, "sink writes failed");

    let text = std::fs::read_to_string(&path).expect("read log back");
    let log: EventLog = explain::parse_log(&text).expect("log parses");
    assert_eq!(log.runs.len(), 1);
    let (label, events) = &log.runs[0];
    assert_eq!(label, "e17-test");
    assert!(!events.is_empty());

    // The victim app was the busiest: explaining it must reconstruct a
    // non-empty, footprint-clean decision chain.
    let report = explain::explain(
        &log,
        &Query {
            vip: None,
            app: Some(victim),
            pod: None,
            epoch: None,
            run: None,
        },
    );
    assert!(
        report.contains("footprint check: ok"),
        "explain found no checked decisions for the victim app:\n{report}"
    );
    assert!(
        !report.contains("VIOLATION"),
        "explain flagged a footprint violation:\n{report}"
    );
}

/// Compile-time exhaustiveness: every declared global action has a known
/// emitter in `megadc`. Adding a `GlobalAction` variant forces this match
/// (and therefore a recorder emit site) to be extended — the static half
/// of the `analyze` emit-coverage lint.
#[test]
fn every_global_action_has_an_emitter() {
    fn emitter_of(action: GlobalAction) -> &'static str {
        match action {
            GlobalAction::Reweight => "GlobalManager::waterfill_vip",
            GlobalAction::VipTransfer => "GlobalManager::balance_switches",
            GlobalAction::QueueRetire => "GlobalManager::queue_retire",
            GlobalAction::ServerTransfer => "GlobalManager::transfer_vacant_servers",
            GlobalAction::Deployment => "GlobalManager::deploy_into_cold_pod",
            GlobalAction::ExposureRefresh => "GlobalManager::refresh_capacity_exposure",
            GlobalAction::MisroutingEscape => "GlobalManager::escape_misrouting",
            GlobalAction::ElephantRelief => "GlobalManager::avoid_elephants",
        }
    }
    for action in obs::footprint::ALL_ACTIONS {
        assert!(!emitter_of(action).is_empty());
    }
}
