//! E17 — the reactive hold-phase misrouting equilibrium and its fix.
//!
//! E16's flash-crowd run exposed a failure mode of the purely reactive
//! plane: after the ramp, the platform settles into a *misrouting
//! equilibrium* where one RIP of a VIP is saturated while its siblings
//! idle. The VIP-level weight/slice misalignment is invisible to every
//! reactive trigger — per-pod weight balancing preserves pod totals and
//! cannot fix a pod holding a single RIP of the VIP, the unserved
//! fraction sits below the global 5% deploy trigger, and pod/switch
//! utilization stay below their thresholds — so served fraction
//! plateaus (≈0.984) indefinitely.
//!
//! The fix (`KnobFlags::misrouting_escape`): the global manager tracks
//! per-VIP served/offered each epoch; when a VIP stays below
//! `vip_starvation_ratio` for `vip_starvation_epochs` consecutive
//! epochs *and* the app has spare serving capacity, it water-fills the
//! VIP's RIP weights toward predicted-headroom-proportional targets
//! (conserving the total) and refreshes DNS exposure
//! capacity-proportionally. The correction is self-limiting: once the
//! VIP recovers above the ratio the streak clears and the knob goes
//! quiet.
//!
//! This experiment replays the E16 flash-crowd scenario (same seed)
//! with the escape off and on, in both reactive and proactive modes,
//! and reports the hold-phase (final third) served fraction plus the
//! extra knob actions the fix spends.

use crate::Report;
use dcsim::table::{fnum, Table};
use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use obs::metrics::ids as mid;
use obs::{scale_direction, Event};
use std::collections::BTreeMap;
use std::path::Path;
use workload::FlashCrowd;

const OVERLOAD_THRESHOLD: f64 = 0.99;
/// The oscillation metric counts flip-flops in observed-window epochs
/// `[OSC_FROM, OSC_TO)` — the late run, after the flash crowd has passed
/// its peak and decayed, when only the scale-in/out limit cycle remains.
const OSC_FROM: u64 = 90;
const OSC_TO: u64 = 180;
/// Warm-up epochs before the observed window starts (recorder epochs are
/// offset by this much relative to observed-window epochs).
const WARMUP: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Outcome {
    pub served_mean: f64,
    /// Mean served fraction over the final third of the window — the
    /// "hold phase", after the ramp completes and deployments settle.
    pub hold_served_mean: f64,
    pub hold_served_min: f64,
    pub overload_epochs: usize,
    pub escapes: u64,
    pub exposure_updates: u64,
    pub deployments: u64,
    /// Scale-direction flip-flops in observed epochs 90..180, from the
    /// flight-recorder event log (0 when the run is shorter than that).
    pub flipflops_90_180: u64,
    /// Scale-direction flip-flops over the whole observed window.
    pub flipflops_total: u64,
    /// Flight-recorder ring evictions over the run (obs health).
    pub ring_dropped: u64,
    /// JSONL sink write failures over the run (obs health).
    pub sink_errors: u64,
}

/// Count scale-direction flip-flops per app from a flight-recorder log.
///
/// A *flip-flop* is an app whose scale direction reverses: a scale-out
/// event (pod instance start, proactive deploy, global deployment clone)
/// followed — possibly epochs later — by a scale-in event (queued retire,
/// proactive retirement), or vice versa. Each reversal within recorder
/// epochs `[lo, hi)` counts once. A well-damped controller converges to
/// zero reversals once demand settles. Measured on the E17 scenario:
/// with the scale-in cooldown disabled the reactive plane flip-flops
/// during the ramp/early-hold (it repeatedly starts an instance, queues
/// its retire, then re-starts it — 2 reversals with the escape on; 6
/// before slice-weighted capacity exposure calmed the scenario); the
/// default `scale_in_cooldown_epochs` damps this to at most one
/// reversal, and the late run (observed epochs 90..180) is
/// reversal-free in every mode: the decayed flash surplus is retired
/// monotonically. The regression tests below pin all three facts.
pub(crate) fn oscillation_flipflops(events: &[Event], lo: u64, hi: u64) -> u64 {
    let mut last_dir: BTreeMap<u32, i8> = BTreeMap::new();
    let mut flips = 0u64;
    for ev in events {
        if ev.epoch < lo || ev.epoch >= hi {
            continue;
        }
        // Shared direction classification (`obs::scale_direction`) — the
        // recorder's run-wide flip-flop counter uses the same table, so
        // this windowed replay and the live `slo.flipflops` metric can
        // never disagree about what counts as a reversal.
        let Some(dir) = scale_direction(ev.kind) else {
            continue;
        };
        let Some(app) = ev.app else { continue };
        if let Some(&prev) = last_dir.get(&app) {
            if prev != dir {
                flips += 1;
            }
        }
        last_dir.insert(app, dir);
    }
    flips
}

pub(crate) fn run_one(
    proactive: bool,
    escape: bool,
    epochs: u64,
    events: Option<&Path>,
    metrics: Option<&Path>,
) -> Outcome {
    run_one_with(proactive, escape, None, epochs, events, metrics)
}

/// [`run_one`] with an optional `scale_in_cooldown_epochs` override, so
/// the oscillation regression tests can pin both the damped default and
/// the undamped counterfactual.
pub(crate) fn run_one_with(
    proactive: bool,
    escape: bool,
    cooldown_override: Option<u32>,
    epochs: u64,
    events: Option<&Path>,
    metrics: Option<&Path>,
) -> Outcome {
    // Identical scenario to E16's flash crowd so the pre-fix run
    // reproduces the exact plateau E16 first surfaced.
    let mut cfg = PlatformConfig::small_test();
    cfg.seed = 1616;
    cfg.total_demand_bps = 0.5e9;
    cfg.diurnal_amplitude = 0.0;
    cfg.knobs.misrouting_escape = escape;
    if let Some(cd) = cooldown_override {
        cfg.scale_in_cooldown_epochs = cd;
    }
    if proactive {
        cfg.elastic = elastic::ElasticConfig::proactive();
    }
    let mut p = Platform::build(cfg).expect("build");
    let plane = if proactive { "proactive" } else { "reactive" };
    let esc = if escape { "on" } else { "off" };
    let label = format!("e17/{plane}-escape-{esc}");
    if let Some(path) = events {
        if let Some(sink) = super::open_event_sink(path, &label) {
            p.global.recorder.set_sink(sink);
        }
    }
    p.run_epochs(10);
    let victim = p.workload.apps_by_popularity()[0];
    p.workload.add_flash_crowd(FlashCrowd {
        app: victim,
        start: p.now() + SimDuration::from_secs(20),
        ramp: SimDuration::from_secs(300),
        duration: SimDuration::from_secs(1800),
        peak: 8.0,
    });
    // Drain the recorder every epoch: the bounded ring never evicts, and
    // the oscillation window sees every scale event of the whole run.
    let mut recorded: Vec<Event> = p.global.recorder.take_events();
    let mut served = Vec::with_capacity(epochs as usize);
    for _ in 0..epochs {
        let snap = p.step().clone();
        served.push(snap.served_fraction());
        recorded.extend(p.global.recorder.take_events());
    }
    if let Some(path) = metrics {
        super::append_metrics(path, &p.registry.render_text(&label));
    }
    let hold = &served[served.len() - served.len() / 3..];
    Outcome {
        served_mean: served.iter().sum::<f64>() / served.len() as f64,
        hold_served_mean: hold.iter().sum::<f64>() / hold.len() as f64,
        hold_served_min: hold.iter().copied().fold(f64::INFINITY, f64::min),
        overload_epochs: served.iter().filter(|&&s| s < OVERLOAD_THRESHOLD).count(),
        escapes: p.global.counters.misrouting_escapes,
        exposure_updates: p.global.counters.exposure_updates,
        deployments: p.registry.counter(mid::INSTANCE_STARTS)
            + p.global.counters.deployments_started
            + p.registry.counter(mid::PROACTIVE_DEPLOY),
        flipflops_90_180: oscillation_flipflops(&recorded, WARMUP + OSC_FROM, WARMUP + OSC_TO),
        flipflops_total: oscillation_flipflops(&recorded, WARMUP, u64::MAX),
        ring_dropped: p.global.recorder.dropped(),
        sink_errors: p.global.recorder.sink_errors(),
    }
}

/// Run the comparison.
///
/// The window is fixed at 90 epochs in both modes: the ramp completes by
/// epoch ~32 and the final third is the pure hold phase where only the
/// equilibrium (or its fix) is in play. Longer windows mix in the
/// scenario's slow scale-in/out oscillations, which E16 already measures
/// and which are identical with the escape off and on.
pub fn report(quick: bool, events: Option<&Path>, metrics: Option<&Path>) -> Report {
    let epochs = 90;
    let mut t = Table::new([
        "plane",
        "escape",
        "served mean",
        "hold served",
        "hold min",
        "overload epochs",
        "escapes",
        "exposure updates",
        "deployments",
    ]);
    let mut outcomes = Vec::new();
    let mut obs_health = (0u64, 0u64);
    for proactive in [false, true] {
        for escape in [false, true] {
            let o = run_one(proactive, escape, epochs, events, metrics);
            obs_health.0 += o.ring_dropped;
            obs_health.1 += o.sink_errors;
            t.row([
                if proactive { "proactive" } else { "reactive" }.to_string(),
                if escape { "on" } else { "off" }.to_string(),
                fnum(o.served_mean, 4),
                fnum(o.hold_served_mean, 4),
                fnum(o.hold_served_min, 4),
                o.overload_epochs.to_string(),
                o.escapes.to_string(),
                o.exposure_updates.to_string(),
                o.deployments.to_string(),
            ]);
            outcomes.push(o);
        }
    }
    let text = format!(
        "E17 — misrouting equilibrium: hold-phase served fraction, escape off vs on\n\
         ({epochs} epochs, flash crowd 8x, identical seeds across all four runs;\n\
         hold phase = final third, after the ramp completes)\n\n{}\n\
         expected shape: with the escape off the reactive run plateaus below 0.995\n\
         served through the entire hold phase — the misrouting equilibrium no\n\
         reactive trigger can see. With the escape on, both planes water-fill the\n\
         starved VIP's weights toward predicted-headroom targets and recover to\n\
         >= 0.999 served; the correction is self-limiting (escapes stop once the\n\
         VIP recovers), costing only a bounded number of weight/exposure updates\n\
         and no extra deployments.\n",
        t.render(),
    );
    // Loop order above: [reactive-off, reactive-on, proactive-off,
    // proactive-on].
    let mut report = Report::text_only("e17", text)
        .metric("epochs", epochs as f64)
        .metric(
            "reactive_noescape_hold_served",
            outcomes[0].hold_served_mean,
        )
        .metric("reactive_escape_hold_served", outcomes[1].hold_served_mean)
        .metric("proactive_escape_hold_served", outcomes[3].hold_served_mean)
        .metric("reactive_escapes", outcomes[1].escapes as f64)
        .metric("reactive_flipflops", outcomes[1].flipflops_total as f64)
        .metric("obs_ring_dropped", obs_health.0 as f64)
        .metric("obs_sink_errors", obs_health.1 as f64);
    // The late-run oscillation metric needs the full 180-epoch window
    // (observed epochs 90..180); skipped under --quick, where CI only
    // needs the 90-epoch determinism check.
    if !quick {
        let full = run_one(true, true, OSC_TO, events, metrics);
        report = report
            .metric("flipflops_90_180", full.flipflops_90_180 as f64)
            .metric("flipflops_total", full.flipflops_total as f64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::{oscillation_flipflops, run_one, run_one_with, OSC_TO};
    use dcsim::SimTime;
    use obs::{ActionKind, Actor, Recorder};

    /// The equilibrium plateau, measured 0.9499 when first found.
    /// Slice-weighted capacity exposure (the chaos-sweep fix to
    /// `capacity_weight`) lifted it to 0.9921 but did not eliminate it:
    /// the hold phase still flat-lines short of full service and only
    /// the escape closes the gap.
    #[test]
    fn reactive_plateau_reproduced_without_escape() {
        let o = run_one(false, false, 90, None, None);
        assert!(
            o.hold_served_mean < 0.995,
            "pre-fix reactive hold phase should plateau below 0.995, got {}",
            o.hold_served_mean
        );
        assert_eq!(o.escapes, 0, "escape must not fire when disabled");
    }

    #[test]
    fn escape_lifts_hold_phase_to_full_service() {
        for proactive in [false, true] {
            let o = run_one(proactive, true, 90, None, None);
            assert!(
                o.hold_served_mean >= 0.999,
                "post-fix hold phase (proactive={proactive}) should serve >= 0.999, got {}",
                o.hold_served_mean
            );
        }
    }

    #[test]
    fn escape_is_self_limiting() {
        let o = run_one(false, true, 90, None, None);
        assert!(o.escapes > 0, "escape never fired in reactive mode");
        assert!(
            o.escapes < 45,
            "escape should converge and go quiet, fired {} times in 90 epochs",
            o.escapes
        );
    }

    #[test]
    fn outcomes_are_bit_identical_for_fixed_seed() {
        let a = run_one(false, true, 60, None, None);
        let b = run_one(false, true, 60, None, None);
        assert_eq!(a, b);
        let c = run_one(true, true, 60, None, None);
        let d = run_one(true, true, 60, None, None);
        assert_eq!(c, d);
    }

    #[test]
    fn flipflop_counter_tracks_direction_reversals_per_app() {
        let mut rec = Recorder::default();
        // Epoch 5: app 1 scales out, app 2 scales in.
        rec.begin_epoch(5, SimTime::ZERO);
        rec.event(Actor::Pod(0), ActionKind::InstanceStart)
            .app(1)
            .commit();
        rec.event(Actor::Elastic, ActionKind::ProactiveRetire)
            .app(2)
            .commit();
        // Epoch 6: app 1 reverses (retire) = 1 flip; app 2 retires again = 0.
        rec.begin_epoch(6, SimTime::ZERO);
        rec.event(Actor::Elastic, ActionKind::ProactiveRetire)
            .app(1)
            .commit();
        rec.event(Actor::Elastic, ActionKind::ProactiveRetire)
            .app(2)
            .commit();
        // Epoch 7: app 1 reverses back (deploy) = 2nd flip.
        rec.begin_epoch(7, SimTime::ZERO);
        rec.event(Actor::Elastic, ActionKind::ProactiveDeploy)
            .app(1)
            .commit();
        // Epoch 9: outside the window — must not count.
        rec.begin_epoch(9, SimTime::ZERO);
        rec.event(Actor::Elastic, ActionKind::ProactiveRetire)
            .app(1)
            .commit();
        let events = rec.take_events();
        assert_eq!(oscillation_flipflops(&events, 5, 9), 2);
        assert_eq!(oscillation_flipflops(&events, 5, 10), 3);
        assert_eq!(oscillation_flipflops(&events, 8, 10), 0);
    }

    /// Regression tests documenting CURRENT measured oscillation
    /// behaviour (deterministic, so the numbers are exact):
    ///
    /// * the reactive plane with the escape on used to flip-flop during
    ///   the ramp/early hold — it started instances, queued their
    ///   retires, then re-started (2 reversals in 90 observed epochs;
    ///   6 before slice-weighted capacity exposure). The scale-in
    ///   cooldown (`scale_in_cooldown_epochs`, default 5) damps that
    ///   limit cycle away completely: zero start/retire/start reversals
    ///   in the whole window. Disabling the cooldown reproduces the
    ///   oscillation, so the damping is attributable to the cooldown
    ///   and not a scenario drift. This asserts the *damped* behaviour
    ///   exactly, so any regression of the damping fails (the original
    ///   form asserted the oscillation was still present, which would
    ///   *pass* on a damping regression).
    #[test]
    fn reactive_scale_oscillation_damped_by_cooldown() {
        let damped = run_one(false, true, 90, None, None);
        assert_eq!(
            damped.flipflops_total, 0,
            "reactive scale oscillation is back (flipflops={}) — the \
             scale-in cooldown no longer damps the start/retire/start \
             limit cycle",
            damped.flipflops_total
        );
        let undamped = run_one_with(false, true, Some(0), 90, None, None);
        assert!(
            undamped.flipflops_total >= 2,
            "cooldown-off counterfactual lost its oscillation \
             (flipflops={}, measured 2 — was 6 before slice-weighted \
             capacity exposure calmed the scenario) — the limit cycle \
             this test exists to pin is gone",
            undamped.flipflops_total
        );
    }

    /// * the late run (observed epochs 90..180, after the flash crowd
    ///   decays) is reversal-free in every mode: the surplus is retired
    ///   monotonically. This pins the absence of a late-run limit cycle.
    #[test]
    fn late_run_scale_in_is_monotonic() {
        let o = run_one(true, true, OSC_TO, None, None);
        assert_eq!(
            o.flipflops_90_180, 0,
            "late-run scale-in developed a limit cycle ({} reversals in \
             observed epochs 90..180)",
            o.flipflops_90_180
        );
        assert!(
            o.flipflops_total >= 1,
            "sanity: the full window should still contain scale reversals"
        );
    }
}
