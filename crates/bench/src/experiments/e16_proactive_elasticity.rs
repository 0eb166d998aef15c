//! E16 — reactive vs proactive elasticity (forecast-driven control plane).
//!
//! The paper's controllers are reactive: pods provision observed demand ×
//! headroom, and the global manager deploys only once a pod is already
//! overloaded. The `elastic` crate adds a predictive control plane —
//! per-app Holt forecasting, target-tracking autoscaling, and an
//! agility-ladder arbiter feeding the VIP/RIP queue. This experiment
//! replays identical workloads (same seed, same demand trajectory) with
//! the proactive plane off and on, and compares:
//!
//! * **overload epochs** — epochs with served fraction below 0.99;
//! * **time to relief** — epochs from flash-crowd start until the first
//!   sustained recovery (10 consecutive epochs with no overload);
//! * **deployments** — instance starts + inter-pod deployments +
//!   proactive clones (the expensive knob the paper says to minimize);
//! * **forecast MAPE** — mean absolute percentage error of the one-epoch
//!   demand forecast (proactive runs only).

use crate::Report;
use dcsim::table::{fnum, Table};
use dcsim::SimDuration;
use megadc::{Platform, PlatformConfig};
use obs::metrics::ids as mid;
use std::path::Path;
use workload::FlashCrowd;

const OVERLOAD_THRESHOLD: f64 = 0.99;
/// Flash crowd starts two epochs into the measured window.
const FLASH_START_EPOCH: usize = 2;
/// Relief = the first window this many epochs long with no overload.
const RELIEF_WINDOW: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Outcome {
    pub served_mean: f64,
    pub overload_epochs: usize,
    pub time_to_relief: usize,
    pub deployments: u64,
    pub mape: Option<f64>,
    /// Flight-recorder ring evictions over the run (obs health).
    pub ring_dropped: u64,
    /// JSONL sink write failures over the run (obs health).
    pub sink_errors: u64,
}

#[derive(Clone, Copy)]
pub(crate) enum Scenario {
    FlashCrowd,
    Diurnal,
}

pub(crate) fn run_one(
    scenario: Scenario,
    proactive: bool,
    epochs: u64,
    events: Option<&Path>,
    metrics: Option<&Path>,
) -> Outcome {
    let mut cfg = PlatformConfig::small_test();
    cfg.seed = 1616;
    cfg.total_demand_bps = 0.5e9;
    let scenario_label = match scenario {
        Scenario::FlashCrowd => {
            cfg.diurnal_amplitude = 0.0;
            "flash"
        }
        Scenario::Diurnal => {
            cfg.diurnal_amplitude = 0.4;
            cfg.diurnal_period = SimDuration::from_secs(1200); // compressed day
            "diurnal"
        }
    };
    if proactive {
        cfg.elastic = elastic::ElasticConfig::proactive();
    }
    let mut p = Platform::build(cfg).expect("build");
    let plane = if proactive { "proactive" } else { "reactive" };
    let label = format!("e16/{scenario_label}-{plane}");
    if let Some(path) = events {
        if let Some(sink) = super::open_event_sink(path, &label) {
            p.global.recorder.set_sink(sink);
        }
    }
    p.run_epochs(10);
    if let Scenario::FlashCrowd = scenario {
        let victim = p.workload.apps_by_popularity()[0];
        p.workload.add_flash_crowd(FlashCrowd {
            app: victim,
            start: p.now() + SimDuration::from_secs(20),
            ramp: SimDuration::from_secs(300),
            duration: SimDuration::from_secs(1800),
            peak: 8.0,
        });
    }
    let mut served_sum = 0.0;
    let mut overloaded = Vec::with_capacity(epochs as usize);
    for _ in 0..epochs {
        let snap = p.step().clone();
        let served = snap.served_fraction();
        served_sum += served;
        overloaded.push(served < OVERLOAD_THRESHOLD);
    }
    let overload_epochs = overloaded.iter().filter(|&&o| o).count();
    // Relief: first RELIEF_WINDOW consecutive clean epochs at or after
    // the flash start; `epochs` (the whole window) if never relieved.
    let post = &overloaded[FLASH_START_EPOCH.min(overloaded.len())..];
    let time_to_relief = if overload_epochs == 0 {
        0
    } else {
        post.windows(RELIEF_WINDOW)
            .position(|w| w.iter().all(|&o| !o))
            .unwrap_or(epochs as usize)
    };
    if let Some(path) = metrics {
        super::append_metrics(path, &p.registry.render_text(&label));
    }
    Outcome {
        served_mean: served_sum / epochs as f64,
        overload_epochs,
        time_to_relief,
        deployments: p.registry.counter(mid::INSTANCE_STARTS)
            + p.global.counters.deployments_started
            + p.registry.counter(mid::PROACTIVE_DEPLOY),
        mape: p.forecast_mape(),
        ring_dropped: p.global.recorder.dropped(),
        sink_errors: p.global.recorder.sink_errors(),
    }
}

fn fmt_mape(m: Option<f64>) -> String {
    match m {
        Some(v) => fnum(v, 3),
        None => "-".to_string(),
    }
}

/// Run the comparison.
pub fn report(quick: bool, events: Option<&Path>, metrics: Option<&Path>) -> Report {
    let epochs = if quick { 90 } else { 180 };
    let scenarios: [(&str, Scenario); 2] = [
        ("flash crowd 8x", Scenario::FlashCrowd),
        ("diurnal 0.4", Scenario::Diurnal),
    ];
    let mut t = Table::new([
        "scenario",
        "plane",
        "served mean",
        "overload epochs",
        "time to relief",
        "deployments",
        "forecast MAPE",
    ]);
    let mut flash = Vec::new();
    let mut obs_health = (0u64, 0u64);
    for (label, scenario) in scenarios {
        for proactive in [false, true] {
            let o = run_one(scenario, proactive, epochs, events, metrics);
            obs_health.0 += o.ring_dropped;
            obs_health.1 += o.sink_errors;
            if matches!(scenario, Scenario::FlashCrowd) {
                flash.push(o);
            }
            t.row([
                label.to_string(),
                if proactive { "proactive" } else { "reactive" }.to_string(),
                fnum(o.served_mean, 4),
                o.overload_epochs.to_string(),
                o.time_to_relief.to_string(),
                o.deployments.to_string(),
                fmt_mape(o.mape),
            ]);
        }
    }
    let text = format!(
        "E16 — reactive vs proactive elasticity ({epochs} epochs, identical seeds)\n\n{}\n\
         expected shape: on the flash crowd the proactive plane deploys ahead of\n\
         the ramp (Holt trend forecast, 3-epoch horizon), so overload epochs and\n\
         time-to-relief both shrink strictly, while the deployment count stays\n\
         within 2x of reactive — the arbiter's agility ladder spends the cheap\n\
         knobs (weights, slices) first and rations clones. On the smooth diurnal\n\
         cycle forecasting is easy (low MAPE) and both planes serve ~everything;\n\
         the proactive run simply tracks the cycle with slightly earlier slices.\n",
        t.render(),
    );
    // flash[0] = reactive, flash[1] = proactive (loop order above).
    Report::text_only("e16", text)
        .metric("epochs", epochs as f64)
        .metric(
            "flash_reactive_overload_epochs",
            flash[0].overload_epochs as f64,
        )
        .metric(
            "flash_proactive_overload_epochs",
            flash[1].overload_epochs as f64,
        )
        .metric(
            "flash_reactive_time_to_relief",
            flash[0].time_to_relief as f64,
        )
        .metric(
            "flash_proactive_time_to_relief",
            flash[1].time_to_relief as f64,
        )
        .metric("flash_reactive_deployments", flash[0].deployments as f64)
        .metric("flash_proactive_deployments", flash[1].deployments as f64)
        .metric("flash_proactive_mape", flash[1].mape.unwrap_or(f64::NAN))
        .metric("obs_ring_dropped", obs_health.0 as f64)
        .metric("obs_sink_errors", obs_health.1 as f64)
}

#[cfg(test)]
mod tests {
    use super::{run_one, Scenario};

    #[test]
    fn proactive_strictly_improves_flash_crowd_relief() {
        let reactive = run_one(Scenario::FlashCrowd, false, 90, None, None);
        let proactive = run_one(Scenario::FlashCrowd, true, 90, None, None);
        assert!(
            proactive.overload_epochs < reactive.overload_epochs,
            "overload epochs: proactive {} vs reactive {}",
            proactive.overload_epochs,
            reactive.overload_epochs
        );
        assert!(
            proactive.time_to_relief < reactive.time_to_relief,
            "time to relief: proactive {} vs reactive {}",
            proactive.time_to_relief,
            reactive.time_to_relief
        );
        assert!(
            proactive.deployments <= 2 * reactive.deployments,
            "deployment blow-up: proactive {} vs reactive {}",
            proactive.deployments,
            reactive.deployments
        );
        assert!(proactive.mape.is_some(), "no forecast accuracy recorded");
    }

    #[test]
    fn outcomes_are_bit_identical_for_fixed_seed() {
        let a = run_one(Scenario::FlashCrowd, true, 40, None, None);
        let b = run_one(Scenario::FlashCrowd, true, 40, None, None);
        assert_eq!(a, b);
    }
}
