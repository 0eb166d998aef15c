//! E19 — paper-scale bench trajectory: wall time per epoch by tier.
//!
//! §III.A's scalability argument is that each pod manager decides over
//! a bounded space — its own pod — so the control plane's per-pod cost
//! stays flat as the platform grows. This experiment makes that
//! measurable: it runs the *full* control plane — demand propagation,
//! pod planning, the global knobs, the serialized VIP/RIP queue — at
//! 30k/100k/300k applications (1 server per app, ~500-server pods) and
//! records the median wall time per epoch, the per-phase profiler
//! columns and the pod-planning cost per pod. A `30k-mix` tier runs the
//! paper's entity mix (§II: 20 instances and 3+ VIPs per app, so 600k
//! VMs at 30k apps, in 5k-VM pods).
//!
//! Each tier steps one warmed-up platform for [`epochs`] timed epochs.
//! The wall column is their median, so one scheduler hiccup cannot move
//! it; the phase columns are means over the same epochs.
//!
//! With `--bench <path>` the tier results are written as
//! `BENCH_scale.json`; CI regenerates the quick tiers and compares
//! against the committed baseline with `benchcmp` (>15% wall-time
//! regression fails).

use crate::Report;
use dcsim::table::{fnum, Table};
use megadc::{Platform, PlatformConfig};
use std::path::Path;
use std::time::Instant;

/// Timed epochs per tier: 8 at `--quick`, 12 for the full ladder.
fn epochs(quick: bool) -> usize {
    if quick {
        8
    } else {
        12
    }
}

/// One tier's measurements.
#[derive(Debug, Clone)]
pub(crate) struct TierResult {
    label: String,
    apps: usize,
    pods: usize,
    vms: usize,
    build_s: f64,
    epochs: usize,
    /// Median wall seconds per timed epoch.
    wall_per_epoch_s: f64,
    /// Per-epoch seconds in the route and serve stages of demand
    /// propagation (the `demand-route` + `demand-serve` profiler
    /// phases).
    demand_s_per_epoch: f64,
    /// Per-epoch seconds per declared epoch phase (parallel to
    /// `obs::phases::EPOCH_PHASES`), from the platform's span profiler.
    phase_s_per_epoch: Vec<f64>,
    /// Pod-planning wall milliseconds per pod round: §III.A's bounded
    /// per-pod cost.
    pod_planning_ms_per_pod: f64,
    /// Pod rounds over the timed epochs, and how many of them ran the
    /// controller rather than reusing the manager's last plan. Both are
    /// functions of sim state: identical on every run of one build.
    pod_rounds: u64,
    pod_rounds_solved: u64,
    served_final: f64,
}

impl TierResult {
    /// Per-epoch planning seconds: the `pod-planning` profiler span.
    fn plan_s_per_epoch(&self) -> f64 {
        obs::profile::phase_index("pod-planning")
            .and_then(|ph| self.phase_s_per_epoch.get(ph))
            .copied()
            .unwrap_or(0.0)
    }

    /// Critical-path attribution over the per-phase columns: the phase
    /// with the largest share, as `(id, share)`.
    fn dominant_phase(&self) -> Option<(&'static str, f64)> {
        let total: f64 = self.phase_s_per_epoch.iter().sum();
        if total <= 0.0 {
            return None;
        }
        obs::phases::EPOCH_PHASES
            .iter()
            .zip(&self.phase_s_per_epoch)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(p, &s)| (p.id, s / total))
    }
}

/// The scale-tier platform: 1 server and 1 initial instance per app,
/// ~500-server pods, moderate per-app demand (popular apps still force
/// real scale-out work), diurnal flattened so epochs are comparable.
pub(crate) fn tier_config(apps: usize) -> PlatformConfig {
    let mut cfg = PlatformConfig::paper_scale();
    cfg.seed = 1900;
    cfg.num_apps = apps;
    cfg.num_servers = apps;
    cfg.initial_instances_per_app = 1;
    cfg.initial_pods = apps.div_ceil(500);
    cfg.pod_max_servers = 600;
    cfg.pod_max_vms = 2400;
    cfg.vips_per_app = 1;
    cfg.popular_extra_vips = 1;
    cfg.total_demand_bps = apps as f64 * 0.2e6;
    cfg.diurnal_amplitude = 0.0;
    cfg
}

/// The paper-mix tier platform (megabench's `paper-mix` shape): the
/// paper-scale entity mix of 20 instances and 3+ VIPs per app, 2
/// servers per app (10 VMs each), 250 apps (5k VMs) per pod, 0.2 Mb/s
/// per instance.
pub(crate) fn mix_tier_config(apps: usize) -> PlatformConfig {
    let mut cfg = PlatformConfig::paper_scale();
    cfg.seed = 1900;
    cfg.num_apps = apps;
    cfg.num_servers = 2 * apps;
    cfg.initial_pods = apps.div_ceil(250);
    cfg.total_demand_bps = (apps * cfg.initial_instances_per_app) as f64 * 0.2e6;
    cfg.diurnal_amplitude = 0.0;
    cfg
}

fn run_tier(label: &str, config: PlatformConfig, epochs: usize) -> TierResult {
    let apps = config.num_apps;
    let t0 = Instant::now();
    let mut p = Platform::build(config).expect("tier config builds");
    let build_s = t0.elapsed().as_secs_f64();

    // Warm-up: let the initial scale-out burst decay before timing.
    p.run_epochs(2);

    let num_phases = obs::phases::EPOCH_PHASES.len();
    let phase0: Vec<f64> = (0..num_phases).map(|ph| p.profiler.total_s(ph)).collect();
    let mut walls = Vec::with_capacity(epochs);
    // Every pod plans once per epoch; pods only appear after planning.
    let mut pod_rounds = 0;
    let solved0 = p.pod_rounds_solved();
    for _ in 0..epochs {
        pod_rounds += p.state.num_pods();
        let t0 = Instant::now();
        p.step();
        walls.push(t0.elapsed().as_secs_f64());
    }
    let phase_s_per_epoch: Vec<f64> = (0..num_phases)
        .map(|ph| (p.profiler.total_s(ph) - phase0[ph]) / epochs as f64)
        .collect();
    let phase = |id: &str| {
        obs::profile::phase_index(id)
            .map(|ph| phase_s_per_epoch[ph])
            .unwrap_or(0.0)
    };
    walls.sort_by(f64::total_cmp);
    let served_final = p
        .last_snapshot()
        .map(|s| s.served_fraction())
        .unwrap_or(0.0);
    TierResult {
        label: label.to_string(),
        apps,
        pods: p.state.num_pods(),
        vms: p.state.fleet.num_vms(),
        build_s,
        epochs,
        wall_per_epoch_s: walls[epochs / 2],
        demand_s_per_epoch: phase("demand-route") + phase("demand-serve"),
        pod_planning_ms_per_pod: phase("pod-planning") * epochs as f64 * 1e3 / pod_rounds as f64,
        pod_rounds: pod_rounds as u64,
        pod_rounds_solved: p.pod_rounds_solved() - solved0,
        phase_s_per_epoch,
        served_final,
    }
}

/// Serialize the tier results as the `BENCH_scale.json` document (stable
/// key order; rerunning changes only the measured timings).
fn bench_json(quick: bool, tiers: &[TierResult]) -> String {
    let mut out = String::from("{\"bench\":\"scale\",\"schema\":2,\"host_parallelism\":");
    out.push_str(&host_parallelism().to_string());
    out.push_str(",\"quick\":");
    out.push_str(if quick { "true" } else { "false" });
    out.push_str(",\"tiers\":[");
    for (i, tier) in tiers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        obs::json::write_str(&tier.label, &mut out);
        for (key, val) in [
            ("apps", tier.apps as u64),
            ("pods", tier.pods as u64),
            ("vms", tier.vms as u64),
            ("epochs", tier.epochs as u64),
            ("pod_rounds", tier.pod_rounds),
            ("pod_rounds_solved", tier.pod_rounds_solved),
        ] {
            out.push_str(&format!(",\"{key}\":{val}"));
        }
        out.push_str(",\"build_s\":");
        obs::json::write_f64(tier.build_s, &mut out);
        out.push_str(",\"wall_per_epoch_s\":{\"t1\":");
        obs::json::write_f64(tier.wall_per_epoch_s, &mut out);
        out.push_str("},\"plan_s_per_epoch\":");
        obs::json::write_f64(tier.plan_s_per_epoch(), &mut out);
        out.push_str(",\"pod_planning_ms_per_pod\":");
        obs::json::write_f64(tier.pod_planning_ms_per_pod, &mut out);
        out.push_str(",\"demand_s_per_epoch\":");
        obs::json::write_f64(tier.demand_s_per_epoch, &mut out);
        out.push_str(",\"phase_s_per_epoch\":{");
        for (i, (phase, s)) in obs::phases::EPOCH_PHASES
            .iter()
            .zip(&tier.phase_s_per_epoch)
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(phase.id);
            out.push_str("\":");
            obs::json::write_f64(*s, &mut out);
        }
        out.push_str("},\"served_final\":");
        obs::json::write_f64(tier.served_final, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run the scale trajectory. `--quick` runs the 30k and 30k-mix tiers
/// (the CI regression gate); the full run adds 100k and 300k apps.
pub fn report(quick: bool, bench: Option<&Path>) -> Report {
    let mut tiers_spec = vec![("30k", tier_config(30_000))];
    if !quick {
        tiers_spec.push(("100k", tier_config(100_000)));
        tiers_spec.push(("300k", tier_config(300_000)));
    }
    tiers_spec.push(("30k-mix", mix_tier_config(30_000)));
    let mut t = Table::new([
        "tier",
        "pods",
        "vms",
        "build s",
        "s/epoch",
        "pod-planning ms/pod",
        "rounds solved",
        "critical path",
    ]);
    let mut tiers = Vec::new();
    for (label, config) in tiers_spec {
        let tier = run_tier(label, config, epochs(quick));
        t.row([
            tier.label.clone(),
            tier.pods.to_string(),
            tier.vms.to_string(),
            fnum(tier.build_s, 2),
            fnum(tier.wall_per_epoch_s, 4),
            fnum(tier.pod_planning_ms_per_pod, 3),
            format!("{}/{}", tier.pod_rounds_solved, tier.pod_rounds),
            match tier.dominant_phase() {
                Some((id, share)) => format!("{id} {:.0}%", share * 100.0),
                None => "-".to_string(),
            },
        ]);
        tiers.push(tier);
    }
    if let Some(path) = bench {
        let doc = bench_json(quick, &tiers);
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("warning: cannot write bench report {}: {e}", path.display());
        }
    }
    let text = format!(
        "E19 — paper-scale bench trajectory: full-control-plane wall time per epoch\n\
         (1 server/app, ~500-server pods; 30k-mix: 20 instances/app, 5k-VM pods;\n\
         median of {epochs} timed epochs per tier; host parallelism = {host};\n\
         rounds solved: timed pod rounds that ran the controller, of all)\n\n{}\n\
         expected shape: per-epoch wall time grows with the tier while the\n\
         pod-planning cost per pod stays flat across the 1-server-per-app tiers\n\
         (the §III.A bounded decision space).\n",
        t.render(),
        epochs = epochs(quick),
        host = host_parallelism(),
    );
    let mut report =
        Report::text_only("e19", text).metric("host_parallelism", host_parallelism() as f64);
    for tier in &tiers {
        let l = &tier.label;
        report = report
            .metric(&format!("{l}_wall_per_epoch_t1_s"), tier.wall_per_epoch_s)
            .metric(
                &format!("{l}_pod_planning_ms_per_pod"),
                tier.pod_planning_ms_per_pod,
            )
            .metric(
                &format!("{l}_pod_rounds_solved"),
                tier.pod_rounds_solved as f64,
            )
            .metric(&format!("{l}_served_final"), tier.served_final);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature tier exercising the full measurement path (build,
    /// warm-up, timed epochs, JSON rendering) in test time.
    #[test]
    fn miniature_tier_measures_and_serializes() {
        let tier = run_tier("mini", tier_config(600), 3);
        assert_eq!(tier.apps, 600);
        assert!(tier.pods >= 1 && tier.vms >= 600);
        assert!(tier.wall_per_epoch_s > 0.0);
        assert!(tier.plan_s_per_epoch() > 0.0);
        assert!(tier.pod_planning_ms_per_pod > 0.0);
        assert!(tier.demand_s_per_epoch > 0.0);
        assert_eq!(
            tier.phase_s_per_epoch.len(),
            obs::phases::EPOCH_PHASES.len()
        );
        assert!(tier.dominant_phase().is_some());
        let doc = bench_json(true, &[tier]);
        let parsed = obs::json::parse(&doc).expect("bench json parses");
        assert_eq!(parsed.get("bench").and_then(|b| b.as_str()), Some("scale"));
        let tiers = parsed.get("tiers").and_then(|t| t.as_arr()).expect("tiers");
        let first = &tiers[0];
        assert_eq!(first.get("label").and_then(|l| l.as_str()), Some("mini"));
        assert!(first
            .get("wall_per_epoch_s")
            .and_then(|w| w.get("t1"))
            .and_then(|v| v.as_f64())
            .is_some());
        for key in ["demand_s_per_epoch", "pod_planning_ms_per_pod"] {
            assert!(
                first
                    .get(key)
                    .and_then(|v| v.as_f64())
                    .is_some_and(|d| d > 0.0),
                "{key} missing from bench json"
            );
        }
        // Every declared phase serializes as a per-phase bench column.
        let phases = first
            .get("phase_s_per_epoch")
            .expect("phase_s_per_epoch present");
        for p in obs::phases::EPOCH_PHASES {
            assert!(
                phases.get(p.id).and_then(|v| v.as_f64()).is_some(),
                "phase {} missing from bench json",
                p.id
            );
        }
    }
}
