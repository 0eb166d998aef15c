//! E19 — paper-scale bench trajectory: wall-time-per-epoch vs threads.
//!
//! §III.A's scalability argument is that per-pod planning parallelizes:
//! pods decide independently, so the control plane's epoch cost should
//! drop with worker threads while everything observable stays
//! bit-identical (the parallel epoch engine's determinism contract,
//! DESIGN.md §5). This experiment makes that measurable: it runs the
//! *full* control plane — demand propagation, threaded pod planning,
//! the global knobs, the serialized VIP/RIP queue — at 30k/100k/300k
//! applications (1 server per app, ~500-server pods) and records
//! wall-time-per-epoch at 1/2/4/8 worker threads. A `30k-mix` tier runs
//! the paper's entity mix (§II: 20 instances and 3+ VIPs per app, so
//! 600k VMs at 30k apps, in 5k-VM pods).
//!
//! Thread counts are swept in **interleaved rounds** (t=1,2,4,8,
//! 1,2,4,8, …) over one warmed-up platform, so slow drift in control
//! activity (early scale-out churn decaying toward steady state) spreads
//! evenly across thread counts instead of biasing the later ones.
//!
//! Besides the measured speedup the report derives the *parallel
//! fraction* — the seconds per epoch spent in the one declared parallel
//! region (pod planning) over the single-thread epoch wall time — and
//! the Amdahl prediction for 4 threads. On hosts without real parallelism (CI
//! containers pinned to one core report `available_parallelism = 1`)
//! the measured speedup degenerates to ~1× while the parallel fraction
//! still shows what the engine would buy; `host_parallelism` is
//! recorded alongside so readers can tell the two situations apart.
//!
//! With `--bench <path>` the tier results are written as
//! `BENCH_scale.json`; CI regenerates the small tier and compares
//! against the committed baseline with `benchcmp` (>15% wall-time
//! regression fails).

use crate::Report;
use dcsim::table::{fnum, Table};
use megadc::{Platform, PlatformConfig};
use std::path::Path;
use std::time::Instant;

/// Worker-thread counts swept per tier.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One tier's measurements.
#[derive(Debug, Clone)]
pub(crate) struct TierResult {
    label: String,
    apps: usize,
    pods: usize,
    vms: usize,
    build_s: f64,
    rounds: usize,
    /// Mean wall seconds per epoch, parallel to [`THREADS`].
    wall_per_epoch_s: Vec<f64>,
    /// Per-epoch seconds in the route and serve stages of demand
    /// propagation (the `demand-route` + `demand-serve` profiler
    /// phases), t=1 epochs only.
    demand_s_per_epoch: f64,
    /// Per-epoch seconds per declared epoch phase (parallel to
    /// `obs::phases::EPOCH_PHASES`), from the platform's span profiler,
    /// t=1 epochs only — at higher thread counts on an oversubscribed
    /// host the same phases take longer inside.
    phase_s_per_epoch: Vec<f64>,
    served_final: f64,
}

impl TierResult {
    fn wall(&self, threads: usize) -> f64 {
        THREADS
            .iter()
            .position(|&t| t == threads)
            .map(|i| self.wall_per_epoch_s[i])
            .unwrap_or(f64::NAN)
    }

    /// Per-epoch planning seconds: the `pod-planning` profiler span,
    /// measured over the t=1 epochs only so it is commensurable with
    /// `wall(1)`.
    fn plan_s_per_epoch(&self) -> f64 {
        obs::profile::phase_index("pod-planning")
            .and_then(|ph| self.phase_s_per_epoch.get(ph))
            .copied()
            .unwrap_or(0.0)
    }

    /// Measured speedup of 4 threads over 1.
    fn speedup_t4(&self) -> f64 {
        self.wall(1) / self.wall(4)
    }

    /// Fraction of the single-thread epoch spent in the declared
    /// parallel region, pod planning (its profiler span covers problem
    /// assembly plus the controller solve). Everything else — demand
    /// propagation, plan application, the global knobs and the VIP/RIP
    /// queue — is serial.
    fn parallel_fraction(&self) -> f64 {
        (self.plan_s_per_epoch() / self.wall(1)).clamp(0.0, 1.0)
    }

    /// Amdahl's-law speedup prediction at 4 workers given the measured
    /// parallel fraction (what the engine buys on a ≥4-core host).
    fn amdahl_t4(&self) -> f64 {
        let f = self.parallel_fraction();
        1.0 / ((1.0 - f) + f / 4.0)
    }

    /// Critical-path attribution over the per-phase columns: the phase
    /// with the largest single-thread share, as `(id, share)`.
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
    cfg.threads = 1;
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
    cfg.threads = 1;
    cfg
}

fn run_tier(label: &str, config: PlatformConfig, rounds: usize) -> TierResult {
    let apps = config.num_apps;
    let t0 = Instant::now();
    let mut p = Platform::build(config).expect("tier config builds");
    let build_s = t0.elapsed().as_secs_f64();

    // Warm-up: let the initial scale-out burst decay before timing.
    p.run_epochs(2);

    let num_phases = obs::phases::EPOCH_PHASES.len();
    let mut wall_total = vec![0.0f64; THREADS.len()];
    let mut phase_total = vec![0.0f64; num_phases];
    for _round in 0..rounds {
        for (i, &threads) in THREADS.iter().enumerate() {
            p.set_threads(threads);
            let phase0: Vec<f64> = (0..num_phases).map(|ph| p.profiler.total_s(ph)).collect();
            let t0 = Instant::now();
            p.step();
            wall_total[i] += t0.elapsed().as_secs_f64();
            if threads == 1 {
                for (ph, total) in phase_total.iter_mut().enumerate() {
                    *total += p.profiler.total_s(ph) - phase0[ph];
                }
            }
        }
    }
    let demand_total: f64 = ["demand-route", "demand-serve"]
        .iter()
        .filter_map(|id| obs::profile::phase_index(id))
        .map(|ph| phase_total[ph])
        .sum();
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
        rounds,
        wall_per_epoch_s: wall_total.iter().map(|w| w / rounds as f64).collect(),
        demand_s_per_epoch: demand_total / rounds as f64,
        phase_s_per_epoch: phase_total.iter().map(|s| s / rounds as f64).collect(),
        served_final,
    }
}

/// Serialize the tier results as the `BENCH_scale.json` document (stable
/// key order; rerunning changes only the measured timings).
fn bench_json(quick: bool, tiers: &[TierResult]) -> String {
    let mut out = String::from("{\"bench\":\"scale\",\"schema\":1,\"host_parallelism\":");
    out.push_str(&host_parallelism().to_string());
    out.push_str(",\"quick\":");
    out.push_str(if quick { "true" } else { "false" });
    out.push_str(",\"threads\":[");
    for (i, t) in THREADS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out.push_str("],\"tiers\":[");
    for (i, tier) in tiers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        obs::json::write_str(&tier.label, &mut out);
        for (key, val) in [
            ("apps", tier.apps as f64),
            ("pods", tier.pods as f64),
            ("vms", tier.vms as f64),
            ("rounds", tier.rounds as f64),
        ] {
            out.push_str(&format!(",\"{key}\":{}", val as u64));
        }
        out.push_str(",\"build_s\":");
        obs::json::write_f64(tier.build_s, &mut out);
        out.push_str(",\"wall_per_epoch_s\":{");
        for (i, &t) in THREADS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"t{t}\":"));
            obs::json::write_f64(tier.wall_per_epoch_s[i], &mut out);
        }
        out.push_str("},\"plan_s_per_epoch\":");
        obs::json::write_f64(tier.plan_s_per_epoch(), &mut out);
        out.push_str(",\"demand_s_per_epoch\":");
        obs::json::write_f64(tier.demand_s_per_epoch, &mut out);
        out.push_str(",\"phase_s_per_epoch\":{");
        for (i, phase) in obs::phases::EPOCH_PHASES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(phase.id);
            out.push_str("\":");
            obs::json::write_f64(
                tier.phase_s_per_epoch.get(i).copied().unwrap_or(0.0),
                &mut out,
            );
        }
        out.push('}');
        out.push_str(",\"parallel_fraction\":");
        obs::json::write_f64(tier.parallel_fraction(), &mut out);
        out.push_str(",\"speedup_t4\":");
        obs::json::write_f64(tier.speedup_t4(), &mut out);
        out.push_str(",\"amdahl_t4\":");
        obs::json::write_f64(tier.amdahl_t4(), &mut out);
        out.push_str(",\"served_final\":");
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
    let rounds = if quick { 2 } else { 3 };
    let mut t = Table::new([
        "tier",
        "pods",
        "vms",
        "build s",
        "s/epoch t=1",
        "s/epoch t=2",
        "s/epoch t=4",
        "s/epoch t=8",
        "speedup t=4",
        "par frac",
        "amdahl t=4",
        "critical path",
    ]);
    let mut tiers = Vec::new();
    for (label, config) in tiers_spec {
        let tier = run_tier(label, config, rounds);
        t.row([
            tier.label.clone(),
            tier.pods.to_string(),
            tier.vms.to_string(),
            fnum(tier.build_s, 2),
            fnum(tier.wall(1), 4),
            fnum(tier.wall(2), 4),
            fnum(tier.wall(4), 4),
            fnum(tier.wall(8), 4),
            fnum(tier.speedup_t4(), 2),
            fnum(tier.parallel_fraction(), 2),
            fnum(tier.amdahl_t4(), 2),
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
        "E19 — paper-scale bench trajectory: full-control-plane wall-time per epoch\n\
         (1 server/app, ~500-server pods; 30k-mix: 20 instances/app, 5k-VM pods;\n\
         thread counts interleaved per round so control-activity drift cancels;\n\
         host parallelism = {host})\n\n{}\n\
         expected shape: per-epoch wall time grows with the tier while per-pod\n\
         planning stays bounded (the §III.A argument); on a multi-core host the\n\
         t=4 column approaches the Amdahl prediction from the parallel fraction,\n\
         and on a single-core host (host parallelism = 1) the measured speedup\n\
         degenerates to ~1x while results stay bit-identical either way.\n",
        t.render(),
        host = host_parallelism(),
    );
    let mut report =
        Report::text_only("e19", text).metric("host_parallelism", host_parallelism() as f64);
    for tier in &tiers {
        let l = &tier.label;
        report = report
            .metric(&format!("{l}_wall_per_epoch_t1_s"), tier.wall(1))
            .metric(&format!("{l}_wall_per_epoch_t4_s"), tier.wall(4))
            .metric(&format!("{l}_speedup_t4"), tier.speedup_t4())
            .metric(&format!("{l}_parallel_fraction"), tier.parallel_fraction())
            .metric(&format!("{l}_served_final"), tier.served_final);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature tier exercising the full measurement path (build,
    /// warm-up, interleaved thread rounds, JSON rendering) in test time.
    #[test]
    fn miniature_tier_measures_and_serializes() {
        let tier = run_tier("mini", tier_config(600), 1);
        assert_eq!(tier.apps, 600);
        assert!(tier.pods >= 1 && tier.vms >= 600);
        assert!(tier.wall_per_epoch_s.iter().all(|&w| w > 0.0));
        assert!(tier.plan_s_per_epoch() >= 0.0);
        assert!(tier.demand_s_per_epoch > 0.0);
        assert!((0.0..=1.0).contains(&tier.parallel_fraction()));
        assert!(tier.amdahl_t4() >= 1.0);
        assert_eq!(
            tier.phase_s_per_epoch.len(),
            obs::phases::EPOCH_PHASES.len()
        );
        assert!(
            tier.phase_s_per_epoch.iter().sum::<f64>() > 0.0,
            "span profiler recorded nothing"
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
            .and_then(|w| w.get("t4"))
            .and_then(|v| v.as_f64())
            .is_some());
        assert!(first
            .get("demand_s_per_epoch")
            .and_then(|v| v.as_f64())
            .is_some_and(|d| d > 0.0));
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
