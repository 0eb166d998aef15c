//! The benchmark's workloads: seeded inputs for the epoch engine.
//!
//! Each workload stresses a different layer (see each `why`). The program
//! receives only what is generated here: a [`PlatformConfig`], and the
//! injections made through the public `Platform` API after warm-up.

use chaos::scenario::{Op, Scenario};
use dcnet::access::AccessLinkId;
use dcsim::SimDuration;
use lbswitch::SwitchId;
use megadc::{Platform, PlatformConfig, PodId};
use vmm::ServerId;
use workload::FlashCrowd;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// E19's scale tier: 1 instance per app, flat demand.
    Steady,
    /// The paper's §II entity mix: 20 instances and 3+ VIPs per app.
    PaperMix,
    /// Diurnal demand, the proactive plane, a switch loss and flash crowds.
    Churn,
    /// Many short chaos scenarios on the `small_test` topology.
    Chaos,
}

/// One workload: its name, why it is in the benchmark, and its sizes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark has it (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// What it drives.
    pub kind: Kind,
    /// Added to the run's `--seed` to give the workload seed.
    pub base_seed: u64,
    /// Applications (platform workloads) or scenarios per episode (chaos).
    pub size: usize,
    /// Untimed epochs after each build.
    pub warmup: u64,
    /// Timed epochs per episode (chaos: per scenario).
    pub timed: u64,
    /// Flash crowds started after warm-up (churn only).
    pub flash_crowds: usize,
}

/// Every workload, in the order `run` without `--workload` runs them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "steady-8k",
        why: "E19 scale tier at 8k apps, 1 instance per app, flat demand: read-only epochs, ~70% route lookup (a route-table scan per VIP) and ~20% switch distribution",
        kind: Kind::Steady,
        base_seed: 1900,
        size: 8_000,
        warmup: 2,
        timed: 10,
        flash_crowds: 0,
    },
    Workload {
        name: "paper-mix-1k",
        why: "paper entity mix (20 instances and 3+ VIPs per app, 5k-VM pods): pod planning, the VIP/RIP queue and RIP-side serving share the epoch with route lookup",
        kind: Kind::PaperMix,
        base_seed: 1901,
        size: 1_000,
        warmup: 2,
        timed: 12,
        flash_crowds: 0,
    },
    Workload {
        name: "churn-1k",
        why: "a switch loss overloads the 2 left, with diurnal demand, flash crowds and the proactive plane: ~1.5k misrouting escapes per epoch rewrite DNS exposure and RIP weights",
        kind: Kind::Churn,
        base_seed: 1902,
        size: 1_000,
        warmup: 2,
        timed: 40,
        flash_crowds: 12,
    },
    Workload {
        name: "chaos-small",
        why: "512 seeded 48-epoch chaos scenarios per episode on the small_test topology: fixed per-build and per-epoch costs, pod planning ~50%, faults write state",
        kind: Kind::Chaos,
        base_seed: 101,
        size: 512,
        warmup: 0,
        timed: chaos::scenario::DEFAULT_EPOCHS,
        flash_crowds: 0,
    },
];

/// Stride between the chaos scenario seeds of consecutive run seeds.
const CHAOS_SEED_STRIDE: u64 = 8192;

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload shrunk to test size.
    #[cfg(test)]
    pub fn miniature(self) -> Workload {
        let size = match self.kind {
            Kind::Chaos => 2,
            _ => 300,
        };
        Workload {
            size,
            warmup: self.warmup.min(1),
            timed: self.timed.min(3),
            flash_crowds: self.flash_crowds.min(2),
            ..self
        }
    }

    /// The platform config of a platform workload for run seed `seed`.
    pub fn config(&self, seed: u64) -> PlatformConfig {
        let apps = self.size;
        let mut cfg = PlatformConfig::paper_scale();
        cfg.seed = self.base_seed.wrapping_add(seed);
        cfg.num_apps = apps;
        cfg.threads = 1;
        cfg.diurnal_amplitude = 0.0;
        match self.kind {
            Kind::Steady => {
                // E19's `tier_config`.
                cfg.num_servers = apps;
                cfg.initial_instances_per_app = 1;
                cfg.initial_pods = apps.div_ceil(500);
                cfg.pod_max_servers = 600;
                cfg.pod_max_vms = 2400;
                cfg.vips_per_app = 1;
                cfg.popular_extra_vips = 1;
                cfg.total_demand_bps = apps as f64 * 0.2e6;
            }
            Kind::PaperMix => {
                // 20 instances/app, 10 VMs per server, ~5k VMs per pod.
                cfg.num_servers = 2 * apps;
                cfg.initial_pods = apps.div_ceil(250);
                cfg.total_demand_bps = (apps * cfg.initial_instances_per_app) as f64 * 0.2e6;
            }
            Kind::Churn => {
                cfg.num_servers = apps;
                cfg.initial_instances_per_app = 2;
                cfg.num_switches = 3;
                cfg.initial_pods = apps.div_ceil(250);
                cfg.total_demand_bps = apps as f64 * 6.0e6;
                cfg.diurnal_amplitude = 0.4;
                cfg.diurnal_period = SimDuration::from_secs(1200);
                cfg.elastic = elastic::ElasticConfig::proactive();
            }
            Kind::Chaos => unreachable!("chaos configs come from scenarios"),
        }
        cfg
    }

    /// Injections made once warm-up is over (churn only): LB switch 0
    /// fails, and flash crowds start 30 s apart on every 7th app by
    /// popularity.
    pub fn inject_after_warmup(&self, p: &mut Platform) -> Result<(), String> {
        if self.kind != Kind::Churn {
            return Ok(());
        }
        p.inject_switch_failure(SwitchId(0))?;
        let by_pop = p.workload.apps_by_popularity();
        for i in 0..self.flash_crowds {
            let app = *by_pop
                .get(7 * i)
                .ok_or_else(|| format!("no app at popularity rank {}", 7 * i))?;
            let start = p.now() + SimDuration::from_secs(10 + 30 * i as u64);
            p.workload.add_flash_crowd(FlashCrowd {
                app,
                start,
                ramp: SimDuration::from_secs(60),
                duration: SimDuration::from_secs(600),
                peak: 6.0,
            });
        }
        Ok(())
    }

    /// The chaos scenarios of one episode for run seed `seed`.
    pub fn scenarios(&self, seed: u64) -> Vec<Scenario> {
        let first = self
            .base_seed
            .wrapping_add(CHAOS_SEED_STRIDE.wrapping_mul(seed));
        (0..self.size as u64)
            .map(|i| {
                let mut sc = Scenario::generate(first.wrapping_add(i));
                sc.epochs = self.timed;
                sc
            })
            .collect()
    }
}

/// The config of one chaos scenario: `small_test` with the scenario's
/// seed and demand shape (as `chaos::harness::scenario_config` builds it
/// with no overrides), on one thread.
pub fn scenario_config(sc: &Scenario) -> Result<PlatformConfig, String> {
    let mut cfg = chaos::harness::scenario_config(sc, &[])?;
    cfg.threads = 1;
    Ok(cfg)
}

/// Apply one chaos op through the platform's injection API. Ops the
/// platform refuses (a second failure of the same target, the last
/// healthy switch) are skipped, as the chaos harness does.
pub fn apply_op(p: &mut Platform, op: &Op, base_caps: &[f64]) {
    match *op {
        Op::FailPod(pod) => {
            let _ = p.inject_pod_failure(PodId(pod));
        }
        Op::FailSwitch(switch) => {
            let _ = p.inject_switch_failure(SwitchId(switch));
        }
        Op::FailServer(server) => {
            let _ = p.inject_server_failure(ServerId(server));
        }
        Op::SetLinkFactor { link, factor } => {
            if let Some(&base) = base_caps.get(link as usize) {
                let _ = p.inject_link_capacity(AccessLinkId(link), base * factor);
            }
        }
        Op::FlashCrowd {
            rank,
            peak,
            ramp_s,
            duration_s,
        } => {
            let Some(&app) = p.workload.apps_by_popularity().get(rank as usize) else {
                return;
            };
            // The workload model needs a positive ramp and duration >= 2 * ramp.
            let ramp = ramp_s.clamp(1, duration_s / 2);
            let start = p.now() + SimDuration::from_secs(10);
            p.workload.add_flash_crowd(FlashCrowd {
                app,
                start,
                ramp: SimDuration::from_secs(ramp),
                duration: SimDuration::from_secs(duration_s),
                peak: peak.max(1.0),
            });
        }
    }
}
