//! The injection harness: apply a scenario's schedule between platform
//! epochs and run the invariant oracles after every epoch.

use crate::oracle::{OracleConfig, Oracles, Violation};
use crate::scenario::{Op, Scenario};
use dcnet::access::AccessLinkId;
use dcsim::SimDuration;
use lbswitch::SwitchId;
use megadc::{Platform, PlatformConfig, PodId};
use obs::Event;
use vmm::ServerId;
use workload::FlashCrowd;

/// Everything a chaos run produced: oracle verdicts, summary load
/// metrics, and (optionally retained) the full event log.
#[derive(Debug)]
pub struct RunReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// All oracle violations, in detection order.
    pub violations: Vec<Violation>,
    /// Mean served fraction over the run.
    pub served_mean: f64,
    /// Served fraction of the final epoch.
    pub served_final: f64,
    /// Total events recorded.
    pub events_recorded: usize,
    /// Injection ops skipped because the platform refused them (e.g.
    /// the target was already failed, or it was the last healthy
    /// switch). Skips are expected under composed fault phases.
    pub skipped_ops: usize,
    /// Total scale-direction reversals across all apps.
    pub flipflops_total: u64,
    /// Flight-recorder ring drops over the run.
    pub ring_dropped: u64,
    /// The drained event log (empty unless `keep_events` was set).
    pub events: Vec<Event>,
}

impl RunReport {
    /// Whether the run passed every oracle.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Build the platform config for a scenario: `small_test` topology with
/// the scenario's seed and demand shape, plus the caller's overrides.
pub fn scenario_config(
    scenario: &Scenario,
    overrides: &[(String, String)],
) -> Result<PlatformConfig, String> {
    let mut cfg = PlatformConfig::small_test();
    cfg.seed = scenario.seed;
    cfg.total_demand_bps = scenario.demand_bps;
    cfg.diurnal_amplitude = scenario.diurnal_amplitude;
    crate::settings::apply_all(&mut cfg, overrides)?;
    Ok(cfg)
}

/// Run one scenario under the given config overrides and oracle
/// windows. Returns an error only for harness-level problems (invalid
/// config, generator bugs like unknown ids); *invariant* failures are
/// reported as [`Violation`]s in the report.
pub fn run_scenario(
    scenario: &Scenario,
    overrides: &[(String, String)],
    oracle_cfg: &OracleConfig,
    keep_events: bool,
) -> Result<RunReport, String> {
    let cfg = scenario_config(scenario, overrides)?;
    let mut platform = Platform::build(cfg).map_err(|e| format!("build: {e}"))?;
    let base_caps: Vec<f64> = platform
        .state
        .access
        .links()
        .iter()
        .map(|l| l.capacity_bps)
        .collect();
    let schedule = scenario.lower();
    let mut oracles = Oracles::new(oracle_cfg.clone());
    let mut events = Vec::new();
    let mut events_recorded = 0usize;
    let mut skipped_ops = 0usize;
    let mut served_sum = 0.0;
    let mut served_final = 0.0;
    for epoch in 0..scenario.epochs {
        if let Some(ops) = schedule.get(&epoch) {
            for op in ops {
                if !apply_op(&mut platform, op, &base_caps)? {
                    skipped_ops += 1;
                }
            }
        }
        platform.step();
        let fresh = platform.global.recorder.take_events();
        if let Some(snap) = platform.last_snapshot() {
            oracles.check_epoch(epoch, &platform, snap, &fresh);
            served_final = snap.served_fraction();
        }
        served_sum += served_final;
        events_recorded += fresh.len();
        if keep_events {
            events.extend(fresh);
        }
    }
    let flipflops_total = oracles.flipflops_total();
    Ok(RunReport {
        scenario: scenario.clone(),
        violations: oracles.into_violations(),
        served_mean: served_sum / scenario.epochs.max(1) as f64,
        served_final,
        events_recorded,
        skipped_ops,
        flipflops_total,
        ring_dropped: platform.global.recorder.dropped(),
        events,
    })
}

/// Apply one op. `Ok(true)` = injected, `Ok(false)` = refused by a
/// platform guard (expected under composition: double failures, last
/// healthy switch). `Err` = generator bug (unknown id). `base_caps` are
/// the access-link capacities the platform was built with.
pub fn apply_op(platform: &mut Platform, op: &Op, base_caps: &[f64]) -> Result<bool, String> {
    match *op {
        Op::FailPod(pod) => match platform.inject_pod_failure(PodId(pod)) {
            Ok(_) => Ok(true),
            Err(e) if e.contains("unknown") => Err(e),
            Err(_) => Ok(false),
        },
        Op::FailSwitch(switch) => match platform.inject_switch_failure(SwitchId(switch)) {
            Ok(_) => Ok(true),
            Err(e) if e.contains("unknown") => Err(e),
            Err(_) => Ok(false),
        },
        Op::FailServer(server) => match platform.inject_server_failure(ServerId(server)) {
            Ok(_) => Ok(true),
            Err(e) if e.contains("unknown") => Err(e),
            Err(_) => Ok(false),
        },
        Op::SetLinkFactor { link, factor } => {
            let base = base_caps
                .get(link as usize)
                .copied()
                .ok_or_else(|| format!("unknown access link al{link}"))?;
            platform
                .inject_link_capacity(AccessLinkId(link), base * factor)
                .map(|_| true)
        }
        Op::FlashCrowd {
            rank,
            peak,
            ramp_s,
            duration_s,
        } => {
            let by_pop = platform.workload.apps_by_popularity();
            let Some(&app) = by_pop.get(rank as usize) else {
                return Err(format!("no app at popularity rank {rank}"));
            };
            // The workload model requires duration >= 2*ramp and a
            // positive ramp; clamp so hand-written fixtures can never
            // panic the run.
            let ramp = ramp_s.clamp(1, duration_s / 2);
            platform.workload.add_flash_crowd(FlashCrowd {
                app,
                start: platform.now() + SimDuration::from_secs(10),
                ramp: SimDuration::from_secs(ramp),
                duration: SimDuration::from_secs(duration_s),
                peak: peak.max(1.0),
            });
            Ok(true)
        }
    }
}

/// Sweep a block of seeds: generate, run, collect per-seed reports.
pub fn sweep(
    seeds: impl Iterator<Item = u64>,
    overrides: &[(String, String)],
    oracle_cfg: &OracleConfig,
) -> Result<Vec<RunReport>, String> {
    let mut reports = Vec::new();
    for seed in seeds {
        let sc = Scenario::generate(seed);
        reports.push(run_scenario(&sc, overrides, oracle_cfg, false)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Phase;

    #[test]
    fn quiet_scenario_passes_all_oracles() {
        let r = run_scenario(&Scenario::quiet(3), &[], &OracleConfig::default(), false).unwrap();
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(r.served_mean > 0.95, "served {}", r.served_mean);
        assert_eq!(r.skipped_ops, 0);
    }

    #[test]
    fn injected_faults_reach_the_event_log_and_runs_are_deterministic() {
        let sc = Scenario {
            seed: 11,
            epochs: 30,
            demand_bps: 0.8e9,
            diurnal_amplitude: 0.0,
            phases: vec![
                Phase::ServerLoss {
                    at: 8,
                    first: 1,
                    count: 2,
                },
                Phase::LinkDegrade {
                    at: 12,
                    link: 0,
                    factor: 0.5,
                    recover_after: 6,
                },
            ],
        };
        let run = || run_scenario(&sc, &[], &OracleConfig::default(), true).unwrap();
        let a = run();
        let faults = a
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    obs::ActionKind::FaultInject | obs::ActionKind::LinkDegrade
                )
            })
            .count();
        assert_eq!(faults, 4, "2 server losses + degrade + restore");
        let b = run();
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.served_mean, b.served_mean);
        assert_eq!(a.violations, b.violations);
        // Full event-log equality, field by field.
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.to_json_line(), y.to_json_line());
        }
    }

    #[test]
    fn double_faults_are_skipped_not_fatal() {
        let sc = Scenario {
            seed: 5,
            epochs: 24,
            demand_bps: 0.8e9,
            diurnal_amplitude: 0.0,
            phases: vec![
                Phase::SwitchLoss { at: 6, switch: 0 },
                // Refused: switch 1 is by then the last healthy one.
                Phase::SwitchLoss { at: 10, switch: 1 },
            ],
        };
        let r = run_scenario(&sc, &[], &OracleConfig::default(), false).unwrap();
        assert_eq!(r.skipped_ops, 1);
    }
}
