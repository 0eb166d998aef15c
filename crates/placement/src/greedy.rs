//! Greedy placement baselines.
//!
//! Cold-start heuristics used as comparison points in E1: they are fast
//! (near-linear) but ignore the incumbent placement entirely, so every run
//! pays maximal placement-change cost — the trade-off the Tang controller
//! exists to avoid.

use crate::problem::{Placement, PlacementAlgorithm, PlacementProblem};

/// How a greedy placer orders candidate servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fit {
    /// First server with room, in index order.
    First,
    /// Server with the *least* residual capacity that still fits (packs
    /// tightly; good for consolidation/energy, bad for balance).
    Best,
    /// Server with the *most* residual capacity (spreads load; the
    /// balance-oriented choice).
    Worst,
}

fn greedy(problem: &PlacementProblem, fit: Fit) -> Placement {
    problem.validate();
    let n = problem.servers.len();
    let mut loads = vec![0.0f64; n];
    let mut vm_counts = vec![0usize; n];
    let mut placement = Placement::empty(problem.apps.len());

    for (a, req) in problem.apps.iter().enumerate() {
        let mut residual = req.demand_cpu;
        // Each (app, server) pair can hold one instance; keep trying
        // servers until demand is met or no server fits another chunk.
        loop {
            if residual <= 1e-9 {
                break;
            }
            let candidate = (0..n)
                .filter(|&s| vm_counts[s] < problem.servers[s].max_vms)
                .filter(|&s| placement.get(a, s) == 0.0)
                .filter(|&s| problem.servers[s].cpu - loads[s] > 1e-9)
                .min_by(|&x, &y| {
                    let rx = problem.servers[x].cpu - loads[x];
                    let ry = problem.servers[y].cpu - loads[y];
                    match fit {
                        Fit::First => x.cmp(&y),
                        Fit::Best => rx.total_cmp(&ry),
                        Fit::Worst => ry.total_cmp(&rx),
                    }
                });
            let Some(srv) = candidate else { break };
            let room = problem.servers[srv].cpu - loads[srv];
            let grant = residual.min(req.vm_cap).min(room);
            placement.set(a, srv, grant);
            loads[srv] += grant;
            vm_counts[srv] += 1;
            residual -= grant;
        }
    }
    placement
}

/// First-fit: place each app's demand on the lowest-indexed servers with
/// room.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementAlgorithm for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }
    fn compute(&self, problem: &PlacementProblem, _prev: Option<&Placement>) -> Placement {
        greedy(problem, Fit::First)
    }
}

/// Best-fit: pack each chunk onto the fullest server that still fits it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFit;

impl PlacementAlgorithm for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }
    fn compute(&self, problem: &PlacementProblem, _prev: Option<&Placement>) -> Placement {
        greedy(problem, Fit::Best)
    }
}

/// Worst-fit: spread each chunk onto the emptiest server.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstFit;

impl PlacementAlgorithm for WorstFit {
    fn name(&self) -> &'static str {
        "worst-fit"
    }
    fn compute(&self, problem: &PlacementProblem, _prev: Option<&Placement>) -> Placement {
        greedy(problem, Fit::Worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{AppReq, ServerCap};
    use dcsim::metrics::jains_fairness;
    use proptest::prelude::*;

    fn problem() -> PlacementProblem {
        PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 4.0,
                    max_vms: 8
                };
                4
            ],
            apps: (0..6)
                .map(|_| AppReq {
                    demand_cpu: 2.0,
                    vm_cap: 2.0,
                })
                .collect(),
        }
    }

    #[test]
    fn first_fit_packs_low_indices() {
        let p = FirstFit.compute(&problem(), None);
        p.assert_feasible(&problem());
        let loads = p.server_loads(4);
        assert!((loads[0] - 4.0).abs() < 1e-9);
        assert!((loads[1] - 4.0).abs() < 1e-9);
        assert!((p.total_satisfied() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn worst_fit_spreads() {
        let p = WorstFit.compute(&problem(), None);
        p.assert_feasible(&problem());
        let loads = p.server_loads(4);
        // Six 2.0-unit chunks over 4 servers: every server gets load, and
        // the spread beats first-fit's packing.
        assert!(loads.iter().all(|&l| l > 0.0), "loads {loads:?}");
        let ff = FirstFit.compute(&problem(), None).server_loads(4);
        assert!(
            jains_fairness(&loads) > jains_fairness(&ff),
            "wf {loads:?} vs ff {ff:?}"
        );
    }

    #[test]
    fn best_fit_consolidates() {
        // One pre-sized big server and several small ones: best-fit should
        // fill the snuggest space first.
        let problem = PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 1.0,
                    max_vms: 8,
                },
                ServerCap {
                    cpu: 8.0,
                    max_vms: 8,
                },
            ],
            apps: vec![AppReq {
                demand_cpu: 1.0,
                vm_cap: 1.0,
            }],
        };
        let p = BestFit.compute(&problem, None);
        assert!(
            (p.get(0, 0) - 1.0).abs() < 1e-9,
            "best-fit should use the tight server"
        );
    }

    #[test]
    fn respects_vm_cap_chunks() {
        let problem = PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 10.0,
                    max_vms: 8
                };
                3
            ],
            apps: vec![AppReq {
                demand_cpu: 5.0,
                vm_cap: 2.0,
            }],
        };
        let p = FirstFit.compute(&problem, None);
        p.assert_feasible(&problem);
        // 5.0 demand in ≤2.0 chunks, one instance per server → 3 servers.
        assert_eq!(p.instance_count(0), 3);
        assert!((p.total_satisfied() - 5.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_all_variants_feasible(
            server_cpus in proptest::collection::vec(1.0f64..8.0, 1..6),
            demands in proptest::collection::vec(0.0f64..5.0, 1..10),
        ) {
            let problem = PlacementProblem {
                servers: server_cpus.iter().map(|&c| ServerCap { cpu: c, max_vms: 4 }).collect(),
                apps: demands.iter().map(|&d| AppReq { demand_cpu: d, vm_cap: 1.5 }).collect(),
            };
            for algo in [&FirstFit as &dyn PlacementAlgorithm, &BestFit, &WorstFit] {
                let p = algo.compute(&problem, None);
                p.assert_feasible(&problem);
            }
        }
    }
}
