//! Greedy placement baseline.
//!
//! A cold-start heuristic used as E1's comparison point: it is fast
//! (near-linear) but ignores the incumbent placement entirely, so every run
//! pays maximal placement-change cost — the trade-off the Tang controller
//! exists to avoid.

use crate::problem::{Placement, PlacementProblem};

/// First-fit: place each app's demand on the lowest-indexed servers with
/// room.
pub fn first_fit(problem: &PlacementProblem) -> Placement {
    problem.validate();
    let n = problem.servers.len();
    let mut loads = vec![0.0f64; n];
    let mut vm_counts = vec![0usize; n];
    let mut placement = Placement::empty(problem.apps.len());

    for (a, req) in problem.apps.iter().enumerate() {
        let mut residual = req.demand_cpu;
        // Each (app, server) pair can hold one instance; keep trying
        // servers until demand is met or no server fits another chunk.
        while residual > 1e-9 {
            let candidate = (0..n).find(|&s| {
                vm_counts[s] < problem.servers[s].max_vms
                    && placement.get(a, s) == 0.0
                    && problem.servers[s].cpu - loads[s] > 1e-9
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{AppReq, ServerCap};
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
        let p = first_fit(&problem());
        p.assert_feasible(&problem());
        let loads = p.server_loads(4);
        assert!((loads[0] - 4.0).abs() < 1e-9);
        assert!((loads[1] - 4.0).abs() < 1e-9);
        assert!((p.total_satisfied() - 12.0).abs() < 1e-9);
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
        let p = first_fit(&problem);
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
            first_fit(&problem).assert_feasible(&problem);
        }
    }
}
