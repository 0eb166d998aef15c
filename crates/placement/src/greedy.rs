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
    let mut instances = Vec::new();

    for (a, req) in problem.apps.iter().enumerate() {
        let mut residual = req.demand_cpu;
        // Each (app, server) pair can hold one instance; keep trying
        // servers until demand is met or no server fits another chunk.
        // Every server below `next` is taken by this app or was refused,
        // and stays refused (loads and counts only grow), so the search
        // resumes past the last grant and the app's servers ascend.
        let mut next = 0;
        while residual > 1e-9 {
            let candidate = (next..n).find(|&s| {
                vm_counts[s] < problem.servers[s].max_vms
                    && problem.servers[s].cpu - loads[s] > 1e-9
            });
            let Some(srv) = candidate else { break };
            let room = problem.servers[srv].cpu - loads[srv];
            let grant = residual.min(req.vm_cap).min(room);
            instances.push((a, srv, grant));
            loads[srv] += grant;
            vm_counts[srv] += 1;
            residual -= grant;
            next = srv + 1;
        }
    }
    Placement::from_sorted(problem.apps.len(), instances)
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
        assert_eq!(p.instances(0).count(), 3);
        assert!((p.total_satisfied() - 5.0).abs() < 1e-9);
    }

    /// [`first_fit`] as it was before the bulk build: a full search per
    /// grant and one `set` per instance.
    fn first_fit_by_set(problem: &PlacementProblem) -> Placement {
        let n = problem.servers.len();
        let mut loads = vec![0.0f64; n];
        let mut vm_counts = vec![0usize; n];
        let mut placement = Placement::empty(problem.apps.len());
        for (a, req) in problem.apps.iter().enumerate() {
            let mut residual = req.demand_cpu;
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

    proptest! {
        /// The bulk build places the same instances, bit for bit.
        #[test]
        fn prop_matches_the_per_set_build(
            server_cpus in proptest::collection::vec(0.5f64..8.0, 1..12),
            max_vms in 1usize..5,
            demands in proptest::collection::vec(0.0f64..9.0, 1..16),
            vm_cap in 0.3f64..3.0,
        ) {
            let problem = PlacementProblem {
                servers: server_cpus.iter().map(|&c| ServerCap { cpu: c, max_vms }).collect(),
                apps: demands.iter().map(|&d| AppReq { demand_cpu: d, vm_cap }).collect(),
            };
            prop_assert_eq!(first_fit(&problem), first_fit_by_set(&problem));
        }

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
