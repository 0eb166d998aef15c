//! A Tang-et-al.-style application placement controller (paper ref \[23\]).
//!
//! The controller of Tang, Steinder, Spreitzer & Pacifici (WWW 2007)
//! alternates two phases until demand is satisfied or no progress is made:
//!
//! 1. **Load distribution** — with the instance set fixed, apportion
//!    demand to instances by solving a maximum-flow problem on the
//!    bipartite application↔server graph (source → app edges carry demand,
//!    app → server edges exist only where an instance does and carry the
//!    per-VM cap, server → sink edges carry server capacity).
//! 2. **Placement change** — start new instances for under-satisfied
//!    applications on servers with spare capacity, and stop idle
//!    instances, while keeping the number of changes small (instance
//!    starts/stops are expensive: §IV.D).
//!
//! The WWW'07 paper reports ~30 s for 7,000 servers / 17,500 apps with
//! runtime growing super-linearly in machine count — the scalability wall
//! that motivates the mega-DC paper's pods (§I.A). This implementation
//! reproduces the algorithm's *structure* (and therefore its scaling
//! shape); absolute times on modern hardware are smaller (E1 reports the
//! measured curve).

use crate::maxflow::FlowNetwork;
use crate::problem::{Placement, PlacementAlgorithm, PlacementProblem};

/// The placement controller. See the module docs for the algorithm.
#[derive(Debug, Clone, Copy)]
pub struct TangController {
    /// CPU units per integer flow unit (demands and capacities are
    /// quantized to this resolution for the max-flow phase).
    pub quantum: f64,
    /// Maximum load-distribution / placement-change rounds.
    pub max_rounds: usize,
}

impl Default for TangController {
    fn default() -> Self {
        TangController {
            quantum: 0.01,
            max_rounds: 16,
        }
    }
}

impl TangController {
    /// Quantize conservatively (floor): integer flow can then never exceed
    /// a real-valued demand, per-VM cap or server capacity.
    fn q(&self, x: f64) -> u64 {
        (x / self.quantum).floor() as u64
    }

    /// Load-distribution phase: max-flow over the current instance set.
    /// Rewrites every allocation; removes instances that receive no load
    /// (the controller's "stop idle instances" rule).
    fn distribute(&self, problem: &PlacementProblem, placement: &mut Placement) {
        let num_apps = problem.apps.len();
        let num_servers = problem.servers.len();
        let s = 0usize;
        let app_node = |a: usize| 1 + a;
        let srv_node = |v: usize| 1 + num_apps + v;
        let t = 1 + num_apps + num_servers;
        let mut net = FlowNetwork::new(t + 1);

        for (a, req) in problem.apps.iter().enumerate() {
            net.add_edge(s, app_node(a), self.q(req.demand_cpu));
        }
        let mut instance_edges = Vec::new();
        for a in 0..num_apps {
            for (srv, _) in placement.instances(a) {
                let cap = self.q(problem.apps[a].vm_cap);
                let id = net.add_edge(app_node(a), srv_node(srv), cap);
                instance_edges.push((a, srv, id));
            }
        }
        for (v, cap) in problem.servers.iter().enumerate() {
            net.add_edge(srv_node(v), t, self.q(cap.cpu));
        }
        net.max_flow(s, t);

        for (a, srv, id) in instance_edges {
            let cpu = net.flow(id) as f64 * self.quantum;
            placement.set(a, srv, cpu); // zero flow removes the instance
        }
    }

    /// Placement-change phase: add instances for under-satisfied apps on
    /// the servers with the most residual capacity. Returns the number of
    /// instances added.
    fn place_instances(&self, problem: &PlacementProblem, placement: &mut Placement) -> usize {
        let num_servers = problem.servers.len();
        let mut loads = placement.server_loads(num_servers);
        let mut vm_counts = placement.server_vm_counts(num_servers);

        // Apps by residual demand, largest first.
        let mut residuals: Vec<(usize, f64)> = (0..problem.apps.len())
            .map(|a| (a, problem.apps[a].demand_cpu - placement.satisfied(a)))
            .filter(|&(_, r)| r > self.quantum)
            .collect();
        residuals.sort_by(|a, b| b.1.total_cmp(&a.1));

        // Servers by residual capacity, largest first (indices into a
        // max-heap emulated by re-sorting; fleet sizes here are pod-scale).
        let mut order: Vec<usize> = (0..num_servers).collect();
        order.sort_by(|&x, &y| {
            let rx = problem.servers[x].cpu - loads[x];
            let ry = problem.servers[y].cpu - loads[y];
            ry.total_cmp(&rx)
        });

        let mut added = 0;
        for (a, mut residual) in residuals {
            for &srv in &order {
                if residual <= self.quantum {
                    break;
                }
                if vm_counts[srv] >= problem.servers[srv].max_vms {
                    continue;
                }
                if placement.get(a, srv) > 0.0 {
                    continue; // already has an instance here
                }
                let room = problem.servers[srv].cpu - loads[srv];
                let grant = residual.min(problem.apps[a].vm_cap).min(room);
                if grant <= self.quantum {
                    continue;
                }
                placement.set(a, srv, grant);
                loads[srv] += grant;
                vm_counts[srv] += 1;
                residual -= grant;
                added += 1;
            }
        }
        added
    }
}

impl PlacementAlgorithm for TangController {
    fn name(&self) -> &'static str {
        "tang"
    }

    fn compute(&self, problem: &PlacementProblem, prev: Option<&Placement>) -> Placement {
        problem.validate();
        let mut placement = prev
            .cloned()
            .unwrap_or_else(|| Placement::empty(problem.apps.len()));
        assert_eq!(
            placement.num_apps(),
            problem.apps.len(),
            "incumbent covers different apps"
        );

        for _round in 0..self.max_rounds {
            self.distribute(problem, &mut placement);
            let residual: f64 = (0..problem.apps.len())
                .map(|a| problem.apps[a].demand_cpu - placement.satisfied(a))
                .sum();
            if residual <= self.quantum * problem.apps.len() as f64 {
                break;
            }
            if self.place_instances(problem, &mut placement) == 0 {
                break; // no server can take more instances: stuck
            }
        }
        // Final apportioning over the final instance set.
        self.distribute(problem, &mut placement);
        placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{AppReq, ServerCap};
    use proptest::prelude::*;

    fn solve(problem: &PlacementProblem, prev: Option<&Placement>) -> Placement {
        TangController::default().compute(problem, prev)
    }

    #[test]
    fn satisfies_when_capacity_ample() {
        let problem = PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 8.0,
                    max_vms: 10
                };
                4
            ],
            apps: vec![
                AppReq {
                    demand_cpu: 5.0,
                    vm_cap: 2.0,
                },
                AppReq {
                    demand_cpu: 3.0,
                    vm_cap: 4.0,
                },
                AppReq {
                    demand_cpu: 10.0,
                    vm_cap: 2.0,
                },
            ],
        };
        let p = solve(&problem, None);
        p.assert_feasible(&problem);
        // App 2 can hold at most one instance per server (4 × vm_cap 2.0
        // = 8 of its 10 demand); apps 0 and 1 are fully satisfiable.
        assert!(
            (p.total_satisfied() - 16.0).abs() < 0.1,
            "satisfied {}",
            p.total_satisfied()
        );
        assert_eq!(p.instance_count(2), 4);
    }

    #[test]
    fn splits_across_vm_cap() {
        let problem = PlacementProblem {
            servers: vec![ServerCap {
                cpu: 10.0,
                max_vms: 10,
            }],
            apps: vec![AppReq {
                demand_cpu: 3.0,
                vm_cap: 1.0,
            }],
        };
        let p = solve(&problem, None);
        p.assert_feasible(&problem);
        // vm_cap forces 3 instances, but only one per (app, server) is
        // possible, so only 1.0 of 3.0 can be satisfied on one server.
        assert!((p.satisfied(0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn oversubscribed_fills_capacity() {
        let problem = PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 2.0,
                    max_vms: 4
                };
                2
            ],
            apps: vec![
                AppReq {
                    demand_cpu: 4.0,
                    vm_cap: 2.0,
                },
                AppReq {
                    demand_cpu: 4.0,
                    vm_cap: 2.0,
                },
            ],
        };
        let p = solve(&problem, None);
        p.assert_feasible(&problem);
        // Total capacity 4, demand 8: the controller should fill capacity.
        assert!(
            (p.total_satisfied() - 4.0).abs() < 0.1,
            "satisfied {}",
            p.total_satisfied()
        );
    }

    #[test]
    fn incremental_run_minimizes_changes() {
        let problem = PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 4.0,
                    max_vms: 8
                };
                8
            ],
            apps: (0..16)
                .map(|_| AppReq {
                    demand_cpu: 1.5,
                    vm_cap: 2.0,
                })
                .collect(),
        };
        let p1 = solve(&problem, None);
        p1.assert_feasible(&problem);
        // Nudge one app's demand up slightly; re-run from incumbent.
        let mut problem2 = problem.clone();
        problem2.apps[3].demand_cpu = 1.8;
        let p2 = solve(&problem2, Some(&p1));
        p2.assert_feasible(&problem2);
        assert!((p2.total_satisfied() - (16.0 * 1.5 + 0.3)).abs() < 0.2);
        // Re-apportioning absorbs the nudge with almost no instance churn.
        assert!(
            p2.changes_from(&p1) <= 2,
            "expected ≤2 placement changes, got {}",
            p2.changes_from(&p1)
        );
    }

    #[test]
    fn idle_instances_are_stopped() {
        let problem = PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 4.0,
                    max_vms: 8
                };
                2
            ],
            apps: vec![AppReq {
                demand_cpu: 4.0,
                vm_cap: 4.0,
            }],
        };
        let p1 = solve(&problem, None);
        // Demand collapses to fit one instance.
        let mut problem2 = problem.clone();
        problem2.apps[0].demand_cpu = 1.0;
        let p2 = solve(&problem2, Some(&p1));
        p2.assert_feasible(&problem2);
        assert_eq!(p2.instance_count(0), 1, "idle instance should be stopped");
    }

    #[test]
    fn respects_vm_count_limits() {
        let problem = PlacementProblem {
            servers: vec![ServerCap {
                cpu: 100.0,
                max_vms: 2,
            }],
            apps: (0..5)
                .map(|_| AppReq {
                    demand_cpu: 1.0,
                    vm_cap: 1.0,
                })
                .collect(),
        };
        let p = solve(&problem, None);
        p.assert_feasible(&problem);
        assert!((p.total_satisfied() - 2.0).abs() < 0.05);
    }

    #[test]
    fn zero_demand_places_nothing() {
        let problem = PlacementProblem {
            servers: vec![ServerCap {
                cpu: 4.0,
                max_vms: 4,
            }],
            apps: vec![AppReq {
                demand_cpu: 0.0,
                vm_cap: 1.0,
            }],
        };
        let p = solve(&problem, None);
        assert_eq!(p.total_instances(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Feasibility and demand ceiling on random instances.
        #[test]
        fn prop_feasible_and_bounded(
            server_cpus in proptest::collection::vec(1.0f64..8.0, 1..8),
            demands in proptest::collection::vec(0.0f64..6.0, 1..12),
        ) {
            let problem = PlacementProblem {
                servers: server_cpus
                    .iter()
                    .map(|&c| ServerCap { cpu: c, max_vms: 6 })
                    .collect(),
                apps: demands
                    .iter()
                    .map(|&d| AppReq { demand_cpu: d, vm_cap: 2.0 })
                    .collect(),
            };
            let p = solve(&problem, None);
            p.assert_feasible(&problem);
            prop_assert!(p.total_satisfied() <= problem.total_demand() + 1e-6);
            prop_assert!(
                p.total_satisfied() <= problem.total_capacity() + 1e-6
            );
        }

        /// The controller is at least as good as first-fit on satisfied
        /// demand (it subsumes greedy placement and then max-flows).
        #[test]
        fn prop_not_worse_than_first_fit(
            server_cpus in proptest::collection::vec(1.0f64..8.0, 1..6),
            demands in proptest::collection::vec(0.1f64..4.0, 1..8),
        ) {
            let problem = PlacementProblem {
                servers: server_cpus.iter().map(|&c| ServerCap { cpu: c, max_vms: 8 }).collect(),
                apps: demands.iter().map(|&d| AppReq { demand_cpu: d, vm_cap: 1.5 }).collect(),
            };
            let tang = solve(&problem, None);
            let ff = crate::greedy::FirstFit.compute(&problem, None);
            prop_assert!(
                tang.total_satisfied() >= ff.total_satisfied() - 0.05,
                "tang {} < first-fit {}",
                tang.total_satisfied(),
                ff.total_satisfied()
            );
        }
    }
}
