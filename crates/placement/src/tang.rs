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
use crate::problem::{Placement, PlacementProblem};

/// CPU units per integer flow unit: demands and capacities are quantized
/// to this resolution for the max-flow phase.
const QUANTUM: f64 = 0.01;

/// Maximum load-distribution / placement-change rounds.
const MAX_ROUNDS: usize = 16;

/// Run the controller from the incumbent `placement` (`Placement::empty(n)`
/// for a cold start; placement changes are measured against it) and return
/// the new placement.
///
/// The closing `distribute` runs only when the instance set changed since
/// the last one: max-flow reads only the set of instances, never their
/// allocations, so over an unchanged set it would reproduce the same flow.
pub fn solve(problem: &PlacementProblem, mut placement: Placement) -> Placement {
    problem.validate();
    assert_eq!(
        placement.num_apps(),
        problem.apps.len(),
        "incumbent covers different apps"
    );

    let mut changed = true;
    for _round in 0..MAX_ROUNDS {
        changed = distribute(problem, &mut placement);
        let residual: f64 = (0..problem.apps.len())
            .map(|a| problem.apps[a].demand_cpu - placement.satisfied(a))
            .sum();
        if residual <= QUANTUM * problem.apps.len() as f64 {
            break;
        }
        if place_instances(problem, &mut placement) == 0 {
            break; // no server can take more instances: stuck
        }
        changed = true;
    }
    // Final apportioning over the final instance set.
    if changed {
        distribute(problem, &mut placement);
    }
    placement
}

/// Quantize conservatively (floor): integer flow can then never exceed a
/// real-valued demand, per-VM cap or server capacity.
fn q(x: f64) -> u64 {
    (x / QUANTUM).floor() as u64
}

/// Load-distribution phase: max-flow over the current instance set.
/// Rewrites every allocation; removes instances that receive no load (the
/// controller's "stop idle instances" rule) and returns whether it did.
fn distribute(problem: &PlacementProblem, placement: &mut Placement) -> bool {
    let num_apps = problem.apps.len();
    let num_servers = problem.servers.len();
    let s = 0usize;
    let app_node = |a: usize| 1 + a;
    let srv_node = |v: usize| 1 + num_apps + v;
    let t = 1 + num_apps + num_servers;
    let mut net = FlowNetwork::new(t + 1);

    for (a, req) in problem.apps.iter().enumerate() {
        net.add_edge(s, app_node(a), q(req.demand_cpu));
    }
    // One edge per instance, in the placement's (app, server) order.
    let mut instance_edges = Vec::with_capacity(placement.total_instances());
    for a in 0..num_apps {
        let cap = q(problem.apps[a].vm_cap);
        for (srv, _) in placement.instances(a) {
            instance_edges.push(net.add_edge(app_node(a), srv_node(srv), cap));
        }
    }
    for (v, cap) in problem.servers.iter().enumerate() {
        net.add_edge(srv_node(v), t, q(cap.cpu));
    }
    net.max_flow(s, t);

    let mut removed = false;
    placement.rewrite(|i| {
        let flow = net.flow(instance_edges[i]);
        removed |= flow == 0;
        flow as f64 * QUANTUM // zero flow removes the instance
    });
    removed
}

/// Placement-change phase: add instances for under-satisfied apps on the
/// servers with the most residual capacity. Returns the number of
/// instances added.
fn place_instances(problem: &PlacementProblem, placement: &mut Placement) -> usize {
    let num_servers = problem.servers.len();
    let mut loads = placement.server_loads(num_servers);
    let mut vm_counts = placement.server_vm_counts(num_servers);

    // Apps by residual demand, largest first.
    let mut residuals: Vec<(usize, f64)> = (0..problem.apps.len())
        .map(|a| (a, problem.apps[a].demand_cpu - placement.satisfied(a)))
        .filter(|&(_, r)| r > QUANTUM)
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

    // Each (app, server) pair is visited once, so `placement.get` never
    // needs to see this call's own starts: they are merged in at the end.
    let mut starts = Vec::new();
    for (a, mut residual) in residuals {
        for &srv in &order {
            if residual <= QUANTUM {
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
            if grant <= QUANTUM {
                continue;
            }
            starts.push((a, srv, grant));
            loads[srv] += grant;
            vm_counts[srv] += 1;
            residual -= grant;
        }
    }
    placement.set_all(&mut starts);
    starts.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{AppReq, ServerCap};
    use proptest::prelude::*;

    fn cold(problem: &PlacementProblem) -> Placement {
        solve(problem, Placement::empty(problem.apps.len()))
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
        let p = cold(&problem);
        p.assert_feasible(&problem);
        // App 2 can hold at most one instance per server (4 × vm_cap 2.0
        // = 8 of its 10 demand); apps 0 and 1 are fully satisfiable.
        assert!(
            (p.total_satisfied() - 16.0).abs() < 0.1,
            "satisfied {}",
            p.total_satisfied()
        );
        assert_eq!(p.instances(2).count(), 4);
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
        let p = cold(&problem);
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
        let p = cold(&problem);
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
        let p1 = cold(&problem);
        p1.assert_feasible(&problem);
        // Nudge one app's demand up slightly; re-run from incumbent.
        let mut problem2 = problem.clone();
        problem2.apps[3].demand_cpu = 1.8;
        let p2 = solve(&problem2, p1.clone());
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
        let p1 = cold(&problem);
        // Demand collapses to fit one instance.
        let mut problem2 = problem.clone();
        problem2.apps[0].demand_cpu = 1.0;
        let p2 = solve(&problem2, p1);
        p2.assert_feasible(&problem2);
        assert_eq!(
            p2.instances(0).count(),
            1,
            "idle instance should be stopped"
        );
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
        let p = cold(&problem);
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
        let p = cold(&problem);
        assert_eq!(p.total_instances(), 0);
    }

    /// [`distribute`] as it was before the one-pass rewrite: one `set`
    /// per instance.
    fn distribute_by_set(problem: &PlacementProblem, placement: &mut Placement) {
        let num_apps = problem.apps.len();
        let num_servers = problem.servers.len();
        let app_node = |a: usize| 1 + a;
        let srv_node = |v: usize| 1 + num_apps + v;
        let t = 1 + num_apps + num_servers;
        let mut net = FlowNetwork::new(t + 1);
        for (a, req) in problem.apps.iter().enumerate() {
            net.add_edge(0, app_node(a), q(req.demand_cpu));
        }
        let mut instance_edges = Vec::new();
        for a in 0..num_apps {
            for (srv, _) in placement.instances(a) {
                let cap = q(problem.apps[a].vm_cap);
                let id = net.add_edge(app_node(a), srv_node(srv), cap);
                instance_edges.push((a, srv, id));
            }
        }
        for (v, cap) in problem.servers.iter().enumerate() {
            net.add_edge(srv_node(v), t, q(cap.cpu));
        }
        net.max_flow(0, t);
        for (a, srv, id) in instance_edges {
            placement.set(a, srv, net.flow(id) as f64 * QUANTUM);
        }
    }

    /// [`place_instances`] as it was before starts were merged in once:
    /// one `set` per start, seen by the later `get`s.
    fn place_instances_by_set(problem: &PlacementProblem, placement: &mut Placement) -> usize {
        let num_servers = problem.servers.len();
        let mut loads = placement.server_loads(num_servers);
        let mut vm_counts = placement.server_vm_counts(num_servers);
        let mut residuals: Vec<(usize, f64)> = (0..problem.apps.len())
            .map(|a| (a, problem.apps[a].demand_cpu - placement.satisfied(a)))
            .filter(|&(_, r)| r > QUANTUM)
            .collect();
        residuals.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut order: Vec<usize> = (0..num_servers).collect();
        order.sort_by(|&x, &y| {
            let rx = problem.servers[x].cpu - loads[x];
            let ry = problem.servers[y].cpu - loads[y];
            ry.total_cmp(&rx)
        });
        let mut added = 0;
        for (a, mut residual) in residuals {
            for &srv in &order {
                if residual <= QUANTUM {
                    break;
                }
                if vm_counts[srv] >= problem.servers[srv].max_vms || placement.get(a, srv) > 0.0 {
                    continue;
                }
                let room = problem.servers[srv].cpu - loads[srv];
                let grant = residual.min(problem.apps[a].vm_cap).min(room);
                if grant <= QUANTUM {
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

    /// The `compute` body [`solve`] replaced, kept as the differential
    /// reference: it clones the incumbent, always runs the closing
    /// `distribute`, and changes the placement one `set` at a time.
    fn compute_reference(problem: &PlacementProblem, prev: Option<&Placement>) -> Placement {
        problem.validate();
        let mut placement = prev
            .cloned()
            .unwrap_or_else(|| Placement::empty(problem.apps.len()));
        assert_eq!(
            placement.num_apps(),
            problem.apps.len(),
            "incumbent covers different apps"
        );

        for _round in 0..MAX_ROUNDS {
            distribute_by_set(problem, &mut placement);
            let residual: f64 = (0..problem.apps.len())
                .map(|a| problem.apps[a].demand_cpu - placement.satisfied(a))
                .sum();
            if residual <= QUANTUM * problem.apps.len() as f64 {
                break;
            }
            if place_instances_by_set(problem, &mut placement) == 0 {
                break; // no server can take more instances: stuck
            }
        }
        // Final apportioning over the final instance set.
        distribute_by_set(problem, &mut placement);
        placement
    }

    /// The paths one run of the round loop takes.
    #[derive(Debug, Default)]
    struct Paths {
        /// The first `distribute` removed an instance.
        first_removed: bool,
        /// Some round added instances.
        added: bool,
        /// The exit: 0 satisfied, 1 stuck, 2 `MAX_ROUNDS` exhausted.
        exit: usize,
        /// The last `distribute` removed an instance.
        last_removed: bool,
    }

    fn trace(problem: &PlacementProblem, mut placement: Placement) -> Paths {
        let mut paths = Paths {
            exit: 2,
            ..Paths::default()
        };
        for round in 0..MAX_ROUNDS {
            paths.last_removed = distribute(problem, &mut placement);
            paths.first_removed |= paths.last_removed && round == 0;
            let residual: f64 = (0..problem.apps.len())
                .map(|a| problem.apps[a].demand_cpu - placement.satisfied(a))
                .sum();
            if residual <= QUANTUM * problem.apps.len() as f64 {
                paths.exit = 0;
                break;
            }
            if place_instances(problem, &mut placement) == 0 {
                paths.exit = 1;
                break;
            }
            paths.added = true;
        }
        paths
    }

    /// Every `(app, server, cpu bits)` of a placement.
    fn bits(p: &Placement) -> Vec<(usize, usize, u64)> {
        (0..p.num_apps())
            .flat_map(|a| p.instances(a).map(move |(s, c)| (a, s, c.to_bits())))
            .collect()
    }

    /// Seeded problems, cold and from random incumbents, solved by
    /// [`solve`] and by [`compute_reference`]: every allocation bit must
    /// agree. Capacities, demands and caps mix free values with values on
    /// the 0.01 grid; the `STICKY` demands drive some runs to the
    /// `MAX_ROUNDS` exit.
    #[test]
    fn solve_matches_the_reference_bit_for_bit() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Demands that quantize one unit short, leaving a residual of
        // 0.010000000000000009 > QUANTUM: a lone app with one keeps
        // adding an instance per round until MAX_ROUNDS.
        const STICKY: [f64; 4] = [0.59, 1.17, 1.18, 1.19];
        // Cold starts, first-round removals, adding runs, the satisfied,
        // stuck and exhausted exits, and exhausted runs whose last
        // `distribute` removed nothing (only the closing one apportions
        // the last round's adds).
        let mut seen = [0usize; 7];
        let mut check = |problem: &PlacementProblem, incumbent: Placement| {
            let want = compute_reference(problem, Some(&incumbent));
            if incumbent.total_instances() == 0 {
                seen[0] += 1;
                assert_eq!(bits(&compute_reference(problem, None)), bits(&want));
            }
            let paths = trace(problem, incumbent.clone());
            seen[1] += usize::from(paths.first_removed);
            seen[2] += usize::from(paths.added);
            seen[3 + paths.exit] += 1;
            seen[6] += usize::from(paths.exit == 2 && !paths.last_removed);
            let got = solve(problem, incumbent);
            got.assert_feasible(problem);
            assert_eq!(bits(&got), bits(&want), "{problem:?}");
        };
        for seed in 0..600u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let value = |rng: &mut SmallRng, lo: usize, hi: usize| {
                if rng.gen_bool(0.8) {
                    rng.gen_range(lo..hi) as f64 * 0.01
                } else {
                    rng.gen_range(lo as f64 * 0.01..hi as f64 * 0.01)
                }
            };
            let problem = PlacementProblem {
                servers: (0..rng.gen_range(1..8usize))
                    .map(|_| ServerCap {
                        cpu: value(&mut rng, 20, 600),
                        max_vms: rng.gen_range(1..10),
                    })
                    .collect(),
                // Every third problem has a lone app, whose residual alone
                // decides whether the round loop goes on.
                apps: (0..if seed % 3 == 2 {
                    1
                } else {
                    rng.gen_range(1..10usize)
                })
                    .map(|_| AppReq {
                        demand_cpu: match rng.gen_range(0..6) {
                            0 => 0.0,
                            1 => STICKY[rng.gen_range(0..STICKY.len())],
                            _ => value(&mut rng, 1, 800),
                        },
                        vm_cap: value(&mut rng, 30, 250),
                    })
                    .collect(),
            };
            let mut incumbent = Placement::empty(problem.apps.len());
            if seed % 4 != 0 {
                let mut counts = vec![0usize; problem.servers.len()];
                for a in 0..problem.apps.len() {
                    for (s, cap) in problem.servers.iter().enumerate() {
                        if counts[s] < cap.max_vms && rng.gen_bool(0.3) {
                            incumbent.set(a, s, rng.gen_range(0.05..2.0));
                            counts[s] += 1;
                        }
                    }
                }
            }
            check(&problem, incumbent);
        }
        // Every round keeps all instances and adds one: demand 4.97
        // quantizes to 496 units, and with 47 to 62 flows of 0.05 ahead of
        // the rest on the last server, the float sum of those units stays
        // more than one quantum below 4.97. The seeded runs that reach
        // MAX_ROUNDS all remove an instance in their last `distribute`.
        let mut servers = vec![
            ServerCap {
                cpu: 0.05,
                max_vms: 1
            };
            63
        ];
        servers.push(ServerCap {
            cpu: 5.0,
            max_vms: 1,
        });
        let problem = PlacementProblem {
            servers,
            apps: vec![AppReq {
                demand_cpu: 4.97,
                vm_cap: 5.0,
            }],
        };
        let mut incumbent = Placement::empty(1);
        for s in 0..47 {
            incumbent.set(0, s, 0.05);
        }
        incumbent.set(0, 63, 2.61);
        check(&problem, incumbent);
        assert!(
            seen[..6].iter().all(|&n| n >= 10) && seen[6] > 0,
            "paths seen: {seen:?}"
        );
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
            let p = cold(&problem);
            p.assert_feasible(&problem);
            let demand: f64 = problem.apps.iter().map(|a| a.demand_cpu).sum();
            let capacity: f64 = problem.servers.iter().map(|s| s.cpu).sum();
            prop_assert!(p.total_satisfied() <= demand.min(capacity) + 1e-6);
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
            let tang = cold(&problem);
            let ff = crate::greedy::first_fit(&problem);
            prop_assert!(
                tang.total_satisfied() >= ff.total_satisfied() - 0.05,
                "tang {} < first-fit {}",
                tang.total_satisfied(),
                ff.total_satisfied()
            );
        }
    }
}
