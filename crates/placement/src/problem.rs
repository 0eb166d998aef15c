//! Placement problem and solution representation.
//!
//! The provisioning objective the paper inherits from \[23\]: given server
//! capacities and per-application CPU demands, choose where application
//! instances run and how much capacity each gets, so that satisfied demand
//! is maximized and *placement changes* (instance starts/stops, which are
//! expensive — §IV.D) are minimized.

use std::collections::BTreeMap;

/// Capacity of one server as seen by a placement algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCap {
    /// CPU capacity units available.
    pub cpu: f64,
    /// Maximum number of VM instances the server may host.
    pub max_vms: usize,
}

/// Requirements of one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppReq {
    /// Total CPU demand units to satisfy.
    pub demand_cpu: f64,
    /// Maximum CPU one instance (VM) can use — demand beyond this needs
    /// more instances.
    pub vm_cap: f64,
}

/// A placement problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementProblem {
    /// Server capacities.
    pub servers: Vec<ServerCap>,
    /// Application requirements.
    pub apps: Vec<AppReq>,
}

impl PlacementProblem {
    /// Validate the instance.
    pub fn validate(&self) {
        for (i, s) in self.servers.iter().enumerate() {
            assert!(s.cpu > 0.0, "server {i}: cpu must be positive");
            assert!(s.max_vms > 0, "server {i}: max_vms must be positive");
        }
        for (i, a) in self.apps.iter().enumerate() {
            assert!(a.demand_cpu >= 0.0, "app {i}: demand must be non-negative");
            assert!(a.vm_cap > 0.0, "app {i}: vm_cap must be positive");
        }
    }

    /// Total CPU capacity across servers.
    pub fn total_capacity(&self) -> f64 {
        self.servers.iter().map(|s| s.cpu).sum()
    }

    /// Total demand across apps.
    pub fn total_demand(&self) -> f64 {
        self.apps.iter().map(|a| a.demand_cpu).sum()
    }
}

/// A placement: per application, the CPU allocated to it on each server
/// hosting one of its instances. An entry `(server, cpu)` *is* an instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Placement {
    allocs: Vec<BTreeMap<usize, f64>>,
}

impl Placement {
    /// An empty placement for `num_apps` applications.
    pub fn empty(num_apps: usize) -> Self {
        Placement {
            allocs: vec![BTreeMap::new(); num_apps],
        }
    }

    /// Number of applications this placement covers.
    pub fn num_apps(&self) -> usize {
        self.allocs.len()
    }

    /// Set the allocation of `app` on `server` (removing the instance if
    /// `cpu <= 0`).
    pub fn set(&mut self, app: usize, server: usize, cpu: f64) {
        if cpu > 0.0 {
            self.allocs[app].insert(server, cpu);
        } else {
            self.allocs[app].remove(&server);
        }
    }

    /// Allocation of `app` on `server` (0 if no instance).
    pub fn get(&self, app: usize, server: usize) -> f64 {
        self.allocs[app].get(&server).copied().unwrap_or(0.0)
    }

    /// The instances of one app: `(server, cpu)` pairs.
    pub fn instances(&self, app: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.allocs[app].iter().map(|(&s, &c)| (s, c))
    }

    /// Number of instances of one app.
    pub fn instance_count(&self, app: usize) -> usize {
        self.allocs[app].len()
    }

    /// Total number of instances across all apps.
    pub fn total_instances(&self) -> usize {
        self.allocs.iter().map(|m| m.len()).sum()
    }

    /// CPU satisfied for one app.
    pub fn satisfied(&self, app: usize) -> f64 {
        self.allocs[app].values().sum()
    }

    /// Total satisfied demand.
    pub fn total_satisfied(&self) -> f64 {
        (0..self.allocs.len()).map(|a| self.satisfied(a)).sum()
    }

    /// Per-server CPU load implied by this placement.
    pub fn server_loads(&self, num_servers: usize) -> Vec<f64> {
        let mut loads = vec![0.0; num_servers];
        for m in &self.allocs {
            for (&s, &c) in m {
                loads[s] += c;
            }
        }
        loads
    }

    /// Per-server instance counts.
    pub fn server_vm_counts(&self, num_servers: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_servers];
        for m in &self.allocs {
            for &s in m.keys() {
                counts[s] += 1;
            }
        }
        counts
    }

    /// Number of placement *changes* relative to `prev`: instances started
    /// plus instances stopped (capacity re-apportioning on an existing
    /// instance is free — that's the cheap knob of §IV.E/§IV.F).
    pub fn changes_from(&self, prev: &Placement) -> usize {
        assert_eq!(
            self.allocs.len(),
            prev.allocs.len(),
            "placements cover different apps"
        );
        let mut changes = 0;
        for (cur, old) in self.allocs.iter().zip(&prev.allocs) {
            changes += cur.keys().filter(|s| !old.contains_key(s)).count();
            changes += old.keys().filter(|s| !cur.contains_key(s)).count();
        }
        changes
    }

    /// Check feasibility against a problem: server CPU and VM-count limits
    /// respected, per-instance allocation within `vm_cap`, satisfied
    /// demand within each app's demand. Panics with a description of the
    /// first violation.
    pub fn assert_feasible(&self, problem: &PlacementProblem) {
        const EPS: f64 = 1e-6;
        assert_eq!(self.allocs.len(), problem.apps.len());
        let loads = self.server_loads(problem.servers.len());
        let counts = self.server_vm_counts(problem.servers.len());
        for (i, s) in problem.servers.iter().enumerate() {
            assert!(
                loads[i] <= s.cpu + EPS,
                "server {i} over CPU: {} > {}",
                loads[i],
                s.cpu
            );
            assert!(
                counts[i] <= s.max_vms,
                "server {i} over VM limit: {} > {}",
                counts[i],
                s.max_vms
            );
        }
        for (a, req) in problem.apps.iter().enumerate() {
            assert!(
                self.satisfied(a) <= req.demand_cpu + EPS,
                "app {a} over-satisfied: {} > {}",
                self.satisfied(a),
                req.demand_cpu
            );
            for (&srv, &c) in &self.allocs[a] {
                assert!(
                    c <= req.vm_cap + EPS,
                    "app {a} instance on server {srv} over vm_cap: {} > {}",
                    c,
                    req.vm_cap
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether [`Placement::assert_feasible`] passes.
    fn is_feasible(p: &Placement, problem: &PlacementProblem) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.assert_feasible(problem)))
            .is_ok()
    }

    fn problem() -> PlacementProblem {
        PlacementProblem {
            servers: vec![
                ServerCap {
                    cpu: 4.0,
                    max_vms: 3,
                },
                ServerCap {
                    cpu: 2.0,
                    max_vms: 3,
                },
            ],
            apps: vec![
                AppReq {
                    demand_cpu: 3.0,
                    vm_cap: 2.0,
                },
                AppReq {
                    demand_cpu: 1.0,
                    vm_cap: 1.0,
                },
            ],
        }
    }

    #[test]
    fn alloc_roundtrip_and_instances() {
        let mut p = Placement::empty(2);
        p.set(0, 0, 2.0);
        p.set(0, 1, 1.0);
        p.set(1, 0, 1.0);
        assert_eq!(p.get(0, 0), 2.0);
        assert_eq!(p.instance_count(0), 2);
        assert_eq!(p.total_instances(), 3);
        assert!((p.satisfied(0) - 3.0).abs() < 1e-12);
        assert_eq!(p.server_loads(2), vec![3.0, 1.0]);
        assert_eq!(p.server_vm_counts(2), vec![2, 1]);
        // Zero allocation removes the instance.
        p.set(0, 1, 0.0);
        assert_eq!(p.instance_count(0), 1);
    }

    #[test]
    fn changes_count_starts_and_stops() {
        let mut a = Placement::empty(2);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 2.0); // capacity change only: free
        b.set(0, 1, 1.0); // start: 1 change
        b.set(1, 1, 0.0); // stop: 1 change
        assert_eq!(b.changes_from(&a), 2);
        assert_eq!(a.changes_from(&a), 0);
    }

    #[test]
    fn feasibility_checks() {
        let prob = problem();
        let mut p = Placement::empty(2);
        p.set(0, 0, 2.0);
        p.set(0, 1, 1.0);
        p.set(1, 0, 1.0);
        p.assert_feasible(&prob);
        assert!(is_feasible(&p, &prob));
        // Over vm_cap.
        let mut bad = p.clone();
        bad.set(1, 0, 1.5);
        assert!(!is_feasible(&bad, &prob));
        // Over server cpu.
        let mut bad2 = p.clone();
        bad2.set(1, 1, 1.0); // server1: 1 + 1 = 2 ok; push over:
        bad2.set(0, 1, 2.0); // server1: 2 + 1 = 3 > 2
        assert!(!is_feasible(&bad2, &prob));
    }

    #[test]
    fn vm_count_limit_checked() {
        let prob = PlacementProblem {
            servers: vec![ServerCap {
                cpu: 10.0,
                max_vms: 1,
            }],
            apps: vec![
                AppReq {
                    demand_cpu: 1.0,
                    vm_cap: 1.0,
                },
                AppReq {
                    demand_cpu: 1.0,
                    vm_cap: 1.0,
                },
            ],
        };
        let mut p = Placement::empty(2);
        p.set(0, 0, 1.0);
        p.set(1, 0, 1.0);
        assert!(!is_feasible(&p, &prob));
    }

    #[test]
    fn problem_totals() {
        let prob = problem();
        assert!((prob.total_capacity() - 6.0).abs() < 1e-12);
        assert!((prob.total_demand() - 4.0).abs() < 1e-12);
    }
}
