//! Placement problem and solution representation.
//!
//! The provisioning objective the paper inherits from \[23\]: given server
//! capacities and per-application CPU demands, choose where application
//! instances run and how much capacity each gets, so that satisfied demand
//! is maximized and *placement changes* (instance starts/stops, which are
//! expensive — §IV.D) are minimized.

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
}

/// A placement: per application, the CPU allocated to it on each server
/// hosting one of its instances. An entry `(server, cpu)` *is* an instance.
///
/// Stored compressed-sparse-row: `entries[start[a]..start[a + 1]]` is app
/// `a`'s run of instances, sorted by server, each with `cpu > 0`. Every
/// walk visits apps in index order and each app's servers in ascending
/// order, so sums over a placement add the same terms in the same order
/// as a per-app ordered map would. Producers build a whole placement in
/// one pass ([`Placement::from_sorted`], and in-crate bulk rewrites and
/// merges); the test-only `set`, which edits one instance, is the oracle
/// they are checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `num_apps + 1` offsets into `entries`.
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Default for Placement {
    fn default() -> Self {
        Placement::empty(0)
    }
}

impl Placement {
    /// An empty placement for `num_apps` applications.
    pub fn empty(num_apps: usize) -> Self {
        Placement {
            start: vec![0; num_apps + 1],
            entries: Vec::new(),
        }
    }

    /// Build a placement from `(app, server, cpu)` triples in `(app,
    /// server)` order, as `set` on each in turn would: for a repeated
    /// pair the last triple wins, and a `cpu <= 0` leaves no
    /// instance. Panics if the triples are out of order or name an app
    /// `>= num_apps`.
    pub fn from_sorted(
        num_apps: usize,
        triples: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut p = Placement {
            start: Vec::with_capacity(num_apps + 1),
            entries: Vec::new(),
        };
        p.start.push(0);
        let mut prev = None;
        for (app, server, cpu) in triples {
            assert!(app < num_apps, "app {app} out of range");
            assert!(
                prev <= Some((app, server)),
                "triples out of (app, server) order"
            );
            while p.start.len() <= app {
                p.start.push(p.entries.len());
            }
            // A repeated pair replaces the instance the previous triple made.
            let run = &p.entries[p.start[app]..];
            if prev == Some((app, server)) && run.last().is_some_and(|&(s, _)| s == server) {
                p.entries.pop();
            }
            if cpu > 0.0 {
                p.entries.push((server, cpu));
            }
            prev = Some((app, server));
        }
        while p.start.len() <= num_apps {
            p.start.push(p.entries.len());
        }
        p
    }

    /// Number of applications this placement covers.
    pub fn num_apps(&self) -> usize {
        self.start.len() - 1
    }

    /// App `app`'s instances, sorted by server.
    fn run(&self, app: usize) -> &[(usize, f64)] {
        &self.entries[self.start[app]..self.start[app + 1]]
    }

    /// Replace every allocation in one pass, in `(app, server)` order: the
    /// `i`th instance gets `cpu(i)`, and one whose new value is not
    /// positive is removed, as `set` on each in turn would.
    pub(crate) fn rewrite(&mut self, mut cpu: impl FnMut(usize) -> f64) {
        let n = self.num_apps();
        let (mut read, mut write) = (0, 0);
        for a in 0..n {
            let end = self.start[a + 1];
            self.start[a] = write;
            while read < end {
                let c = cpu(read);
                if c > 0.0 {
                    self.entries[write] = (self.entries[read].0, c);
                    write += 1;
                }
                read += 1;
            }
        }
        self.start[n] = write;
        self.entries.truncate(write);
    }

    /// Apply `sets` (`(app, server, cpu)`, any order) as `set` on each
    /// in turn would, merging them in with one pass over the
    /// placement. Sorts `sets` by `(app, server)`, keeping the order of a
    /// repeated pair, so its last triple wins.
    pub(crate) fn set_all(&mut self, sets: &mut [(usize, usize, f64)]) {
        if sets.is_empty() {
            return;
        }
        sets.sort_by_key(|&(a, s, _)| (a, s));
        let n = self.num_apps();
        assert!(sets[sets.len() - 1].0 < n, "app out of range");
        let mut merged = Vec::with_capacity(self.entries.len() + sets.len());
        let mut k = 0;
        for a in 0..n {
            let (mut j, end) = (self.start[a], self.start[a + 1]);
            self.start[a] = merged.len();
            while k < sets.len() && sets[k].0 == a {
                let (_, server, cpu) = sets[k];
                k += 1;
                if k < sets.len() && sets[k].0 == a && sets[k].1 == server {
                    continue; // a later triple of the pair wins
                }
                while j < end && self.entries[j].0 < server {
                    merged.push(self.entries[j]);
                    j += 1;
                }
                if j < end && self.entries[j].0 == server {
                    j += 1; // replaced
                }
                if cpu > 0.0 {
                    merged.push((server, cpu));
                }
            }
            merged.extend_from_slice(&self.entries[j..end]);
        }
        self.start[n] = merged.len();
        self.entries = merged;
    }

    /// Allocation of `app` on `server` (0 if no instance).
    pub fn get(&self, app: usize, server: usize) -> f64 {
        let run = self.run(app);
        match run.binary_search_by_key(&server, |&(s, _)| s) {
            Ok(i) => run[i].1,
            Err(_) => 0.0,
        }
    }

    /// The instances of one app: `(server, cpu)` pairs, by server.
    pub fn instances(&self, app: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.run(app).iter().copied()
    }

    /// Total number of instances across all apps.
    pub fn total_instances(&self) -> usize {
        self.entries.len()
    }

    /// CPU satisfied for one app.
    pub fn satisfied(&self, app: usize) -> f64 {
        self.run(app).iter().map(|&(_, c)| c).sum()
    }

    /// Total satisfied demand.
    pub fn total_satisfied(&self) -> f64 {
        (0..self.num_apps()).map(|a| self.satisfied(a)).sum()
    }

    /// Per-server CPU load implied by this placement.
    pub fn server_loads(&self, num_servers: usize) -> Vec<f64> {
        let mut loads = vec![0.0; num_servers];
        for &(s, c) in &self.entries {
            loads[s] += c;
        }
        loads
    }

    /// Per-server instance counts.
    pub fn server_vm_counts(&self, num_servers: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_servers];
        for &(s, _) in &self.entries {
            counts[s] += 1;
        }
        counts
    }
}

/// Test oracles: the per-instance edit the bulk builders are checked
/// against, the change count, and the feasibility check.
#[cfg(test)]
impl Placement {
    /// Set the allocation of `app` on `server` (removing the instance if
    /// `cpu <= 0`).
    pub fn set(&mut self, app: usize, server: usize, cpu: f64) {
        let lo = self.start[app];
        match self.run(app).binary_search_by_key(&server, |&(s, _)| s) {
            Ok(i) if cpu > 0.0 => self.entries[lo + i].1 = cpu,
            Ok(i) => {
                self.entries.remove(lo + i);
                self.start[app + 1..].iter_mut().for_each(|s| *s -= 1);
            }
            Err(i) if cpu > 0.0 => {
                self.entries.insert(lo + i, (server, cpu));
                self.start[app + 1..].iter_mut().for_each(|s| *s += 1);
            }
            Err(_) => {}
        }
    }

    /// Number of placement *changes* relative to `prev`: instances started
    /// plus instances stopped (capacity re-apportioning on an existing
    /// instance is free — that's the cheap knob of §IV.E/§IV.F).
    pub fn changes_from(&self, prev: &Placement) -> usize {
        assert_eq!(
            self.num_apps(),
            prev.num_apps(),
            "placements cover different apps"
        );
        let mut changes = 0;
        for a in 0..self.num_apps() {
            // Servers in one run but not the other, by a merge of the two.
            let (cur, old) = (self.run(a), prev.run(a));
            let (mut i, mut j) = (0, 0);
            while i < cur.len() && j < old.len() {
                match cur[i].0.cmp(&old[j].0) {
                    std::cmp::Ordering::Less => {
                        changes += 1;
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        changes += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            changes += cur.len() - i + old.len() - j;
        }
        changes
    }

    /// Check feasibility against a problem: server CPU and VM-count limits
    /// respected, per-instance allocation within `vm_cap`, satisfied
    /// demand within each app's demand. Panics with a description of the
    /// first violation.
    pub fn assert_feasible(&self, problem: &PlacementProblem) {
        const EPS: f64 = 1e-6;
        assert_eq!(self.num_apps(), problem.apps.len());
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
            for (srv, c) in self.instances(a) {
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
    use std::collections::BTreeMap;

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
        assert_eq!(p.instances(0).count(), 2);
        assert_eq!(p.total_instances(), 3);
        assert!((p.satisfied(0) - 3.0).abs() < 1e-12);
        assert_eq!(p.server_loads(2), vec![3.0, 1.0]);
        assert_eq!(p.server_vm_counts(2), vec![2, 1]);
        // Zero allocation removes the instance.
        p.set(0, 1, 0.0);
        assert_eq!(p.instances(0).count(), 1);
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

    /// The `BTreeMap` placement the dense one replaced, kept as the
    /// differential reference.
    #[derive(Debug, Clone)]
    struct MapPlacement {
        allocs: Vec<BTreeMap<usize, f64>>,
    }

    impl MapPlacement {
        fn empty(num_apps: usize) -> Self {
            MapPlacement {
                allocs: vec![BTreeMap::new(); num_apps],
            }
        }

        fn set(&mut self, app: usize, server: usize, cpu: f64) {
            if cpu > 0.0 {
                self.allocs[app].insert(server, cpu);
            } else {
                self.allocs[app].remove(&server);
            }
        }

        fn get(&self, app: usize, server: usize) -> f64 {
            self.allocs[app].get(&server).copied().unwrap_or(0.0)
        }

        fn instances(&self, app: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
            self.allocs[app].iter().map(|(&s, &c)| (s, c))
        }

        fn satisfied(&self, app: usize) -> f64 {
            self.allocs[app].values().sum()
        }

        fn total_satisfied(&self) -> f64 {
            (0..self.allocs.len()).map(|a| self.satisfied(a)).sum()
        }

        fn server_loads(&self, num_servers: usize) -> Vec<f64> {
            let mut loads = vec![0.0; num_servers];
            for m in &self.allocs {
                for (&s, &c) in m {
                    loads[s] += c;
                }
            }
            loads
        }

        fn changes_from(&self, prev: &MapPlacement) -> usize {
            let mut changes = 0;
            for (cur, old) in self.allocs.iter().zip(&prev.allocs) {
                changes += cur.keys().filter(|s| !old.contains_key(s)).count();
                changes += old.keys().filter(|s| !cur.contains_key(s)).count();
            }
            changes
        }
    }

    /// Every read of `dense` agrees with `map`, f64s as bits.
    fn assert_same(dense: &Placement, map: &MapPlacement, servers: usize, at: &str) {
        let bits = |xs: Vec<f64>| -> Vec<u64> { xs.into_iter().map(f64::to_bits).collect() };
        assert_eq!(dense.num_apps(), map.allocs.len(), "{at}");
        for a in 0..dense.num_apps() {
            let got: Vec<(usize, u64)> =
                dense.instances(a).map(|(s, c)| (s, c.to_bits())).collect();
            let want: Vec<(usize, u64)> = map.instances(a).map(|(s, c)| (s, c.to_bits())).collect();
            assert_eq!(got, want, "{at}: app {a} instances");
            assert_eq!(dense.instances(a).count(), want.len(), "{at}");
            assert_eq!(
                dense.satisfied(a).to_bits(),
                map.satisfied(a).to_bits(),
                "{at}"
            );
            for s in 0..servers {
                assert_eq!(
                    dense.get(a, s).to_bits(),
                    map.get(a, s).to_bits(),
                    "{at}: get({a}, {s})"
                );
            }
        }
        let instances: usize = map.allocs.iter().map(BTreeMap::len).sum();
        assert_eq!(dense.total_instances(), instances, "{at}");
        assert_eq!(
            dense.total_satisfied().to_bits(),
            map.total_satisfied().to_bits(),
            "{at}"
        );
        assert_eq!(
            bits(dense.server_loads(servers)),
            bits(map.server_loads(servers)),
            "{at}"
        );
        let counts: Vec<usize> = (0..servers)
            .map(|s| map.allocs.iter().filter(|m| m.contains_key(&s)).count())
            .collect();
        assert_eq!(dense.server_vm_counts(servers), counts, "{at}");
    }

    /// Seeded placements built in bulk from sorted triples with repeated
    /// pairs, then changed by single `set`s (zero and negative values
    /// included, so some remove instances), one-pass rewrites and merged
    /// batches, each mirrored on the map reference by `set` calls in
    /// order. Every read and `changes_from` must agree after every step.
    #[test]
    fn dense_placement_matches_the_map_reference() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Repeated pairs in a bulk build whose last triple differs from
        // the first, removals by `set`, rewrites that drop an instance,
        // batches with a repeated pair.
        let mut seen = [0usize; 4];
        let cpu = |rng: &mut SmallRng| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.5,
            _ => rng.gen_range(0.01..3.0),
        };
        for seed in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (apps, servers) = (rng.gen_range(1..8usize), rng.gen_range(1..10usize));
            let mut triples = Vec::new();
            for a in 0..apps {
                for s in 0..servers {
                    if rng.gen_bool(0.4) {
                        let first = triples.len();
                        for _ in 0..rng.gen_range(1..4) {
                            triples.push((a, s, cpu(&mut rng)));
                        }
                        let last = triples.len() - 1;
                        seen[0] += usize::from(
                            triples[first].2 > 0.0 && triples[last].2 != triples[first].2,
                        );
                    }
                }
            }
            let mut dense = Placement::from_sorted(apps, triples.iter().copied());
            let mut map = MapPlacement::empty(apps);
            for &(a, s, c) in &triples {
                map.set(a, s, c);
            }
            assert_same(&dense, &map, servers, &format!("seed {seed} build"));
            let (prev_dense, prev_map) = (dense.clone(), map.clone());
            for step in 0..24 {
                match rng.gen_range(0..3) {
                    0 => {
                        let (a, s) = (rng.gen_range(0..apps), rng.gen_range(0..servers));
                        let c = cpu(&mut rng);
                        seen[1] += usize::from(c <= 0.0 && map.get(a, s) > 0.0);
                        dense.set(a, s, c);
                        map.set(a, s, c);
                    }
                    1 => {
                        let values: Vec<f64> = (0..dense.total_instances())
                            .map(|_| cpu(&mut rng))
                            .collect();
                        let mut i = 0;
                        for a in 0..apps {
                            let servers: Vec<usize> = map.instances(a).map(|(s, _)| s).collect();
                            for s in servers {
                                map.set(a, s, values[i]);
                                i += 1;
                            }
                        }
                        seen[2] += usize::from(values.iter().any(|&c| c <= 0.0));
                        dense.rewrite(|i| values[i]);
                    }
                    _ => {
                        let mut batch: Vec<(usize, usize, f64)> = (0..rng.gen_range(0..12))
                            .map(|_| {
                                (
                                    rng.gen_range(0..apps),
                                    rng.gen_range(0..servers),
                                    cpu(&mut rng),
                                )
                            })
                            .collect();
                        for &(a, s, c) in &batch {
                            map.set(a, s, c);
                        }
                        let mut pairs: Vec<(usize, usize)> =
                            batch.iter().map(|&(a, s, _)| (a, s)).collect();
                        pairs.sort_unstable();
                        seen[3] += usize::from(pairs.windows(2).any(|w| w[0] == w[1]));
                        dense.set_all(&mut batch);
                    }
                }
                let at = format!("seed {seed} step {step}");
                assert_same(&dense, &map, servers, &at);
                assert_eq!(
                    dense.changes_from(&prev_dense),
                    map.changes_from(&prev_map),
                    "{at}"
                );
                assert_eq!(
                    prev_dense.changes_from(&dense),
                    prev_map.changes_from(&map),
                    "{at}"
                );
            }
        }
        assert!(seen.iter().all(|&n| n > 50), "paths seen: {seen:?}");
    }
}
