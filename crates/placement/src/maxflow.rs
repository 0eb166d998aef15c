//! Dinic's maximum-flow algorithm.
//!
//! The load-distribution step of the Tang-style placement controller is a
//! max-flow computation on the bipartite application↔server graph; Dinic
//! runs it in `O(E·√V)` on such unit-capacity-ish graphs and `O(V²E)` in
//! general — the super-linear growth that, repeated over placement rounds,
//! produces the scalability wall of §I.A.
//!
//! Layout: [`FlowNetwork::add_edge`] only records `(from, to, cap)`. The
//! first [`FlowNetwork::max_flow`] lays every residual arc out in one flat
//! array grouped by tail node (a counting pass). Within a node, arcs keep
//! the order of the edges that produced them — the order a per-node
//! adjacency list filled by `add_edge` would hold — so Dinic visits arcs in
//! the same order, augments along the same paths and leaves the same
//! per-edge flows.

/// A residual arc: the forward arc of an added edge or its reverse.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    /// Residual capacity.
    cap: u64,
    /// Index of the paired arc in `arcs`.
    rev: usize,
}

/// A max-flow problem instance.
///
/// ```
/// use placement::maxflow::FlowNetwork;
///
/// let mut net = FlowNetwork::new(4);
/// let s = 0; let t = 3;
/// net.add_edge(s, 1, 10);
/// net.add_edge(s, 2, 10);
/// net.add_edge(1, 3, 7);
/// net.add_edge(2, 3, 5);
/// assert_eq!(net.max_flow(s, t), 12);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    num_nodes: usize,
    /// `(from, to, cap)` of each added edge, in insertion order.
    edges: Vec<(usize, usize, u64)>,
    /// Residual arcs grouped by tail node; empty until `max_flow`.
    arcs: Vec<Arc>,
    /// Node `u`'s arcs are `arcs[start[u]..start[u + 1]]`; empty until
    /// `max_flow`.
    start: Vec<usize>,
    /// Position of each added edge's forward arc in `arcs`.
    fwd: Vec<usize>,
}

/// Handle to an edge, for querying its flow after solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeId(usize);

impl FlowNetwork {
    /// Create a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            num_nodes: n,
            edges: Vec::new(),
            arcs: Vec::new(),
            start: Vec::new(),
            fwd: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Whether `max_flow` has laid out the residual arcs.
    fn laid_out(&self) -> bool {
        !self.start.is_empty()
    }

    /// Add a directed edge `from → to` with the given capacity; returns a
    /// handle usable with [`FlowNetwork::flow`] after solving.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> EdgeId {
        assert!(
            from < self.num_nodes && to < self.num_nodes,
            "node out of range"
        );
        assert_ne!(from, to, "self-loops are not allowed");
        assert!(!self.laid_out(), "edges must be added before max_flow");
        self.edges.push((from, to, cap));
        EdgeId(self.edges.len() - 1)
    }

    /// Flow currently carried by an edge (only meaningful after
    /// [`FlowNetwork::max_flow`]; 0 before it).
    pub fn flow(&self, id: EdgeId) -> u64 {
        if !self.laid_out() {
            return 0;
        }
        self.edges[id.0].2 - self.arcs[self.fwd[id.0]].cap
    }

    /// Counting pass: group the forward and reverse arc of every edge by
    /// tail node, each node's arcs in edge-insertion order.
    fn lay_out(&mut self) {
        let n = self.num_nodes;
        let mut start = vec![0usize; n + 1];
        for &(from, to, _) in &self.edges {
            start[from + 1] += 1;
            start[to + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut next = start.clone();
        let mut arcs = vec![
            Arc {
                to: 0,
                cap: 0,
                rev: 0
            };
            2 * self.edges.len()
        ];
        let mut fwd = Vec::with_capacity(self.edges.len());
        for &(from, to, cap) in &self.edges {
            let f = next[from];
            let r = next[to];
            next[from] += 1;
            next[to] += 1;
            arcs[f] = Arc { to, cap, rev: r };
            arcs[r] = Arc {
                to: from,
                cap: 0,
                rev: f,
            };
            fwd.push(f);
        }
        self.arcs = arcs;
        self.start = start;
        self.fwd = fwd;
    }

    /// BFS phase: build the level graph. Returns `true` if `t` is
    /// reachable. `queue` is scratch space reused across phases.
    fn bfs(&self, s: usize, t: usize, level: &mut [i32], queue: &mut Vec<usize>) -> bool {
        level.fill(-1);
        level[s] = 0;
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for e in &self.arcs[self.start[u]..self.start[u + 1]] {
                if e.cap > 0 && level[e.to] < 0 {
                    level[e.to] = level[u] + 1;
                    queue.push(e.to);
                }
            }
        }
        level[t] >= 0
    }

    /// DFS phase: send blocking flow along the level graph. `iter[u]` is
    /// the absolute index of `u`'s next untried arc.
    fn dfs(&mut self, u: usize, t: usize, pushed: u64, level: &[i32], iter: &mut [usize]) -> u64 {
        if u == t {
            return pushed;
        }
        while iter[u] < self.start[u + 1] {
            let Arc { to, cap, rev } = self.arcs[iter[u]];
            if cap > 0 && level[to] == level[u] + 1 {
                let d = self.dfs(to, t, pushed.min(cap), level, iter);
                if d > 0 {
                    self.arcs[iter[u]].cap -= d;
                    self.arcs[rev].cap += d;
                    return d;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Compute the maximum `s → t` flow. May be called once per network
    /// (capacities are consumed: a second call finds no augmenting path
    /// and returns 0); edge flows are queryable afterwards.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert!(
            s < self.num_nodes && t < self.num_nodes,
            "node out of range"
        );
        assert_ne!(s, t);
        if !self.laid_out() {
            self.lay_out();
        }
        let n = self.num_nodes;
        let mut flow = 0u64;
        let mut level = vec![-1i32; n];
        let mut queue = Vec::with_capacity(n);
        let mut iter = vec![0usize; n];
        while self.bfs(s, t, &mut level, &mut queue) {
            iter.copy_from_slice(&self.start[..n]);
            loop {
                let f = self.dfs(s, t, u64::MAX, &level, &mut iter);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// The per-node adjacency-list Dinic the flat layout replaced, kept as the
/// differential reference: same arc order, so same flows edge for edge.
#[cfg(test)]
mod reference {
    #[derive(Debug, Clone, Copy)]
    struct Edge {
        to: usize,
        cap: u64,
        /// Index of the reverse edge in `graph[to]`.
        rev: usize,
        /// Original capacity (to report flow).
        orig: u64,
    }

    #[derive(Debug, Clone)]
    pub struct RefNetwork {
        graph: Vec<Vec<Edge>>,
        /// (node, index-within-node) of each added edge, in insertion order.
        edges: Vec<(usize, usize)>,
    }

    impl RefNetwork {
        pub fn new(n: usize) -> Self {
            RefNetwork {
                graph: vec![Vec::new(); n],
                edges: Vec::new(),
            }
        }

        pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> usize {
            let fwd_idx = self.graph[from].len();
            let rev_idx = self.graph[to].len();
            self.graph[from].push(Edge {
                to,
                cap,
                rev: rev_idx,
                orig: cap,
            });
            self.graph[to].push(Edge {
                to: from,
                cap: 0,
                rev: fwd_idx,
                orig: 0,
            });
            self.edges.push((from, fwd_idx));
            self.edges.len() - 1
        }

        pub fn flow(&self, id: usize) -> u64 {
            let (node, idx) = self.edges[id];
            let e = &self.graph[node][idx];
            e.orig - e.cap
        }

        fn bfs(&self, s: usize, t: usize, level: &mut [i32]) -> bool {
            level.fill(-1);
            level[s] = 0;
            let mut queue = std::collections::VecDeque::with_capacity(self.graph.len());
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for e in &self.graph[u] {
                    if e.cap > 0 && level[e.to] < 0 {
                        level[e.to] = level[u] + 1;
                        queue.push_back(e.to);
                    }
                }
            }
            level[t] >= 0
        }

        fn dfs(
            &mut self,
            u: usize,
            t: usize,
            pushed: u64,
            level: &[i32],
            iter: &mut [usize],
        ) -> u64 {
            if u == t {
                return pushed;
            }
            while iter[u] < self.graph[u].len() {
                let (to, cap, rev) = {
                    let e = &self.graph[u][iter[u]];
                    (e.to, e.cap, e.rev)
                };
                if cap > 0 && level[to] == level[u] + 1 {
                    let d = self.dfs(to, t, pushed.min(cap), level, iter);
                    if d > 0 {
                        self.graph[u][iter[u]].cap -= d;
                        self.graph[to][rev].cap += d;
                        return d;
                    }
                }
                iter[u] += 1;
            }
            0
        }

        pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
            let n = self.graph.len();
            let mut flow = 0u64;
            let mut level = vec![-1i32; n];
            while self.bfs(s, t, &mut level) {
                let mut iter = vec![0usize; n];
                loop {
                    let f = self.dfs(s, t, u64::MAX, &level, &mut iter);
                    if f == 0 {
                        break;
                    }
                    flow += f;
                }
            }
            flow
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefNetwork;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_path() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
    }

    #[test]
    fn classic_clrs_network() {
        // The CLRS example network: max flow 23.
        let mut net = FlowNetwork::new(6);
        let (s, v1, v2, v3, v4, t) = (0, 1, 2, 3, 4, 5);
        net.add_edge(s, v1, 16);
        net.add_edge(s, v2, 13);
        net.add_edge(v1, v3, 12);
        net.add_edge(v2, v1, 4);
        net.add_edge(v2, v4, 14);
        net.add_edge(v3, v2, 9);
        net.add_edge(v3, t, 20);
        net.add_edge(v4, v3, 7);
        net.add_edge(v4, t, 4);
        assert_eq!(net.max_flow(s, t), 23);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 10);
        net.add_edge(2, 3, 10);
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn edge_flow_queries() {
        let mut net = FlowNetwork::new(4);
        let a = net.add_edge(0, 1, 10);
        let b = net.add_edge(0, 2, 10);
        let c = net.add_edge(1, 3, 4);
        let d = net.add_edge(2, 3, 9);
        assert_eq!(net.max_flow(0, 3), 13);
        assert_eq!(net.flow(a), 4);
        assert_eq!(net.flow(c), 4);
        assert_eq!(net.flow(b), 9);
        assert_eq!(net.flow(d), 9);
    }

    #[test]
    fn flow_is_zero_before_max_flow() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 5);
        let b = net.add_edge(1, 2, 3);
        assert_eq!(net.flow(a), 0);
        assert_eq!(net.flow(b), 0);
        assert_eq!(net.num_nodes(), 3);
    }

    #[test]
    fn second_max_flow_returns_zero_and_keeps_flows() {
        let mut net = FlowNetwork::new(4);
        let ids = [
            net.add_edge(0, 1, 10),
            net.add_edge(0, 2, 10),
            net.add_edge(1, 3, 4),
            net.add_edge(2, 3, 9),
        ];
        assert_eq!(net.max_flow(0, 3), 13);
        let before: Vec<u64> = ids.iter().map(|&id| net.flow(id)).collect();
        assert_eq!(net.max_flow(0, 3), 0, "capacities are consumed");
        let after: Vec<u64> = ids.iter().map(|&id| net.flow(id)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn bipartite_matching() {
        // 3 apps × 3 servers, unit capacities, perfect matching exists.
        // nodes: 0 = s, 1..=3 apps, 4..=6 servers, 7 = t.
        let mut net = FlowNetwork::new(8);
        for a in 1..=3 {
            net.add_edge(0, a, 1);
            net.add_edge(a + 3, 7, 1);
        }
        net.add_edge(1, 4, 1);
        net.add_edge(1, 5, 1);
        net.add_edge(2, 5, 1);
        net.add_edge(3, 5, 1);
        net.add_edge(3, 6, 1);
        assert_eq!(net.max_flow(0, 7), 3);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 1, 4);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    /// Brute-force max-flow via repeated BFS augmentation
    /// (Edmonds–Karp) for cross-checking on random graphs.
    fn edmonds_karp(n: usize, edges: &[(usize, usize, u64)], s: usize, t: usize) -> u64 {
        let mut cap = vec![vec![0u64; n]; n];
        for &(u, v, c) in edges {
            cap[u][v] += c;
        }
        let mut flow = 0;
        loop {
            // BFS for an augmenting path.
            let mut parent = vec![usize::MAX; n];
            parent[s] = s;
            let mut q = std::collections::VecDeque::new();
            q.push_back(s);
            while let Some(u) = q.pop_front() {
                for v in 0..n {
                    if parent[v] == usize::MAX && cap[u][v] > 0 {
                        parent[v] = u;
                        q.push_back(v);
                    }
                }
            }
            if parent[t] == usize::MAX {
                return flow;
            }
            // Find bottleneck.
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let u = parent[v];
                bottleneck = bottleneck.min(cap[u][v]);
                v = u;
            }
            let mut v = t;
            while v != s {
                let u = parent[v];
                cap[u][v] -= bottleneck;
                cap[v][u] += bottleneck;
                v = u;
            }
            flow += bottleneck;
        }
    }

    /// Solve `edges` on both the flat network and the adjacency-list
    /// reference; returns `(total, per-edge flows)` of each.
    fn solve_both(
        n: usize,
        edges: &[(usize, usize, u64)],
        s: usize,
        t: usize,
    ) -> ((u64, Vec<u64>), (u64, Vec<u64>)) {
        let mut net = FlowNetwork::new(n);
        let mut reference = RefNetwork::new(n);
        let ids: Vec<(EdgeId, usize)> = edges
            .iter()
            .map(|&(u, v, c)| (net.add_edge(u, v, c), reference.add_edge(u, v, c)))
            .collect();
        let total = net.max_flow(s, t);
        let ref_total = reference.max_flow(s, t);
        (
            (total, ids.iter().map(|&(id, _)| net.flow(id)).collect()),
            (
                ref_total,
                ids.iter().map(|&(_, r)| reference.flow(r)).collect(),
            ),
        )
    }

    proptest! {
        #[test]
        fn prop_matches_edmonds_karp(
            n in 2usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..50), 0..20),
        ) {
            let edges: Vec<(usize, usize, u64)> = edges
                .into_iter()
                .map(|(u, v, c)| (u % n, v % n, c))
                .filter(|&(u, v, _)| u != v)
                .collect();
            let mut net = FlowNetwork::new(n);
            for &(u, v, c) in &edges {
                net.add_edge(u, v, c);
            }
            let dinic = net.max_flow(0, n - 1);
            let ek = edmonds_karp(n, &edges, 0, n - 1);
            prop_assert_eq!(dinic, ek);
        }

        /// Flow conservation at every interior node, and per-edge flow
        /// within capacity.
        #[test]
        fn prop_conservation(
            n in 3usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..50), 1..20),
        ) {
            let edges: Vec<(usize, usize, u64)> = edges
                .into_iter()
                .map(|(u, v, c)| (u % n, v % n, c))
                .filter(|&(u, v, _)| u != v)
                .collect();
            let mut net = FlowNetwork::new(n);
            let ids: Vec<EdgeId> = edges.iter().map(|&(u, v, c)| net.add_edge(u, v, c)).collect();
            let total = net.max_flow(0, n - 1);
            let mut balance = vec![0i64; n];
            for (&(u, v, c), &id) in edges.iter().zip(&ids) {
                let f = net.flow(id);
                prop_assert!(f <= c);
                balance[u] -= f as i64;
                balance[v] += f as i64;
            }
            prop_assert_eq!(balance[0], -(total as i64));
            prop_assert_eq!(balance[n - 1], total as i64);
            for (node, &b) in balance.iter().enumerate().take(n - 1).skip(1) {
                prop_assert_eq!(b, 0, "node {} unbalanced", node);
            }
        }

        /// Random graphs — small node counts force parallel and
        /// antiparallel edges — give the reference's flow on every edge,
        /// not just the same total.
        #[test]
        fn prop_per_edge_flows_match_reference(
            n in 2usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0u64..50), 0..40),
        ) {
            let edges: Vec<(usize, usize, u64)> = edges
                .into_iter()
                .map(|(u, v, c)| (u % n, v % n, c))
                .filter(|&(u, v, _)| u != v)
                .collect();
            let (flat, reference) = solve_both(n, &edges, 0, n - 1);
            prop_assert_eq!(flat, reference);
        }

        /// Controller-shaped networks: source → app (demand), app → server
        /// (one edge per instance, possibly repeated), server → sink
        /// (capacity), added in the controller's order.
        #[test]
        fn prop_bipartite_flows_match_reference(
            demands in proptest::collection::vec(0u64..400, 1..12),
            caps in proptest::collection::vec(0u64..800, 1..8),
            instances in proptest::collection::vec((0usize..12, 0usize..8, 0u64..200), 0..48),
        ) {
            let (apps, servers) = (demands.len(), caps.len());
            let t = 1 + apps + servers;
            let mut edges: Vec<(usize, usize, u64)> = demands
                .iter()
                .enumerate()
                .map(|(a, &d)| (0, 1 + a, d))
                .collect();
            let mut inst: Vec<(usize, usize, u64)> = instances
                .into_iter()
                .map(|(a, v, c)| (a % apps, v % servers, c))
                .collect();
            inst.sort_by_key(|&(a, _, _)| a);
            edges.extend(inst.iter().map(|&(a, v, c)| (1 + a, 1 + apps + v, c)));
            edges.extend(caps.iter().enumerate().map(|(v, &c)| (1 + apps + v, t, c)));
            let (flat, reference) = solve_both(t + 1, &edges, 0, t);
            prop_assert_eq!(flat, reference);
        }
    }
}
