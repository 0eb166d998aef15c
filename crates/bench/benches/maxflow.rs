//! Criterion bench for the Dinic max-flow substrate (the inner loop of
//! the placement controller's load-distribution phase), timing network
//! construction plus one solve, as the controller pays per round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcsim::rng::component_rng;
use placement::maxflow::FlowNetwork;
use rand::Rng;

/// Bipartite app↔server network like the controller builds: `apps`
/// sources through instance edges to `servers` sinks.
fn bipartite(apps: usize, servers: usize, instances_per_app: usize, seed: u64) -> FlowNetwork {
    let mut rng = component_rng(seed, "bench-flow", apps as u64);
    let s = 0usize;
    let t = 1 + apps + servers;
    let mut net = FlowNetwork::new(t + 1);
    for a in 0..apps {
        net.add_edge(s, 1 + a, rng.gen_range(50..400));
        for _ in 0..instances_per_app {
            let srv = rng.gen_range(0..servers);
            net.add_edge(1 + a, 1 + apps + srv, 200);
        }
    }
    for v in 0..servers {
        net.add_edge(1 + apps + v, t, 800);
    }
    net
}

fn bench_maxflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow");
    for &(apps, servers) in &[(250usize, 100usize), (1000, 400), (4000, 1600)] {
        group.bench_with_input(
            BenchmarkId::new("dinic_bipartite", format!("{apps}x{servers}")),
            &(apps, servers),
            |b, &(apps, servers)| {
                // Build and solve are timed together: the network only
                // records edges, and `max_flow` lays out its arcs.
                b.iter(|| {
                    let mut net = bipartite(apps, servers, 3, 7);
                    let t = net.num_nodes() - 1;
                    net.max_flow(0, t)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_maxflow);
criterion_main!(benches);
