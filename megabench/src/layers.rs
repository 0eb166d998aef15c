//! The traced run's per-layer metrics.
//!
//! Two sources, both read between steps so the step itself runs as in an
//! untraced run:
//! - the platform's own phase profiler (`Platform::profiler`), read
//!   before and after each timed step, gives seconds per phase, and the
//!   entity counts turn them into per-item costs;
//! - probes: spans this file records around calls to public layer
//!   functions, made on the post-step state over a seeded sample of at
//!   most [`SAMPLE`] items per epoch. Every probed call takes `&self`, and
//!   the run checks that probed episodes reproduce the unprobed digest.

use megadc::ids::vip_prefix;
use megadc::pod::PodManager;
use megadc::{AppId, Platform, PodId};
use obs::phases::EPOCH_PHASES;
use obs::profile::phase_index;
use std::hint::black_box;
use std::time::Instant;

/// Items probed per layer per epoch, at most.
const SAMPLE: usize = 1024;

/// The probed public calls, in the order `probe` records them (by index),
/// with the unit of their per-call cost and its scale from seconds.
const PROBES: [(&str, &str, f64); 7] = [
    ("dcnet.preferred_routes", "ns", 1e9),
    ("dcnet.links_at_router", "ns", 1e9),
    ("lbswitch.distribute_vip", "ns", 1e9),
    ("vmm.locate", "ns", 1e9),
    ("dcdns.effective_shares", "ns", 1e9),
    ("workload.demand_bps", "ns", 1e9),
    ("core.pod.plan", "ms", 1e3),
];

/// Counters read just before a step.
pub struct Before {
    phase_s: Vec<f64>,
    processed: u64,
    failed: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Span {
    seconds: f64,
    calls: u64,
}

/// Per-layer totals over a run's traced epochs.
#[derive(Debug)]
pub struct LayerTrace {
    rng: u64,
    spans: [Span; PROBES.len()],
    phase_s: Vec<f64>,
    step_s: f64,
    epochs: u64,
    vips: u64,
    rips: u64,
    pods: u64,
    requests: u64,
    failed_requests: u64,
}

impl LayerTrace {
    /// An empty trace whose item samples derive from `seed`.
    pub fn new(seed: u64) -> LayerTrace {
        LayerTrace {
            rng: seed ^ 0x6d65_6761_6265_6e63,
            spans: [Span::default(); PROBES.len()],
            phase_s: vec![0.0; EPOCH_PHASES.len()],
            step_s: 0.0,
            epochs: 0,
            vips: 0,
            rips: 0,
            pods: 0,
            requests: 0,
            failed_requests: 0,
        }
    }

    /// Read the cumulative counters a step will advance.
    pub fn before_step(&self, p: &Platform) -> Before {
        Before {
            phase_s: (0..EPOCH_PHASES.len())
                .map(|i| p.profiler.total_s(i))
                .collect(),
            processed: p.global.viprip.processed(),
            failed: p.global.viprip.failed(),
        }
    }

    /// Account one timed step of `step_s` seconds, then probe the state
    /// it left.
    pub fn after_step(&mut self, p: &Platform, step_s: f64, before: Before) {
        for (i, total) in self.phase_s.iter_mut().enumerate() {
            *total += p.profiler.total_s(i) - before.phase_s[i];
        }
        self.step_s += step_s;
        self.epochs += 1;
        self.vips += p.state.vips().count() as u64;
        self.rips += p.state.num_rips() as u64;
        self.pods += p.state.num_pods() as u64;
        self.requests += p.global.viprip.processed() - before.processed;
        self.failed_requests += p.global.viprip.failed() - before.failed;
        self.probe(p);
    }

    fn probe(&mut self, p: &Platform) {
        let st = &p.state;
        let now = p.now();
        let snap = p.last_snapshot().expect("probed after a step");

        let mut vips: Vec<_> = st.vips().map(|(v, _)| v).collect();
        self.sample(&mut vips);
        let t = Instant::now();
        let routes: Vec<_> = vips
            .iter()
            .map(|&v| st.routes.preferred_routes(vip_prefix(v), now))
            .collect();
        self.record(0, t, vips.len());

        let routers: Vec<_> = routes.iter().flatten().map(|r| r.router).collect();
        let t = Instant::now();
        for &r in &routers {
            black_box(st.access.links_at_router(r).count());
        }
        self.record(1, t, routers.len());

        let homed: Vec<_> = vips
            .iter()
            .filter_map(|&v| {
                st.vip(v)
                    .ok()
                    .map(|rec| (v, &st.switches[rec.switch.0 as usize]))
            })
            .collect();
        let t = Instant::now();
        let dists: Vec<_> = homed.iter().map(|&(v, sw)| sw.distribute_vip(v)).collect();
        self.record(2, t, homed.len());

        let vms: Vec<_> = dists
            .iter()
            .flatten()
            .flatten()
            .filter_map(|&(rip, _)| st.rip(rip).ok().map(|r| r.vm))
            .take(SAMPLE)
            .collect();
        let t = Instant::now();
        for &vm in &vms {
            let _ = black_box(st.fleet.locate(vm));
        }
        self.record(3, t, vms.len());
        black_box((routes, dists));

        let mut apps: Vec<u32> = (0..st.num_apps() as u32).collect();
        self.sample(&mut apps);
        let t = Instant::now();
        for &a in &apps {
            black_box(st.dns.effective_shares(AppId(a).dns_key(), now));
        }
        self.record(4, t, apps.len());
        let t = Instant::now();
        for &a in &apps {
            black_box(p.workload.demand_bps(a, now));
        }
        self.record(5, t, apps.len());

        let pods = st.num_pods().min(SAMPLE);
        let t = Instant::now();
        for i in 0..pods {
            black_box(PodManager::new(PodId(i as u32)).plan(st, snap));
        }
        self.record(6, t, pods);
    }

    fn record(&mut self, probe: usize, started: Instant, calls: usize) {
        let span = &mut self.spans[probe];
        span.seconds += started.elapsed().as_secs_f64();
        span.calls += calls as u64;
    }

    /// Keep a seeded sample of at most [`SAMPLE`] items of `items`
    /// (a partial Fisher-Yates shuffle; splitmix64 draws).
    fn sample<T>(&mut self, items: &mut Vec<T>) {
        let k = items.len().min(SAMPLE);
        for i in 0..k {
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let j = i + (z % (items.len() - i) as u64) as usize;
            items.swap(i, j);
        }
        items.truncate(k);
    }

    /// Calls made per probe, for the run header.
    pub fn calls(&self) -> Vec<(&'static str, u64)> {
        PROBES
            .iter()
            .zip(&self.spans)
            .map(|(&(name, ..), s)| (name, s.calls))
            .collect()
    }

    /// Every per-layer metric as `(name, value, unit)`, given the traced
    /// run's median epoch time (computed as for the untraced run).
    pub fn metrics(&self, epoch_s_p50: f64) -> Vec<(String, f64, &'static str)> {
        let epochs = self.epochs;
        let phase = |id: &str| phase_index(id).map_or(0.0, |i| self.phase_s[i]);
        let mut out = Vec::new();
        for (decl, &s) in EPOCH_PHASES.iter().zip(&self.phase_s) {
            out.push((
                format!("phase.{}.s_per_epoch", decl.id),
                per(s, epochs),
                "s",
            ));
        }
        let self_s = self.step_s - self.phase_s.iter().sum::<f64>();
        out.push(("platform.step.self_s".into(), per(self_s, epochs), "s"));
        for (name, seconds, items, scale, unit) in [
            (
                "phase.demand-route.ns_per_vip",
                phase("demand-route"),
                self.vips,
                1e9,
                "ns",
            ),
            (
                "phase.demand-serve.ns_per_rip",
                phase("demand-serve"),
                self.rips,
                1e9,
                "ns",
            ),
            (
                "phase.pod-planning.ms_per_pod",
                phase("pod-planning"),
                self.pods,
                1e3,
                "ms",
            ),
            (
                "phase.queue-drain.us_per_request",
                phase("queue-drain"),
                self.requests,
                1e6,
                "us",
            ),
        ] {
            out.push((name.into(), per(seconds * scale, items), unit));
        }
        for (&(name, unit, scale), span) in PROBES.iter().zip(&self.spans) {
            out.push((
                format!("{name}.{unit}_per_call"),
                per(span.seconds * scale, span.calls),
                unit,
            ));
        }
        out.push((
            "core.viprip.requests_per_epoch".into(),
            per(self.requests as f64, epochs),
            "req/epoch",
        ));
        out.push((
            "core.viprip.failed_per_epoch".into(),
            per(self.failed_requests as f64, epochs),
            "req/epoch",
        ));
        out.push(("traced.epoch_s_p50".into(), epoch_s_p50, "s"));
        out
    }
}

/// `total / count`, or 0 when nothing was counted.
fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}
