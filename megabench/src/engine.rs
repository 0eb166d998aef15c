//! Drives the platform through a workload's episodes in a closed loop,
//! times each `Platform::build` and `Platform::step`, and checks every
//! timed epoch.
//!
//! An episode is one build, the warm-up epochs, the post-warm-up
//! injections and the timed epochs (chaos: one build and run per
//! scenario, for every scenario of the episode). Every episode of a run
//! replays the same inputs, so every episode must reproduce the first
//! one's digest, and the k-th build and the k-th timed epoch of every
//! episode do the same work. That is what makes [`Run::setup_s`] and
//! [`Run::epoch_s`] robust on a shared host, where the speed one thread
//! gets can fall by up to half for seconds at a time (on-CPU time falls
//! with it, so it is not preemption): taking each build's and each
//! epoch's fastest time over the episodes keeps those periods out of the
//! metrics without dropping any build or epoch.

use crate::layers::LayerTrace;
use crate::workloads::{self, Kind, Workload};
use megadc::demand::LoadSnapshot;
use megadc::Platform;
use std::time::{Duration, Instant};

/// Relative tolerance of the conservation check.
const CONSERVATION_TOL: f64 = 1e-9;

/// Episodes a run makes at the least (a traced run: its unprobed
/// reference episode and two probed ones), so every build and every
/// timed epoch is timed several times.
const MIN_EPISODES: usize = 3;

/// Entity counts at the end of an episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sizes {
    pub apps: usize,
    pub vips: usize,
    pub rips: usize,
    pub vms: usize,
    pub pods: usize,
}

/// What one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Seconds per `Platform::build`.
    pub setup_s: Vec<f64>,
    /// Seconds per timed `Platform::step`, in epoch order.
    pub epoch_s: Vec<f64>,
    /// Sum of the timed epochs' served fractions.
    pub served_sum: f64,
    /// Timed epochs that failed a check.
    pub failed: u64,
    /// The first failure, as "epoch N: what".
    pub first_failure: Option<String>,
    /// FNV-1a over every epoch's served fraction and unserved total, and
    /// each build's final metrics export.
    pub digest: u64,
    /// Entity counts of the (last) platform.
    pub sizes: Sizes,
}

impl Episode {
    fn fail(&mut self, epoch: u64, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("epoch {epoch}: {what}"));
        }
    }
}

/// Everything a run measured, over all its episodes.
#[derive(Debug, Default)]
pub struct Run {
    /// For each build of an episode, its fastest time over the measured
    /// episodes.
    pub setup_s: Vec<f64>,
    /// For each timed epoch of an episode, its fastest time over the
    /// measured episodes.
    pub epoch_s: Vec<f64>,
    /// Mean served fraction over the first episode's timed epochs.
    pub served_fraction: f64,
    /// Timed epochs run, over all measured episodes.
    pub attempted: u64,
    /// Timed epochs that failed a check, plus episodes whose digest
    /// differed from the first one's.
    pub failed: u64,
    /// Human-readable failures, each naming the episode and the epoch.
    pub failures: Vec<String>,
    /// The first episode's digest.
    pub digest: u64,
    pub episodes: usize,
    pub sizes: Sizes,
    /// Per-layer spans (traced runs only).
    pub trace: Option<LayerTrace>,
}

/// Run `w` for run seed `seed` until `seconds` have passed and at least
/// [`MIN_EPISODES`] episodes ran. With `traced`, the first episode runs
/// without probes and fixes the reference digest; every later episode
/// runs with the per-layer probes, must reproduce it, and alone is
/// measured.
pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Run, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Run::default();
    let mut trace = traced.then(|| LayerTrace::new(seed));
    loop {
        let k = out.episodes;
        let probing = k > 0 && traced;
        let ep = episode(w, seed, if probing { trace.as_mut() } else { None })?;
        out.episodes += 1;
        if k == 0 {
            out.digest = ep.digest;
            out.sizes = ep.sizes;
            out.served_fraction = ep.served_sum / ep.epoch_s.len().max(1) as f64;
        } else if ep.digest != out.digest {
            out.failed += 1;
            out.failures.push(format!(
                "{}: episode {k}: digest {:016x} differs from episode 0's {:016x}{}",
                w.name,
                ep.digest,
                out.digest,
                if probing {
                    " (the probes wrote state)"
                } else {
                    ""
                }
            ));
        }
        if let Some(f) = &ep.first_failure {
            out.failures.push(format!("{}: episode {k}: {f}", w.name));
        }
        out.failed += ep.failed;
        if probing || !traced {
            out.attempted += ep.epoch_s.len() as u64;
            keep_fastest(&mut out.setup_s, ep.setup_s);
            keep_fastest(&mut out.epoch_s, ep.epoch_s);
        }
        if out.episodes >= MIN_EPISODES && start.elapsed() >= budget {
            break;
        }
    }
    out.trace = trace;
    Ok(out)
}

/// Fold one episode's timings into the fastest time seen at each
/// position.
fn keep_fastest(best: &mut Vec<f64>, episode: Vec<f64>) {
    if best.is_empty() {
        *best = episode;
    } else {
        for (b, s) in best.iter_mut().zip(episode) {
            *b = b.min(s);
        }
    }
}

/// One episode of `w`.
fn episode(w: &Workload, seed: u64, mut trace: Option<&mut LayerTrace>) -> Result<Episode, String> {
    let mut ep = Episode {
        digest: FNV_OFFSET,
        ..Episode::default()
    };
    match w.kind {
        Kind::Chaos => {
            for sc in w.scenarios(seed) {
                let cfg = workloads::scenario_config(&sc)?;
                let mut p = build(cfg, &mut ep)?;
                let base_caps: Vec<f64> = p
                    .state
                    .access
                    .links()
                    .iter()
                    .map(|l| l.capacity_bps)
                    .collect();
                let schedule = sc.lower();
                for e in 0..sc.epochs {
                    for op in schedule.get(&e).into_iter().flatten() {
                        workloads::apply_op(&mut p, op, &base_caps);
                    }
                    timed_step(&mut p, &mut ep, trace.as_deref_mut());
                }
                finish(&p, w.name, &mut ep);
            }
        }
        _ => {
            let mut p = build(w.config(seed), &mut ep)?;
            for _ in 0..w.warmup {
                p.step();
                fold_epoch(&p, &mut ep.digest);
            }
            w.inject_after_warmup(&mut p)?;
            for _ in 0..w.timed {
                timed_step(&mut p, &mut ep, trace.as_deref_mut());
            }
            finish(&p, w.name, &mut ep);
        }
    }
    Ok(ep)
}

fn build(cfg: megadc::PlatformConfig, ep: &mut Episode) -> Result<Platform, String> {
    let t = Instant::now();
    let p = Platform::build(cfg).map_err(|e| format!("build: {e}"))?;
    ep.setup_s.push(t.elapsed().as_secs_f64());
    Ok(p)
}

/// One timed, checked epoch; the probes (if any) run after the step, on
/// the state it left.
fn timed_step(p: &mut Platform, ep: &mut Episode, trace: Option<&mut LayerTrace>) {
    let before = trace.as_ref().map(|t| t.before_step(p));
    let t = Instant::now();
    p.step();
    let step_s = t.elapsed().as_secs_f64();
    ep.epoch_s.push(step_s);
    let epoch = p.epochs_run() - 1;
    let snap = p.last_snapshot().expect("stepped at least once");
    if let Err(what) = check_snapshot(snap) {
        ep.fail(epoch, what);
    }
    ep.served_sum += snap.served_fraction();
    fold_epoch(p, &mut ep.digest);
    if let (Some(t), Some(before)) = (trace, before) {
        t.after_step(p, step_s, before);
    }
}

fn finish(p: &Platform, name: &str, ep: &mut Episode) {
    fnv(&mut ep.digest, p.registry.render_text(name).as_bytes());
    ep.sizes = Sizes {
        apps: p.state.num_apps(),
        vips: p.state.vips().count(),
        rips: p.state.num_rips(),
        vms: p.state.fleet.num_vms(),
        pods: p.state.num_pods(),
    };
}

/// Conservation and range checks on one epoch's snapshot, from its public
/// fields: offered = served + unserved to [`CONSERVATION_TOL`] relative,
/// and a served fraction that is finite and in `[0, 1]`.
pub fn check_snapshot(snap: &LoadSnapshot) -> Result<(), String> {
    let offered: f64 = snap.app_demand_bps.iter().sum();
    let served: f64 = snap.vip_served_bps.values().sum();
    let unserved: f64 = snap.unserved_bps_by_app.iter().sum();
    let gap = (offered - served - unserved).abs();
    // A NaN in any term makes `gap` NaN.
    if gap.is_nan() || gap > CONSERVATION_TOL * offered.max(1.0) {
        return Err(format!(
            "conservation: offered {offered} != served {served} + unserved {unserved}"
        ));
    }
    let f = snap.served_fraction();
    if !(f.is_finite() && (0.0..=1.0).contains(&f)) {
        return Err(format!("served fraction {f} outside [0, 1]"));
    }
    Ok(())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_epoch(p: &Platform, h: &mut u64) {
    if let Some(snap) = p.last_snapshot() {
        fnv(h, &snap.served_fraction().to_bits().to_le_bytes());
        fnv(h, &snap.total_unserved_bps().to_bits().to_le_bytes());
    }
}

/// Median of `v` (midpoint of the two middle values when even); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    fn mini_run(w: &Workload, seed: u64, traced: bool) -> Run {
        run(&w.miniature(), seed, 0, traced).expect("miniature runs")
    }

    #[test]
    fn miniatures_conserve_and_trace_without_writing() {
        for w in ALL {
            let plain = mini_run(&w, 3, false);
            assert_eq!(plain.failed, 0, "{}: {:?}", w.name, plain.failures);
            assert!(plain.episodes >= MIN_EPISODES);
            let traced = mini_run(&w, 3, true);
            assert_eq!(traced.failed, 0, "{}: {:?}", w.name, traced.failures);
            assert!(traced.episodes >= MIN_EPISODES && traced.attempted > 0);
            assert_eq!(
                plain.digest, traced.digest,
                "{}: traced digest differs",
                w.name
            );
        }
    }

    #[test]
    fn seed_changes_the_digest() {
        for w in ALL {
            let a = mini_run(&w, 1, false);
            let b = mini_run(&w, 2, false);
            assert_ne!(a.digest, b.digest, "{}: seed offset ignored", w.name);
        }
    }

    #[test]
    fn conservation_check_rejects_a_corrupted_snapshot() {
        let w = ALL[0].miniature();
        let mut p = Platform::build(w.config(1)).expect("builds");
        p.step();
        let mut snap = p.last_snapshot().expect("stepped").clone();
        assert_eq!(check_snapshot(&snap), Ok(()));
        let app = snap
            .app_demand_bps
            .iter()
            .position(|&d| d > 0.0)
            .expect("some demand");
        snap.unserved_bps_by_app[app] += snap.app_demand_bps[app] * 1e-3;
        assert!(check_snapshot(&snap)
            .unwrap_err()
            .starts_with("conservation"));
        snap.unserved_bps_by_app[app] = f64::NAN;
        assert!(check_snapshot(&snap).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
