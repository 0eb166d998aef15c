//! Invariant oracles over live platform state and the flight-recorder
//! event log.
//!
//! Every oracle returns typed [`Violation`]s — oracles never panic, so
//! a failing run can be shrunk and replayed instead of aborting the
//! sweep. Oracles that watch conditions the control plane legitimately
//! takes several epochs to repair (capacity exposure resets,
//! deployments, DNS TTL expiry) use *persistence windows*: a condition
//! must hold for more consecutive epochs than the platform's slowest
//! recovery path before it counts as a violation.

use megadc::demand::LoadSnapshot;
use megadc::Platform;
use obs::{explain, ActionKind, Event};
use std::collections::BTreeMap;
use std::fmt;

/// Which invariant an oracle checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// A VIP stayed DNS-exposed with zero live RIPs past the grace
    /// window: demand routed to it has nowhere to go.
    ExposedRiplessVip,
    /// A VIP kept receiving demand while serving exactly nothing past
    /// the grace window.
    BlackHoledDemand,
    /// A VIP's RIP weights went non-finite/negative, or its total hit
    /// zero (with live RIPs, outside a drain) past the grace window.
    WeightConservation,
    /// An app's scale direction reversed more often than the damping
    /// bound allows.
    ScaleFlipFlops,
    /// A recorded global action's inputs are inconsistent with its
    /// declared footprint ([`obs::explain::footprint_violations`]).
    FootprintDrift,
    /// The flight-recorder ring dropped events mid-run: oracle verdicts
    /// over the log would be unsound, so truncation itself is the
    /// violation.
    TruncatedLog,
    /// A VIP stayed starved (served ≪ offered) past the grace window
    /// while the platform as a whole had spare capacity — the
    /// misrouting plateau the escape knob exists to break.
    PersistentStarvation,
}

/// All oracle kinds, in report order.
pub const ALL_ORACLES: [OracleKind; 7] = [
    OracleKind::ExposedRiplessVip,
    OracleKind::BlackHoledDemand,
    OracleKind::WeightConservation,
    OracleKind::ScaleFlipFlops,
    OracleKind::FootprintDrift,
    OracleKind::TruncatedLog,
    OracleKind::PersistentStarvation,
];

impl OracleKind {
    /// Stable string key (fixture files, JSONL metrics).
    pub fn key(self) -> &'static str {
        match self {
            OracleKind::ExposedRiplessVip => "exposed_ripless_vip",
            OracleKind::BlackHoledDemand => "black_holed_demand",
            OracleKind::WeightConservation => "weight_conservation",
            OracleKind::ScaleFlipFlops => "scale_flipflops",
            OracleKind::FootprintDrift => "footprint_drift",
            OracleKind::TruncatedLog => "truncated_log",
            OracleKind::PersistentStarvation => "persistent_starvation",
        }
    }

    /// Parse a stable key back into a kind.
    pub fn parse(key: &str) -> Option<Self> {
        ALL_ORACLES.into_iter().find(|k| k.key() == key)
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One invariant violation: which oracle fired, when, and a
/// deterministic human-readable detail line.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Epoch at which the oracle fired.
    pub epoch: u64,
    /// Which invariant was violated.
    pub kind: OracleKind,
    /// Deterministic detail (ids, streak lengths, values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}: {}: {}", self.epoch, self.kind, self.detail)
    }
}

/// Persistence windows and bounds for the oracles. Defaults are sized
/// for the `small_test` platform's recovery latencies (10 s epochs,
/// 60 s DNS TTL, multi-epoch deployments).
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Epochs a DNS-exposed VIP may stay RIP-less before violation.
    pub ripless_grace: u32,
    /// Epochs a VIP may serve zero against positive demand.
    pub blackhole_grace: u32,
    /// Epochs a live VIP's weight total may sit at zero outside a
    /// drain.
    pub zero_weight_grace: u32,
    /// Maximum scale-direction reversals per app over the whole run.
    pub max_flipflops_per_app: u64,
    /// Epochs a VIP may stay starved while the platform has spare
    /// capacity.
    pub starvation_grace: u32,
    /// Served/offered ratio below which a VIP counts as starved.
    pub starvation_ratio: f64,
    /// Platform-wide served fraction above which unserved VIP demand is
    /// attributed to misrouting rather than a genuine capacity crunch.
    pub spare_capacity_served: f64,
    /// Demand floor (bits/s) below which a VIP is ignored by the
    /// starvation/black-hole oracles.
    pub demand_floor_bps: f64,
}

impl Default for OracleConfig {
    /// The RIP-less/black-hole windows cover the slowest *legitimate*
    /// repair: when an app loses its last instance the global manager's
    /// dead-app rescue must fresh-boot a VM (120 s = 12 epochs on the
    /// small_test platform — no sibling left to clone), bind its RIP
    /// through the serialized queue (1 epoch) and refresh exposure off
    /// the still-dead VIP (1 epoch), so ~15 epochs of exposed-RIP-less
    /// black-holing are unavoidable physics and only longer streaks
    /// indicate a stuck control plane.
    fn default() -> Self {
        OracleConfig {
            ripless_grace: 18,
            blackhole_grace: 20,
            zero_weight_grace: 8,
            max_flipflops_per_app: 5,
            starvation_grace: 24,
            starvation_ratio: 0.90,
            spare_capacity_served: 0.95,
            demand_floor_bps: 1e5,
        }
    }
}

/// The oracle engine: feed it one epoch at a time, collect violations
/// at the end (or inspect [`Oracles::violations`] incrementally).
#[derive(Debug)]
pub struct Oracles {
    cfg: OracleConfig,
    violations: Vec<Violation>,
    ripless_streak: BTreeMap<u32, u32>,
    blackhole_streak: BTreeMap<u32, u32>,
    zero_weight_streak: BTreeMap<u32, u32>,
    starvation_streak: BTreeMap<u32, u32>,
    /// Last scale direction per app (+1 out, −1 in) and reversal count.
    scale_dir: BTreeMap<u32, (i8, u64)>,
    last_dropped: u64,
    /// Oracles already reported per subject, to avoid one persistent
    /// condition flooding the report every subsequent epoch.
    reported: std::collections::BTreeSet<(OracleKind, u32)>,
}

impl Oracles {
    /// New engine with the given persistence windows.
    pub fn new(cfg: OracleConfig) -> Self {
        Oracles {
            cfg,
            violations: Vec::new(),
            ripless_streak: BTreeMap::new(),
            blackhole_streak: BTreeMap::new(),
            zero_weight_streak: BTreeMap::new(),
            starvation_streak: BTreeMap::new(),
            scale_dir: BTreeMap::new(),
            last_dropped: 0,
            reported: std::collections::BTreeSet::new(),
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Consume the engine, returning all violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    fn report(&mut self, epoch: u64, kind: OracleKind, subject: u32, detail: String) {
        if self.reported.insert((kind, subject)) {
            self.violations.push(Violation {
                epoch,
                kind,
                detail,
            });
        }
    }

    /// Run every oracle for one completed epoch. `events` are the
    /// events drained from the recorder for exactly this epoch.
    pub fn check_epoch(
        &mut self,
        epoch: u64,
        platform: &Platform,
        snap: &LoadSnapshot,
        events: &[Event],
    ) {
        // Liveness credit: apps with repair activity in this epoch's
        // log (a deployment clone, rescue boot, RIP bind or fresh
        // instance start) get their ripless/black-hole streaks reset.
        // Overlapping faults can legitimately restart a 12-epoch boot
        // from scratch — what the oracle must catch is a control plane
        // that *stops trying*, not one whose repair got re-broken.
        let repairing: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ActionKind::Global(obs::footprint::GlobalAction::Deployment)
                        | ActionKind::InstanceStart
                )
            })
            .filter_map(|e| e.app)
            .collect();
        self.check_footprints(epoch, events);
        self.check_truncation(epoch, platform);
        self.check_exposure(epoch, platform, &repairing);
        self.check_weights(epoch, platform);
        self.check_demand(epoch, platform, snap, &repairing);
        self.check_flipflops(epoch, events);
    }

    /// Every recorded global action must stay within its declared
    /// footprint (no grace: drift is a bug the moment it is recorded).
    fn check_footprints(&mut self, epoch: u64, events: &[Event]) {
        for ev in events {
            let problems = explain::footprint_violations(ev);
            if problems.is_empty() {
                continue;
            }
            let subject = ev.seq as u32;
            self.report(
                epoch,
                OracleKind::FootprintDrift,
                subject,
                format!("seq {} {}: {}", ev.seq, ev.kind.key(), problems.join("; ")),
            );
        }
    }

    /// The ring must not drop events while the harness is draining it
    /// every epoch — a truncated log would make every other verdict
    /// unsound.
    fn check_truncation(&mut self, epoch: u64, platform: &Platform) {
        let dropped = platform.global.recorder.dropped();
        if dropped > self.last_dropped {
            let delta = dropped - self.last_dropped;
            self.report(
                epoch,
                OracleKind::TruncatedLog,
                0,
                format!("ring dropped {delta} events (total {dropped})"),
            );
        }
        self.last_dropped = dropped;
    }

    /// No VIP may stay DNS-exposed with zero live RIPs past the grace
    /// window (capacity exposure + DNS TTL bound the legitimate gap).
    fn check_exposure(
        &mut self,
        epoch: u64,
        platform: &Platform,
        repairing: &std::collections::BTreeSet<u32>,
    ) {
        let state = &platform.state;
        for app in state.apps() {
            for (vip, share) in state.dns.published_shares(app.id.dns_key()) {
                if share <= 0.0 {
                    continue;
                }
                let streak = self.ripless_streak.entry(vip.0).or_insert(0);
                if repairing.contains(&app.id.0) {
                    *streak = 0;
                    continue;
                }
                if state.vip_rip_count(vip) == 0 {
                    *streak += 1;
                    if *streak > self.cfg.ripless_grace {
                        let s = *streak;
                        self.report(
                            epoch,
                            OracleKind::ExposedRiplessVip,
                            vip.0,
                            format!(
                                "vip {} of app {} exposed at share {share:.3} with 0 live \
                                 RIPs for {s} epochs",
                                vip.0, app.id.0
                            ),
                        );
                    }
                } else {
                    *streak = 0;
                }
            }
        }
    }

    /// Per-VIP weight sanity and conservation: weights finite and
    /// non-negative always; a VIP with live serving entries must keep a
    /// positive total unless it is mid-drain.
    fn check_weights(&mut self, epoch: u64, platform: &Platform) {
        let state = &platform.state;
        let draining = platform.global.draining_vips();
        let mut entries = Vec::new();
        for (vip, _rec) in state.vips() {
            state.vip_serving_entries_into(vip, &mut entries);
            if entries.is_empty() {
                self.zero_weight_streak.remove(&vip.0);
                continue;
            }
            let mut total = 0.0;
            let mut bad = false;
            for &(_, _, w, _) in &entries {
                if !w.is_finite() || w < 0.0 {
                    bad = true;
                }
                total += w;
            }
            if bad || !total.is_finite() {
                self.report(
                    epoch,
                    OracleKind::WeightConservation,
                    vip.0,
                    format!(
                        "vip {} has non-finite/negative RIP weight (total {total})",
                        vip.0
                    ),
                );
                continue;
            }
            let streak = self.zero_weight_streak.entry(vip.0).or_insert(0);
            if total <= 0.0 && !draining.contains(&vip) {
                *streak += 1;
                if *streak > self.cfg.zero_weight_grace {
                    let s = *streak;
                    self.report(
                        epoch,
                        OracleKind::WeightConservation,
                        vip.0,
                        format!(
                            "vip {} kept total weight 0 across {} live RIPs for {s} epochs \
                             outside a drain",
                            vip.0,
                            entries.len()
                        ),
                    );
                }
            } else {
                *streak = 0;
            }
        }
    }

    /// Black-holed and persistently starved demand, from the epoch's
    /// load snapshot.
    ///
    /// Both checks are scoped to what the control plane can actually
    /// fix: a dead VIP keeps receiving a *stale residue* of demand from
    /// TTL-violating clients long after DNS stops publishing it (the
    /// `dcdns` staleness model), so black-holing only counts while the
    /// VIP is still being *published* to new clients, and starvation
    /// only applies to VIPs that have live RIPs to reweight.
    fn check_demand(
        &mut self,
        epoch: u64,
        platform: &Platform,
        snap: &LoadSnapshot,
        repairing: &std::collections::BTreeSet<u32>,
    ) {
        let overall = snap.served_fraction();
        let state = &platform.state;
        let profile = state.config.request_profile;
        let mut published: BTreeMap<u32, f64> = BTreeMap::new();
        // Per app: does its serving capacity (summed slices) exceed its
        // CPU demand? Only then is a starved VIP *misrouting* — demand
        // the platform could absorb but routes wrong. Below that it is
        // under-provisioning, which the scale knobs repair on their own
        // (slower) clock and may legitimately plateau when the
        // surviving pods are full.
        let mut app_has_spare: BTreeMap<u32, bool> = BTreeMap::new();
        let mut entries = Vec::new();
        for app in state.apps() {
            for (vip, share) in state.dns.published_shares(app.id.dns_key()) {
                published.insert(vip.0, share);
            }
            let demand_cpu = profile
                .cpu_demand(profile.rps_for_bandwidth(snap.app_demand_bps[app.id.0 as usize]));
            let mut capacity_cpu = 0.0;
            for &v in &app.vips {
                state.vip_serving_entries_into(v, &mut entries);
                for &(.., slice) in &entries {
                    capacity_cpu += slice;
                }
            }
            app_has_spare.insert(app.id.0, capacity_cpu > demand_cpu);
        }
        for (vip, &demand) in snap.vip_demand_bps.iter() {
            if demand < self.cfg.demand_floor_bps {
                self.blackhole_streak.remove(&vip.0);
                self.starvation_streak.remove(&vip.0);
                continue;
            }
            let served = snap.vip_served_bps.get(vip).copied().unwrap_or(0.0);
            let published_share = published.get(&vip.0).copied().unwrap_or(0.0);
            let app = state.vip(vip).ok().map(|rec| rec.app.0);
            let under_repair = app.map(|a| repairing.contains(&a)).unwrap_or(false);
            // Black hole: demand arrives, nothing at all comes back,
            // and DNS is still steering new clients at the VIP.
            let bh = self.blackhole_streak.entry(vip.0).or_insert(0);
            if under_repair {
                *bh = 0;
            } else if served <= 0.0 && published_share > 0.0 {
                *bh += 1;
                if *bh > self.cfg.blackhole_grace {
                    let s = *bh;
                    self.report(
                        epoch,
                        OracleKind::BlackHoledDemand,
                        vip.0,
                        format!(
                            "vip {} black-holed {:.1} Mbps for {s} epochs",
                            vip.0,
                            demand / 1e6
                        ),
                    );
                }
            } else {
                *bh = 0;
            }
            // Starvation: served ≪ offered while the VIP's app has the
            // serving capacity to absorb its whole demand and the
            // platform overall is healthy — misrouting, not overload.
            // Only VIPs with live RIPs can be misrouted; a dead VIP's
            // stale residue is the black-hole oracle's business.
            let ratio = served / demand;
            let starved = ratio < self.cfg.starvation_ratio
                && overall >= self.cfg.spare_capacity_served
                && state.vip_rip_count(vip) > 0
                && app
                    .map(|a| app_has_spare.get(&a) == Some(&true))
                    .unwrap_or(false);
            let st = self.starvation_streak.entry(vip.0).or_insert(0);
            if starved {
                *st += 1;
                if *st > self.cfg.starvation_grace {
                    let s = *st;
                    self.report(
                        epoch,
                        OracleKind::PersistentStarvation,
                        vip.0,
                        format!(
                            "vip {} starved (served/offered {ratio:.3}) for {s} epochs \
                             with platform served {overall:.3}",
                            vip.0
                        ),
                    );
                }
            } else {
                *st = 0;
            }
        }
    }

    /// Bounded scale flip-flops per app: a reversal is a scale-out
    /// event following a scale-in (or vice versa) for the same app, the
    /// E17 oscillation metric.
    fn check_flipflops(&mut self, epoch: u64, events: &[Event]) {
        for ev in events {
            let dir: i8 = match ev.kind {
                ActionKind::InstanceStart
                | ActionKind::ProactiveDeploy
                | ActionKind::Global(obs::footprint::GlobalAction::Deployment) => 1,
                ActionKind::ProactiveRetire
                | ActionKind::Global(obs::footprint::GlobalAction::QueueRetire) => -1,
                _ => continue,
            };
            let Some(app) = ev.app else { continue };
            let entry = self.scale_dir.entry(app).or_insert((dir, 0));
            if entry.0 != dir {
                entry.1 += 1;
                entry.0 = dir;
                if entry.1 > self.cfg.max_flipflops_per_app {
                    let flips = entry.1;
                    self.report(
                        epoch,
                        OracleKind::ScaleFlipFlops,
                        app,
                        format!("app {app} reversed scale direction {flips} times"),
                    );
                }
            }
        }
    }

    /// Total scale-direction reversals observed across all apps.
    pub fn flipflops_total(&self) -> u64 {
        self.scale_dir.values().map(|&(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimTime;
    use obs::{Actor, Recorder};

    fn quiet_platform() -> Platform {
        let mut cfg = megadc::PlatformConfig::small_test();
        cfg.total_demand_bps = 1e9;
        cfg.diurnal_amplitude = 0.0;
        Platform::build(cfg).expect("small_test builds")
    }

    #[test]
    fn quiet_run_is_violation_free() {
        let mut p = quiet_platform();
        let mut oracles = Oracles::new(OracleConfig::default());
        for epoch in 0..30 {
            let snap = p.step().clone();
            let events = p.global.recorder.take_events();
            oracles.check_epoch(epoch, &p, &snap, &events);
        }
        assert!(
            oracles.violations().is_empty(),
            "violations: {:?}",
            oracles.violations()
        );
    }

    #[test]
    fn flipflop_oracle_counts_reversals_and_bounds() {
        let mut rec = Recorder::default();
        for (epoch, kind) in [
            ActionKind::InstanceStart,
            ActionKind::ProactiveRetire,
            ActionKind::InstanceStart,
            ActionKind::ProactiveRetire,
        ]
        .into_iter()
        .enumerate()
        {
            rec.begin_epoch(epoch as u64, SimTime::ZERO);
            rec.event(Actor::Pod(0), kind).app(9).commit();
        }
        let events = rec.take_events();
        let p = quiet_platform();
        let snap_events_by_epoch =
            |e: u64| -> Vec<Event> { events.iter().filter(|ev| ev.epoch == e).cloned().collect() };
        let mut oracles = Oracles::new(OracleConfig {
            max_flipflops_per_app: 2,
            ..OracleConfig::default()
        });
        for epoch in 0..4u64 {
            // Only the flip-flop oracle consumes events; feed it alone
            // to keep the fixture minimal.
            oracles.check_flipflops(epoch, &snap_events_by_epoch(epoch));
        }
        let _ = &p;
        assert_eq!(oracles.flipflops_total(), 3);
        assert_eq!(oracles.violations().len(), 1);
        assert_eq!(oracles.violations()[0].kind, OracleKind::ScaleFlipFlops);
    }

    #[test]
    fn truncation_oracle_fires_on_ring_drops() {
        let mut cfg = megadc::PlatformConfig::small_test();
        cfg.event_ring_capacity = 8;
        let mut p = Platform::build(cfg).expect("builds");
        let mut oracles = Oracles::new(OracleConfig::default());
        for epoch in 0..3 {
            let snap = p.step().clone();
            let events = p.global.recorder.take_events();
            oracles.check_epoch(epoch, &p, &snap, &events);
        }
        assert!(oracles
            .violations()
            .iter()
            .any(|v| v.kind == OracleKind::TruncatedLog));
    }

    #[test]
    fn oracle_kind_keys_roundtrip() {
        for k in ALL_ORACLES {
            assert_eq!(OracleKind::parse(k.key()), Some(k));
        }
        assert_eq!(OracleKind::parse("nope"), None);
    }
}
