//! # dcdns — the platform's authoritative DNS
//!
//! *Selective VIP exposure* (§IV.A) is the paper's primary access-link
//! balancing knob: each VIP is advertised at (typically) one access router,
//! and the platform's authoritative DNS "selectively replies to DNS queries
//! from external clients with appropriate VIPs", steering demand among an
//! application's VIPs — and therefore among access links — without any
//! route churn. "Overloaded links are relieved as soon as DNS starts
//! exposing new VIPs."
//!
//! Two real-world effects bound that agility, and both are modeled here:
//!
//! * **TTL** — clients that respect the DNS TTL keep using a cached VIP
//!   until their cache entry expires. With uniformly aged caches, demand
//!   shifts linearly over one TTL after an exposure change.
//! * **TTL violators** (§IV.B, refs \[18\]\[4\]) — "some clients will
//!   continue using this VIP in violation of time-to-live of old DNS
//!   responses". A configurable fraction of demand decays exponentially
//!   (half-life) instead of expiring with the TTL. This residue is what
//!   makes VIP-transfer quiescence probabilistic rather than guaranteed.
//!
//! The model keeps, per application, the *current* exposure weights and the
//! effective weights at the moment of the last change; the observable
//! demand share interpolates between them. Repeated changes fold the old
//! state into a new baseline, so arbitrarily many reconfigurations compose
//! correctly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcsim::rng::splitmix64;
use dcsim::{SimDuration, SimTime};
use lbswitch::VipAddr;

/// Application key (the `megadc` crate maps its `AppId`s onto these).
pub type AppKey = u32;

/// DNS behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnsConfig {
    /// TTL on authoritative answers. Compliant clients re-resolve within
    /// one TTL of an exposure change.
    pub ttl: SimDuration,
    /// Fraction of demand that ignores TTL (refs \[18\],\[4\] measure this in
    /// the tens of percent for long-lived clients).
    pub stale_fraction: f64,
    /// Half-life of the TTL-violating residue.
    pub stale_half_life: SimDuration,
}

impl Default for DnsConfig {
    fn default() -> Self {
        DnsConfig {
            ttl: SimDuration::from_secs(60),
            stale_fraction: 0.15,
            stale_half_life: SimDuration::from_secs(600),
        }
    }
}

impl DnsConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.stale_fraction),
            "stale_fraction must be in [0,1]"
        );
        assert!(!self.ttl.is_zero(), "ttl must be positive");
        assert!(
            !self.stale_half_life.is_zero(),
            "stale_half_life must be positive"
        );
    }

    /// Fraction of demand that has moved to the *new* exposure weights
    /// `elapsed` after a change: the TTL-compliant part shifts linearly
    /// over one TTL; the violator part decays with the configured
    /// half-life.
    pub fn shifted_fraction(&self, elapsed: SimDuration) -> f64 {
        let compliant = (elapsed.as_secs_f64() / self.ttl.as_secs_f64()).min(1.0);
        let stale = 1.0 - 0.5f64.powf(elapsed.as_secs_f64() / self.stale_half_life.as_secs_f64());
        (1.0 - self.stale_fraction) * compliant + self.stale_fraction * stale
    }
}

/// Exposure state of one application. The default (no weights, no
/// baseline) is an app never exposed: it publishes and resolves nothing.
#[derive(Debug, Clone, Default)]
struct AppExposure {
    /// Target (currently published) weights.
    target: Vec<(VipAddr, f64)>,
    /// Effective shares at the instant of the last change (normalized).
    baseline: Vec<(VipAddr, f64)>,
    /// When the last change was made.
    changed_at: SimTime,
}

/// The authoritative DNS system.
#[derive(Debug, Clone)]
pub struct DnsSystem {
    config: DnsConfig,
    /// Exposure per app, indexed by [`AppKey`] (app keys are dense).
    apps: Vec<AppExposure>,
    /// A spare baseline buffer that [`DnsSystem::set_exposure_from`]
    /// fills and swaps for the app's old baseline.
    spare: Vec<(VipAddr, f64)>,
    reconfigurations: u64,
}

/// The positive weights of `weights` divided by their total, in order
/// (nothing when the total is not positive).
fn normalized(weights: &[(VipAddr, f64)]) -> impl Iterator<Item = (VipAddr, f64)> + '_ {
    let total: f64 = weights.iter().map(|&(_, w)| w.max(0.0)).sum();
    weights
        .iter()
        .filter(move |&&(_, w)| total > 0.0 && w > 0.0)
        .map(move |&(v, w)| (v, w / total))
}

/// Merge the blend terms in `terms` per VIP, in place: a stable sort by
/// VIP keeps each VIP's terms in push order, and each VIP's share is
/// summed from 0.0 in that order. Shares at or below 1e-15 are dropped.
fn merge_by_vip(terms: &mut Vec<(VipAddr, f64)>) {
    terms.sort_by_key(|&(v, _)| v);
    let (mut read, mut write) = (0, 0);
    while read < terms.len() {
        let vip = terms[read].0;
        let mut share = 0.0;
        while read < terms.len() && terms[read].0 == vip {
            share += terms[read].1;
            read += 1;
        }
        if share > 1e-15 {
            terms[write] = (vip, share);
            write += 1;
        }
    }
    terms.truncate(write);
}

impl DnsSystem {
    /// Create a DNS system.
    pub fn new(config: DnsConfig) -> Self {
        config.validate();
        DnsSystem {
            config,
            apps: Vec::new(),
            spare: Vec::new(),
            reconfigurations: 0,
        }
    }

    /// The configured behaviour parameters.
    pub fn config(&self) -> &DnsConfig {
        &self.config
    }

    /// Number of exposure reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Publish new exposure weights for `app` at time `now`. Weights need
    /// not be normalized; non-positive weights un-expose a VIP. The demand
    /// observed on each VIP then interpolates from the current effective
    /// shares to the new weights per [`DnsConfig::shifted_fraction`].
    pub fn set_exposure(&mut self, app: AppKey, weights: Vec<(VipAddr, f64)>, now: SimTime) {
        self.set_exposure_from(app, &weights, now);
    }

    /// [`DnsSystem::set_exposure`] from a borrowed weight list. It reuses
    /// the app's target buffer and a spare baseline buffer, so it
    /// allocates nothing once they have grown.
    pub fn set_exposure_from(&mut self, app: AppKey, weights: &[(VipAddr, f64)], now: SimTime) {
        let mut baseline = std::mem::take(&mut self.spare);
        self.effective_shares_into(app, now, &mut baseline);
        let i = app as usize;
        if i >= self.apps.len() {
            self.apps.resize_with(i + 1, AppExposure::default);
        }
        let e = &mut self.apps[i];
        e.target.clear();
        e.target.extend_from_slice(weights);
        self.spare = std::mem::replace(&mut e.baseline, baseline);
        e.changed_at = now;
        self.reconfigurations += 1;
    }

    /// The VIPs currently *published* for an app (target weights,
    /// normalized). New clients resolve to these.
    pub fn published_shares(&self, app: AppKey) -> Vec<(VipAddr, f64)> {
        self.apps
            .get(app as usize)
            .map(|e| normalized(&e.target).collect())
            .unwrap_or_default()
    }

    /// How many VIPs are published for `app`:
    /// [`DnsSystem::published_shares`]`.len()` without building it.
    pub fn published_count(&self, app: AppKey) -> usize {
        self.apps
            .get(app as usize)
            .map_or(0, |e| normalized(&e.target).count())
    }

    /// `true` if some VIP with a positive published share for `app`
    /// satisfies `pred`: [`DnsSystem::published_shares`] asked without
    /// building it.
    pub fn publishes_any(&self, app: AppKey, mut pred: impl FnMut(VipAddr) -> bool) -> bool {
        self.apps
            .get(app as usize)
            .is_some_and(|e| normalized(&e.target).any(|(v, share)| share > 0.0 && pred(v)))
    }

    /// The *effective* demand shares at `now`, accounting for TTL-bound
    /// cache inertia and TTL violators. Shares sum to 1 (or the vector is
    /// empty if the app has never been exposed).
    pub fn effective_shares(&self, app: AppKey, now: SimTime) -> Vec<(VipAddr, f64)> {
        let mut out = Vec::new();
        self.effective_shares_into(app, now, &mut out);
        out
    }

    /// [`DnsSystem::effective_shares`] into a caller-owned buffer, which
    /// is cleared first. After a first exposure the buffer holds the
    /// published shares in target order; after a change it holds
    /// `baseline·(1−f) + published·f` per VIP in VIP order, each VIP's
    /// baseline terms added before its published ones.
    pub fn effective_shares_into(&self, app: AppKey, now: SimTime, out: &mut Vec<(VipAddr, f64)>) {
        out.clear();
        let Some(e) = self.apps.get(app as usize) else {
            return;
        };
        if e.baseline.is_empty() {
            // First exposure: nothing cached anywhere, shift is immediate.
            out.extend(normalized(&e.target));
            return;
        }
        let f = self.config.shifted_fraction(now.since(e.changed_at));
        out.extend(e.baseline.iter().map(|&(v, s)| (v, s * (1.0 - f))));
        out.extend(normalized(&e.target).map(|(v, s)| (v, s * f)));
        merge_by_vip(out);
    }

    /// Demand fraction an app still sends to `vip` at `now` (0 if none).
    pub fn fraction_on_vip(&self, app: AppKey, vip: VipAddr, now: SimTime) -> f64 {
        self.effective_shares(app, now)
            .iter()
            .find(|&&(v, _)| v == vip)
            .map(|&(_, s)| s)
            .unwrap_or(0.0)
    }

    /// Resolve one query: sample a VIP from the *effective* shares (the
    /// blend models cached entries still being used by old clients).
    /// Deterministic per `(app, client_key, now-bucket)`.
    pub fn resolve(&self, app: AppKey, client_key: u64, now: SimTime) -> Option<VipAddr> {
        let shares = self.effective_shares(app, now);
        if shares.is_empty() {
            return None;
        }
        let mut s = client_key ^ (app as u64).rotate_left(32);
        let h = splitmix64(&mut s);
        let point = h as f64 / u64::MAX as f64;
        let mut acc = 0.0;
        for &(v, share) in &shares {
            acc += share;
            if point < acc {
                return Some(v);
            }
        }
        shares.last().map(|&(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const V1: VipAddr = VipAddr(1);
    const V2: VipAddr = VipAddr(2);

    fn dns() -> DnsSystem {
        DnsSystem::new(DnsConfig {
            ttl: SimDuration::from_secs(60),
            stale_fraction: 0.2,
            stale_half_life: SimDuration::from_secs(600),
        })
    }

    fn share(shares: &[(VipAddr, f64)], v: VipAddr) -> f64 {
        shares
            .iter()
            .find(|&&(x, _)| x == v)
            .map(|&(_, s)| s)
            .unwrap_or(0.0)
    }

    #[test]
    fn first_exposure_is_immediate() {
        let mut d = dns();
        d.set_exposure(0, vec![(V1, 2.0), (V2, 2.0)], SimTime::ZERO);
        let s = d.effective_shares(0, SimTime::ZERO);
        assert!((share(&s, V1) - 0.5).abs() < 1e-12);
        assert!((share(&s, V2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shift_progresses_with_ttl() {
        let mut d = dns();
        d.set_exposure(0, vec![(V1, 1.0)], SimTime::ZERO);
        // At t=100s switch everything to V2.
        d.set_exposure(0, vec![(V2, 1.0)], SimTime::from_secs(100));
        // Immediately after: all demand still on V1.
        let s0 = d.effective_shares(0, SimTime::from_secs(100));
        assert!((share(&s0, V1) - 1.0).abs() < 1e-9);
        // Half a TTL later: compliant half-shifted.
        let s30 = d.effective_shares(0, SimTime::from_secs(130));
        let expected = d.config().shifted_fraction(SimDuration::from_secs(30));
        assert!((share(&s30, V2) - expected).abs() < 1e-9);
        assert!(share(&s30, V1) > 0.0);
        // Long after: only a vanishing stale residue remains.
        let s_late = d.effective_shares(0, SimTime::from_secs(100 + 6 * 600));
        assert!(share(&s_late, V1) < 0.005, "residue {}", share(&s_late, V1));
    }

    #[test]
    fn stale_residue_outlives_ttl() {
        let mut d = dns();
        d.set_exposure(0, vec![(V1, 1.0)], SimTime::ZERO);
        d.set_exposure(0, vec![(V2, 1.0)], SimTime::from_secs(100));
        // Two TTLs later, compliant clients are gone but violators linger:
        // residue = stale_fraction × 2^(-120/600) ≈ 0.2 × 0.87.
        let s = d.effective_shares(0, SimTime::from_secs(220));
        let residue = share(&s, V1);
        let expect = 0.2 * 0.5f64.powf(120.0 / 600.0);
        assert!(
            (residue - expect).abs() < 1e-9,
            "residue {residue} vs {expect}"
        );
    }

    #[test]
    fn repeated_changes_compose() {
        let mut d = dns();
        d.set_exposure(0, vec![(V1, 1.0)], SimTime::ZERO);
        d.set_exposure(0, vec![(V2, 1.0)], SimTime::from_secs(100));
        // Before the first shift completes, go back to V1.
        d.set_exposure(0, vec![(V1, 1.0)], SimTime::from_secs(110));
        let s = d.effective_shares(0, SimTime::from_secs(110));
        // Shares must still sum to 1 and both VIPs hold some demand.
        let total: f64 = s.iter().map(|&(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(share(&s, V1) > 0.5);
        assert!(share(&s, V2) > 0.0);
        // Eventually everything converges back to V1.
        let s_late = d.effective_shares(0, SimTime::from_secs(10_000));
        assert!(share(&s_late, V1) > 0.999);
    }

    #[test]
    fn resolve_is_deterministic_and_covers_shares() {
        let mut d = dns();
        d.set_exposure(0, vec![(V1, 1.0), (V2, 3.0)], SimTime::ZERO);
        let t = SimTime::from_secs(1);
        assert_eq!(d.resolve(0, 42, t), d.resolve(0, 42, t));
        let mut counts = (0u32, 0u32);
        for k in 0..8000 {
            match d.resolve(0, k, t).unwrap() {
                v if v == V1 => counts.0 += 1,
                _ => counts.1 += 1,
            }
        }
        let frac = counts.1 as f64 / 8000.0;
        assert!((frac - 0.75).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn unexposed_app_resolves_to_none() {
        let d = dns();
        assert_eq!(d.resolve(7, 0, SimTime::ZERO), None);
        assert!(d.effective_shares(7, SimTime::ZERO).is_empty());
    }

    #[test]
    fn zero_weight_unexposes() {
        let mut d = dns();
        d.set_exposure(0, vec![(V1, 1.0), (V2, 0.0)], SimTime::ZERO);
        let s = d.published_shares(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, V1);
    }

    #[test]
    fn reconfiguration_counter() {
        let mut d = dns();
        d.set_exposure(0, vec![(V1, 1.0)], SimTime::ZERO);
        d.set_exposure(1, vec![(V2, 1.0)], SimTime::ZERO);
        assert_eq!(d.reconfigurations(), 2);
    }

    #[test]
    fn shifted_fraction_monotone_and_bounded() {
        let c = DnsConfig::default();
        let mut prev = 0.0;
        for s in 0..100 {
            let f = c.shifted_fraction(SimDuration::from_secs(s * 30));
            assert!(f >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    }

    /// The exposure model as it was before the app-indexed table and the
    /// buffer-filling blend: apps in a `BTreeMap`, shares merged through
    /// a `BTreeMap` per lookup.
    struct MapDns {
        config: DnsConfig,
        apps: std::collections::BTreeMap<AppKey, AppExposure>,
    }

    impl MapDns {
        fn normalize(weights: &[(VipAddr, f64)]) -> Vec<(VipAddr, f64)> {
            let total: f64 = weights.iter().map(|&(_, w)| w.max(0.0)).sum();
            if total <= 0.0 {
                return Vec::new();
            }
            weights
                .iter()
                .filter(|&&(_, w)| w > 0.0)
                .map(|&(v, w)| (v, w / total))
                .collect()
        }

        fn blend(old: &[(VipAddr, f64)], new: &[(VipAddr, f64)], f: f64) -> Vec<(VipAddr, f64)> {
            let mut acc: std::collections::BTreeMap<VipAddr, f64> = Default::default();
            for &(v, s) in old {
                *acc.entry(v).or_insert(0.0) += s * (1.0 - f);
            }
            for &(v, s) in new {
                *acc.entry(v).or_insert(0.0) += s * f;
            }
            acc.into_iter().filter(|&(_, s)| s > 1e-15).collect()
        }

        fn set_exposure(&mut self, app: AppKey, weights: Vec<(VipAddr, f64)>, now: SimTime) {
            let baseline = self.effective_shares(app, now);
            let e = AppExposure {
                target: weights,
                baseline,
                changed_at: now,
            };
            self.apps.insert(app, e);
        }

        fn published_shares(&self, app: AppKey) -> Vec<(VipAddr, f64)> {
            self.apps
                .get(&app)
                .map(|e| Self::normalize(&e.target))
                .unwrap_or_default()
        }

        fn effective_shares(&self, app: AppKey, now: SimTime) -> Vec<(VipAddr, f64)> {
            let Some(e) = self.apps.get(&app) else {
                return Vec::new();
            };
            let new = Self::normalize(&e.target);
            if e.baseline.is_empty() {
                return new;
            }
            let f = self.config.shifted_fraction(now.since(e.changed_at));
            Self::blend(&e.baseline, &new, f)
        }
    }

    fn bits(shares: &[(VipAddr, f64)]) -> Vec<(VipAddr, u64)> {
        shares.iter().map(|&(v, s)| (v, s.to_bits())).collect()
    }

    #[test]
    fn shares_match_the_map_reference_bit_for_bit() {
        // Duplicates, zero and negative weights, and pairs whose ratio
        // puts blended shares on both sides of the 1e-15 cut.
        const WEIGHTS: [f64; 9] = [1.0, 2.0, 0.0, -1.0, 0.5, 1e-15, 2e-15, 3.0e-16, 7.0];
        let (mut near_cut, mut f_half, mut f_one, mut f_zero, mut first) = (0, 0, 0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = seed;
            let mut next = move || splitmix64(&mut rng);
            // A TTL-only config makes f exactly 0, 1/2 and 1 reachable.
            let config = DnsConfig {
                stale_fraction: [0.0, 0.2, 1.0][(seed % 3) as usize],
                ..DnsConfig::default()
            };
            let mut d = DnsSystem::new(config);
            let mut m = MapDns {
                config,
                apps: Default::default(),
            };
            let mut buf = vec![(VipAddr(99), 0.25)];
            let mut now = SimTime::ZERO;
            for _ in 0..12 {
                let app = (next() % 3) as AppKey;
                let weights: Vec<(VipAddr, f64)> = (0..next() % 5)
                    .map(|_| {
                        let w = WEIGHTS[(next() % WEIGHTS.len() as u64) as usize];
                        (VipAddr((next() % 4) as u32), w)
                    })
                    .collect();
                first += usize::from(m.effective_shares(app, now).is_empty());
                d.set_exposure(app, weights.clone(), now);
                m.set_exposure(app, weights, now);
                let changed = now;
                // f = 0 at the change, 1/2 at half a TTL, 1 past a TTL.
                for dt in [0, 30, 60, 90, next() % 4000] {
                    let t = changed + SimDuration::from_secs(dt);
                    for a in 0..4 {
                        let want = m.effective_shares(a, t);
                        d.effective_shares_into(a, t, &mut buf);
                        assert_eq!(bits(&buf), bits(&want), "seed {seed} app {a} t {t:?}");
                        assert_eq!(bits(&d.effective_shares(a, t)), bits(&want));
                        let published = m.published_shares(a);
                        assert_eq!(bits(&d.published_shares(a)), bits(&published));
                        for odd in [false, true] {
                            let pred = |v: VipAddr| (v.0 % 2 == 1) == odd;
                            let want_any = published.iter().any(|&(v, s)| s > 0.0 && pred(v));
                            assert_eq!(d.publishes_any(a, pred), want_any, "seed {seed} app {a}");
                        }
                        near_cut += want.iter().filter(|&&(_, s)| s < 1e-14).count();
                    }
                    let f = config.shifted_fraction(t.since(changed));
                    f_zero += usize::from(f == 0.0);
                    f_half += usize::from(f == 0.5);
                    f_one += usize::from(f == 1.0);
                }
                now += SimDuration::from_secs(next() % 200);
            }
        }
        assert!(
            near_cut > 0 && f_zero > 0 && f_half > 0 && f_one > 0 && first > 0,
            "{near_cut} {f_zero} {f_half} {f_one} {first}"
        );
    }

    /// `set_exposure` as it was before it reused buffers: a fresh
    /// baseline and the caller's weights moved in as the target.
    fn set_exposure_reference(
        d: &mut DnsSystem,
        app: AppKey,
        weights: Vec<(VipAddr, f64)>,
        now: SimTime,
    ) {
        let baseline = d.effective_shares(app, now);
        let i = app as usize;
        if i >= d.apps.len() {
            d.apps.resize_with(i + 1, AppExposure::default);
        }
        d.apps[i] = AppExposure {
            target: weights,
            baseline,
            changed_at: now,
        };
        d.reconfigurations += 1;
    }

    /// One app's target, baseline and change time, floats by bits.
    type ExposureBits = (Vec<(VipAddr, u64)>, Vec<(VipAddr, u64)>, SimTime);

    /// Every field of every app's exposure state.
    fn state_bits(d: &DnsSystem) -> Vec<ExposureBits> {
        d.apps
            .iter()
            .map(|e| (bits(&e.target), bits(&e.baseline), e.changed_at))
            .collect()
    }

    proptest! {
        #[test]
        fn prop_set_exposure_from_matches_set_exposure(
            ops in proptest::collection::vec(
                (
                    0u32..3,
                    proptest::collection::vec((0u32..4, 0usize..9), 0..5),
                    0u64..4,
                ),
                1..30,
            ),
        ) {
            // Duplicates, zero and negative weights, and tiny ones near
            // the blend's 1e-15 cut.
            const WEIGHTS: [f64; 9] = [1.0, 2.0, 0.0, -1.0, 0.5, 1e-15, 2e-15, 3.0e-16, 7.0];
            let (mut owned, mut borrowed) = (dns(), dns());
            let mut now = SimTime::ZERO;
            for (app, picks, advance) in ops {
                let weights: Vec<(VipAddr, f64)> =
                    picks.iter().map(|&(v, w)| (VipAddr(v), WEIGHTS[w])).collect();
                // Half the steps keep `now`, so changes pile up at one
                // instant; the rest advance inside and past a TTL.
                now += SimDuration::from_secs([0, 0, 30, 4000][advance as usize]);
                set_exposure_reference(&mut owned, app, weights.clone(), now);
                borrowed.set_exposure_from(app, &weights, now);
                prop_assert_eq!(state_bits(&owned), state_bits(&borrowed));
                prop_assert_eq!(owned.reconfigurations(), borrowed.reconfigurations());
                for a in 0..4 {
                    let published = owned.published_shares(a);
                    prop_assert_eq!(bits(&published), bits(&borrowed.published_shares(a)));
                    prop_assert_eq!(borrowed.published_count(a), published.len());
                    for dt in [0, 30] {
                        let t = now + SimDuration::from_secs(dt);
                        prop_assert_eq!(
                            bits(&owned.effective_shares(a, t)),
                            bits(&borrowed.effective_shares(a, t))
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_effective_shares_sum_to_one(
            w1 in 0.1f64..10.0,
            w2 in 0.1f64..10.0,
            change_at in 0u64..1000,
            query_at in 0u64..4000,
        ) {
            let mut d = dns();
            d.set_exposure(0, vec![(V1, w1), (V2, w2)], SimTime::ZERO);
            let t_change = SimTime::from_secs(change_at);
            d.set_exposure(0, vec![(V2, 1.0)], t_change);
            let t = SimTime::from_secs(change_at + query_at);
            let s = d.effective_shares(0, t);
            let total: f64 = s.iter().map(|&(_, x)| x).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
            for &(_, x) in &s {
                prop_assert!(x >= 0.0);
            }
        }

        #[test]
        fn prop_v2_share_monotone_after_switch(times in proptest::collection::vec(0u64..5000, 1..20)) {
            let mut d = dns();
            d.set_exposure(0, vec![(V1, 1.0)], SimTime::ZERO);
            d.set_exposure(0, vec![(V2, 1.0)], SimTime::from_secs(10));
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let mut prev = -1.0;
            for &dt in &sorted {
                let s = d.effective_shares(0, SimTime::from_secs(10 + dt));
                let v2 = share(&s, V2);
                prop_assert!(v2 >= prev - 1e-12);
                prev = v2;
            }
        }
    }
}
