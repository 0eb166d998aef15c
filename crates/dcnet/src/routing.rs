//! BGP-style route advertisement at the access routers (§IV.A).
//!
//! The naive traffic-engineering mechanism the paper argues against —
//! *VIP transfer between access links* — withdraws routes for some VIPs
//! from overloaded access routers and re-advertises them elsewhere, with
//! padded AS paths during the transition to avoid service disruption. It is
//! slow (bounded by BGP convergence) and churns route updates.
//!
//! This module models exactly the quantities that comparison needs:
//! which access routers can attract traffic for a prefix at a given time,
//! how many route updates have been emitted, and the convergence delay
//! between issuing an operation and the Internet acting on it.
//!
//! Prefixes are opaque `u64`s; the `megadc` crate maps each VIP to one.

use crate::access::AccessRouterId;
use dcsim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The externally announced prefix for a VIP (opaque id).
pub type Prefix = u64;

/// State of one (prefix, access-router) route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteState {
    /// When the advertisement was issued; the route attracts traffic from
    /// `advertised_at + convergence` onwards.
    advertised_at: SimTime,
    /// Number of AS-path prepends ("padding") applied. Routes with fewer
    /// prepends are strictly preferred by external clients.
    padding: u32,
    /// When a withdrawal was issued, if any. The route keeps attracting
    /// traffic until `withdrawn_at + convergence` (stale Internet state),
    /// then disappears.
    withdrawn_at: Option<SimTime>,
}

/// A snapshot of one usable route, as seen from the Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveRoute {
    /// The access router announcing the prefix.
    pub router: AccessRouterId,
    /// The AS-path padding on the announcement (0 = unpadded).
    pub padding: u32,
}

/// The data center's view of its external route announcements.
#[derive(Debug, Clone)]
pub struct RouteTable {
    convergence: SimDuration,
    // BTreeMap, not HashMap: route iteration order feeds `usable_routes`
    // and the experiment output, and bit-identical reruns are a hard
    // invariant (see `cargo run -p analyze`, rule `hash-container`).
    routes: BTreeMap<(Prefix, AccessRouterId), RouteState>,
    updates_sent: u64,
}

impl RouteTable {
    /// Create a table with the given BGP convergence delay (the time
    /// between issuing an update and the Internet honoring it; tens of
    /// seconds to minutes in practice).
    pub fn new(convergence: SimDuration) -> Self {
        RouteTable {
            convergence,
            routes: BTreeMap::new(),
            updates_sent: 0,
        }
    }

    /// The configured convergence delay.
    pub fn convergence(&self) -> SimDuration {
        self.convergence
    }

    /// Total route update messages emitted so far (advertise, withdraw and
    /// re-pad operations each count as one update).
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// Advertise `prefix` at `router` with the given AS-path padding.
    /// Re-advertising an existing route (e.g. to change its padding, or to
    /// resurrect a withdrawn one) also counts as an update.
    pub fn advertise(
        &mut self,
        prefix: Prefix,
        router: AccessRouterId,
        padding: u32,
        now: SimTime,
    ) {
        self.updates_sent += 1;
        self.routes.insert(
            (prefix, router),
            RouteState {
                advertised_at: now,
                padding,
                withdrawn_at: None,
            },
        );
    }

    /// Withdraw `prefix` from `router`. No-op (and no update emitted) if
    /// the route does not exist or is already withdrawn.
    pub fn withdraw(&mut self, prefix: Prefix, router: AccessRouterId, now: SimTime) {
        if let Some(state) = self.routes.get_mut(&(prefix, router)) {
            if state.withdrawn_at.is_none() {
                state.withdrawn_at = Some(now);
                self.updates_sent += 1;
            }
        }
    }

    /// Re-announce `prefix` at `router` with AS-path padding — the paper's
    /// graceful-drain step: the route stays valid but becomes unattractive,
    /// so no *new* connections arrive once clients see a shorter path
    /// elsewhere.
    pub fn pad(&mut self, prefix: Prefix, router: AccessRouterId, prepends: u32, now: SimTime) {
        let current = self
            .routes
            .get(&(prefix, router))
            .unwrap_or_else(|| panic!("padding a route that was never advertised"));
        assert!(current.withdrawn_at.is_none(), "padding a withdrawn route");
        self.advertise(prefix, router, prepends, now);
    }

    /// The entries for `prefix`, in router order: a range over the
    /// `(prefix, router)` key space, O(log n + k) instead of a table scan.
    fn prefix_routes(
        &self,
        prefix: Prefix,
    ) -> impl Iterator<Item = (AccessRouterId, &RouteState)> + '_ {
        self.routes
            .range((prefix, AccessRouterId(0))..=(prefix, AccessRouterId(u32::MAX)))
            .map(|(&(_, r), s)| (r, s))
    }

    /// `true` if the route attracts traffic at `now`: its advertisement
    /// has converged and its withdrawal (if any) has not.
    fn is_usable(&self, s: &RouteState, now: SimTime) -> bool {
        s.advertised_at + self.convergence <= now
            && match s.withdrawn_at {
                None => true,
                Some(w) => now < w + self.convergence,
            }
    }

    /// Every route for `prefix` that still attracts traffic at `now`:
    /// converged advertisements whose withdrawal (if any) has not yet
    /// converged.
    pub fn usable_routes(&self, prefix: Prefix, now: SimTime) -> Vec<ActiveRoute> {
        let mut v: Vec<ActiveRoute> = self
            .prefix_routes(prefix)
            .filter(|(_, s)| self.is_usable(s, now))
            .map(|(router, s)| ActiveRoute {
                router,
                padding: s.padding,
            })
            .collect();
        v.sort_by_key(|r| (r.padding, r.router));
        v
    }

    /// The routes external clients actually *prefer* for `prefix` at
    /// `now`: among usable routes, those with minimal AS-path padding.
    /// New connections land only on these; padded routes keep carrying
    /// existing sessions (which is what makes padded drain graceful).
    pub fn preferred_routes(&self, prefix: Prefix, now: SimTime) -> Vec<ActiveRoute> {
        let mut out = Vec::new();
        self.preferred_routes_into(prefix, now, &mut out);
        out
    }

    /// [`RouteTable::preferred_routes`] into a caller-owned buffer: `out`
    /// is cleared and refilled in router order by one walk over the
    /// prefix's routes, keeping only those at the least padding seen so
    /// far (a smaller padding restarts the buffer).
    pub fn preferred_routes_into(&self, prefix: Prefix, now: SimTime, out: &mut Vec<ActiveRoute>) {
        out.clear();
        for (router, s) in self.prefix_routes(prefix) {
            if !self.is_usable(s, now) {
                continue;
            }
            match out.first().map(|r| r.padding) {
                Some(min_pad) if s.padding > min_pad => continue,
                Some(min_pad) if s.padding < min_pad => out.clear(),
                _ => {}
            }
            out.push(ActiveRoute {
                router,
                padding: s.padding,
            });
        }
    }

    /// `true` if `prefix` is reachable (has any usable route) at `now`.
    pub fn is_reachable(&self, prefix: Prefix, now: SimTime) -> bool {
        self.prefix_routes(prefix)
            .any(|(_, s)| self.is_usable(s, now))
    }

    /// Number of prefixes with at least one non-withdrawn advertisement.
    pub fn advertised_prefix_count(&self) -> usize {
        let mut prefixes: Vec<Prefix> = self
            .routes
            .iter()
            .filter(|(_, s)| s.withdrawn_at.is_none())
            .map(|((p, _), _)| *p)
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        prefixes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AR0: AccessRouterId = AccessRouterId(0);
    const AR1: AccessRouterId = AccessRouterId(1);

    fn table() -> RouteTable {
        RouteTable::new(SimDuration::from_secs(60))
    }

    #[test]
    fn advertisement_takes_convergence_delay() {
        let mut rt = table();
        rt.advertise(7, AR0, 0, SimTime::from_secs(0));
        assert!(!rt.is_reachable(7, SimTime::from_secs(30)));
        assert!(rt.is_reachable(7, SimTime::from_secs(60)));
    }

    #[test]
    fn withdrawal_keeps_route_until_converged() {
        let mut rt = table();
        rt.advertise(7, AR0, 0, SimTime::ZERO);
        rt.withdraw(7, AR0, SimTime::from_secs(100));
        // Still usable during withdrawal convergence…
        assert!(rt.is_reachable(7, SimTime::from_secs(130)));
        // …gone afterwards.
        assert!(!rt.is_reachable(7, SimTime::from_secs(160)));
    }

    #[test]
    fn padded_routes_lose_preference_but_stay_usable() {
        let mut rt = table();
        rt.advertise(7, AR0, 0, SimTime::ZERO);
        rt.advertise(7, AR1, 0, SimTime::ZERO);
        let t1 = SimTime::from_secs(100);
        rt.pad(7, AR0, 3, t1);
        let t2 = SimTime::from_secs(200);
        let usable = rt.usable_routes(7, t2);
        assert_eq!(usable.len(), 2);
        let preferred = rt.preferred_routes(7, t2);
        assert_eq!(preferred.len(), 1);
        assert_eq!(preferred[0].router, AR1);
    }

    #[test]
    fn padding_not_yet_converged_keeps_old_preference() {
        let mut rt = table();
        rt.advertise(7, AR0, 0, SimTime::ZERO);
        let t1 = SimTime::from_secs(100);
        rt.pad(7, AR0, 3, t1);
        // Before the pad converges the route record has been replaced; the
        // new (padded) announcement is not yet visible, and the model errs
        // on the conservative side: the prefix is unreachable through this
        // router for new connections until convergence. Check timing only.
        assert!(!rt.is_reachable(7, SimTime::from_secs(130)));
        assert!(rt.is_reachable(7, SimTime::from_secs(160)));
    }

    #[test]
    fn update_accounting() {
        let mut rt = table();
        rt.advertise(1, AR0, 0, SimTime::ZERO);
        rt.advertise(2, AR0, 0, SimTime::ZERO);
        rt.withdraw(1, AR0, SimTime::from_secs(1));
        rt.withdraw(1, AR0, SimTime::from_secs(2)); // duplicate: no update
        rt.withdraw(9, AR1, SimTime::from_secs(2)); // nonexistent: no update
        assert_eq!(rt.updates_sent(), 3);
    }

    #[test]
    fn advertised_prefix_count_ignores_withdrawn() {
        let mut rt = table();
        rt.advertise(1, AR0, 0, SimTime::ZERO);
        rt.advertise(1, AR1, 0, SimTime::ZERO);
        rt.advertise(2, AR0, 0, SimTime::ZERO);
        assert_eq!(rt.advertised_prefix_count(), 2);
        rt.withdraw(2, AR0, SimTime::from_secs(1));
        assert_eq!(rt.advertised_prefix_count(), 1);
    }

    #[test]
    fn selective_exposure_uses_one_router_per_vip() {
        // The architecture's default: each VIP advertised at exactly one
        // access router; reachability through that router only.
        let mut rt = table();
        rt.advertise(41, AR0, 0, SimTime::ZERO);
        rt.advertise(42, AR1, 0, SimTime::ZERO);
        let t = SimTime::from_secs(120);
        assert_eq!(
            rt.usable_routes(41, t),
            vec![ActiveRoute {
                router: AR0,
                padding: 0
            }]
        );
        assert_eq!(
            rt.usable_routes(42, t),
            vec![ActiveRoute {
                router: AR1,
                padding: 0
            }]
        );
    }

    #[test]
    #[should_panic(expected = "never advertised")]
    fn padding_unknown_route_panics() {
        table().pad(5, AR0, 1, SimTime::ZERO);
    }

    /// Reference model: the original lookup, a scan of the whole table
    /// filtered to `prefix`.
    fn usable_routes_scan(rt: &RouteTable, prefix: Prefix, now: SimTime) -> Vec<ActiveRoute> {
        let mut v: Vec<ActiveRoute> = rt
            .routes
            .iter()
            .filter(|((p, _), _)| *p == prefix)
            .filter(|(_, s)| s.advertised_at + rt.convergence <= now)
            .filter(|(_, s)| match s.withdrawn_at {
                None => true,
                Some(w) => now < w + rt.convergence,
            })
            .map(|((_, r), s)| ActiveRoute {
                router: *r,
                padding: s.padding,
            })
            .collect();
        v.sort_by_key(|r| (r.padding, r.router));
        v
    }

    fn preferred_routes_scan(rt: &RouteTable, prefix: Prefix, now: SimTime) -> Vec<ActiveRoute> {
        let usable = usable_routes_scan(rt, prefix, now);
        let min_pad = usable.iter().map(|r| r.padding).min();
        usable
            .into_iter()
            .filter(|r| Some(r.padding) == min_pad)
            .collect()
    }

    /// SplitMix64: a dependency-free seeded generator for the tables.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[(self.next() % xs.len() as u64) as usize]
        }
    }

    #[test]
    fn range_lookup_matches_full_scan_reference() {
        // Adjacent prefixes and both ends of the key space, so a range
        // that leaks into a neighbour (or misses an end) shows up.
        const PREFIXES: [Prefix; 7] = [0, 1, 2, 500, 501, u64::MAX - 1, u64::MAX];
        const ABSENT: [Prefix; 4] = [3, 499, 502, u64::MAX - 2];
        let routers = [
            AccessRouterId(0),
            AccessRouterId(1),
            AccessRouterId(2),
            AccessRouterId(u32::MAX - 1),
            AccessRouterId(u32::MAX),
        ];
        let mut padded_preferred_split = 0;
        // One buffer for every lookup, starting dirty: each call must
        // clear what the previous one left.
        let mut buf = vec![ActiveRoute {
            router: AccessRouterId(7),
            padding: 9,
        }];
        for seed in 0..64u64 {
            let mut rng = SplitMix(seed);
            let mut rt = table();
            for _ in 0..40 {
                let p = rng.pick(&PREFIXES);
                let r = rng.pick(&routers);
                let t = SimTime::from_secs(rng.next() % 300);
                match rng.next() % 4 {
                    0 | 1 => rt.advertise(p, r, (rng.next() % 3) as u32, t),
                    2 => rt.withdraw(p, r, t),
                    _ => {
                        let live = rt.routes.get(&(p, r)).map(|s| s.withdrawn_at.is_none());
                        if live == Some(true) {
                            rt.pad(p, r, 1 + (rng.next() % 3) as u32, t);
                        }
                    }
                }
            }
            for now in [0, 30, 59, 60, 120, 200, 299, 359, 400].map(SimTime::from_secs) {
                for p in PREFIXES.into_iter().chain(ABSENT) {
                    let want = usable_routes_scan(&rt, p, now);
                    let preferred = preferred_routes_scan(&rt, p, now);
                    assert_eq!(rt.usable_routes(p, now), want, "seed {seed} prefix {p}");
                    assert_eq!(
                        rt.preferred_routes(p, now),
                        preferred,
                        "seed {seed} prefix {p}"
                    );
                    rt.preferred_routes_into(p, now, &mut buf);
                    assert_eq!(buf, preferred, "seed {seed} prefix {p} (buffer)");
                    assert_eq!(rt.is_reachable(p, now), !want.is_empty());
                    if preferred.len() < want.len() {
                        padded_preferred_split += 1;
                    }
                }
            }
        }
        // The tables exercised padding: some lookups had usable routes
        // that were not preferred.
        assert!(padded_preferred_split > 0);
    }
}
