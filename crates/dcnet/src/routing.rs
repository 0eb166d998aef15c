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
//! Prefixes are dense `u32` ids: the `megadc` crate announces each VIP
//! as its own prefix, numbered by its address, and VIP addresses come
//! from a free-list pool, so the largest prefix stays near the peak live
//! VIP count.

use crate::access::AccessRouterId;
use dcsim::{SimDuration, SimTime};

/// The externally announced prefix for a VIP (a dense id).
pub type Prefix = u32;

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

/// End of a prefix's route list.
const NIL: u32 = u32::MAX;

/// One (prefix, access-router) route in the arena, linked to the next
/// route of the same prefix in router order.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    router: AccessRouterId,
    state: RouteState,
    next: u32,
}

/// The data center's view of its external route announcements.
#[derive(Debug, Clone)]
pub struct RouteTable {
    convergence: SimDuration,
    /// The first entry of each prefix's list, indexed by prefix (`NIL`
    /// when the prefix was never advertised).
    heads: Vec<u32>,
    /// Every route ever advertised, each prefix's linked in ascending
    /// router order, so lookups walk routes in the order the experiment
    /// output depends on. Entries are overwritten in place, never removed.
    entries: Vec<RouteEntry>,
    updates_sent: u64,
}

impl RouteTable {
    /// Create a table with the given BGP convergence delay (the time
    /// between issuing an update and the Internet honoring it; tens of
    /// seconds to minutes in practice).
    pub fn new(convergence: SimDuration) -> Self {
        RouteTable {
            convergence,
            heads: Vec::new(),
            entries: Vec::new(),
            updates_sent: 0,
        }
    }

    /// The configured convergence delay.
    pub fn convergence(&self) -> SimDuration {
        self.convergence
    }

    /// Total route update messages emitted so far (advertise and withdraw
    /// operations each count as one update).
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// Advertise `prefix` at `router` with the given AS-path padding.
    /// Re-advertising an existing route (e.g. to pad it for the paper's
    /// graceful drain, or to resurrect a withdrawn one) replaces it and
    /// also counts as an update.
    pub fn advertise(
        &mut self,
        prefix: Prefix,
        router: AccessRouterId,
        padding: u32,
        now: SimTime,
    ) {
        self.updates_sent += 1;
        let state = RouteState {
            advertised_at: now,
            padding,
            withdrawn_at: None,
        };
        let p = prefix as usize;
        if p >= self.heads.len() {
            self.heads.resize(p + 1, NIL);
        }
        let (mut prev, mut cur) = (NIL, self.heads[p]);
        while cur != NIL && self.entries[cur as usize].router < router {
            (prev, cur) = (cur, self.entries[cur as usize].next);
        }
        if cur != NIL && self.entries[cur as usize].router == router {
            self.entries[cur as usize].state = state;
            return;
        }
        assert!(self.entries.len() < NIL as usize, "route arena full");
        let id = self.entries.len() as u32;
        self.entries.push(RouteEntry {
            router,
            state,
            next: cur,
        });
        match prev {
            NIL => self.heads[p] = id,
            _ => self.entries[prev as usize].next = id,
        }
    }

    /// Withdraw `prefix` from `router`. No-op (and no update emitted) if
    /// the route does not exist or is already withdrawn.
    pub fn withdraw(&mut self, prefix: Prefix, router: AccessRouterId, now: SimTime) {
        let mut cur = self.head(prefix);
        while cur != NIL {
            let e = &mut self.entries[cur as usize];
            if e.router == router {
                if e.state.withdrawn_at.is_none() {
                    e.state.withdrawn_at = Some(now);
                    self.updates_sent += 1;
                }
                return;
            }
            cur = e.next;
        }
    }

    /// The first entry of `prefix`'s list (`NIL` if it has none).
    fn head(&self, prefix: Prefix) -> u32 {
        self.heads.get(prefix as usize).copied().unwrap_or(NIL)
    }

    /// The entries for `prefix`, in router order: one index into the
    /// prefix heads, then a walk of that prefix's routes alone.
    fn prefix_routes(
        &self,
        prefix: Prefix,
    ) -> impl Iterator<Item = (AccessRouterId, &RouteState)> + '_ {
        let mut cur = self.head(prefix);
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let e = &self.entries[cur as usize];
            cur = e.next;
            Some((e.router, &e.state))
        })
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
    /// converged. Test-only: production reads the preferred routes.
    #[cfg(test)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        rt.advertise(7, AR0, 3, t1);
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
        rt.advertise(7, AR0, 3, t1);
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

    /// The reference model: the route table as an ordered map over
    /// `(prefix, router)`, fed the same operations as the table.
    type Model = BTreeMap<(Prefix, AccessRouterId), RouteState>;

    fn model_usable(model: &Model, conv: SimDuration, p: Prefix, now: SimTime) -> Vec<ActiveRoute> {
        let mut v: Vec<ActiveRoute> = model
            .iter()
            .filter(|((q, _), _)| *q == p)
            .filter(|(_, s)| s.advertised_at + conv <= now)
            .filter(|(_, s)| match s.withdrawn_at {
                None => true,
                Some(w) => now < w + conv,
            })
            .map(|((_, r), s)| ActiveRoute {
                router: *r,
                padding: s.padding,
            })
            .collect();
        v.sort_by_key(|r| (r.padding, r.router));
        v
    }

    fn model_preferred(usable: &[ActiveRoute]) -> Vec<ActiveRoute> {
        let min_pad = usable.iter().map(|r| r.padding).min();
        let mut v: Vec<ActiveRoute> = usable
            .iter()
            .copied()
            .filter(|r| Some(r.padding) == min_pad)
            .collect();
        v.sort_by_key(|r| r.router);
        v
    }

    #[test]
    fn range_lookup_matches_full_scan_reference() {
        // Prefix 0, adjacent prefixes and the last id the table holds, so
        // a walk that leaks into a neighbour's list (or misses an end)
        // shows up; the absent prefixes include ids past the table's end.
        const PREFIXES: [Prefix; 7] = [0, 1, 2, 500, 501, 4_094, 4_095];
        const ABSENT: [Prefix; 5] = [3, 499, 502, 4_096, 10_000];
        let routers = [
            AccessRouterId(0),
            AccessRouterId(1),
            AccessRouterId(2),
            AccessRouterId(u32::MAX - 1),
            AccessRouterId(u32::MAX),
        ];
        let conv = SimDuration::from_secs(60);
        let (mut padded_preferred_split, mut readvertised_withdrawn) = (0, 0);
        // One buffer for every lookup, starting dirty: each call must
        // clear what the previous one left.
        let mut buf = vec![ActiveRoute {
            router: AccessRouterId(7),
            padding: 9,
        }];
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut next = || dcsim::rng::splitmix64(&mut rng);
            let mut rt = RouteTable::new(conv);
            let mut model = Model::new();
            let mut updates = 0u64;
            for op in 0..40 {
                let mut p = PREFIXES[(next() % PREFIXES.len() as u64) as usize];
                let mut r = routers[(next() % routers.len() as u64) as usize];
                let t = SimTime::from_secs(next() % 300);
                let padding = (next() % 3) as u32;
                let kind = next() % 4;
                if kind == 3 && !model.is_empty() {
                    // Re-advertise a route the table already holds (often
                    // a withdrawn one), at a new padding.
                    let i = (next() % model.len() as u64) as usize;
                    let (&key, state) = model.iter().nth(i).expect("i < len");
                    (p, r) = key;
                    readvertised_withdrawn += usize::from(state.withdrawn_at.is_some());
                }
                if kind == 2 {
                    rt.withdraw(p, r, t);
                    if let Some(s) = model.get_mut(&(p, r)) {
                        if s.withdrawn_at.is_none() {
                            s.withdrawn_at = Some(t);
                            updates += 1;
                        }
                    }
                } else {
                    rt.advertise(p, r, padding, t);
                    let state = RouteState {
                        advertised_at: t,
                        padding,
                        withdrawn_at: None,
                    };
                    model.insert((p, r), state);
                    updates += 1;
                }
                assert_eq!(rt.updates_sent(), updates, "seed {seed} op {op}");
                for now in [0, 30, 59, 60, 120, 200, 299, 359, 400].map(SimTime::from_secs) {
                    for p in PREFIXES.into_iter().chain(ABSENT) {
                        let at = format!("seed {seed} op {op} prefix {p} at {now:?}");
                        let usable = model_usable(&model, conv, p, now);
                        let preferred = model_preferred(&usable);
                        assert_eq!(rt.usable_routes(p, now), usable, "{at}");
                        assert_eq!(rt.preferred_routes(p, now), preferred, "{at}");
                        rt.preferred_routes_into(p, now, &mut buf);
                        assert_eq!(buf, preferred, "{at} (buffer)");
                        assert_eq!(rt.is_reachable(p, now), !usable.is_empty(), "{at}");
                        padded_preferred_split += usize::from(preferred.len() < usable.len());
                    }
                }
            }
        }
        // The tables exercised padding (some lookups had usable routes
        // that were not preferred) and re-advertised withdrawn routes.
        assert!(padded_preferred_split > 0);
        assert!(readvertised_withdrawn > 0);
    }
}
