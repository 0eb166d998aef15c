//! The access connection layer (§III, §IV.A).
//!
//! A mega data center "typically has multiple Internet access links and
//! border routers": the DC's border routers connect through *access links*
//! to the *access routers* (ARs) of the ISPs providing connectivity. Each
//! access link has a finite capacity and a usage cost (the paper's traffic
//! engineering goals: avoid overload, and steer traffic among ISPs per
//! business requirements such as "different link usage costs").

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The numeric index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of an access link (border router ↔ ISP access router).
    AccessLinkId,
    "al"
);
id_type!(
    /// Identifier of an ISP access router.
    AccessRouterId,
    "ar"
);
id_type!(
    /// Identifier of a data-center border router.
    BorderRouterId,
    "br"
);

/// One access link: a border router connected to an ISP access router.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessLink {
    /// This link's id.
    pub id: AccessLinkId,
    /// The DC-side border router.
    pub border: BorderRouterId,
    /// The ISP-side access router.
    pub access_router: AccessRouterId,
    /// Link capacity in bits/s.
    pub capacity_bps: f64,
    /// Usage cost in currency units per gigabyte carried — drives the
    /// business side of the paper's traffic engineering goal (ii).
    pub cost_per_gb: f64,
}

/// The full access connection layer: border routers, ISP access routers
/// and the links between them. Border routers and LB switches are fully
/// interconnected (§III), so any VIP advertised at any access router can be
/// served by any LB switch; the only constrained resources here are the
/// access links themselves.
#[derive(Debug, Clone, Default)]
pub struct AccessNetwork {
    links: Vec<AccessLink>,
    num_access_routers: u32,
}

impl AccessNetwork {
    /// Empty network; add links with [`AccessNetwork::add_link`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a symmetric network: `n` access links, one per (border
    /// router, access router) pair, each with capacity `capacity_bps` and
    /// cost `cost_per_gb`.
    pub fn symmetric(n: u32, capacity_bps: f64, cost_per_gb: f64) -> Self {
        let mut net = AccessNetwork::new();
        for i in 0..n {
            net.add_link(
                BorderRouterId(i),
                AccessRouterId(i),
                capacity_bps,
                cost_per_gb,
            );
        }
        net
    }

    /// Add a link and return its id.
    pub fn add_link(
        &mut self,
        border: BorderRouterId,
        access_router: AccessRouterId,
        capacity_bps: f64,
        cost_per_gb: f64,
    ) -> AccessLinkId {
        assert!(capacity_bps > 0.0, "access link capacity must be positive");
        assert!(cost_per_gb >= 0.0);
        let id = AccessLinkId(self.links.len() as u32);
        self.num_access_routers = self.num_access_routers.max(access_router.0 + 1);
        self.links.push(AccessLink {
            id,
            border,
            access_router,
            capacity_bps,
            cost_per_gb,
        });
        id
    }

    /// All links.
    pub fn links(&self) -> &[AccessLink] {
        &self.links
    }

    /// Override one link's capacity (fault injection: access-link
    /// degradation and recovery). Returns the previous capacity, or an
    /// error for an unknown link or a non-positive/NaN capacity.
    pub fn set_link_capacity(
        &mut self,
        id: AccessLinkId,
        capacity_bps: f64,
    ) -> Result<f64, String> {
        if capacity_bps.is_nan() || capacity_bps <= 0.0 {
            return Err(format!("capacity for {id} must be positive"));
        }
        match self.links.get_mut(id.index()) {
            Some(l) => Ok(std::mem::replace(&mut l.capacity_bps, capacity_bps)),
            None => Err(format!("unknown access link {id}")),
        }
    }

    /// Look up one link.
    pub fn link(&self, id: AccessLinkId) -> &AccessLink {
        &self.links[id.index()]
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of distinct ISP access routers.
    pub fn num_access_routers(&self) -> usize {
        self.num_access_routers as usize
    }

    /// The links terminating at a given access router (usually exactly one
    /// in the paper's figure, but multi-homing to an ISP is allowed).
    pub fn links_at_router(&self, ar: AccessRouterId) -> impl Iterator<Item = &AccessLink> {
        self.links.iter().filter(move |l| l.access_router == ar)
    }

    /// Per-link utilizations for a given per-link load vector (bits/s).
    /// Values may exceed 1.0 — that is exactly the overload condition the
    /// control knobs exist to fix; the caller decides what to do with it.
    pub fn utilizations(&self, load_bps: &[f64]) -> Vec<f64> {
        assert_eq!(load_bps.len(), self.links.len());
        self.links
            .iter()
            .zip(load_bps)
            .map(|(l, &load)| load / l.capacity_bps)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_network_shape() {
        let net = AccessNetwork::symmetric(3, 10e9, 0.02);
        assert_eq!(net.num_links(), 3);
        assert_eq!(net.num_access_routers(), 3);
    }

    #[test]
    fn utilization_and_overload() {
        let net = AccessNetwork::symmetric(2, 10e9, 0.0);
        let u = net.utilizations(&[5e9, 12e9]);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 1.2).abs() < 1e-12);
    }

    #[test]
    fn links_at_router_filters() {
        let mut net = AccessNetwork::new();
        net.add_link(BorderRouterId(0), AccessRouterId(0), 1e9, 0.0);
        net.add_link(BorderRouterId(1), AccessRouterId(0), 1e9, 0.0);
        net.add_link(BorderRouterId(0), AccessRouterId(1), 1e9, 0.0);
        assert_eq!(net.links_at_router(AccessRouterId(0)).count(), 2);
        assert_eq!(net.links_at_router(AccessRouterId(1)).count(), 1);
    }

    #[test]
    fn set_link_capacity_replaces_and_validates() {
        let mut net = AccessNetwork::symmetric(2, 10e9, 0.0);
        let prev = net.set_link_capacity(AccessLinkId(1), 2.5e9).unwrap();
        assert!((prev - 10e9).abs() < 1.0);
        assert!((net.link(AccessLinkId(1)).capacity_bps - 2.5e9).abs() < 1.0);
        // Restore.
        let prev = net.set_link_capacity(AccessLinkId(1), prev).unwrap();
        assert!((prev - 2.5e9).abs() < 1.0);
        // Bad inputs are rejected without mutation.
        assert!(net.set_link_capacity(AccessLinkId(9), 1e9).is_err());
        assert!(net.set_link_capacity(AccessLinkId(0), 0.0).is_err());
        assert!(net.set_link_capacity(AccessLinkId(0), f64::NAN).is_err());
        for id in [AccessLinkId(0), AccessLinkId(1)] {
            assert!((net.link(id).capacity_bps - 10e9).abs() < 1.0);
        }
    }

    #[test]
    fn ids_display() {
        assert_eq!(AccessLinkId(3).to_string(), "al3");
        assert_eq!(AccessRouterId(1).to_string(), "ar1");
        assert_eq!(BorderRouterId(0).to_string(), "br0");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        AccessNetwork::new().add_link(BorderRouterId(0), AccessRouterId(0), 0.0, 0.0);
    }
}
