//! Platform-level identifiers and address pools.

use dcnet::routing::Prefix;
use lbswitch::{RipAddr, VipAddr};
use std::fmt;

/// Identifier of a hosted application (≈ a website, §II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

/// Identifier of a *logical server pod* (§III.A). Not to be confused with
/// fat-tree fabric pods — the paper's footnote 1 makes the same point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PodId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}
impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod{}", self.0)
    }
}

impl AppId {
    /// The `dcdns` app key for this application.
    pub fn dns_key(self) -> u32 {
        self.0
    }
    /// The BGP prefix announced for a VIP of this platform (VIP-keyed,
    /// not app-keyed; see [`vip_prefix`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PodId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The routing prefix announced for a VIP (each VIP is externally visible
/// as its own prefix in the model, numbered by its address).
pub fn vip_prefix(vip: VipAddr) -> Prefix {
    vip.0
}

/// An allocator of addresses from a finite pool, with free-list reuse —
/// "allocates an unused IP address" (§III.C). The default pool is
/// unbounded.
#[derive(Debug, Clone, Default)]
pub struct AddressPool {
    next: u32,
    free: Vec<u32>,
    limit: Option<u32>,
}

impl AddressPool {
    /// Pool with at most `limit` addresses live at once.
    pub fn bounded(limit: u32) -> Self {
        AddressPool {
            next: 0,
            free: Vec::new(),
            limit: Some(limit),
        }
    }

    /// Allocate an address, or `None` if the pool is exhausted.
    pub fn alloc(&mut self) -> Option<u32> {
        if let Some(addr) = self.free.pop() {
            return Some(addr);
        }
        if let Some(limit) = self.limit {
            if self.next >= limit {
                return None;
            }
        }
        let addr = self.next;
        self.next += 1;
        Some(addr)
    }

    /// Return an address to the pool.
    pub fn release(&mut self, addr: u32) {
        debug_assert!(addr < self.next, "releasing an address never allocated");
        self.free.push(addr);
    }

    /// Number of addresses currently live.
    pub fn live(&self) -> usize {
        self.next as usize - self.free.len()
    }
}

/// Typed VIP pool.
#[derive(Debug, Clone, Default)]
pub struct VipPool(AddressPool);

impl VipPool {
    /// Unbounded VIP pool (the platform owns a large public block).
    pub fn new() -> Self {
        Self::default()
    }
    /// Allocate a VIP.
    pub fn alloc(&mut self) -> VipAddr {
        VipAddr(self.0.alloc().expect("VIP pool unbounded"))
    }
    /// Release a VIP.
    pub fn release(&mut self, vip: VipAddr) {
        self.0.release(vip.0);
    }
    /// Live VIP count.
    pub fn live(&self) -> usize {
        self.0.live()
    }
}

/// Typed RIP pool — the paper notes RIPs come from a private block such as
/// 10.0.0.0/8, i.e. ~16.7M addresses; the pool enforces that bound.
#[derive(Debug, Clone)]
pub struct RipPool(AddressPool);

impl Default for RipPool {
    fn default() -> Self {
        // 10.0.0.0/8 = 2^24 usable-ish addresses.
        RipPool(AddressPool::bounded(1 << 24))
    }
}

impl RipPool {
    /// A /8-sized RIP pool.
    pub fn new() -> Self {
        Self::default()
    }
    /// Allocate a RIP, or `None` when the /8 is exhausted.
    pub fn alloc(&mut self) -> Option<RipAddr> {
        self.0.alloc().map(RipAddr)
    }
    /// Release a RIP.
    pub fn release(&mut self, rip: RipAddr) {
        self.0.release(rip.0);
    }
    /// Live RIP count.
    pub fn live(&self) -> usize {
        self.0.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocates_and_reuses() {
        let mut p = AddressPool::default();
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(p.live(), 2);
        p.release(a);
        assert_eq!(p.live(), 1);
        let c = p.alloc().unwrap();
        assert_eq!(c, a, "freed address should be reused");
    }

    #[test]
    fn bounded_pool_exhausts() {
        let mut p = AddressPool::bounded(2);
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_none());
        p.release(0);
        assert!(p.alloc().is_some());
    }

    #[test]
    fn rip_pool_is_slash_eight() {
        let p = RipPool::new();
        assert_eq!(p.live(), 0);
        // (Not exhausting 16.7M allocations in a unit test; the bound is
        // structural.)
    }

    #[test]
    fn id_display() {
        assert_eq!(AppId(7).to_string(), "app7");
        assert_eq!(PodId(2).to_string(), "pod2");
    }

    #[test]
    fn vip_prefix_is_stable() {
        assert_eq!(vip_prefix(VipAddr(9)), 9);
    }
}
