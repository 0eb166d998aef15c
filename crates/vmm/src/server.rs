//! Physical servers and the VMs placed on them.

use dcsim::{DenseId, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a physical server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

/// Identifier of a virtual machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl DenseId for VmId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        VmId(i as u32)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv{}", self.0)
    }
}
impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Hardware of one server. CPU capacity is in abstract *capacity units*
/// (1.0 ≈ one core's worth); the paper's placement algorithms reason in
/// the same normalized units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Total CPU capacity units available to VMs.
    pub cpu: f64,
    /// Physical memory, MB.
    pub mem_mb: u64,
    /// NIC line rate, bits/s.
    pub nic_bps: f64,
}

impl ServerSpec {
    /// A typical commodity server of the paper's era: 8 cores, 32 GB RAM,
    /// 1 Gbps NIC.
    pub const COMMODITY: ServerSpec = ServerSpec {
        cpu: 8.0,
        mem_mb: 32_768,
        nic_bps: 1e9,
    };

    /// Validate the spec.
    pub fn validate(&self) {
        assert!(self.cpu > 0.0, "cpu capacity must be positive");
        assert!(self.mem_mb > 0, "memory must be positive");
        assert!(self.nic_bps > 0.0, "NIC rate must be positive");
    }
}

/// Lifecycle state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Freshly created (boot or clone); serves no traffic until `ready_at`.
    Booting {
        /// When the VM becomes `Running`.
        ready_at: SimTime,
    },
    /// Serving traffic.
    Running,
    /// Live-migrating to another server; still serving on the source
    /// (pre-copy) until `done_at`.
    Migrating {
        /// When the migration completes and the VM switches hosts.
        done_at: SimTime,
        /// Destination server (capacity already reserved there).
        to: ServerId,
    },
}

impl VmState {
    /// `true` if the VM can serve traffic right now (`Running`, or
    /// `Migrating` — pre-copy keeps the source serving).
    pub fn serves_traffic(&self) -> bool {
        matches!(self, VmState::Running | VmState::Migrating { .. })
    }
}

/// One virtual machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// This VM's id.
    pub id: VmId,
    /// The application this VM is an instance of (dcdns `AppKey` space).
    pub app: u32,
    /// Hard CPU slice, in the server's capacity units (§IV.E).
    pub cpu_slice: f64,
    /// Memory footprint, MB (drives migration/clone time).
    pub mem_mb: u64,
    /// Lifecycle state.
    pub state: VmState,
}

/// Errors from server-level placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Not enough free CPU capacity.
    InsufficientCpu,
    /// Not enough free memory.
    InsufficientMemory,
    /// No such VM on this server.
    UnknownVm(VmId),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::InsufficientCpu => write!(f, "insufficient CPU"),
            PlaceError::InsufficientMemory => write!(f, "insufficient memory"),
            PlaceError::UnknownVm(v) => write!(f, "unknown {v}"),
        }
    }
}
impl std::error::Error for PlaceError {}

/// A physical server with its resident VMs.
#[derive(Debug, Clone)]
pub struct Server {
    id: ServerId,
    spec: ServerSpec,
    vms: BTreeMap<VmId, Vm>,
    /// Invariant: `vms.values().map(|v| v.cpu_slice).sum()`, re-summed in
    /// BTreeMap order after every change to the VM set or to a slice, so
    /// it is bit-identical to a fresh sum.
    vm_cpu: f64,
    /// Invariant: `vms.values().map(|v| v.mem_mb).sum()`. An integer sum
    /// does not depend on order, so it is kept by exact add/subtract.
    vm_mem: u64,
    /// CPU reserved for inbound migrations (destination-side reservation).
    inbound_cpu: f64,
    inbound_mem: u64,
}

impl Server {
    /// Create a server.
    pub fn new(id: ServerId, spec: ServerSpec) -> Self {
        spec.validate();
        let mut srv = Server {
            id,
            spec,
            vms: BTreeMap::new(),
            vm_cpu: 0.0,
            vm_mem: 0,
            inbound_cpu: 0.0,
            inbound_mem: 0,
        };
        // An empty f64 sum is -0.0, not the 0.0 literal above.
        srv.resum_cpu();
        srv
    }

    /// Re-establish the `vm_cpu` invariant.
    fn resum_cpu(&mut self) {
        self.vm_cpu = self.vms.values().map(|v| v.cpu_slice).sum();
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Hardware spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Resident VMs.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Number of resident VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Look up a resident VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// CPU units committed to resident VM slices plus inbound reservations.
    pub fn cpu_used(&self) -> f64 {
        self.vm_cpu + self.inbound_cpu
    }

    /// Free CPU units.
    pub fn cpu_free(&self) -> f64 {
        (self.spec.cpu - self.cpu_used()).max(0.0)
    }

    /// Memory committed, MB.
    pub fn mem_used(&self) -> u64 {
        self.vm_mem + self.inbound_mem
    }

    /// Free memory, MB.
    pub fn mem_free(&self) -> u64 {
        self.spec.mem_mb.saturating_sub(self.mem_used())
    }

    /// CPU-slice utilization of the server in `[0, 1]`.
    pub fn cpu_utilization(&self) -> f64 {
        self.cpu_used() / self.spec.cpu
    }

    /// `true` if the server hosts no VMs and has no inbound reservations
    /// (i.e. it is *vacated* and can be handed to another pod, §IV.C).
    pub fn is_vacant(&self) -> bool {
        self.vms.is_empty() && self.inbound_cpu == 0.0 && self.inbound_mem == 0
    }

    /// Check whether a VM with the given slices would fit.
    pub fn fits(&self, cpu_slice: f64, mem_mb: u64) -> Result<(), PlaceError> {
        if cpu_slice > self.cpu_free() + 1e-9 {
            return Err(PlaceError::InsufficientCpu);
        }
        if mem_mb > self.mem_free() {
            return Err(PlaceError::InsufficientMemory);
        }
        Ok(())
    }

    /// Place a VM (used by [`Fleet`](crate::Fleet); does not check state).
    pub(crate) fn place(&mut self, vm: Vm) -> Result<(), PlaceError> {
        assert!(vm.cpu_slice > 0.0, "VM CPU slice must be positive");
        self.fits(vm.cpu_slice, vm.mem_mb)?;
        let mem_mb = vm.mem_mb;
        let prev = self.vms.insert(vm.id, vm);
        assert!(prev.is_none(), "VM already resident");
        self.vm_mem += mem_mb;
        self.resum_cpu();
        Ok(())
    }

    /// Remove a resident VM.
    pub(crate) fn evict(&mut self, id: VmId) -> Result<Vm, PlaceError> {
        let vm = self.vms.remove(&id).ok_or(PlaceError::UnknownVm(id))?;
        self.vm_mem -= vm.mem_mb;
        self.resum_cpu();
        Ok(vm)
    }

    /// Reserve capacity for an inbound migration.
    pub(crate) fn reserve_inbound(&mut self, cpu: f64, mem_mb: u64) -> Result<(), PlaceError> {
        self.fits(cpu, mem_mb)?;
        self.inbound_cpu += cpu;
        self.inbound_mem += mem_mb;
        Ok(())
    }

    /// Release an inbound reservation (migration completed or aborted).
    pub(crate) fn release_inbound(&mut self, cpu: f64, mem_mb: u64) {
        self.inbound_cpu = (self.inbound_cpu - cpu).max(0.0);
        self.inbound_mem = self.inbound_mem.saturating_sub(mem_mb);
    }

    /// Adjust a resident VM's CPU slice in place — the hot knob of §IV.E.
    /// Fails if the new slice does not fit alongside the other residents.
    pub fn adjust_slice(&mut self, id: VmId, new_cpu: f64) -> Result<(), PlaceError> {
        assert!(new_cpu > 0.0, "VM CPU slice must be positive");
        let current = self
            .vms
            .get(&id)
            .ok_or(PlaceError::UnknownVm(id))?
            .cpu_slice;
        let delta = new_cpu - current;
        if delta > self.cpu_free() + 1e-9 {
            return Err(PlaceError::InsufficientCpu);
        }
        self.vms.get_mut(&id).expect("checked").cpu_slice = new_cpu;
        self.resum_cpu();
        Ok(())
    }

    /// Mutable access to a resident VM's lifecycle state (fleet-internal).
    /// Only the state is exposed, so the committed totals cannot go stale.
    pub(crate) fn vm_state_mut(&mut self, id: VmId) -> Option<&mut VmState> {
        self.vms.get_mut(&id).map(|v| &mut v.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(id: u32, cpu: f64, mem: u64) -> Vm {
        Vm {
            id: VmId(id),
            app: 0,
            cpu_slice: cpu,
            mem_mb: mem,
            state: VmState::Running,
        }
    }

    #[test]
    fn capacity_accounting() {
        let mut s = Server::new(
            ServerId(0),
            ServerSpec {
                cpu: 4.0,
                mem_mb: 1000,
                nic_bps: 1e9,
            },
        );
        s.place(vm(1, 1.5, 400)).unwrap();
        s.place(vm(2, 1.0, 300)).unwrap();
        assert!((s.cpu_used() - 2.5).abs() < 1e-12);
        assert_eq!(s.mem_free(), 300);
        assert!((s.cpu_utilization() - 0.625).abs() < 1e-12);
        assert!(!s.is_vacant());
    }

    #[test]
    fn rejects_overcommit() {
        let mut s = Server::new(
            ServerId(0),
            ServerSpec {
                cpu: 2.0,
                mem_mb: 500,
                nic_bps: 1e9,
            },
        );
        s.place(vm(1, 1.5, 200)).unwrap();
        assert_eq!(s.place(vm(2, 1.0, 100)), Err(PlaceError::InsufficientCpu));
        assert_eq!(
            s.place(vm(3, 0.4, 400)),
            Err(PlaceError::InsufficientMemory)
        );
    }

    #[test]
    fn slice_adjustment_hot() {
        let mut s = Server::new(
            ServerId(0),
            ServerSpec {
                cpu: 4.0,
                mem_mb: 1000,
                nic_bps: 1e9,
            },
        );
        s.place(vm(1, 1.0, 100)).unwrap();
        s.place(vm(2, 2.0, 100)).unwrap();
        // Grow within free capacity.
        s.adjust_slice(VmId(1), 2.0).unwrap();
        assert!((s.cpu_free() - 0.0).abs() < 1e-12);
        // Growing further fails.
        assert_eq!(
            s.adjust_slice(VmId(1), 2.5),
            Err(PlaceError::InsufficientCpu)
        );
        // Shrink always works.
        s.adjust_slice(VmId(2), 0.5).unwrap();
        assert!((s.cpu_free() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn inbound_reservation_blocks_placement() {
        let mut s = Server::new(
            ServerId(0),
            ServerSpec {
                cpu: 2.0,
                mem_mb: 500,
                nic_bps: 1e9,
            },
        );
        s.reserve_inbound(1.5, 300).unwrap();
        assert_eq!(s.place(vm(1, 1.0, 100)), Err(PlaceError::InsufficientCpu));
        s.release_inbound(1.5, 300);
        s.place(vm(1, 1.0, 100)).unwrap();
    }

    #[test]
    fn committed_totals_match_a_fresh_sum_after_every_step() {
        use dcsim::rng::splitmix64;
        let fresh_cpu = |s: &Server| s.vms().map(|v| v.cpu_slice).sum::<f64>() + s.inbound_cpu;
        let fresh_mem = |s: &Server| s.vms().map(|v| v.mem_mb).sum::<u64>() + s.inbound_mem;
        // Magnitudes far apart, so summation order shows.
        let slices = [1e-9, 3e-4, 0.1, 0.4, 1.0, 1.7];
        for seed in 0..32 {
            let mut rng = seed;
            let mut pick = |n: usize| (splitmix64(&mut rng) % n as u64) as usize;
            let mut s = Server::new(ServerId(0), ServerSpec::COMMODITY);
            let mut reserved = Vec::new();
            for step in 0..300 {
                let id = VmId(pick(24) as u32);
                let cpu = slices[pick(slices.len())];
                let mem = 512 * (1 + pick(8)) as u64;
                match pick(6) {
                    0 | 1 if s.vm(id).is_none() => {
                        let _ = s.place(vm(id.0, cpu, mem));
                    }
                    2 => {
                        let _ = s.evict(id);
                    }
                    3 => {
                        let _ = s.adjust_slice(id, cpu);
                    }
                    4 => {
                        let ok = s.reserve_inbound(cpu, mem).is_ok();
                        if ok {
                            reserved.push((cpu, mem));
                        }
                    }
                    5 => {
                        let (cpu, mem) = reserved.pop().unwrap_or((0.0, 0));
                        s.release_inbound(cpu, mem);
                    }
                    _ => {}
                }
                assert_eq!(
                    s.cpu_used().to_bits(),
                    fresh_cpu(&s).to_bits(),
                    "seed {seed} step {step}"
                );
                assert_eq!(s.mem_used(), fresh_mem(&s), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn vacancy() {
        let mut s = Server::new(ServerId(0), ServerSpec::COMMODITY);
        assert!(s.is_vacant());
        s.place(vm(1, 1.0, 100)).unwrap();
        assert!(!s.is_vacant());
        s.evict(VmId(1)).unwrap();
        assert!(s.is_vacant());
    }

    #[test]
    fn migrating_state_serves_traffic() {
        assert!(VmState::Running.serves_traffic());
        assert!(VmState::Migrating {
            done_at: SimTime::ZERO,
            to: ServerId(1)
        }
        .serves_traffic());
        assert!(!VmState::Booting {
            ready_at: SimTime::ZERO
        }
        .serves_traffic());
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_place_panics() {
        let mut s = Server::new(ServerId(0), ServerSpec::COMMODITY);
        s.place(vm(1, 1.0, 100)).unwrap();
        s.place(vm(1, 1.0, 100)).unwrap();
    }
}
