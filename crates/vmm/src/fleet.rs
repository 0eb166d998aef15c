//! The server fleet: VM placement, lifecycle transitions and the
//! fleet-wide VM registry.

use crate::cost::CostModel;
use crate::server::{PlaceError, Server, ServerId, ServerSpec, Vm, VmId, VmState};
use dcsim::{IdTable, SimTime};
use std::fmt;

/// Errors from fleet-level VM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// No such server.
    UnknownServer(ServerId),
    /// No such VM anywhere in the fleet.
    UnknownVm(VmId),
    /// Placement failed on the target server.
    Placement(ServerId, PlaceError),
    /// Operation not valid in the VM's current state (e.g. migrating a
    /// booting VM).
    BadState(VmId),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UnknownServer(s) => write!(f, "unknown {s}"),
            VmError::UnknownVm(v) => write!(f, "unknown {v}"),
            VmError::Placement(s, e) => write!(f, "placement on {s} failed: {e}"),
            VmError::BadState(v) => write!(f, "{v} is in the wrong state"),
        }
    }
}
impl std::error::Error for VmError {}

/// The whole server fleet. Pod membership is *not* stored here — pods are
/// logical groupings owned by the `megadc` managers (§III.B: "logical pods
/// … independent of server location"); the fleet only knows physics.
#[derive(Debug, Clone)]
pub struct Fleet {
    servers: Vec<Server>,
    /// VM → hosting server. For a migrating VM: the *source* (it serves
    /// there until the migration completes). VM ids are issued in slot
    /// order and never reused, so the table's bound is the next id.
    locations: IdTable<VmId, ServerId>,
    cost: CostModel,
}

impl Fleet {
    /// Create an empty fleet with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        cost.validate();
        Fleet {
            servers: Vec::new(),
            locations: IdTable::new(),
            cost,
        }
    }

    /// Create a fleet of `n` identical servers.
    pub fn homogeneous(n: usize, spec: ServerSpec, cost: CostModel) -> Self {
        let mut f = Fleet::new(cost);
        for _ in 0..n {
            f.add_server(spec);
        }
        f
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Add a server, returning its id.
    pub fn add_server(&mut self, spec: ServerSpec) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        self.servers.push(Server::new(id, spec));
        id
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// One server.
    pub fn server(&self, id: ServerId) -> Result<&Server, VmError> {
        self.servers
            .get(id.0 as usize)
            .ok_or(VmError::UnknownServer(id))
    }

    fn server_mut(&mut self, id: ServerId) -> Result<&mut Server, VmError> {
        self.servers
            .get_mut(id.0 as usize)
            .ok_or(VmError::UnknownServer(id))
    }

    /// Where a VM currently lives.
    pub fn locate(&self, vm: VmId) -> Result<ServerId, VmError> {
        self.locations
            .get(vm)
            .copied()
            .ok_or(VmError::UnknownVm(vm))
    }

    /// A VM together with the server it lives on.
    pub fn locate_vm(&self, id: VmId) -> Result<(ServerId, &Vm), VmError> {
        let srv = self.locate(id)?;
        let vm = self.server(srv)?.vm(id).ok_or(VmError::UnknownVm(id))?;
        Ok((srv, vm))
    }

    /// Look up a VM.
    pub fn vm(&self, id: VmId) -> Result<&Vm, VmError> {
        Ok(self.locate_vm(id)?.1)
    }

    /// Total VMs in the fleet.
    pub fn num_vms(&self) -> usize {
        self.locations.len()
    }

    /// One past the largest VM id ever issued: a vector of this length
    /// has a slot for every VM, live or destroyed.
    pub fn vm_id_bound(&self) -> usize {
        self.locations.bound()
    }

    /// Boot a brand-new VM on `server`. Returns the VM id; it becomes
    /// `Running` at `now + boot` (advance with
    /// [`Fleet::complete_transitions`]).
    pub fn create_vm(
        &mut self,
        server: ServerId,
        app: u32,
        cpu_slice: f64,
        mem_mb: u64,
        now: SimTime,
    ) -> Result<VmId, VmError> {
        let ready_at = now + self.cost.boot;
        self.spawn(
            server,
            app,
            cpu_slice,
            mem_mb,
            VmState::Booting { ready_at },
        )
    }

    /// Create a VM that is already `Running` — used when bootstrapping a
    /// platform whose initial instances are assumed in steady state.
    pub fn create_vm_running(
        &mut self,
        server: ServerId,
        app: u32,
        cpu_slice: f64,
        mem_mb: u64,
    ) -> Result<VmId, VmError> {
        self.spawn(server, app, cpu_slice, mem_mb, VmState::Running)
    }

    /// Fast-clone an existing `Running` VM of the same app onto `server`
    /// (SnowFlock-style). The clone inherits the source's slices and is
    /// ready after the (short) clone latency.
    pub fn clone_vm(&mut self, src: VmId, server: ServerId, now: SimTime) -> Result<VmId, VmError> {
        let src_vm = self.vm(src)?;
        if !matches!(src_vm.state, VmState::Running) {
            return Err(VmError::BadState(src));
        }
        let (app, cpu, mem) = (src_vm.app, src_vm.cpu_slice, src_vm.mem_mb);
        let ready_at = now + self.cost.clone;
        self.spawn(server, app, cpu, mem, VmState::Booting { ready_at })
    }

    fn spawn(
        &mut self,
        server: ServerId,
        app: u32,
        cpu_slice: f64,
        mem_mb: u64,
        state: VmState,
    ) -> Result<VmId, VmError> {
        let id = VmId(self.locations.bound() as u32);
        let vm = Vm {
            id,
            app,
            cpu_slice,
            mem_mb,
            state,
        };
        self.server_mut(server)?
            .place(vm)
            .map_err(|e| VmError::Placement(server, e))?;
        self.locations.insert(id, server);
        Ok(id)
    }

    /// Destroy a VM, freeing its slices immediately.
    pub fn destroy_vm(&mut self, id: VmId) -> Result<Vm, VmError> {
        let srv = self.locate(id)?;
        let vm = self
            .server_mut(srv)?
            .evict(id)
            .map_err(|_| VmError::UnknownVm(id))?;
        if let VmState::Migrating { to, .. } = vm.state {
            // Abort the in-flight migration: release the destination
            // reservation.
            let (cpu, mem) = (vm.cpu_slice, vm.mem_mb);
            if let Ok(dst) = self.server_mut(to) {
                dst.release_inbound(cpu, mem);
            }
        }
        self.locations.remove(id);
        Ok(vm)
    }

    /// Start a live migration of `id` to `dst`. Capacity is reserved on
    /// the destination immediately; the VM keeps serving on the source
    /// until `now + migration_time(mem)`, then switches hosts. Returns the
    /// completion time.
    pub fn migrate_vm(
        &mut self,
        id: VmId,
        dst: ServerId,
        now: SimTime,
    ) -> Result<SimTime, VmError> {
        let src = self.locate(id)?;
        if src == dst {
            return Err(VmError::BadState(id));
        }
        let vm = self.vm(id)?;
        if !matches!(vm.state, VmState::Running) {
            return Err(VmError::BadState(id));
        }
        let (cpu, mem) = (vm.cpu_slice, vm.mem_mb);
        self.server_mut(dst)?
            .reserve_inbound(cpu, mem)
            .map_err(|e| VmError::Placement(dst, e))?;
        let done_at = now + self.cost.migration_time(mem);
        let state = self
            .server_mut(src)
            .expect("source exists")
            .vm_state_mut(id)
            .expect("vm located on source");
        *state = VmState::Migrating { done_at, to: dst };
        Ok(done_at)
    }

    /// Hot-adjust a VM's CPU slice (§IV.E). Takes effect after the cost
    /// model's `slice_adjust` latency, which the caller accounts for; the
    /// slice change itself is applied immediately here.
    pub fn adjust_slice(&mut self, id: VmId, new_cpu: f64) -> Result<(), VmError> {
        let srv = self.locate(id)?;
        self.server_mut(srv)?
            .adjust_slice(id, new_cpu)
            .map_err(|e| VmError::Placement(srv, e))
    }

    /// Complete every transition due by `now`: booting VMs become
    /// `Running`; finished migrations move the VM to its destination.
    /// Returns the ids of VMs whose state changed.
    pub fn complete_transitions(&mut self, now: SimTime) -> Vec<VmId> {
        let Fleet {
            servers, locations, ..
        } = self;
        let mut changed = Vec::new();
        for (id, srv) in locations.iter_mut() {
            let host = &mut servers[srv.0 as usize];
            let state = host.vm_state_mut(id).expect("registry consistent");
            match *state {
                VmState::Booting { ready_at } if ready_at <= now => {
                    *state = VmState::Running;
                    changed.push(id);
                }
                VmState::Migrating { done_at, to } if done_at <= now => {
                    let mut vm = host.evict(id).expect("resident");
                    let (cpu, mem) = (vm.cpu_slice, vm.mem_mb);
                    vm.state = VmState::Running;
                    let dst = &mut servers[to.0 as usize];
                    dst.release_inbound(cpu, mem);
                    dst.place(vm).expect("reservation guaranteed capacity");
                    *srv = to;
                    changed.push(id);
                }
                _ => {}
            }
        }
        changed
    }

    /// Ids of all VMs of an application, in id order.
    pub fn vms_of_app(&self, app: u32) -> Vec<VmId> {
        self.locations
            .iter()
            .filter(|&(id, &srv)| {
                self.servers[srv.0 as usize]
                    .vm(id)
                    .is_some_and(|v| v.app == app)
            })
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimDuration;

    fn fleet(n: usize) -> Fleet {
        Fleet::homogeneous(
            n,
            ServerSpec {
                cpu: 4.0,
                mem_mb: 8192,
                nic_bps: 1e9,
            },
            CostModel::DEFAULT,
        )
    }

    #[test]
    fn boot_then_run() {
        let mut f = fleet(1);
        let t0 = SimTime::ZERO;
        let vm = f.create_vm(ServerId(0), 7, 1.0, 1024, t0).unwrap();
        assert!(matches!(f.vm(vm).unwrap().state, VmState::Booting { .. }));
        // Not ready yet.
        assert!(f.complete_transitions(SimTime::from_secs(60)).is_empty());
        // Ready after the boot latency.
        let changed = f.complete_transitions(SimTime::from_secs(120));
        assert_eq!(changed, vec![vm]);
        assert_eq!(f.vm(vm).unwrap().state, VmState::Running);
    }

    #[test]
    fn clone_is_fast_and_inherits() {
        let mut f = fleet(2);
        let vm = f
            .create_vm(ServerId(0), 7, 1.5, 2048, SimTime::ZERO)
            .unwrap();
        f.complete_transitions(SimTime::from_secs(120));
        let t = SimTime::from_secs(200);
        let c = f.clone_vm(vm, ServerId(1), t).unwrap();
        let cv = f.vm(c).unwrap();
        assert_eq!(cv.app, 7);
        assert!((cv.cpu_slice - 1.5).abs() < 1e-12);
        assert_eq!(cv.mem_mb, 2048);
        assert_eq!(
            cv.state,
            VmState::Booting {
                ready_at: t + SimDuration::from_secs(1)
            }
        );
    }

    #[test]
    fn cannot_clone_booting_vm() {
        let mut f = fleet(2);
        let vm = f
            .create_vm(ServerId(0), 7, 1.0, 1024, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            f.clone_vm(vm, ServerId(1), SimTime::ZERO),
            Err(VmError::BadState(vm))
        );
    }

    #[test]
    fn migration_moves_vm_and_respects_reservation() {
        let mut f = fleet(2);
        let vm = f
            .create_vm(ServerId(0), 7, 3.0, 4096, SimTime::ZERO)
            .unwrap();
        f.complete_transitions(SimTime::from_secs(120));
        let t = SimTime::from_secs(200);
        let done = f.migrate_vm(vm, ServerId(1), t).unwrap();
        assert!(done > t);
        // Still served from the source during pre-copy.
        assert_eq!(f.locate(vm).unwrap(), ServerId(0));
        assert!(f.vm(vm).unwrap().state.serves_traffic());
        // Destination capacity is reserved: a 2-cpu VM no longer fits
        // (4.0 total − 3.0 reserved = 1.0 free).
        assert!(matches!(
            f.create_vm(ServerId(1), 8, 2.0, 1024, t),
            Err(VmError::Placement(_, _))
        ));
        // Completion moves it.
        f.complete_transitions(done);
        assert_eq!(f.locate(vm).unwrap(), ServerId(1));
        assert_eq!(f.vm(vm).unwrap().state, VmState::Running);
        // Source is now vacant.
        assert!(f.server(ServerId(0)).unwrap().is_vacant());
    }

    #[test]
    fn migration_to_full_destination_fails_cleanly() {
        let mut f = fleet(2);
        let big = f
            .create_vm(ServerId(1), 9, 4.0, 1024, SimTime::ZERO)
            .unwrap();
        let vm = f
            .create_vm(ServerId(0), 7, 1.0, 1024, SimTime::ZERO)
            .unwrap();
        f.complete_transitions(SimTime::from_secs(120));
        let err = f
            .migrate_vm(vm, ServerId(1), SimTime::from_secs(121))
            .unwrap_err();
        assert!(matches!(err, VmError::Placement(ServerId(1), _)));
        // Source unchanged and still consistent.
        assert_eq!(f.locate(vm).unwrap(), ServerId(0));
        assert_eq!(f.vm(vm).unwrap().state, VmState::Running);
        let _ = big;
    }

    #[test]
    fn destroy_aborts_migration() {
        let mut f = fleet(2);
        let vm = f
            .create_vm(ServerId(0), 7, 3.0, 4096, SimTime::ZERO)
            .unwrap();
        f.complete_transitions(SimTime::from_secs(120));
        f.migrate_vm(vm, ServerId(1), SimTime::from_secs(130))
            .unwrap();
        f.destroy_vm(vm).unwrap();
        // Destination reservation released: full-size VM fits again.
        assert!(f
            .create_vm(ServerId(1), 8, 4.0, 1024, SimTime::from_secs(131))
            .is_ok());
        assert_eq!(f.num_vms(), 1);
    }

    #[test]
    fn self_migration_rejected() {
        let mut f = fleet(1);
        let vm = f
            .create_vm(ServerId(0), 7, 1.0, 1024, SimTime::ZERO)
            .unwrap();
        f.complete_transitions(SimTime::from_secs(120));
        assert_eq!(
            f.migrate_vm(vm, ServerId(0), SimTime::from_secs(121)),
            Err(VmError::BadState(vm))
        );
    }

    #[test]
    fn vms_of_app_filters() {
        let mut f = fleet(2);
        let a = f
            .create_vm(ServerId(0), 1, 1.0, 512, SimTime::ZERO)
            .unwrap();
        let _b = f
            .create_vm(ServerId(0), 2, 1.0, 512, SimTime::ZERO)
            .unwrap();
        let c = f
            .create_vm(ServerId(1), 1, 1.0, 512, SimTime::ZERO)
            .unwrap();
        let mut of1 = f.vms_of_app(1);
        of1.sort();
        assert_eq!(of1, vec![a, c]);
    }

    #[test]
    fn vm_ids_are_never_reused() {
        let mut f = fleet(1);
        let a = f
            .create_vm(ServerId(0), 1, 1.0, 512, SimTime::ZERO)
            .unwrap();
        let b = f
            .create_vm(ServerId(0), 1, 1.0, 512, SimTime::ZERO)
            .unwrap();
        f.destroy_vm(b).unwrap();
        // A failed placement issues no id.
        assert!(f
            .create_vm(ServerId(0), 1, 99.0, 512, SimTime::ZERO)
            .is_err());
        let c = f
            .create_vm(ServerId(0), 1, 1.0, 512, SimTime::ZERO)
            .unwrap();
        assert_eq!((a, b, c), (VmId(0), VmId(1), VmId(2)));
        assert_eq!(f.vm_id_bound(), 3);
        assert_eq!(f.num_vms(), 2);
        assert_eq!(f.locate(b), Err(VmError::UnknownVm(b)));
        let far = VmId(f.vm_id_bound() as u32 + 1000);
        assert_eq!(f.locate(far), Err(VmError::UnknownVm(far)));
        assert_eq!(f.locate_vm(far), Err(VmError::UnknownVm(far)));
        assert_eq!(f.destroy_vm(far), Err(VmError::UnknownVm(far)));
        assert_eq!(
            f.locate(VmId(u32::MAX)),
            Err(VmError::UnknownVm(VmId(u32::MAX)))
        );
    }

    #[test]
    fn adjust_slice_via_fleet() {
        let mut f = fleet(1);
        let vm = f
            .create_vm(ServerId(0), 1, 1.0, 512, SimTime::ZERO)
            .unwrap();
        f.adjust_slice(vm, 2.5).unwrap();
        assert!((f.vm(vm).unwrap().cpu_slice - 2.5).abs() < 1e-12);
        assert!(f.adjust_slice(vm, 10.0).is_err());
    }
}
