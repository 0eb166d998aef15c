//! Energy-aware consolidation (§VI).
//!
//! "In addition to maximizing utilization, energy is another objective in
//! resource management that has received significant attention … our
//! general architectural framework fully applies to this resource
//! management aspect."
//!
//! This module demonstrates that claim: a consolidation policy that runs
//! *within* a pod manager's remit — pack VM instances onto fewer servers
//! via live migration (best-fit decreasing), then let vacated servers
//! sleep — plus a simple linear power model to quantify the saving. It is
//! the ElasticTree/energy-conservation counterpart of the load-balancing
//! knobs: the same architecture, opposite packing objective, which is why
//! it is an explicit trade-off (E14 measures both sides).

use crate::ids::PodId;
use crate::state::PlatformState;
use dcsim::SimTime;
use vmm::{ServerId, VmId, VmState};

/// Linear server power model: `idle + (peak − idle) × utilization` when
/// awake, `sleep` when vacant and asleep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Idle power, watts.
    pub idle_w: f64,
    /// Fully loaded power, watts.
    pub peak_w: f64,
    /// Sleeping power, watts.
    pub sleep_w: f64,
}

impl PowerModel {
    /// Typical commodity-server numbers of the paper's era.
    pub const COMMODITY: PowerModel = PowerModel {
        idle_w: 150.0,
        peak_w: 250.0,
        sleep_w: 10.0,
    };

    /// Power draw of one awake server at the given CPU utilization.
    pub fn awake_watts(&self, utilization: f64) -> f64 {
        self.idle_w + (self.peak_w - self.idle_w) * utilization.clamp(0.0, 1.0)
    }
}

/// One planned consolidation move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The VM to migrate.
    pub vm: VmId,
    /// Its destination server.
    pub to: ServerId,
}

/// Plan a consolidation pass for one pod: repeatedly try to empty the
/// least-loaded (by committed CPU slices) server by migrating its running
/// VMs into the *fullest* servers that still fit them (best-fit
/// decreasing). A server is only drained if **all** of its VMs fit
/// elsewhere — partial drains save nothing.
///
/// Pure planning: returns the moves; the caller actuates them with
/// [`apply_consolidation`] (which pays migration latency) or feeds them to
/// its own actuator.
pub fn plan_consolidation(state: &PlatformState, pod: PodId) -> Vec<Move> {
    let servers: Vec<ServerId> = state
        .pod_servers(pod)
        .iter()
        .copied()
        .filter(|&s| state.server_healthy(s))
        .collect();
    // Committed CPU per server (slices, not instantaneous load — slices
    // are what the hypervisor must reserve).
    let mut committed: Vec<(ServerId, f64)> = servers
        .iter()
        .map(|&s| (s, state.fleet.server(s).expect("valid").cpu_used()))
        .collect();
    committed.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));

    let mut free_cpu: std::collections::BTreeMap<ServerId, f64> = servers
        .iter()
        .map(|&s| (s, state.fleet.server(s).expect("valid").cpu_free()))
        .collect();
    let mut free_mem: std::collections::BTreeMap<ServerId, u64> = servers
        .iter()
        .map(|&s| (s, state.fleet.server(s).expect("valid").mem_free()))
        .collect();

    let mut moves = Vec::new();
    let mut drained: Vec<ServerId> = Vec::new();
    // Servers already receiving planned inbound moves: they will be awake
    // regardless, so they are preferred targets — and must never be
    // drained themselves (their planned residents are not in `state`).
    let mut receivers: std::collections::BTreeSet<ServerId> = Default::default();
    for &(src, load) in &committed {
        if load == 0.0 {
            continue; // already vacant
        }
        if receivers.contains(&src) {
            continue; // packing host; pinned awake by planned inbound VMs
        }
        let vms: Vec<&vmm::Vm> = state.fleet.server(src).expect("valid").vms().collect();
        // Only running VMs can migrate; a single non-running VM pins the
        // server awake.
        if !vms.iter().all(|vm| matches!(vm.state, VmState::Running)) {
            continue;
        }
        // Tentatively best-fit each VM (largest first) into other servers.
        let mut sorted: Vec<&vmm::Vm> = vms.clone();
        sorted.sort_by(|a, b| b.cpu_slice.partial_cmp(&a.cpu_slice).expect("finite"));
        let mut tentative = Vec::with_capacity(sorted.len());
        let mut trial_cpu = free_cpu.clone();
        let mut trial_mem = free_mem.clone();
        let mut ok = true;
        for vm in sorted {
            // Best fit: the candidate with the least remaining CPU that
            // still fits. Skip the source, drained hosts, and — the point
            // of consolidation — servers that are vacant and not already
            // receiving (waking a sleeping server to fill it saves
            // nothing).
            let target = trial_cpu
                .iter()
                .filter(|&(&s, _)| s != src && !drained.contains(&s))
                .filter(|&(&s, _)| {
                    receivers.contains(&s) || state.fleet.server(s).expect("valid").cpu_used() > 0.0
                })
                .filter(|&(&s, &cpu)| cpu >= vm.cpu_slice && trial_mem[&s] >= vm.mem_mb)
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(&s, _)| s);
            match target {
                Some(t) => {
                    *trial_cpu.get_mut(&t).expect("listed") -= vm.cpu_slice;
                    *trial_mem.get_mut(&t).expect("listed") -= vm.mem_mb;
                    tentative.push(Move { vm: vm.id, to: t });
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            for m in &tentative {
                receivers.insert(m.to);
            }
            moves.extend(tentative);
            drained.push(src);
            free_cpu = trial_cpu;
            free_mem = trial_mem;
        }
    }
    moves
}

/// Actuate a consolidation plan: start the live migrations (capacity is
/// reserved at the destinations immediately; VMs keep serving from the
/// source during pre-copy). Returns the number of migrations started.
pub fn apply_consolidation(state: &mut PlatformState, moves: &[Move], now: SimTime) -> usize {
    let mut started = 0;
    for m in moves {
        if state.fleet.migrate_vm(m.vm, m.to, now).is_ok() {
            started += 1;
        }
    }
    started
}

/// Energy report for a pod: awake/sleepable server counts and power, with
/// and without putting vacant servers to sleep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Servers in the pod (healthy).
    pub servers: usize,
    /// Vacant servers (candidates for sleep).
    pub vacant: usize,
    /// Power with every server awake, watts.
    pub all_awake_watts: f64,
    /// Power with vacant servers asleep, watts.
    pub consolidated_watts: f64,
}

/// Compute the energy report for one pod under a power model, using
/// committed CPU slices as the utilization proxy.
pub fn energy_report(state: &PlatformState, pod: PodId, model: &PowerModel) -> EnergyReport {
    let mut servers = 0;
    let mut vacant = 0;
    let mut awake = 0.0;
    let mut consolidated = 0.0;
    for &s in state.pod_servers(pod) {
        if !state.server_healthy(s) {
            continue;
        }
        servers += 1;
        let srv = state.fleet.server(s).expect("valid");
        let util = srv.cpu_utilization();
        awake += model.awake_watts(util);
        if srv.is_vacant() {
            vacant += 1;
            consolidated += model.sleep_w;
        } else {
            consolidated += model.awake_watts(util);
        }
    }
    EnergyReport {
        servers,
        vacant,
        all_awake_watts: awake,
        consolidated_watts: consolidated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use lbswitch::SwitchId;

    /// 8-server pod with six 1-cpu VMs spread one per server.
    fn spread_state() -> PlatformState {
        let mut cfg = PlatformConfig::small_test();
        cfg.initial_pods = 1;
        cfg.num_servers = 8;
        cfg.pod_max_servers = 16;
        cfg.vm_cpu_slice = 1.0;
        let mut st = PlatformState::new(cfg);
        let app = st.register_app(0);
        for _ in 1..cfg.num_apps {
            st.register_app(1);
        }
        let vip = st.allocate_vip(app, SwitchId(0)).unwrap();
        for s in 0..6u32 {
            st.add_instance_running(app, ServerId(s), vip, 1.0).unwrap();
        }
        st
    }

    #[test]
    fn consolidation_drains_lightly_loaded_servers() {
        let st = spread_state();
        let moves = plan_consolidation(&st, PodId(0));
        assert!(!moves.is_empty());
        // 6 × 1.0-cpu VMs fit on one 8-cpu server: 5 moves drain 5 hosts.
        assert_eq!(moves.len(), 5, "moves {moves:?}");
        // All moves target the same surviving server... or at least all
        // fit; verify by applying.
        let mut st = st;
        let n = apply_consolidation(&mut st, &moves, SimTime::ZERO);
        assert_eq!(n, 5);
        // Complete the migrations and count vacancies.
        st.fleet.complete_transitions(SimTime::from_secs(1_000_000));
        let vacant = st
            .pod_servers(PodId(0))
            .iter()
            .filter(|&&s| st.fleet.server(s).unwrap().is_vacant())
            .count();
        assert_eq!(vacant, 7, "expected 7 of 8 servers vacant");
        st.assert_invariants();
    }

    #[test]
    fn plan_respects_capacity() {
        let mut st = spread_state();
        // Grow every VM so that no single server can hold two of them.
        let vms: Vec<_> = st.fleet.vms_of_app(0);
        for vm in vms {
            st.fleet.adjust_slice(vm, 5.0).unwrap();
        }
        let moves = plan_consolidation(&st, PodId(0));
        assert!(
            moves.is_empty(),
            "5-cpu VMs cannot pack on 8-cpu servers: {moves:?}"
        );
    }

    #[test]
    fn booting_vm_pins_its_server() {
        let mut st = spread_state();
        // A booting VM on server 0 makes it undrainable.
        st.fleet
            .create_vm(ServerId(0), 1, 1.0, st.config.vm_mem_mb, SimTime::ZERO)
            .unwrap();
        let moves = plan_consolidation(&st, PodId(0));
        assert!(moves
            .iter()
            .all(|m| { st.fleet.locate(m.vm).unwrap() != ServerId(0) }));
    }

    #[test]
    fn power_model_arithmetic() {
        let m = PowerModel::COMMODITY;
        assert!((m.awake_watts(0.0) - 150.0).abs() < 1e-9);
        assert!((m.awake_watts(1.0) - 250.0).abs() < 1e-9);
        assert!((m.awake_watts(0.5) - 200.0).abs() < 1e-9);
        assert!((m.awake_watts(7.0) - 250.0).abs() < 1e-9, "clamped");
    }

    #[test]
    fn energy_report_counts_savings() {
        let mut st = spread_state();
        let before = energy_report(&st, PodId(0), &PowerModel::COMMODITY);
        assert_eq!(before.servers, 8);
        assert_eq!(before.vacant, 2);
        let moves = plan_consolidation(&st, PodId(0));
        apply_consolidation(&mut st, &moves, SimTime::ZERO);
        st.fleet.complete_transitions(SimTime::from_secs(1_000_000));
        let after = energy_report(&st, PodId(0), &PowerModel::COMMODITY);
        assert_eq!(after.vacant, 7);
        assert!(after.consolidated_watts < before.consolidated_watts);
    }
}
