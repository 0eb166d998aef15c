//! Declared effect sets of the epoch phases.
//!
//! Every phase of `Platform::step` declares, next to the observability
//! layer (like [`crate::footprint`] does for global-manager actions),
//! which shared state it reads and mutates. The phases run one after
//! another, and pod planning plans every pod against the same state
//! before any plan is applied, so the table documents the epoch's data
//! flow rather than licensing concurrency.
//!
//! The `analyze` crate (Pass 3 of `cargo run -p analyze`) rejects
//! duplicate phase ids and renders the table as the "phase effects
//! matrix" embedded in DESIGN.md; the profiler, the metrics catalog and
//! E19 key their per-phase columns by these ids.

/// A piece of epoch-shared state a phase can read or mutate, at the
/// granularity the phase analysis needs (coarser than
/// [`crate::footprint::Resource`], which models knob-action conflicts
/// *within* the global-knobs phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochResource {
    /// The demand generator (`Platform::workload`).
    Workload,
    /// DNS exposure shares and records (`PlatformState::dns`).
    DnsState,
    /// VIP route advertisements (`PlatformState::routes`).
    RouteTable,
    /// The access network and its links (`PlatformState::access`).
    AccessLinks,
    /// LB switches, including their offered-load registers
    /// (`PlatformState::switches`).
    Switches,
    /// VIP and RIP records (`PlatformState` vip/rip tables).
    VipRipTables,
    /// VM lifecycle state (`PlatformState::fleet`).
    VmFleet,
    /// Server → pod membership.
    PodMembership,
    /// The per-epoch demand scratch vector (`EpochScratch::demands`).
    DemandVec,
    /// The epoch's `LoadSnapshot` being filled.
    Snapshot,
    /// Each pod manager's stored round — the inputs its last solved round
    /// read and the plan they gave (`PodManager`) — and the
    /// `RoundScratch` a round reads its pod into.
    PodRounds,
    /// The serialized VIP/RIP request queue (§III.C), with the last
    /// drain's settled stamp (`Platform::weights_settled`).
    VipRipQueue,
    /// The flight recorder.
    Recorder,
    /// The platform's metrics registry (`Platform::registry`).
    Metrics,
    /// The proactive controller's forecasting state.
    ElasticState,
    /// The per-epoch pending-retire mask (`GlobalManager::pending_retires`).
    PendingRetires,
    /// The immutable platform configuration (read-only everywhere after
    /// build; listed so phase read sets are honest about it).
    Config,
}

/// Every epoch resource, in generated-matrix column order.
pub const ALL_EPOCH_RESOURCES: [EpochResource; 17] = [
    EpochResource::Workload,
    EpochResource::DnsState,
    EpochResource::RouteTable,
    EpochResource::AccessLinks,
    EpochResource::Switches,
    EpochResource::VipRipTables,
    EpochResource::VmFleet,
    EpochResource::PodMembership,
    EpochResource::DemandVec,
    EpochResource::Snapshot,
    EpochResource::PodRounds,
    EpochResource::VipRipQueue,
    EpochResource::Recorder,
    EpochResource::Metrics,
    EpochResource::ElasticState,
    EpochResource::PendingRetires,
    EpochResource::Config,
];

impl EpochResource {
    /// Stable display name (used in the generated phase effects matrix).
    pub fn name(self) -> &'static str {
        match self {
            EpochResource::Workload => "workload",
            EpochResource::DnsState => "DNS",
            EpochResource::RouteTable => "routes",
            EpochResource::AccessLinks => "links",
            EpochResource::Switches => "switches",
            EpochResource::VipRipTables => "VIP/RIP",
            EpochResource::VmFleet => "fleet",
            EpochResource::PodMembership => "pods",
            EpochResource::DemandVec => "demand",
            EpochResource::Snapshot => "snapshot",
            EpochResource::PodRounds => "rounds",
            EpochResource::VipRipQueue => "queue",
            EpochResource::Recorder => "recorder",
            EpochResource::Metrics => "metrics",
            EpochResource::ElasticState => "elastic",
            EpochResource::PendingRetires => "retires",
            EpochResource::Config => "config",
        }
    }
}

/// The declared effect set of one epoch phase, in `Platform::step`
/// execution order.
#[derive(Debug, Clone, Copy)]
pub struct PhaseDecl {
    /// Stable phase id (kebab-case; keys the profiler, the metrics
    /// catalog and the matrix).
    pub id: &'static str,
    /// Resources read during the phase.
    pub reads: &'static [EpochResource],
    /// Resources mutated during the phase.
    pub writes: &'static [EpochResource],
    /// Where the phase lives in the code.
    pub where_: &'static str,
}

use EpochResource::*;

/// The epoch phases of `Platform::step`, in execution order. The
/// `analyze` phase pass checks the ids are unique and renders the table
/// into DESIGN.md.
pub const EPOCH_PHASES: &[PhaseDecl] = &[
    PhaseDecl {
        id: "demand-fill",
        reads: &[Workload],
        writes: &[DemandVec],
        where_: "Platform::step (workload sweep)",
    },
    PhaseDecl {
        id: "demand-route",
        reads: &[
            DemandVec,
            DnsState,
            RouteTable,
            AccessLinks,
            VipRipTables,
            Config,
        ],
        writes: &[Snapshot],
        where_: "demand::propagate_into (stages 1+2)",
    },
    PhaseDecl {
        id: "demand-switch-reset",
        reads: &[Snapshot, VipRipTables],
        writes: &[Switches, Snapshot],
        where_: "demand::propagate_into (stage 3)",
    },
    PhaseDecl {
        id: "demand-serve",
        reads: &[Snapshot, Switches, VipRipTables, VmFleet, Config],
        writes: &[Snapshot],
        where_: "demand::propagate_into (stage 4)",
    },
    PhaseDecl {
        id: "pod-planning",
        reads: &[
            Snapshot,
            VmFleet,
            PodMembership,
            VipRipTables,
            PodRounds,
            Config,
        ],
        writes: &[PodRounds],
        where_: "Platform::step -> PodManager::replan",
    },
    PhaseDecl {
        id: "plan-application",
        reads: &[PodRounds, VmFleet, Config],
        writes: &[VmFleet, PendingRetires, VipRipQueue, Recorder, Metrics],
        where_: "Platform::apply_pod_plan (serial, pod-index order)",
    },
    PhaseDecl {
        id: "proactive-pass",
        reads: &[Snapshot, VmFleet, PodMembership, ElasticState, Config],
        writes: &[
            ElasticState,
            VmFleet,
            PendingRetires,
            VipRipQueue,
            Recorder,
            Metrics,
        ],
        where_: "Platform::proactive_phase",
    },
    PhaseDecl {
        id: "global-knobs",
        reads: &[Snapshot, PendingRetires, Config],
        writes: &[
            DnsState,
            RouteTable,
            Switches,
            VipRipTables,
            PodMembership,
            VmFleet,
            PendingRetires,
            VipRipQueue,
            Recorder,
        ],
        where_: "GlobalManager::epoch_knobs (serial)",
    },
    PhaseDecl {
        id: "queue-drain",
        // `PodRounds`: whether any pod round solved this epoch, one half
        // of the settled-drain test (`Platform::weights_settled`).
        reads: &[VipRipQueue, PodRounds, PodMembership, VmFleet, Switches],
        writes: &[VipRipQueue, VipRipTables, Switches, VmFleet, Recorder],
        where_: "VipRipManager::process_all (priority-FIFO, §III.C)",
    },
    PhaseDecl {
        id: "rip-bind",
        reads: &[VmFleet, VipRipTables],
        writes: &[VipRipQueue, VipRipTables, Recorder],
        where_: "Platform::bind_missing_rips",
    },
    PhaseDecl {
        id: "epoch-close",
        reads: &[Snapshot, Switches],
        writes: &[Metrics, Recorder],
        where_: "Platform::step (metrics + epoch health event)",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_ids_are_unique_and_ordered_sanely() {
        use std::collections::BTreeSet;
        let ids: BTreeSet<&str> = EPOCH_PHASES.iter().map(|p| p.id).collect();
        assert_eq!(ids.len(), EPOCH_PHASES.len(), "duplicate phase id");
        // The epoch starts by filling demand and ends by closing metrics.
        assert_eq!(EPOCH_PHASES.first().map(|p| p.id), Some("demand-fill"));
        assert_eq!(EPOCH_PHASES.last().map(|p| p.id), Some("epoch-close"));
    }
}
