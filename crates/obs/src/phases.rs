//! Declared effect sets of the epoch phases and parallel regions.
//!
//! PR 7's parallel epoch engine is proven safe *dynamically* (CI
//! byte-diffs event logs at 1/4/8 worker threads). This module is the
//! static half of that argument: every phase of `Platform::step`
//! declares, next to the observability layer (like [`crate::footprint`]
//! does for global-manager actions), which shared state it reads and
//! mutates — and every closure that enters `megadc::parallel::EpochPool`
//! declares its captures and how its per-thread results are merged.
//!
//! The `analyze` crate (Pass 3 of `cargo run -p analyze`) consumes these
//! declarations and
//!
//! * validates the phase table itself: a phase marked parallel may only
//!   write through thread-local state or a declared reduction, and an
//!   order-sensitive (non-commutative) reduction must name its fixed
//!   merge order — float accumulation merged "whenever workers finish"
//!   is exactly the nondeterminism the engine exists to prevent;
//! * scans `crates/core` for the parallel-region call sites
//!   (`map_into`), matches each against a [`RegionDecl`] here by the
//!   `REGION_*` token, and fails `--deny` on
//!   any write inside a region closure whose target is not a
//!   closure-local or a declared thread-local — plus any interior
//!   mutability, event emission, or environment access, which no
//!   declaration can vet;
//! * generates the "parallel safety matrix" embedded in DESIGN.md.
//!
//! Rust's borrow checker already guarantees these closures are data-race
//! free (the workspace forbids `unsafe`); what it cannot see is
//! *determinism* — an order-sensitive merge, a `Mutex`-hidden
//! accumulator, or a recorder write from a worker thread would compile
//! fine and still break the bit-identical contract. That is the gap this
//! table closes.

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
    /// The pod-plan vector the epoch pool reduces into.
    PlanVec,
    /// The serialized VIP/RIP request queue (§III.C).
    VipRipQueue,
    /// The flight recorder (event emission is serial-only by contract).
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
    EpochResource::PlanVec,
    EpochResource::VipRipQueue,
    EpochResource::Recorder,
    EpochResource::Metrics,
    EpochResource::ElasticState,
    EpochResource::PendingRetires,
    EpochResource::Config,
];

impl EpochResource {
    /// Stable display name (used in the generated parallel safety matrix).
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
            EpochResource::PlanVec => "plans",
            EpochResource::VipRipQueue => "queue",
            EpochResource::Recorder => "recorder",
            EpochResource::Metrics => "metrics",
            EpochResource::ElasticState => "elastic",
            EpochResource::PendingRetires => "retires",
            EpochResource::Config => "config",
        }
    }
}

/// A declared merge of per-thread partial results into shared state.
///
/// The reduce declaration is what licenses a *write* inside a parallel
/// phase: workers produce thread-local partials and the serial caller
/// folds them. A non-commutative merge (float accumulation, ordered
/// appends) MUST name its fixed order — that is the `EpochOrder`-style
/// guard the commutativity check enforces.
#[derive(Debug, Clone, Copy)]
pub struct ReduceDecl {
    /// The resource the partials are folded into.
    pub resource: EpochResource,
    /// The fixed merge order, when the merge is order-sensitive.
    /// `None` is only legal for a commutative merge.
    pub order: Option<&'static str>,
    /// Whether the merge is order-insensitive (true commutativity at the
    /// bit level — integer sums, set unions of disjoint keys). Float
    /// accumulation is NOT commutative.
    pub commutative: bool,
}

/// The declared effect set of one epoch phase, in `Platform::step`
/// execution order.
#[derive(Debug, Clone, Copy)]
pub struct PhaseDecl {
    /// Stable phase id (kebab-case; used in region decls and the matrix).
    pub id: &'static str,
    /// Whether the phase runs closures on `EpochPool` worker threads.
    pub parallel: bool,
    /// Resources read during the phase.
    pub reads: &'static [EpochResource],
    /// Resources mutated directly. Only legal for serial phases — a
    /// parallel phase mutates shared state exclusively through
    /// [`PhaseDecl::reduces`].
    pub writes: &'static [EpochResource],
    /// Ordered reductions of per-thread partials (parallel phases only).
    pub reduces: &'static [ReduceDecl],
    /// Where the phase lives, for the generated matrix.
    pub where_: &'static str,
}

use EpochResource::*;

/// The epoch phases of `Platform::step`, in execution order. The
/// `analyze` phase checker validates this table (parallel phases may not
/// write directly; non-commutative reductions must declare an order) and
/// renders it into DESIGN.md.
pub const EPOCH_PHASES: &[PhaseDecl] = &[
    PhaseDecl {
        id: "demand-fill",
        parallel: false,
        reads: &[Workload],
        writes: &[DemandVec],
        reduces: &[],
        where_: "Platform::step (workload sweep)",
    },
    PhaseDecl {
        id: "demand-route",
        parallel: false,
        reads: &[
            DemandVec,
            DnsState,
            RouteTable,
            AccessLinks,
            VipRipTables,
            Config,
        ],
        writes: &[Snapshot],
        reduces: &[],
        where_: "demand::propagate_into (stages 1+2)",
    },
    PhaseDecl {
        id: "demand-switch-reset",
        parallel: false,
        reads: &[Snapshot, VipRipTables],
        writes: &[Switches, Snapshot],
        reduces: &[],
        where_: "demand::propagate_into (stage 3)",
    },
    PhaseDecl {
        id: "demand-serve",
        parallel: false,
        reads: &[Snapshot, Switches, VipRipTables, VmFleet, Config],
        writes: &[Snapshot],
        reduces: &[],
        where_: "demand::propagate_into (stage 4)",
    },
    PhaseDecl {
        id: "pod-planning",
        parallel: true,
        reads: &[
            Snapshot,
            VmFleet,
            PodMembership,
            VipRipTables,
            Switches,
            Config,
        ],
        writes: &[],
        reduces: &[ReduceDecl {
            resource: PlanVec,
            order: Some("pod-index order (contiguous chunks joined in spawn order)"),
            commutative: false,
        }],
        where_: "Platform::step -> PodManager::plan",
    },
    PhaseDecl {
        id: "plan-application",
        parallel: false,
        reads: &[PlanVec, VmFleet, Config],
        writes: &[VmFleet, PendingRetires, VipRipQueue, Recorder, Metrics],
        reduces: &[],
        where_: "Platform::apply_pod_plan (serial, pod-index order)",
    },
    PhaseDecl {
        id: "proactive-pass",
        parallel: false,
        reads: &[Snapshot, VmFleet, PodMembership, ElasticState, Config],
        writes: &[
            ElasticState,
            VmFleet,
            PendingRetires,
            VipRipQueue,
            Recorder,
            Metrics,
        ],
        reduces: &[],
        where_: "Platform::proactive_phase",
    },
    PhaseDecl {
        id: "global-knobs",
        parallel: false,
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
        reduces: &[],
        where_: "GlobalManager::epoch (knobs, serial)",
    },
    PhaseDecl {
        id: "queue-drain",
        parallel: false,
        reads: &[VipRipQueue],
        writes: &[VipRipQueue, VipRipTables, Switches, VmFleet, Recorder],
        reduces: &[],
        where_: "VipRipManager::process_all (priority-FIFO, §III.C)",
    },
    PhaseDecl {
        id: "rip-bind",
        parallel: false,
        reads: &[VmFleet, VipRipTables],
        writes: &[VipRipQueue, VipRipTables, Recorder],
        reduces: &[],
        where_: "Platform::bind_missing_rips",
    },
    PhaseDecl {
        id: "epoch-close",
        parallel: false,
        reads: &[Snapshot, Switches],
        writes: &[Metrics, Recorder],
        reduces: &[],
        where_: "Platform::step (metrics + epoch health event)",
    },
];

/// The per-pod planning region: one `PodManager::plan` per item, pure
/// reads of the state/snapshot pair, plans joined in pod-index order.
pub const REGION_POD_PLANNING: &str = "pod-planning";

/// One closure that enters the `EpochPool`: which phase it belongs to,
/// where it lives, and what it captures.
///
/// `shared_reads` are the identifiers the closure captures immutably
/// (the borrow checker enforces `Sync`; the declaration makes the set
/// reviewable and lets the lint flag stale entries). `thread_local`
/// names captures each worker may mutate because every task owns a
/// disjoint slot — the region lint rejects any other mutation target
/// that is not a closure-local.
#[derive(Debug, Clone, Copy)]
pub struct RegionDecl {
    /// The region id — the *value* of the `REGION_*` const.
    pub id: &'static str,
    /// The `REGION_*` const name, the token the lint matches at the
    /// `map_into` call site (string literals are stripped before
    /// scanning, so the const path is the anchor).
    pub konst: &'static str,
    /// The phase (by [`PhaseDecl::id`]) the region implements. Must be a
    /// declared parallel phase.
    pub phase: &'static str,
    /// Where the closure lives, relative to the workspace root.
    pub file: &'static str,
    /// Identifiers captured for shared, immutable reading.
    pub shared_reads: &'static [&'static str],
    /// Identifiers a worker may mutate (disjoint per-task slots).
    pub thread_local: &'static [&'static str],
}

/// Every closure that enters the `EpochPool`, one entry per `map_into`
/// call site in `crates/core`. A call site without an entry here — or an
/// entry without a call site — fails `cargo run -p analyze -- --deny`.
pub const REGIONS: &[RegionDecl] = &[RegionDecl {
    id: REGION_POD_PLANNING,
    konst: "REGION_POD_PLANNING",
    phase: "pod-planning",
    file: "crates/core/src/platform.rs",
    shared_reads: &["state_ref", "snap_ref"],
    thread_local: &[],
}];

/// Look up a phase declaration by id.
pub fn phase(id: &str) -> Option<&'static PhaseDecl> {
    EPOCH_PHASES.iter().find(|p| p.id == id)
}

/// Whether `id` names a declared parallel region (the `EpochPool`
/// debug-asserts this on every `map_into`, so an undeclared region
/// fails fast in tests even before the static lint sees it).
pub fn region_declared(id: &str) -> bool {
    REGIONS.iter().any(|r| r.id == id)
}

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

    #[test]
    fn every_region_names_a_declared_parallel_phase() {
        for r in REGIONS {
            let p = phase(r.phase).unwrap_or_else(|| panic!("{}: unknown phase {}", r.id, r.phase));
            assert!(p.parallel, "{}: phase {} is not parallel", r.id, r.phase);
            assert!(region_declared(r.id));
        }
        assert!(!region_declared("no-such-region"));
    }

    #[test]
    fn parallel_phases_never_write_directly() {
        for p in EPOCH_PHASES {
            if p.parallel {
                assert!(
                    p.writes.is_empty(),
                    "parallel phase {} declares direct writes",
                    p.id
                );
                assert!(
                    !p.reduces.is_empty(),
                    "parallel phase {} declares no reduction — how do results land?",
                    p.id
                );
            } else {
                assert!(
                    p.reduces.is_empty(),
                    "serial phase {} declares a reduction",
                    p.id
                );
            }
        }
    }

    #[test]
    fn non_commutative_reductions_declare_an_order() {
        for p in EPOCH_PHASES {
            for r in p.reduces {
                if !r.commutative {
                    assert!(
                        r.order.is_some(),
                        "phase {} reduces {} order-sensitively without a declared order",
                        p.id,
                        r.resource.name()
                    );
                }
            }
        }
    }
}
