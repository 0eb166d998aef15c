//! Declared read/write footprints of the global-manager actions.
//!
//! The paper's safety argument (§III.C) is that the *serialized* VIP/RIP
//! manager mediates all LB-switch reconfiguration so control knobs never
//! race. That argument is only sound if the action footprints are known:
//! PR 2 fixed a real retire × transfer race (`queue_retire` /
//! `pending_retires`) that the serialized queue alone did not prevent,
//! because the retire's *write* to the RIP set was queued while the
//! transfer's *read* of it (`restore_exposure` → `live_rip_count`) was
//! direct.
//!
//! This module makes every action's footprint explicit, next to the
//! observability layer that records them at runtime (the actions
//! themselves live in `megadc::global::GlobalManager` and
//! `megadc::viprip::Request`). The `analyze` crate (Pass 2 of
//! `cargo run -p analyze`) computes the pairwise conflict matrix from
//! these declarations and asserts that every conflicting pair is either
//! ordered by the serialized manager (both sides' accesses to every
//! shared resource go through the VIP/RIP queue) or covered by an
//! explicit [`GuardDecl`] below. A new action, or a footprint change,
//! that introduces an unguarded conflict fails CI until a guard exists
//! in the code *and* is declared here.
//!
//! The same declarations also ground the runtime audit trail: every
//! [`GlobalAction`] emitted as a recorder [`crate::Event`] tags its
//! decision inputs and state deltas with [`Resource::key`]-prefixed
//! keys, and `explain` cross-checks the recorded accesses against the
//! static footprint (see [`crate::explain::footprint_violations`]).

/// A piece of shared control-plane state an action can read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// Per-app DNS answer weights (`PlatformState::dns`, `set_exposure`).
    DnsExposure,
    /// VIP route advertisements at access routers (`advertise_vip`).
    DnsRecords,
    /// Per-RIP load-balancing weights on the switches.
    RipWeights,
    /// The set of bound RIPs (which VMs serve which VIPs).
    RipSet,
    /// VIP → switch assignment (the switch VIP tables).
    SwitchVipTable,
    /// Server → pod membership.
    PodMembership,
    /// VM lifecycle state (clones, slices, destruction).
    VmFleet,
    /// The per-epoch set of VMs queued for retirement
    /// (`GlobalManager::pending_retires`).
    PendingRetires,
}

impl Resource {
    /// Stable display name (used in the generated conflict matrix).
    pub fn name(self) -> &'static str {
        match self {
            Resource::DnsExposure => "DNS exposure",
            Resource::DnsRecords => "DNS records",
            Resource::RipWeights => "RIP weights",
            Resource::RipSet => "RIP set",
            Resource::SwitchVipTable => "switch VIP table",
            Resource::PodMembership => "pod membership",
            Resource::VmFleet => "VM fleet",
            Resource::PendingRetires => "pending-retire set",
        }
    }

    /// Stable machine key. Event `inputs`/`delta` entries touching this
    /// resource use `"<key>.<detail>"` names, which is what lets
    /// `explain` cross-check a recorded event against the declared
    /// footprint.
    pub fn key(self) -> &'static str {
        match self {
            Resource::DnsExposure => "dns_exposure",
            Resource::DnsRecords => "dns_records",
            Resource::RipWeights => "rip_weights",
            Resource::RipSet => "rip_set",
            Resource::SwitchVipTable => "switch_vip_table",
            Resource::PodMembership => "pod_membership",
            Resource::VmFleet => "vm_fleet",
            Resource::PendingRetires => "pending_retires",
        }
    }
}

/// One global-manager action (a knob actuation or lifecycle step), at the
/// granularity the conflict analysis needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GlobalAction {
    /// §IV.F inter-pod RIP weight water-filling (reactive rung 1 and the
    /// proactive `Reweight` actuation, `waterfill_vip`/`waterfill_app`).
    Reweight,
    /// §IV.B dynamic VIP transfer: drain via DNS, move the VIP once
    /// quiescent, restore exposure (`balance_switches`).
    VipTransfer,
    /// Queue a VM's instance for retirement through the serialized queue
    /// (`queue_retire`, `Request::DeleteRip`).
    QueueRetire,
    /// §IV.C vacant-server transfer between pods
    /// (`transfer_vacant_servers`).
    ServerTransfer,
    /// §IV.D dynamic application deployment: clone into a cold pod, bind
    /// the RIP when the clone boots (`deploy_into_cold_pod` +
    /// `complete_deployments`).
    Deployment,
    /// §IV.A/§IV.B selective VIP exposure: capacity-proportional and
    /// link-balancing DNS reconfiguration plus unused-VIP
    /// re-advertisement (`refresh_capacity_exposure`,
    /// `balance_access_links`).
    ExposureRefresh,
    /// The E17 starvation-triggered corrective reweight + exposure
    /// refresh (`escape_misrouting`).
    MisroutingEscape,
    /// §IV.C/D elephant-pod avoidance (`avoid_elephants`).
    ElephantRelief,
}

/// Every action, in the order they appear in the generated matrix.
pub const ALL_ACTIONS: [GlobalAction; 8] = [
    GlobalAction::Reweight,
    GlobalAction::VipTransfer,
    GlobalAction::QueueRetire,
    GlobalAction::ServerTransfer,
    GlobalAction::Deployment,
    GlobalAction::ExposureRefresh,
    GlobalAction::MisroutingEscape,
    GlobalAction::ElephantRelief,
];

/// The declared resource accesses of one action.
///
/// `queued_writes` are mutations submitted to the serialized VIP/RIP
/// queue (`megadc::viprip::VipRipManager::submit`) and applied in
/// (priority, FIFO) order at the end of the epoch; `direct_writes` mutate
/// platform state immediately. The distinction matters: queue-vs-queue
/// conflicts are ordered by the serialized manager, but a *direct* read
/// racing a *queued* write is exactly the retire × transfer bug shape.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    /// Resources read directly during the epoch.
    pub reads: &'static [Resource],
    /// Resources mutated immediately (not via the queue).
    pub direct_writes: &'static [Resource],
    /// Resources mutated via the serialized VIP/RIP queue.
    pub queued_writes: &'static [Resource],
}

impl GlobalAction {
    /// Stable display name (used in the generated conflict matrix and as
    /// the event `kind` string in the flight-recorder log).
    pub fn name(self) -> &'static str {
        match self {
            GlobalAction::Reweight => "Reweight",
            GlobalAction::VipTransfer => "VipTransfer",
            GlobalAction::QueueRetire => "QueueRetire",
            GlobalAction::ServerTransfer => "ServerTransfer",
            GlobalAction::Deployment => "Deployment",
            GlobalAction::ExposureRefresh => "ExposureRefresh",
            GlobalAction::MisroutingEscape => "MisroutingEscape",
            GlobalAction::ElephantRelief => "ElephantRelief",
        }
    }

    /// Inverse of [`GlobalAction::name`], for log readers.
    pub fn parse(name: &str) -> Option<GlobalAction> {
        ALL_ACTIONS.into_iter().find(|a| a.name() == name)
    }

    /// The declared footprint of this action. Kept in sync with
    /// `global.rs` by review; the conflict checker turns any footprint
    /// change that opens an unguarded pair into a CI failure, and the
    /// `explain` cross-check flags recorded events whose inputs or
    /// deltas touch resources outside this declaration.
    pub fn footprint(self) -> Footprint {
        use Resource::*;
        match self {
            // waterfill_vip: reads serving entries (RIP set + switch VIP
            // tables + slices) masked by pending_retires; weight changes
            // go through Request::SetWeight.
            GlobalAction::Reweight => Footprint {
                reads: &[RipSet, SwitchVipTable, VmFleet, PendingRetires],
                direct_writes: &[],
                queued_writes: &[RipWeights],
            },
            // balance_switches: reads DNS shares (quiescence gate) and
            // live RIP counts; writes DNS exposure (drain + restore) and
            // moves the VIP between switches directly.
            GlobalAction::VipTransfer => Footprint {
                reads: &[DnsExposure, RipSet, PendingRetires],
                direct_writes: &[DnsExposure, SwitchVipTable],
                queued_writes: &[],
            },
            // queue_retire: registers the VM in pending_retires
            // immediately; the RIP removal (and VM teardown) is queued.
            GlobalAction::QueueRetire => Footprint {
                reads: &[RipSet, SwitchVipTable, PendingRetires],
                direct_writes: &[PendingRetires],
                queued_writes: &[RipSet, VmFleet],
            },
            GlobalAction::ServerTransfer => Footprint {
                reads: &[PodMembership, VmFleet],
                direct_writes: &[PodMembership],
                queued_writes: &[],
            },
            // deploy_into_cold_pod clones immediately;
            // complete_deployments binds the RIP via Request::NewRip.
            GlobalAction::Deployment => Footprint {
                reads: &[PodMembership, VmFleet],
                direct_writes: &[VmFleet],
                queued_writes: &[RipSet],
            },
            // capacity + link exposure: reads live RIP counts and switch
            // utilizations; writes DNS exposure and (re-advertisement of
            // unused VIPs) DNS records.
            GlobalAction::ExposureRefresh => Footprint {
                reads: &[RipSet, SwitchVipTable, DnsExposure, PendingRetires],
                direct_writes: &[DnsExposure, DnsRecords],
                queued_writes: &[],
            },
            // escape_misrouting: spare-capacity gate reads slices, and the
            // exposure refresh reads the published VIP count it replaces;
            // the corrective reweight is queued, the exposure refresh direct.
            GlobalAction::MisroutingEscape => Footprint {
                reads: &[RipSet, SwitchVipTable, VmFleet, PendingRetires, DnsExposure],
                direct_writes: &[DnsExposure],
                queued_writes: &[RipWeights],
            },
            GlobalAction::ElephantRelief => Footprint {
                reads: &[PodMembership, VmFleet],
                direct_writes: &[PodMembership],
                queued_writes: &[],
            },
        }
    }
}

/// How a conflicting action pair is prevented from racing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// Both sides' accesses to every shared resource go through the
    /// serialized VIP/RIP queue, which applies them in (priority, FIFO)
    /// order and resolves addresses at apply time (§III.C).
    SerializedQueue,
    /// The actions run in a fixed serial order inside
    /// `GlobalManager::epoch_knobs` (single-threaded; the later action sees the
    /// earlier one's writes, by design).
    EpochOrder,
    /// The pending-retires mask: `live_rip_count` /
    /// `vip_serving_entries`-based decisions exclude RIPs whose VMs are
    /// queued for retirement this epoch (the PR 2 fix).
    PendingRetireMask,
    /// Drain priority: exposure-touching knobs skip apps with a VIP
    /// mid-drain (`app_is_draining`), so the drain owns the app's DNS
    /// weights until it completes or aborts (§V.B conflict resolution).
    DrainPriority,
}

impl GuardKind {
    /// Stable display name (used in the generated conflict matrix).
    pub fn name(self) -> &'static str {
        match self {
            GuardKind::SerializedQueue => "serialized queue",
            GuardKind::EpochOrder => "epoch order",
            GuardKind::PendingRetireMask => "pending-retire mask",
            GuardKind::DrainPriority => "drain priority",
        }
    }
}

/// A declared guard for one unordered action pair.
#[derive(Debug, Clone, Copy)]
pub struct GuardDecl {
    /// One side of the pair (order does not matter).
    pub a: GlobalAction,
    /// The other side.
    pub b: GlobalAction,
    /// The mechanism that prevents the race.
    pub kind: GuardKind,
    /// Where the guard lives in the code, for the generated matrix.
    pub why: &'static str,
}

const fn guard(a: GlobalAction, b: GlobalAction, kind: GuardKind, why: &'static str) -> GuardDecl {
    GuardDecl { a, b, kind, why }
}

/// Every explicitly guarded conflicting pair. Pairs whose only shared
/// resources are queue-written on both sides need no entry (the checker
/// derives `SerializedQueue` for them); everything else must appear here
/// or `cargo run -p analyze -- --deny` fails.
pub const GUARDS: &[GuardDecl] = &[
    // ---- retire × * : the pending-retires mask (PR 2) -----------------
    guard(
        GlobalAction::QueueRetire,
        GlobalAction::VipTransfer,
        GuardKind::PendingRetireMask,
        "restore_exposure uses live_rip_count, which excludes RIPs queued \
         for retirement, so a completed drain never re-exposes a VIP \
         whose only RIPs are about to be deleted",
    ),
    guard(
        GlobalAction::QueueRetire,
        GlobalAction::ExposureRefresh,
        GuardKind::PendingRetireMask,
        "capacity_weight counts only live (non-pending) RIPs, so exposure \
         never routes demand onto a RIP queued for deletion",
    ),
    guard(
        GlobalAction::QueueRetire,
        GlobalAction::Reweight,
        GuardKind::PendingRetireMask,
        "waterfill_vip filters serving entries through pending_retires \
         before computing targets; weight writes for surviving RIPs are \
         then ordered by the serialized queue",
    ),
    guard(
        GlobalAction::QueueRetire,
        GlobalAction::MisroutingEscape,
        GuardKind::PendingRetireMask,
        "the escape's spare-capacity gate and water-fill both exclude \
         pending retires, and queue_retire refuses a VIP's last live RIP",
    ),
    guard(
        GlobalAction::QueueRetire,
        GlobalAction::Deployment,
        GuardKind::SerializedQueue,
        "DeleteRip (Low) and NewRip (Normal) are applied by the VIP/RIP \
         queue in priority-FIFO order and address disjoint VMs",
    ),
    // ---- drain priority: the VIP transfer owns the app's exposure -----
    guard(
        GlobalAction::VipTransfer,
        GlobalAction::ExposureRefresh,
        GuardKind::DrainPriority,
        "refresh_capacity_exposure and balance_access_links skip apps \
         with app_is_draining, so the drain's zero-weight exposure is \
         never overwritten mid-drain",
    ),
    guard(
        GlobalAction::VipTransfer,
        GlobalAction::MisroutingEscape,
        GuardKind::DrainPriority,
        "escape_misrouting skips apps with app_is_draining; a draining \
         VIP is deliberately starved and must stay that way",
    ),
    guard(
        GlobalAction::VipTransfer,
        GlobalAction::Reweight,
        GuardKind::SerializedQueue,
        "SetWeight resolves the RIP's switch at apply time through the \
         VM -> RIP -> VIP lookup, so a VIP moved earlier in the epoch is \
         reweighted on its new switch",
    ),
    // ---- exposure × escape: fixed order inside the epoch --------------
    guard(
        GlobalAction::ExposureRefresh,
        GlobalAction::MisroutingEscape,
        GuardKind::EpochOrder,
        "both run single-threaded in GlobalManager::epoch_knobs with the escape \
         last; both compute the same capacity-proportional law, so the \
         later write is a refresh, not a fight",
    ),
    // ---- pod-membership writers: fixed order inside the epoch ---------
    guard(
        GlobalAction::ServerTransfer,
        GlobalAction::ElephantRelief,
        GuardKind::EpochOrder,
        "balance_pods (rung 3) runs before avoid_elephants in the same \
         serial epoch; elephant relief sees the post-transfer membership",
    ),
    guard(
        GlobalAction::ServerTransfer,
        GlobalAction::Deployment,
        GuardKind::EpochOrder,
        "rung 2 (deploy) and rung 3 (server transfer) run serially per \
         hot pod inside balance_pods; the clone targets a server chosen \
         before any membership change this rung",
    ),
    guard(
        GlobalAction::Deployment,
        GlobalAction::ElephantRelief,
        GuardKind::EpochOrder,
        "avoid_elephants runs after balance_pods; servers moved out of an \
         elephant pod carry their VMs (and thus in-flight clones) along, \
         and RIP binding resolves the VM's location at apply time",
    ),
    guard(
        GlobalAction::Deployment,
        GlobalAction::Reweight,
        GuardKind::SerializedQueue,
        "NewRip (Normal) is applied after SetWeight (High) by the queue; \
         a RIP bound this epoch starts at weight 1.0 and is water-filled \
         from the next epoch's serving entries",
    ),
    guard(
        GlobalAction::Deployment,
        GlobalAction::MisroutingEscape,
        GuardKind::SerializedQueue,
        "same ordering as Deployment x Reweight: the escape's SetWeight \
         requests precede NewRip in queue priority, so both address the \
         pre-deployment RIP set consistently",
    ),
    // ---- epoch-phase reads vs queued writes ----------------------------
    // A queued write only lands at process_all, after every epoch phase
    // has finished reading; the read therefore sees a consistent
    // pre-epoch snapshot and the write a fully-decided batch.
    guard(
        GlobalAction::VipTransfer,
        GlobalAction::Deployment,
        GuardKind::EpochOrder,
        "vip_transfer reads the RIP set during the epoch; a deployment's \
         NewRip lands at process_all afterwards, so the drain decision is \
         made against the stable pre-epoch RIP set",
    ),
    guard(
        GlobalAction::QueueRetire,
        GlobalAction::ServerTransfer,
        GuardKind::EpochOrder,
        "balance_pods reads the VM fleet during the epoch; the retire's \
         queued VM removal lands at process_all afterwards, and a VM that \
         moved in between is retired at its new location by id",
    ),
    guard(
        GlobalAction::QueueRetire,
        GlobalAction::ElephantRelief,
        GuardKind::EpochOrder,
        "avoid_elephants reads the VM fleet during the epoch; the retire's \
         queued VM removal lands at process_all afterwards, so the \
         elephant scan never observes a half-removed VM",
    ),
    guard(
        GlobalAction::Deployment,
        GlobalAction::ExposureRefresh,
        GuardKind::EpochOrder,
        "exposure refresh reads the RIP set during the epoch; a \
         deployment's NewRip lands at process_all afterwards and is \
         exposed by the next epoch's refresh",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_action_has_a_footprint() {
        for a in ALL_ACTIONS {
            let fp = a.footprint();
            assert!(
                !fp.reads.is_empty()
                    || !fp.direct_writes.is_empty()
                    || !fp.queued_writes.is_empty(),
                "{} has an empty footprint",
                a.name()
            );
        }
    }

    #[test]
    fn queue_retire_masks_before_queueing() {
        // The PR 2 invariant, as a declaration: QueueRetire's RIP-set
        // write is queued, and the mask it maintains is a direct write.
        let fp = GlobalAction::QueueRetire.footprint();
        assert!(fp.queued_writes.contains(&Resource::RipSet));
        assert!(fp.direct_writes.contains(&Resource::PendingRetires));
    }

    #[test]
    fn action_names_roundtrip() {
        for a in ALL_ACTIONS {
            assert_eq!(GlobalAction::parse(a.name()), Some(a));
        }
        assert_eq!(GlobalAction::parse("NotAnAction"), None);
    }

    #[test]
    fn resource_keys_are_unique_idents() {
        use std::collections::BTreeSet;
        let all = [
            Resource::DnsExposure,
            Resource::DnsRecords,
            Resource::RipWeights,
            Resource::RipSet,
            Resource::SwitchVipTable,
            Resource::PodMembership,
            Resource::VmFleet,
            Resource::PendingRetires,
        ];
        let keys: BTreeSet<&str> = all.iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), all.len());
        for k in keys {
            assert!(k.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
